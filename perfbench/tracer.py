"""Spans recorded from outside the program, by wrapping its public functions.

``Tracer.install`` replaces every binding of each traced function -- in
the defining module, in every survscore module that imported it by name,
in the package's re-exports and in the experiment scripts -- with a wrapper
that appends a span (name, start, end, parent, op, count) to an in-memory
list.  Methods are patched on their classes.  ``uninstall`` puts every
original back.  Self time is a span's duration minus its direct children's.
"""

import functools
import json
import math
import sys
from collections import defaultdict
from statistics import median
from time import perf_counter_ns

from workloads import SCRIPT_MODULES

FUNCTIONS = {  # span name -> (defining module, function)
    "cli.main": ("survscore.cli", "main"),
    "dataset.parse_dataset": ("survscore.dataset", "parse_dataset"),
    "dataset.build_risk_table": ("survscore.dataset", "build_risk_table"),
    "curves.km_fit": ("survscore.curves", "km_fit"),
    "curves.fit_exponential": ("survscore.curves", "fit_exponential"),
    "curves.fit_piecewise_exponential": ("survscore.curves", "fit_piecewise_exponential"),
    "curves.rmst": ("survscore.curves", "rmst"),
    "logrank.compute_weights": ("survscore.logrank", "compute_weights"),
    "logrank.compute_scores": ("survscore.logrank", "compute_scores"),
    "logrank.u_and_v": ("survscore.logrank", "u_and_v"),
    "logrank.standardize": ("survscore.logrank", "standardize"),
    "logrank.wlrt_test": ("survscore.logrank", "wlrt_test"),
    "km_tests.rmst_test": ("survscore.km_tests", "rmst_test"),
    "km_tests.milestone_test": ("survscore.km_tests", "milestone_test"),
    "pseudo.pseudo_values": ("survscore.pseudo", "pseudo_values"),
    "pseudo.standardize_pseudo": ("survscore.pseudo", "standardize_pseudo"),
    "pseudo.pseudo_test": ("survscore.pseudo", "pseudo_test"),
    "permutation.exact_perm_p": ("survscore.permutation", "exact_perm_p"),
    "permutation.mc_perm_p": ("survscore.permutation", "mc_perm_p"),
    "svgplot.render_svg": ("survscore.svgplot", "render_svg"),
    "censoring.inject_censoring": ("survscore.censoring", "inject_censoring"),
}
METHODS = {  # span name -> (defining module, class, method)
    "dataset.without": ("survscore.dataset", "TrialDataset", "without"),
    "rng.choose": ("survscore.rng", "SplitMix64", "choose"),
    "svgplot.from_values": ("survscore.svgplot", "PlotPanel", "from_values"),
}
FITS = ("curves.km_fit", "curves.fit_exponential", "curves.fit_piecewise_exponential")


def _n_values(args, kwargs, result):
    return len(result.values)


def _assignments(args, kwargs, result):
    values, arms = args[0], args[1]
    return math.comb(len(values), sum(1 for a in arms if a == 1))


def _replicates(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["replicates"]


def _length(args, kwargs, result):
    return len(result.encode())


COUNTS = {  # span name -> count attached to the span from the call
    "pseudo.pseudo_values": _n_values,
    "permutation.exact_perm_p": _assignments,
    "permutation.mc_perm_p": _replicates,
    "svgplot.render_svg": _length,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op, count]
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def install(self, op) -> None:
        """Wrap every binding of the traced functions; spans get ``op`` as op id."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.op = op
        modules = [m for name, m in list(sys.modules.items())
                   if name == "survscore" or name.startswith("survscore.")
                   or name in SCRIPT_MODULES]
        for span_name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapped = self._wrap(span_name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapped)
        for span_name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(span_name, original.__func__))
            else:
                wrapped = self._wrap(span_name, original)
            self._patched.append((cls, attr, original))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.op = None

    def write(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "count")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class OpProfile:
    """One op's spans, with durations and self times in seconds.

    ``parent`` in each span is an index into the same list.
    """

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.duration = [(s[2] - s[1]) / 1e9 for s in spans]
        children = [0.0] * len(spans)
        for s, d in zip(spans, self.duration):
            if s[3] >= 0:
                children[s[3]] += d
        self.self_time = [d - c for d, c in zip(self.duration, children)]

    def _ancestors(self, i):
        p = self.spans[i][3]
        while p >= 0:
            yield self.spans[p][0]
            p = self.spans[p][3]

    def calls(self, *names) -> int:
        return sum(1 for s in self.spans if s[0] in names)

    def inclusive(self, *names) -> float:
        return sum(d for s, d in zip(self.spans, self.duration) if s[0] in names)

    def count(self, name) -> int:
        return sum(s[5] for s in self.spans if s[0] == name)

    def self_s(self, layer) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time) if _layer(s[0]) == layer)

    def outer_time(self, layers) -> float:
        """Time inside any of ``layers``, counting nested spans once."""
        return sum(
            d for i, (s, d) in enumerate(zip(self.spans, self.duration))
            if _layer(s[0]) in layers
            and not any(_layer(a) in layers for a in self._ancestors(i))
        )

    def calls_within(self, names, ancestor) -> int:
        return sum(1 for i, s in enumerate(self.spans)
                   if s[0] in names and ancestor in self._ancestors(i))


def layer_metrics(p: OpProfile) -> dict[str, float]:
    """The per-layer metrics of one op."""
    values = p.count("pseudo.pseudo_values")
    return {
        "pseudo.values_calls": p.calls("pseudo.pseudo_values"),
        "pseudo.values_s": p.inclusive("pseudo.pseudo_values"),
        "pseudo.self_s": p.self_s("pseudo"),
        "pseudo.fits_per_value": p.calls_within(FITS, "pseudo.pseudo_values") / values
        if values else 0.0,
        "dataset.loo_copies": p.calls("dataset.without"),
        "curves.fit_calls": p.calls(*FITS),
        "curves.fit_s": p.inclusive(*FITS),
        "curves.rmst_calls": p.calls("curves.rmst"),
        "logrank.scores_calls": p.calls("logrank.compute_scores"),
        "logrank.scores_s": p.inclusive("logrank.compute_scores"),
        "logrank.test_s": p.inclusive("logrank.wlrt_test"),
        "logrank.self_s": p.self_s("logrank"),
        "dataset.parse_calls": p.calls("dataset.parse_dataset"),
        "dataset.parse_s": p.inclusive("dataset.parse_dataset"),
        "dataset.risk_table_calls": p.calls("dataset.build_risk_table"),
        "dataset.risk_table_s": p.inclusive("dataset.build_risk_table"),
        "km_tests.calls": p.calls("km_tests.rmst_test", "km_tests.milestone_test"),
        "km_tests.s": p.outer_time(("km_tests",)),
        "cli.calls": p.calls("cli.main"),
        "cli.self_s": p.self_s("cli"),
        "permutation.exact_calls": p.calls("permutation.exact_perm_p"),
        "permutation.exact_s": p.inclusive("permutation.exact_perm_p"),
        "permutation.assignments": p.count("permutation.exact_perm_p"),
        "permutation.mc_calls": p.calls("permutation.mc_perm_p"),
        "permutation.mc_s": p.inclusive("permutation.mc_perm_p"),
        "permutation.replicates": p.count("permutation.mc_perm_p"),
        "permutation.self_s": p.self_s("permutation"),
        "rng.choose_calls": p.calls("rng.choose"),
        "rng.choose_s": p.inclusive("rng.choose"),
        "svgplot.panel_s": p.inclusive("svgplot.from_values"),
        "svgplot.render_calls": p.calls("svgplot.render_svg"),
        "svgplot.render_s": p.inclusive("svgplot.render_svg"),
        "svgplot.bytes": p.count("svgplot.render_svg"),
        "censoring.calls": p.calls("censoring.inject_censoring"),
        "censoring.s": p.inclusive("censoring.inject_censoring"),
    }


def spans_by_op(spans: list[list]) -> dict:
    """Split the tracer's spans per op, re-indexing parents within each op."""
    grouped: dict = defaultdict(list)
    position = {}
    for i, s in enumerate(spans):
        group = grouped[s[4]]
        position[i] = len(group)
        group.append([s[0], s[1], s[2], position[s[3]] if s[3] >= 0 else -1, s[4], s[5]])
    return grouped


def median_metrics(per_op: list[dict]) -> dict[str, float]:
    return {name: median(m[name] for m in per_op) for name in per_op[0]}
