"""Command-line workbench: estimation, scoring, testing, censoring, plots.

Subcommands: km, scores, pseudo, test, censor, plot, compare.  Output goes
to stdout unless --output is given: km, scores and pseudo print CSV (or
JSON with --format json), test prints JSON and censor CSV; plot and compare
write an SVG plus a sibling CSV of the plotted coordinates.  Numbers are
printed with 6 significant digits.
"""

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import re
import sys
from dataclasses import replace

from .censoring import inject_censoring
from .curves import StepSurvival, km_fit
from .dataset import TrialDataset, check_arm_sizes, parse_dataset, split_by_arm
from .km_tests import milestone_test, rmst_test
from .logrank import WeightSpec, score_chain, standardize
from .permutation import EXACT_HALF_SUMS_LIMIT, exact_perm_p, mc_perm_p
from .pseudo import EstimandSpec, pseudo_values, standardize_pseudo
from .svgplot import PlotPanel, render_svg

def _jsonable(x):
    x = float(x)
    return float(f"{x:.6g}") if math.isfinite(x) else None


def _load(args) -> TrialDataset:
    with open(args.input, encoding="utf-8-sig") as f:
        return parse_dataset(f.read())


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _tabulate(columns: dict, fmt: str) -> str:
    """Named columns of equal length -> CSV or a JSON list of rows.

    Floats get 6 significant digits; None is an empty CSV cell or a JSON null.
    CSV rows are written through one ``%`` row template, applied once to the
    template repeated per row: a column of floats gets a ``%.6g`` slot, a
    column of ints a ``%s`` slot, and any other column is turned into the text
    ``csv.writer`` would write, cell by cell, and gets a ``%s`` slot.
    """
    if fmt == "json":
        cells = [[_jsonable(v) if isinstance(v, float) else v for v in c] for c in columns.values()]
        return json.dumps([dict(zip(columns, row)) for row in zip(*cells)], indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    header = buffer.getvalue()
    quoted = {}  # keyed by str only: 0, 0.0 and False hash equal but are written differently

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return f"{v:.6g}"
        if not isinstance(v, str):
            return str(v)
        if v not in quoted:
            # csv keeps its own quoting rule (Python 3.11 leaves a bare \r unquoted), so
            # ask it, beside a second field: one empty field alone is written as ""
            buffer.seek(0)
            buffer.truncate()
            writer.writerow((v, ""))
            quoted[v] = buffer.getvalue()[:-2]
        return quoted[v]

    slots, cells = [], []
    for column in columns.values():
        types = set(map(type, column))
        if types == {float}:
            slots.append("%.6g")
            cells.append(column)
        elif types <= {int, bool}:  # %s writes str(v), as csv.writer does
            slots.append("%s")
            cells.append(column)
        else:
            slots.append("%s")
            text = list(map(cell, column))
            # a row of one empty field is written as "", like csv.writer writes it
            cells.append([t or '""' for t in text] if len(columns) == 1 else text)
    template = ",".join(slots) + "\n"
    rows = len(cells[0]) if cells else 0  # one % for all rows builds no string per row
    return header + (template * rows) % tuple(itertools.chain.from_iterable(zip(*cells)))


def _subject_columns(ds: TrialDataset, repeat: int = 1) -> dict:
    """The time, arm and event columns of ``ds``, ``repeat`` times over."""
    return {"time": ds.times * repeat, "arm": ds.arms * repeat, "event": ds.events * repeat}


def _parse_breakpoints(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.replace(":", ",").split(",") if part)


OPTIONS = {  # spec key -> (flag, parser of its text: function or dict of choices, default, help)
    "rho": ("--rho", float, "0", "Fleming-Harrington rho"),
    "gamma": ("--gamma", float, "0", "Fleming-Harrington gamma"),
    "sstar": ("--sstar", float, None, "floor s* in (0,1] for the modest (mw) test"),
    "tau": ("--tau", float, None, "horizon for rmst/ahsw"),
    "kappa": ("--kappa", float, None, "milestone time"),
    "tau1": ("--tau1", float, None, "wmst window start"),
    "tau2": ("--tau2", float, None, "wmst window end"),
    "backend": ("--backend", {"km": "km", "exp": "exponential", "pwexp": "piecewise"}, "km",
                "curve fit"),
    "breakpoints": ("--breakpoints", _parse_breakpoints, "2,4,6,8",
                    "piecewise-exponential breakpoints"),
    "pooling": ("--pooling", {"arm": "arm", "pooled": "pooled"}, "arm",
                "fit per arm or on the pooled sample"),
    "log": ("--ahsw-scale", {"log": True, "ratio": False}, "log",
            "compare ahsw on the log scale or as a ratio"),
}
FIT_KEYS = ("backend", "breakpoints", "pooling")


# name -> (the OPTIONS keys its spec reads, its spec builder taking their values, the choice
# flags that list it, its closed-form test route: (spec, ds) -> result and the keys it reads).
# Other test --method words test a spec by scores or pseudo-values: pseudo, which names no spec,
# the --estimand spec.  Rows call the library by global name, so a wrapper bound there is called.
METHODS = {
    "rmst": (("tau", *FIT_KEYS), lambda **v: EstimandSpec("rmst", **v), ("method", "estimand"),
             (lambda s, ds: rmst_test(ds, s.tau), ("tau",))),
    "milestone": (("kappa", *FIT_KEYS), lambda **v: EstimandSpec("milestone", **v),
                  ("method", "estimand"), (lambda s, ds: milestone_test(ds, s.kappa), ("kappa",))),
    "wmst": (("tau1", "tau2", *FIT_KEYS), lambda **v: EstimandSpec("wmst", **v),
             ("estimand",), None),
    "ahsw": (("tau", "log", *FIT_KEYS), lambda log, **v: EstimandSpec("ahsw", log_scale=log, **v),
             ("estimand",), None),
    "logrank": ((), lambda: WeightSpec.logrank(), ("test", "method"), None),
    "fh": (("rho", "gamma"), lambda rho, gamma: WeightSpec.fleming_harrington(rho, gamma),
           ("test", "method"), None),
    "mw": (("sstar",), lambda sstar: WeightSpec.modest(sstar), ("test", "method"), None),
    "pseudo": ((), None, ("method",), None),
}


def _exact_perm(result, ds, args) -> dict:
    p = exact_perm_p(result.per_subject.values, ds.arms, result.benefit)
    return {"mode": "exact", "direction": result.benefit,
            "assignments": math.comb(ds.n, ds.n_arm1), "p": _jsonable(p)}


def _mc_perm(result, ds, args) -> dict:
    replicates = 10_000 if args.replicates is None else args.replicates
    mc = mc_perm_p(result.per_subject.values, ds.arms, replicates, args.seed or 0, result.benefit)
    return {"mode": "monte_carlo", "direction": result.benefit, "replicates": mc.replicates,
            "seed": mc.seed, "p": _jsonable(mc.p), "std_error": _jsonable(mc.std_error)}


PERM_MODES = {"exact": _exact_perm, "mc": _mc_perm}  # --perm word -> its JSON object
CHOICES = {  # dest -> (flag, parser of its text), for the flags that are not OPTIONS rows
    "format": ("--format", ("csv", "json")),
    **{dest: (f"--{dest}", tuple(name for name, (_, _, lists, _) in METHODS.items()
                                 if dest in lists)) for dest in ("test", "method", "estimand")},
    "perm": ("--perm", tuple(PERM_MODES)),
    "replicates": ("--replicates", int), "seed": ("--seed", int), "max": ("--max", float),
    "columns": ("--columns", int),
}


def _quoted(text: str) -> str:
    """``text`` quoted after a space, or nothing when a word of it (split at , : =) reads as
    NaN, which no message prints."""
    nan = any(word.strip().lower().lstrip("+-") == "nan" for word in re.split("[,:=]", text))
    return "" if nan else f" {text!r}"


def _read(flag: str, parse, text):
    """``text`` read by ``parse``: a function, or the words ``flag`` admits, which a dict maps
    to their values.  Every flag and spec value is read here, and refused in one way."""
    try:
        if callable(parse):
            return parse(text)
        if text in parse:
            return parse[text] if isinstance(parse, dict) else text
    except ValueError:
        pass
    expected = "" if callable(parse) else f": expected {', '.join(parse)}"
    raise ValueError(f"bad {flag}{_quoted(text)}{expected}")


def _method_spec(name: str, texts: dict, spell=str, reads=None):
    """The weight or estimand spec of method ``name``; the one spec builder.

    ``texts`` holds the text of each option the user gave, keyed as in
    ``OPTIONS``; an absent one takes its default text.  A key outside
    ``reads`` (default: all its ``METHODS`` row reads), a read key with
    neither text nor default, a text its parser refuses, breakpoints
    without pwexp or a spec its builder refuses is refused, naming each
    key as ``spell`` writes it.
    """
    keys, build, _, _ = METHODS[name]
    reads = keys if reads is None else reads
    unread = ", ".join(sorted(spell(key) for key in texts if key not in reads))
    if unread:
        raise ValueError(f"unknown keys for {name}" + (f": {unread}" if _quoted(unread) else ""))
    values = {}
    for key in reads:
        _, parse, default, _ = OPTIONS[key]
        text = texts.get(key, default)
        if text is None:
            raise ValueError(f"{name} requires {spell(key)}")
        values[key] = _read(spell(key), parse, text)
    if "breakpoints" in texts and values["backend"] != "piecewise":
        raise ValueError(f"{spell('breakpoints')}: read only with {spell('backend')} pwexp")
    return build(**values)


def _flag_spec(name: str, args, reads=None):
    """The spec of method ``name`` from the method flags given on the command line."""
    texts = {key: text for key, text in vars(args).items() if key in OPTIONS and text is not None}
    return _method_spec(name, texts, lambda key: OPTIONS[key][0], reads=reads)


def parse_method_spec(text: str):
    """Parse 'name:key=value,...' into a weight or estimand spec.

    Score methods: logrank | fh:rho=..,gamma=.. | mw:sstar=..
    Pseudo methods: rmst:tau=.. | milestone:kappa=.. | wmst:tau1=..,tau2=..
    | ahsw:tau=..[,log=on|off], each optionally with backend=km|exp|pwexp,
    breakpoints=2:4:6:8, pooling=arm|pooled.
    """
    name, _, rest = text.partition(":")
    name = name.strip()
    try:
        if METHODS.get(name, (None, None))[1] is None:  # pseudo names a test route, not a spec
            raise ValueError(f"unknown method{_quoted(name)}")
        texts = {}
        for pair in rest.split(",") if rest else ():
            key, sep, value = (part.strip() for part in pair.partition("="))
            if not sep:
                got = f", got{_quoted(pair)}" if _quoted(pair) else ""
                raise ValueError(f"expected key=value{got}")
            if key in texts:
                raise ValueError(f"{key} given twice" if _quoted(key) else "a key given twice")
            # log=on|off spells --ahsw-scale log|ratio, and no other word does
            texts[key] = _read(key, {"on": "log", "off": "ratio"}, value) if key == "log" else value
        return _method_spec(name, texts)
    except ValueError as exc:  # a spec with a NaN word goes by its method, or by nothing
        label = _quoted(text) or (f" {name}" if _quoted(name) else "")
        raise ValueError(f"bad method spec{label}: {exc}") from None


def cmd_km(args) -> int:
    ds = _load(args)
    if not args.pooled:
        check_arm_sizes(ds.n, ds.n_arm1)
    groups = [("pooled", ds)] if args.pooled else zip((0, 1), split_by_arm(ds))
    times, survival, labels = [], [], []
    for label, sub in groups:
        curve = km_fit(sub) if sub.n_events else StepSurvival((), (), sub.follow_up)  # flat at 1
        times += (0.0, *curve.jump_times)
        survival += (1.0, *curve.values)
        labels += [label] * (1 + len(curve.values))
    _emit(_tabulate({"time": times, "survival": survival, "arm": labels}, args.format),
          args.output)
    return 0


def cmd_scores(args) -> int:
    spec = _flag_spec(args.test, args)
    ds = _load(args)
    rt, pooled, scores = score_chain(ds, spec)
    scaled = standardize(scores)
    order = ds.time_order
    columns = {key: [column[k] for k in order] for key, column in _subject_columns(ds).items()}
    # the number j of event times <= t, which is >= 1 for an event, indexes its weight;
    # S(t-) is the curve after j - 1 jumps when t is the j-th event time, else after j
    levels, event_times = (1.0,) + pooled.values, rt.times
    interval = rt.intervals.__getitem__
    columns.update(
        survival=[levels[j - 1] if j and t == event_times[j - 1] else levels[j]
                  for t, j in zip(columns["time"], map(interval, order))],
        weight=[scores.weights[j - 1] if j >= 1 else None for j in map(interval, order)],
        score=[scores.values[k] for k in order],
        scaled_score=[scaled[k] for k in order],
    )
    _emit(_tabulate(columns, args.format), args.output)
    return 0


def cmd_pseudo(args) -> int:
    spec = _flag_spec(args.estimand, args)
    ds = _load(args)
    ps = pseudo_values(ds, spec)
    columns = _subject_columns(ds)
    columns.update(loo_estimate=ps.loo, pseudo=ps.values, scaled_pseudo=standardize_pseudo(ps))
    _emit(_tabulate(columns, args.format), args.output)
    return 0


def cmd_test(args) -> int:
    _, build, _, route = METHODS[args.method]
    closed_form, reads = route or (None, None)
    if (build is None) != (args.estimand is not None):
        raise ValueError("--estimand is required with --method pseudo and refused without it")
    mc_only = [f"--{key}" for key in ("replicates", "seed") if getattr(args, key) is not None]
    if mc_only and args.perm != "mc":
        raise ValueError(f"{', '.join(mc_only)}: read only with --perm mc")
    spec = _flag_spec(args.estimand or args.method, args, reads)
    ds = _load(args)
    result = closed_form(spec, ds) if closed_form else spec.test(ds)
    if args.flip_direction:
        result = replace(result, benefit="upper" if result.benefit == "lower" else "lower")

    payload = {"method": result.method, "statistic": _jsonable(result.statistic),
               "variance": _jsonable(result.variance), "z": _jsonable(result.z),
               "p_one_sided": _jsonable(result.p_one_sided), "warnings": list(result.warnings)}
    if args.perm:
        if result.per_subject is None:
            raise ValueError("permutation inference needs per-subject values; "
                             "use a score method or --method pseudo")
        payload["permutation"] = PERM_MODES[args.perm](result, ds, args)
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def cmd_censor(args) -> int:
    censored = inject_censoring(_load(args), args.max, args.seed)
    _emit(_tabulate(_subject_columns(censored), "csv"), args.output)
    return 0


def cmd_panels(args) -> int:
    """plot (one --spec) or compare (several): an SVG plus a CSV of its points, panel by panel."""
    if not args.output:
        raise ValueError("plot and compare require --output")
    compare = args.command == "compare"
    texts = args.spec if compare else [args.spec]
    if compare and len(texts) < 2:
        raise ValueError("compare needs at least two --spec methods")
    specs = [parse_method_spec(text) for text in texts]  # all, before the data are read
    ds = _load(args)
    panels = []
    for text, spec in zip(texts, specs):
        try:
            check_arm_sizes(ds.n, ds.n_arm1)  # a panel compares the arms: refused before its fit
            panel = PlotPanel.from_values(spec.describe(), ds.times, spec.scaled(ds), ds.arms,
                                          ds.events)
        except ValueError as exc:
            raise ValueError(f"panel {text!r}: {exc}") from None
        panels.append(panel)
    _emit(render_svg(panels, columns=args.columns), args.output)
    columns = {"method": [panel.title for panel in panels for _ in panel.times]} if compare else {}
    columns.update(_subject_columns(ds, repeat=len(panels)))
    columns["scaled_value"] = [v for panel in panels for v in panel.values]
    _emit(_tabulate(columns, "csv"), os.path.splitext(args.output)[0] + ".csv")
    return 0


def _add_flag(parser, dest: str, **kwargs) -> None:
    """The flag of the ``CHOICES`` or ``OPTIONS`` row ``dest``.  Its text is read by _read, not
    by argparse, so a bad one is one error line; a word flag lists its words as its metavar."""
    flag, parse = CHOICES[dest] if dest in CHOICES else OPTIONS[dest][:2]
    metavar = None if callable(parse) else "{" + ",".join(parse) + "}"
    parser.add_argument(flag, dest=dest, metavar=metavar, **kwargs)


def _add_method_flags(parser, *dests) -> None:
    """In ``OPTIONS`` order, a flag per key read by a method that a ``dests`` flag lists."""
    read = {key for keys, _, lists, _ in METHODS.values() if set(lists) & set(dests)
            for key in keys}
    for key, (_, _, default, text) in OPTIONS.items():
        if key in read:
            _add_flag(parser, key, help=text if default is None else f"{text} (default: {default})")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="input CSV (time,arm,event)")
    common.add_argument("--output", default=None, help="output path (default: stdout)")
    tabular = argparse.ArgumentParser(add_help=False)
    _add_flag(tabular, "format", default="csv")

    parser = argparse.ArgumentParser(
        prog="survscore",
        description="Per-subject scores and pseudo-values for two-arm survival tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("km", parents=[common, tabular], help="Kaplan-Meier curves as CSV")
    p.add_argument("--pooled", action="store_true", help="pool both arms into one curve")
    p.set_defaults(func=cmd_km)

    p = sub.add_parser("scores", parents=[common, tabular],
                       help="weighted log-rank scores per subject")
    _add_flag(p, "test", default="logrank", help="weight function (default: logrank)")
    _add_method_flags(p, "test")
    p.set_defaults(func=cmd_scores)

    p = sub.add_parser("pseudo", parents=[common, tabular],
                       help="jackknife pseudo-values per subject")
    _add_flag(p, "estimand", required=True)
    _add_method_flags(p, "estimand")
    p.set_defaults(func=cmd_pseudo)

    p = sub.add_parser("test", parents=[common], help="run a test, result as JSON")
    _add_flag(p, "method", required=True)
    _add_flag(p, "estimand")
    _add_method_flags(p, "method", "estimand")
    _add_flag(p, "perm", help=f"add a permutation p-value (exact up to {EXACT_HALF_SUMS_LIMIT} "
                               "half-subset sums: balanced arms up to n = 40)")
    _add_flag(p, "replicates", help="Monte-Carlo replicates (default: 10000)")
    _add_flag(p, "seed", help="Monte-Carlo seed (default: 0)")
    p.add_argument("--flip-direction", action="store_true",
                   help="test the opposite one-sided alternative")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("censor", parents=[common], help="inject uniform censoring")
    _add_flag(p, "max", default=26.0,
              help="upper bound of the Uniform(0, max) censoring draw (default: 26)")
    _add_flag(p, "seed", default=0)
    p.set_defaults(func=cmd_censor)

    p = sub.add_parser("plot", parents=[common], help="one method panel as SVG + CSV")
    p.add_argument("--spec", required=True, help="method spec, e.g. 'mw:sstar=0.5'")
    p.set_defaults(func=cmd_panels, columns=1)

    p = sub.add_parser("compare", parents=[common],
                       help="aligned panels for several methods as SVG + CSV")
    p.add_argument("--spec", action="append", required=True,
                   help="method spec; repeat for each panel")
    _add_flag(p, "columns", default=3, help="panels per row (default: 3)")
    p.set_defaults(func=cmd_panels)
    return parser


_parser = functools.cache(build_parser)  # one per process: each build is a cyclic graph


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    values = vars(args)
    try:
        for dest, (flag, parse) in CHOICES.items():
            if values.get(dest) is not None:
                values[dest] = _read(flag, parse, values[dest])
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
