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
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .censoring import inject_censoring
from .curves import km_fit
from .dataset import TrialDataset, parse_dataset, split_by_arm
from .km_tests import milestone_test, rmst_test
from .logrank import WeightSpec, score_chain
from .permutation import EXACT_HALF_SUMS_LIMIT, exact_perm_p, mc_perm_p
from .pseudo import EstimandSpec
from .svgplot import PlotPanel, render_svg

BACKEND_FLAGS = {"km": "km", "exp": "exponential", "pwexp": "piecewise"}


def _jsonable(x):
    x = float(x)
    return float(f"{x:.6g}") if math.isfinite(x) else None


def _load(args) -> TrialDataset:
    return parse_dataset(Path(args.input).read_text(encoding="utf-8-sig"))


def _emit(text: str, args) -> None:
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _tabulate(columns: dict, fmt: str) -> str:
    """Named columns of equal length -> CSV or a JSON list of rows.

    Floats get 6 significant digits; None is an empty CSV cell or a JSON null.
    """
    if fmt == "json":
        cells = [[_jsonable(v) if isinstance(v, float) else v for v in c] for c in columns.values()]
        return json.dumps([dict(zip(columns, row)) for row in zip(*cells)], indent=2) + "\n"
    cells = [
        ["" if v is None else f"{v:.6g}" if isinstance(v, float) else v for v in c]
        for c in columns.values()
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*cells))
    return buffer.getvalue()


def _subject_columns(ds: TrialDataset, repeat: int = 1) -> dict:
    """The time, arm and event columns of ``ds``, ``repeat`` times over."""
    return {"time": ds.times * repeat, "arm": ds.arms * repeat, "event": ds.events * repeat}


def _parse_breakpoints(text: str) -> tuple[float, ...]:
    try:
        cuts = tuple(float(part) for part in text.replace(":", ",").split(",") if part)
    except ValueError:
        raise ValueError(f"bad breakpoints {text!r}: expected comma-separated numbers") from None
    return cuts


FIT_KEYS = ("backend", "breakpoints", "pooling")
METHOD_KEYS = {  # method name -> the options its spec reads
    "logrank": (),
    "fh": ("rho", "gamma"),
    "mw": ("sstar",),
    "rmst": ("tau", *FIT_KEYS),
    "milestone": ("kappa", *FIT_KEYS),
    "wmst": ("tau1", "tau2", *FIT_KEYS),
    "ahsw": ("tau", "log", *FIT_KEYS),
}
KM_TEST_KEYS = {"rmst": ("tau",), "milestone": ("kappa",)}  # the closed-form KM tests fit nothing
NUMBER_KEYS = ("rho", "gamma", "sstar", "tau", "kappa", "tau1", "tau2")


def _method_spec(name: str, options: dict, spell=str, where: str = "", reads=None):
    """The weight or estimand spec of method ``name``; the one spec builder.

    ``options`` holds only the keys the user gave: numbers for rho, gamma,
    sstar, tau, kappa, tau1 and tau2, a backend flag (km|exp|pwexp), a
    breakpoint list as text, a pooling and a log-scale bool.  Absent ones
    take the defaults below; mw's sstar has none.  A key outside ``reads``
    (default: every key of ``METHOD_KEYS[name]``), or a missing sstar, is
    refused: the message starts with ``where`` and names each key as
    ``spell`` writes it.
    """
    reads = METHOD_KEYS[name] if reads is None else reads
    unread = sorted(spell(key) for key in options if key not in reads)
    if unread:
        raise ValueError(f"{where}unknown keys for {name}: {', '.join(unread)}")
    if name == "mw" and "sstar" not in options:
        raise ValueError(f"{where}mw requires {spell('sstar')}")
    options = {"rho": 0.0, "gamma": 0.0, "backend": "km", "breakpoints": "2,4,6,8",
               "pooling": "arm", "log": True, **options}
    if name == "logrank":
        return WeightSpec.logrank()
    if name == "fh":
        return WeightSpec.fleming_harrington(options["rho"], options["gamma"])
    if name == "mw":
        return WeightSpec.modest(options["sstar"])
    return EstimandSpec(
        kind=name,
        tau=options.get("tau"),
        kappa=options.get("kappa"),
        tau1=options.get("tau1"),
        tau2=options.get("tau2"),
        log_scale=options["log"],
        backend=BACKEND_FLAGS[options["backend"]],
        breakpoints=_parse_breakpoints(options["breakpoints"]),
        pooling=options["pooling"],
    )


def _flag_spec(name: str, args, reads=None):
    """The spec of method ``name`` from the method flags given on the command line."""
    known = {key for keys in METHOD_KEYS.values() for key in keys}
    options = {k: v for k, v in vars(args).items() if k in known and v is not None}
    if "log" in options:
        options["log"] = options["log"] == "log"
    return _method_spec(name, options, lambda key: "--ahsw-scale" if key == "log" else f"--{key}",
                        reads=reads)


def parse_method_spec(text: str):
    """Parse 'name:key=value,...' into a weight or estimand spec.

    Score methods: logrank | fh:rho=..,gamma=.. | mw:sstar=..
    Pseudo methods: rmst:tau=.. | milestone:kappa=.. | wmst:tau1=..,tau2=..
    | ahsw:tau=..[,log=on|off], each optionally with backend=km|exp|pwexp,
    breakpoints=2:4:6:8, pooling=arm|pooled.
    """
    name, _, rest = text.partition(":")
    name = name.strip()
    if name not in METHOD_KEYS:
        raise ValueError(f"bad method spec {text!r}: unknown method {name!r}")
    options = {}
    for pair in rest.split(",") if rest else ():
        key, sep, value = (part.strip() for part in pair.partition("="))
        if not sep:
            raise ValueError(f"bad method spec {text!r}: expected key=value, got {pair!r}")
        if key == "backend" and value not in BACKEND_FLAGS:
            raise ValueError(f"bad method spec {text!r}: backend must be km, exp or pwexp")
        if key == "log":
            if value not in ("on", "off"):
                raise ValueError(f"bad method spec {text!r}: log must be on or off")
            value = value == "on"
        elif key in NUMBER_KEYS:
            try:
                value = float(value)
            except ValueError:
                raise ValueError(f"bad method spec {text!r}: {key} must be a number") from None
        options[key] = value
    return _method_spec(name, options, where=f"bad method spec {text!r}: ")


def cmd_km(args) -> int:
    ds = _load(args)
    groups = [("pooled", ds)] if args.pooled else zip((0, 1), split_by_arm(ds))
    times, survival, labels = [], [], []
    for label, sub in groups:
        curve = km_fit(sub)
        times += (0.0, *curve.jump_times)
        survival += (1.0, *curve.values)
        labels += [label] * (1 + len(curve.values))
    _emit(_tabulate({"time": times, "survival": survival, "arm": labels}, args.format), args)
    return 0


def cmd_scores(args) -> int:
    spec = _flag_spec(args.test, args)
    ds = _load(args)
    rt, pooled, scores = score_chain(ds, spec)
    order = sorted(range(ds.n), key=ds.times.__getitem__)
    columns = {key: [column[k] for k in order] for key, column in _subject_columns(ds).items()}
    times = columns["time"]
    # the number of event times <= t, which is >= 1 for an event, indexes its weight
    intervals = map(rt.interval_index, times)
    columns.update(
        survival=[pooled.left(t) for t in times],
        weight=[scores.weights[j - 1] if j >= 1 else None for j in intervals],
        score=[scores.raw[k] for k in order],
        scaled_score=[scores.scaled[k] for k in order],
    )
    _emit(_tabulate(columns, args.format), args)
    return 0


def cmd_pseudo(args) -> int:
    spec = _flag_spec(args.estimand, args)
    ds = _load(args)
    ps = spec.per_subject(ds)
    columns = _subject_columns(ds)
    columns.update(loo_estimate=ps.loo, pseudo=ps.values, scaled_pseudo=ps.scaled)
    _emit(_tabulate(columns, args.format), args)
    return 0


def cmd_test(args) -> int:
    if (args.method == "pseudo") != (args.estimand is not None):
        raise ValueError("--estimand is required with --method pseudo and refused without it")
    mc_only = [f"--{key}" for key in ("replicates", "seed") if getattr(args, key) is not None]
    if mc_only and args.perm != "mc":
        raise ValueError(f"{', '.join(mc_only)}: read only with --perm mc")
    spec = _flag_spec(args.estimand or args.method, args, KM_TEST_KEYS.get(args.method))
    ds = _load(args)
    # rmst and milestone are the closed-form KM tests; an EstimandSpec tests by pseudo-values
    if args.method == "rmst":
        result = rmst_test(ds, spec.tau)
    elif args.method == "milestone":
        result = milestone_test(ds, spec.kappa)
    else:
        result = spec.test(ds)
    if args.flip_direction:
        result = replace(result, benefit="upper" if result.benefit == "lower" else "lower")

    payload = {
        "method": result.method,
        "statistic": _jsonable(result.statistic),
        "variance": _jsonable(result.variance),
        "z": _jsonable(result.z),
        "p_one_sided": _jsonable(result.p_one_sided),
        "warnings": list(result.warnings),
    }
    if args.perm:
        if result.per_subject is None:
            raise ValueError(
                "permutation inference needs per-subject values; "
                "use a score method or --method pseudo"
            )
        values = result.per_subject.values
        if args.perm == "exact":
            p = exact_perm_p(values, ds.arms, result.benefit)
            payload["permutation"] = {
                "mode": "exact",
                "direction": result.benefit,
                "assignments": math.comb(ds.n, ds.n_arm1),
                "p": _jsonable(p),
            }
        else:
            replicates = 10_000 if args.replicates is None else args.replicates
            mc = mc_perm_p(values, ds.arms, replicates, args.seed or 0, result.benefit)
            payload["permutation"] = {
                "mode": "monte_carlo",
                "direction": result.benefit,
                "replicates": mc.replicates,
                "seed": mc.seed,
                "p": _jsonable(mc.p),
                "std_error": _jsonable(mc.std_error),
            }
    _emit(json.dumps(payload, indent=2) + "\n", args)
    return 0


def cmd_censor(args) -> int:
    censored = inject_censoring(_load(args), args.max, args.seed)
    _emit(_tabulate(_subject_columns(censored), "csv"), args)
    return 0


def cmd_panels(args) -> int:
    """plot (one --spec) or compare (several): an SVG plus a CSV of its points, panel by panel."""
    compare = args.command == "compare"
    specs = args.spec if compare else [args.spec]
    if compare and len(specs) < 2:
        raise ValueError("compare needs at least two --spec methods")
    ds = _load(args)
    panels = []
    for text in specs:
        spec = parse_method_spec(text)
        scaled = spec.per_subject(ds).scaled
        panels.append(PlotPanel.from_values(spec.describe(), ds.times, scaled, ds.arms, ds.events))
    out = Path(args.output)
    out.write_text(render_svg(panels, columns=args.columns), encoding="utf-8")
    columns = {"method": [panel.title for panel in panels for _ in panel.times]} if compare else {}
    columns.update(_subject_columns(ds, repeat=len(panels)))
    columns["scaled_value"] = [v for panel in panels for v in panel.values]
    out.with_suffix(".csv").write_text(_tabulate(columns, "csv"), encoding="utf-8")
    return 0


def _add_weight_flags(parser, with_selector: bool):
    if with_selector:
        parser.add_argument("--test", choices=["logrank", "fh", "mw"], default="logrank",
                            help="weight function (default: logrank)")
    parser.add_argument("--rho", type=float, help="Fleming-Harrington rho (default: 0)")
    parser.add_argument("--gamma", type=float, help="Fleming-Harrington gamma (default: 0)")
    parser.add_argument("--sstar", type=float, help="floor s* in (0,1] for the modest (mw) test")


def _add_estimand_flags(parser, required: bool):
    parser.add_argument("--estimand", choices=["rmst", "milestone", "wmst", "ahsw"],
                        required=required)
    parser.add_argument("--tau", type=float, help="horizon for rmst/ahsw")
    parser.add_argument("--kappa", type=float, help="milestone time")
    parser.add_argument("--tau1", type=float, help="wmst window start")
    parser.add_argument("--tau2", type=float, help="wmst window end")
    parser.add_argument("--backend", choices=sorted(BACKEND_FLAGS), help="curve fit (default: km)")
    parser.add_argument("--breakpoints",
                        help="piecewise-exponential breakpoints (default: 2,4,6,8)")
    parser.add_argument("--pooling", choices=["arm", "pooled"],
                        help="fit per arm (default) or on the pooled sample")
    parser.add_argument("--ahsw-scale", choices=["log", "ratio"], dest="log",
                        help="compare ahsw on the log scale (default) or as a ratio")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="input CSV (time,arm,event)")
    common.add_argument("--output", default=None, help="output path (default: stdout)")
    tabular = argparse.ArgumentParser(add_help=False)
    tabular.add_argument("--format", choices=["csv", "json"], default="csv")

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
    _add_weight_flags(p, with_selector=True)
    p.set_defaults(func=cmd_scores)

    p = sub.add_parser("pseudo", parents=[common, tabular],
                       help="jackknife pseudo-values per subject")
    _add_estimand_flags(p, required=True)
    p.set_defaults(func=cmd_pseudo)

    p = sub.add_parser("test", parents=[common], help="run a test, result as JSON")
    p.add_argument("--method", choices=["rmst", "milestone", "logrank", "fh", "mw", "pseudo"],
                   required=True)
    _add_weight_flags(p, with_selector=False)
    _add_estimand_flags(p, required=False)
    p.add_argument("--perm", choices=["exact", "mc"], default=None,
                   help=f"add a permutation p-value (exact up to {EXACT_HALF_SUMS_LIMIT} "
                        "half-subset sums: balanced arms up to n = 40)")
    p.add_argument("--replicates", type=int, help="Monte-Carlo replicates (default: 10000)")
    p.add_argument("--seed", type=int, help="Monte-Carlo seed (default: 0)")
    p.add_argument("--flip-direction", action="store_true",
                   help="test the opposite one-sided alternative")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("censor", parents=[common], help="inject uniform censoring")
    p.add_argument("--max", type=float, default=26.0,
                   help="upper bound of the Uniform(0, max) censoring draw (default: 26)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_censor)

    p = sub.add_parser("plot", parents=[common], help="one method panel as SVG + CSV")
    p.add_argument("--spec", required=True, help="method spec, e.g. 'mw:sstar=0.5'")
    p.set_defaults(func=cmd_panels, columns=1)

    p = sub.add_parser("compare", parents=[common],
                       help="aligned panels for several methods as SVG + CSV")
    p.add_argument("--spec", action="append", required=True,
                   help="method spec; repeat for each panel")
    p.add_argument("--columns", type=int, default=3, help="panels per row (default: 3)")
    p.set_defaults(func=cmd_panels)
    return parser


_parser = functools.cache(build_parser)  # one per process: each build is a cyclic graph


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command in ("plot", "compare") and not args.output:
        print("error: plot and compare require --output", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
