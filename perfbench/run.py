#!/usr/bin/env python3
"""survscore benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload grid-n300 --seed 1 --seconds 20 --trace 0

One process, one thread, one op in flight: the next op starts only after
the previous one returned and was checked.  Each op runs on a freshly
simulated trial (simulation and checking are not timed).  One untimed
warm-up op comes first.  The loop runs for ``--seconds`` and for at least
MIN_OPS ops, so that the tail percentile below always has 10 slower ops.

Each op is bracketed by its workload's calibration kernel (see
calibration.py), fixed work of the same kind as the workload's hot layer.
The normalized latency of an op is its wall time times
``calibration.REFERENCE_S`` over the kernel time measured around it; it
cancels most of the shared machine's drift between runs.

``--trace 0`` gates three end-to-end metrics: the median normalized op
latency, peak RSS of this process, and the cold start of the CLI
(``setup_s``, median of SETUP_REPEATS fresh interpreters).  It also
prints, ungated, the normalized tail and throughput, the same three
figures in raw wall time, and the error rate.  ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics: per-op medians
over the traced ops, the traced/untraced ratio of the normalized median
latency, and log-log scaling slopes of two layers.

The last line of stdout is the JSON result; details (tail percentile, op
count, Python version, nproc) go to the lines before it and to
``.perfbench_work/<run>/result.json``, next to the spans of a traced run.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import calibration
from workloads import (ROOT, WORKLOADS, OpFailed, compare_fingerprint, import_program,
                       missing_sources)

MIN_OPS = 11
SETUP_REPEATS = 15
REFERENCE_SEED = 1
REFERENCE = Path(__file__).with_name("reference.json")
WORK = ROOT / ".perfbench_work"
SLOPE_SIZES = {"pseudo": (150, 300), "logrank": (375, 1500)}  # subjects per arm
SLOPE_REPEATS = 5


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 slower ops.

    With fewer than 11 ops no percentile qualifies; the maximum is returned.
    """
    ordered = sorted(latencies)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing the CLI and building its parser."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-c", "import survscore.cli as c; c.build_parser()"]
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first fills __pycache__
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        if i:
            times.append(time.perf_counter() - start)
    return median(times)


class Runner:
    def __init__(self, workload, seed: int, workdir: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.reference = None
        if seed == REFERENCE_SEED:
            self.reference = json.loads(REFERENCE.read_text())["ops"][workload.name]

    def op(self, index: int, traced: bool) -> dict:
        """Prepare, run, time and check op ``index``; returns its record."""
        wl = self.workload
        op = wl.prepare(self.workdir / f"op{index}", self.seed, index)
        before = calibration.measure(wl.kernel)
        if traced:
            self.tracer.install(index)
        error = None
        start = time.perf_counter()
        try:
            wl.run(op)
        except OpFailed as exc:
            error = str(exc)
        except (Exception, SystemExit):
            error = traceback.format_exc(limit=-3).strip()
        finally:
            latency = time.perf_counter() - start
            if traced:
                self.tracer.uninstall()
        scale = calibration.REFERENCE_S / math.sqrt(before * calibration.measure(wl.kernel))
        problems = [error] if error else []
        output_bytes = 0
        if not problems:
            try:
                check = wl.check(op)
            except (ValueError, KeyError, IndexError, TypeError, ArithmeticError, OSError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            else:
                problems = check.problems
                if self.reference is not None and index < len(self.reference):
                    problems += compare_fingerprint(check.fingerprint, self.reference[index])
            output_bytes = op.output_bytes()
        for problem in problems[:5]:
            print(f"{wl.name} op {index} failed: {problem}", file=sys.stderr)
        shutil.rmtree(op.dir)
        return {"index": index, "latency": latency, "norm_latency": latency * scale,
                "ok": not problems, "traced": traced, "output_bytes": output_bytes}

    def loop(self, seconds: float, alternate: bool) -> tuple[dict, list[dict]]:
        """The warm-up op, then ops until ``seconds`` have passed and MIN_OPS ran."""
        warmup = self.op(0, traced=False)
        records = []
        deadline = time.perf_counter() + seconds
        while len(records) < MIN_OPS or time.perf_counter() < deadline:
            index = len(records) + 1
            records.append(self.op(index, traced=alternate and index % 2 == 0))
        return warmup, records


def slopes(workdir: Path, seed: int) -> dict[str, float]:
    """Log-log slopes of pseudo_values (RMST(18), KM, per arm) and compute_scores.

    The two sizes are timed alternately, SLOPE_REPEATS times each, so that a
    change in the machine's speed hits both alike.
    """
    import simulate_delayed_effect
    from survscore.curves import km_fit
    from survscore.dataset import build_risk_table, parse_dataset
    from survscore.logrank import WeightSpec, compute_scores, compute_weights
    from survscore.pseudo import EstimandSpec, pseudo_values

    def dataset(n_per_arm):
        path = workdir / f"slope{n_per_arm}.csv"
        simulate_delayed_effect.main(["--n-per-arm", str(n_per_arm), "--seed", str(seed),
                                      "--output", str(path)])
        return parse_dataset(path.read_text())

    def slope(sizes, make_call):
        calls = [make_call(dataset(n)) for n in sizes]
        times = [[], []]
        for _ in range(SLOPE_REPEATS):
            for spent, call in zip(times, calls):
                start = time.perf_counter()
                call()
                spent.append(time.perf_counter() - start)
        (n1, n2), (t1, t2) = sizes, (median(spent) for spent in times)
        return math.log(t2 / t1) / math.log(n2 / n1)

    rmst18 = EstimandSpec("rmst", tau=18.0)
    logrank = WeightSpec.logrank()

    def scores_call(ds):
        rt = build_risk_table(ds)
        weights = compute_weights(rt, km_fit(ds), logrank)
        return lambda: compute_scores(rt, weights, logrank)

    def pseudo_call(ds):
        return lambda: pseudo_values(ds, rmst18)

    return {"pseudo.km_slope": slope(SLOPE_SIZES["pseudo"], pseudo_call),
            "logrank.scores_slope": slope(SLOPE_SIZES["logrank"], scores_call)}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_slope", "_share", ".overhead", "_per_value")):
        return "ratio"
    return "bytes" if name.endswith("bytes") else "count"


def end_to_end(records: list[dict], setup_s: float) -> tuple[dict, dict, dict]:
    """(gated metrics, metrics only reported, details) of an untraced run.

    Latency is gated after normalizing each op by the calibration kernel
    timed around it: raw wall times move with the shared machine's state
    and spread between runs far beyond any bound.  The tail and the
    throughput are printed but not gated: a run of a 2-second workload has
    about 12 ops, so its tail is nearly its fastest op and its throughput a
    mean, and both spread more than the median.
    """
    ok = [r for r in records if r["ok"]] or records
    norm = [r["norm_latency"] for r in ok]
    raw = [r["latency"] for r in ok]
    n_correct = sum(r["ok"] for r in records)
    norm_tail, percentile = tail_latency(norm)
    raw_tail, _ = tail_latency(raw)
    gated = {
        "norm_latency_p50_s": (median(norm), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    reported = {
        "norm_latency_tail_s": (norm_tail, "s"),
        "norm_analyses_per_s": (n_correct / sum(r["norm_latency"] for r in records), "1/s"),
        "latency_p50_s": (median(raw), "s"),
        "latency_tail_s": (raw_tail, "s"),
        "analyses_per_s": (n_correct / sum(r["latency"] for r in records), "1/s"),
        "error_rate": ((len(records) - n_correct) / len(records), "ratio"),
    }
    details = {"tail_percentile": percentile, "ops": len(ok)}
    return gated, reported, details


def per_layer(runner: Runner, records: list[dict]) -> tuple[dict, dict, dict]:
    from tracer import OpProfile, layer_metrics, median_metrics, spans_by_op

    wl = runner.workload
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    by_op = spans_by_op(runner.tracer.spans)
    per_op = []
    for r in traced:
        profile = OpProfile(by_op.get(r["index"], []))
        m = layer_metrics(profile)
        m["cli.output_bytes"] = r["output_bytes"]
        stated = profile.outer_time(wl.layers)
        if wl.with_cli_self:
            stated += profile.self_s("cli")
        m["trace.stated_layer_share"] = stated / r["latency"]
        per_op.append(m)
    values = median_metrics(per_op)
    values.update(slopes(runner.workdir, runner.seed))
    values["trace.overhead"] = (median(r["norm_latency"] for r in traced)
                                / median(r["norm_latency"] for r in untraced))
    metrics = {name: (values[name], layer_unit(name)) for name in sorted(values)}
    return metrics, {}, {"traced_ops": len(traced), "untraced_ops": len(untraced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = missing_sources()
    if missing:
        print(f"perfbench: {ROOT} is not a survscore checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    import_program()

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    runner = Runner(workload, args.seed, workdir, tracer)

    setup_s = measure_setup() if not args.trace else None
    warmup, records = runner.loop(args.seconds, alternate=bool(args.trace))
    if args.trace:
        metrics, reported, details = per_layer(runner, records)
        tracer.write(workdir / "spans.jsonl")
    else:
        metrics, reported, details = end_to_end(records, setup_s)
    attempted = len(records) + 1
    failed = sum(not r["ok"] for r in records) + (not warmup["ok"])
    details.update(reported={name: value for name, (value, _) in reported.items()},
                   workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, attempted=attempted, failed=failed,
                   python=platform.python_version(), nproc=os.cpu_count(),
                   latencies=[r["latency"] for r in records])

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    for name, (value, unit) in reported.items():
        print(f"{name:28s} {value:.6g} {unit}  (reported, not gated)")
    print(json.dumps({k: v for k, v in details.items() if k != "latencies"}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps({**result, "details": details}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
