"""The benchmark's four workloads: inputs, one op each, and the output check.

Every op drives the survscore CLI in-process through ``survscore.cli.main``
(directly, or through ``scripts/method_comparison_experiment.py``, which
calls it the same way) on a delayed-effect trial simulated by
``scripts/simulate_delayed_effect.py``.  Trial ``i`` of a run is simulated
from a seed derived from (workload, run seed, i), outside the timed region.

The check after each op uses invariants that hold for any seed, plus, for
the reference seed, numbers captured from the seed commit
(``reference.json``).  Printed numbers carry 6 significant digits, so they
are compared to one unit in the 6th digit; the SVG ``data-*`` attributes
carry full precision and are compared to 1e-9; exact permutation counts
must match exactly.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
REQUIRED_SOURCES = (
    "src/survscore/cli.py",
    "scripts/simulate_delayed_effect.py",
    "scripts/method_comparison_experiment.py",
)
SCRIPT_MODULES = ("method_comparison_experiment", "simulate_delayed_effect")
FULL_TOL = 1e-9


class OpFailed(Exception):
    """A CLI call inside an op returned a non-zero exit code."""


def missing_sources(root: Path = ROOT) -> list[str]:
    return [p for p in REQUIRED_SOURCES if not (root / p).is_file()]


def import_program():
    """Make the checkout's src/ and scripts/ importable and import the entry points.

    The package is not installed: a fresh checkout only has its sources.
    """
    for sub in ("scripts", "src"):
        path = str(ROOT / sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    import method_comparison_experiment  # noqa: F401
    import simulate_delayed_effect  # noqa: F401
    import survscore.cli  # noqa: F401


def trial_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


@dataclass
class Op:
    """One op's inputs and, once run, its outputs."""

    index: int
    dir: Path
    input: Path
    seed: int  # trial seed; doubles as the Monte-Carlo seed
    stdout: dict[str, str] = field(default_factory=dict)

    @property
    def outdir(self) -> Path:
        return self.dir / "out"

    def output_bytes(self) -> int:
        written = sum(f.stat().st_size for f in self.outdir.iterdir() if f.is_file())
        return written + sum(len(text.encode()) for text in self.stdout.values())


def _cli(op: Op, key: str, argv: list[str]) -> None:
    import survscore.cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = survscore.cli.main(argv + ["--input", str(op.input)])
    if code != 0:
        raise OpFailed(f"{key}: exit code {code}")
    op.stdout[key] = buffer.getvalue()


# --- the ops -------------------------------------------------------------

GRID_FILES = {"main_grid": 6, "fh_grid": 4, "censored_grid": 4}  # SVG -> panels


def run_grid(op: Op) -> None:
    import method_comparison_experiment

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = method_comparison_experiment.main(
            ["--input", str(op.input), "--output-dir", str(op.outdir)]
        )
    if code != 0:
        raise OpFailed(f"method_comparison_experiment: exit code {code}")
    op.stdout["experiment"] = buffer.getvalue()


SCORE_CALLS = {
    "km": ["km"],
    "scores_logrank": ["scores", "--test", "logrank"],
    "scores_fh": ["scores", "--test", "fh", "--rho", "0", "--gamma", "1"],
    "scores_mw": ["scores", "--test", "mw", "--sstar", "0.5"],
    "test_logrank": ["test", "--method", "logrank"],
    "test_mw": ["test", "--method", "mw", "--sstar", "0.5"],
    "test_rmst": ["test", "--method", "rmst", "--tau", "18"],
    "test_milestone": ["test", "--method", "milestone", "--kappa", "18"],
}


def run_scores(op: Op) -> None:
    for key, argv in SCORE_CALLS.items():
        _cli(op, key, argv)


EXACT_CALLS = {
    "exact_logrank": ["test", "--method", "logrank", "--perm", "exact"],
    "exact_pseudo": ["test", "--method", "pseudo", "--estimand", "rmst", "--tau", "12",
                     "--backend", "exp", "--perm", "exact"],
}


def run_exact(op: Op) -> None:
    for key, argv in EXACT_CALLS.items():
        _cli(op, key, argv)


MC_REPLICATES = 10_000


def run_mc(op: Op) -> None:
    _cli(op, "mc_logrank", ["test", "--method", "logrank", "--perm", "mc",
                            "--replicates", str(MC_REPLICATES), "--seed", str(op.seed)])


# --- checking helpers ----------------------------------------------------


def unit(v: float) -> float:
    """One unit in the 6th significant digit of a printed value."""
    return 10.0 ** (math.floor(math.log10(abs(v))) - 5) if v else 0.0


def printed_close(a: float, b: float) -> bool:
    """Equal to one unit in the 6th significant digit (a printed 0 allows 1e-12)."""
    return abs(a - b) <= (max(unit(a), unit(b)) if a and b else 1e-12)


def full_close(a: float, b: float) -> bool:
    return abs(a - b) <= FULL_TOL * max(1.0, abs(b))


class Check:
    """Collects failed invariants and the numbers compared with the reference."""

    def __init__(self):
        self.problems: list[str] = []
        self.fingerprint: dict[str, list] = {}

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok

    def record(self, name: str, value, kind: str) -> None:
        self.fingerprint[name] = [value, kind]


def compare_fingerprint(got: dict, ref: dict) -> list[str]:
    """Problems where ``got`` differs from ``ref`` beyond its kind's tolerance."""
    problems = []
    if set(got) != set(ref):
        missing = sorted(set(ref) - set(got))[:3]
        extra = sorted(set(got) - set(ref))[:3]
        problems.append(f"reference keys differ: missing {missing}, unexpected {extra}")
    for name in sorted(set(got) & set(ref)):
        (value, kind), (expected, _) = got[name], ref[name]
        if kind == "exact":
            same = value == expected
        elif value is None or expected is None:
            same = value is expected
        elif kind == "full":
            same = full_close(value, expected)
        else:
            same = printed_close(value, expected)
        if not same:
            problems.append(f"{name} = {value!r}, reference {expected!r}")
    return problems


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(cell: str) -> float | None:
    return float(cell) if cell != "" else None


def read_trial(path: Path) -> list[tuple[float, int, int]]:
    return [(float(r["time"]), int(r["arm"]), int(r["event"])) for r in _rows(path.read_text())]


def _check_scaled(c: Check, label: str, values, close) -> None:
    lo, hi = min(values), max(values)
    c.expect(lo >= -1.0 - 1e-12 and hi <= 1.0 + 1e-12, f"{label}: scaled values leave [-1, 1]")
    c.expect(close(lo, -1.0) and close(hi, 1.0), f"{label}: scaled values do not reach -1 and 1")


def _phi(x: float) -> float:
    return math.exp(-x * x / 2) / math.sqrt(2 * math.pi)


def _cdf(x: float) -> float:  # erfc keeps the tails accurate; 1 + erf does not
    return 0.5 * math.erfc(-x / math.sqrt(2))


def _check_test_json(c: Check, key: str, payload: dict, benefit_low: bool) -> None:
    """z = statistic / sqrt(variance) and p = Phi(+-z), at printed precision."""
    stat, var, z, p = (payload[k] for k in ("statistic", "variance", "z", "p_one_sided"))
    c.expect(var > 0, f"{key}: variance {var} is not positive")
    if var > 0:
        z_tol = unit(z) + abs(z) * (unit(stat) / abs(stat) + unit(var) / var) if stat else unit(z)
        c.expect(abs(z - stat / math.sqrt(var)) <= z_tol + 1e-12,
                 f"{key}: z {z} != statistic / sqrt(variance)")
        oriented = z if benefit_low else -z
        p_tol = unit(p) + _phi(z) * (z_tol + unit(z))
        c.expect(abs(p - _cdf(oriented)) <= p_tol, f"{key}: p {p} != Phi({oriented})")
    for name in ("statistic", "variance", "z", "p_one_sided"):
        c.record(f"{key}.{name}", payload[name], "printed")


def _count_behind(p: float, total: int, offset: int) -> int | None:
    """The integer m with (m + offset) / total printing as p, if there is one."""
    guess = round(p * total) - offset
    for m in range(guess - 3, guess + 4):
        if float(f"{(m + offset) / total:.6g}") == p:
            return m
    return None


# --- checks --------------------------------------------------------------


def check_scores(op: Op) -> Check:
    c = Check()
    trial = read_trial(op.input)
    n = len(trial)
    tests = {k: json.loads(op.stdout[k]) for k in SCORE_CALLS if k.startswith("test_")}

    # km: one step curve per arm, starting at (0, 1)
    km = _rows(op.stdout["km"])
    curves = {}
    for arm in ("0", "1"):
        steps = [(float(r["time"]), float(r["survival"])) for r in km if r["arm"] == arm]
        c.expect(bool(steps) and steps[0] == (0.0, 1.0), f"km arm {arm}: does not start at (0, 1)")
        c.expect(all(t2 > t1 and 0.0 <= s2 <= s1 for (t1, s1), (t2, s2) in zip(steps, steps[1:])),
                 f"km arm {arm}: not a nonincreasing step curve")
        c.record(f"km.{arm}.rows", len(steps), "exact")
        for k in range(0, len(steps), 100):
            c.record(f"km.{arm}.s{k}", steps[k][1], "printed")
        curves[arm] = steps

    def integral(steps, tau):  # RMST of a printed step curve, and its rounding bound
        total = bound = 0.0
        for (t, s), nxt in zip(steps, steps[1:] + [(math.inf, 0.0)]):
            width = max(0.0, min(nxt[0], tau) - t)
            total += s * width
            bound += unit(s) * width
        return total, bound

    def at(steps, t):
        return [s for tt, s in steps if tt <= t][-1]

    (r0, b0), (r1, b1) = integral(curves["0"], 18.0), integral(curves["1"], 18.0)
    stat = tests["test_rmst"]["statistic"]
    c.expect(abs((r1 - r0) - stat) <= b0 + b1 + unit(stat),
             f"test rmst: statistic {stat} != RMST difference {r1 - r0:.6g} of the km curves")
    s0, s1 = at(curves["0"], 18.0), at(curves["1"], 18.0)
    stat = tests["test_milestone"]["statistic"]
    c.expect(abs((s1 - s0) - stat) <= unit(s0) + unit(s1) + unit(stat),
             f"test milestone: statistic {stat} != S1(18) - S0(18) = {s1 - s0:.6g}")

    # scores: sum to zero, arm-1 sum is the test statistic, scaled onto [-1, 1]
    for key in ("scores_logrank", "scores_fh", "scores_mw"):
        rows = _rows(op.stdout[key])
        if not c.expect(len(rows) == n, f"{key}: {len(rows)} rows for {n} subjects"):
            continue
        raw = [float(r["score"]) for r in rows]
        c.expect(abs(sum(raw)) <= sum(unit(v) for v in raw) + 1e-9,
                 f"{key}: scores sum to {sum(raw):.6g}, not 0")
        _check_scaled(c, key, [float(r["scaled_score"]) for r in rows], printed_close)
        test = tests.get("test_" + key.split("_")[1])
        if test is not None:
            arm1 = [v for v, r in zip(raw, rows) if r["arm"] == "1"]
            stat = test["statistic"]
            c.expect(abs(sum(arm1) - stat) <= sum(unit(v) for v in arm1) + unit(stat),
                     f"{key}: arm-1 score sum {sum(arm1):.6g} != test statistic {stat}")
        for k in range(0, n, 500):
            for col in ("survival", "weight", "score", "scaled_score"):
                c.record(f"{key}.{k}.{col}", _num(rows[k][col]), "printed")

    for key, payload in tests.items():
        _check_test_json(c, key, payload, benefit_low=key in ("test_logrank", "test_mw"))
    return c


def check_exact(op: Op) -> Check:
    c = Check()
    trial = read_trial(op.input)
    total = math.comb(len(trial), sum(arm for _, arm, _ in trial))
    for key, direction in (("exact_logrank", "lower"), ("exact_pseudo", "upper")):
        payload = json.loads(op.stdout[key])
        _check_test_json(c, key, payload, benefit_low=direction == "lower")
        perm = payload["permutation"]
        c.expect(perm["mode"] == "exact" and perm["direction"] == direction,
                 f"{key}: permutation is {perm['mode']}/{perm['direction']}")
        c.expect(perm["assignments"] == total,
                 f"{key}: {perm['assignments']} assignments, not {total}")
        count = _count_behind(perm["p"], total, 0)
        c.expect(count is not None and 1 <= count <= total,
                 f"{key}: p {perm['p']} is not m / {total} with m in [1, {total}]")
        c.record(f"{key}.count", count, "exact")
    return c


def check_mc(op: Op) -> Check:
    c = Check()
    payload = json.loads(op.stdout["mc_logrank"])
    _check_test_json(c, "mc_logrank", payload, benefit_low=True)
    perm = payload["permutation"]
    reps = MC_REPLICATES
    c.expect(perm["mode"] == "monte_carlo" and perm["direction"] == "lower",
             f"mc: permutation is {perm['mode']}/{perm['direction']}")
    c.expect(perm["replicates"] == reps and perm["seed"] == op.seed,
             f"mc: ran {perm['replicates']} replicates with seed {perm['seed']}")
    p = perm["p"]
    c.expect(1 / (reps + 1) - unit(p) <= p <= 1.0, f"mc: p {p} outside [1/(R+1), 1]")
    extreme = _count_behind(p, reps + 1, 1)
    c.expect(extreme is not None and 0 <= extreme <= reps,
             f"mc: p {p} is not (1 + e) / (R + 1) with e in [0, R]")
    if extreme is not None:
        exact_p = (1 + extreme) / (reps + 1)
        se = perm["std_error"]
        c.expect(printed_close(se, math.sqrt(exact_p * (1 - exact_p) / reps)),
                 f"mc: std_error {se} != sqrt(p (1 - p) / R)")
    c.record("mc.extreme", extreme, "exact")
    return c


_PANEL_RE = re.compile(r'<g class="panel"[^>]*data-method="([^"]*)">(.*?)</g>', re.S)
_POINT_RE = re.compile(r'<circle class="point arm(\d)[^"]*"[^>]*data-time="([^"]+)" '
                       r'data-value="([^"]+)"')
_MEAN_RE = re.compile(r'class="mean-line arm(\d)"[^>]*data-mean="([^"]+)"')


def check_grid(op: Op) -> Check:
    c = Check()
    trial = read_trial(op.input)
    n = len(trial)
    for name, n_panels in GRID_FILES.items():
        svg = (op.outdir / f"{name}.svg").read_text()
        panels = _PANEL_RE.findall(svg)
        if not c.expect(len(panels) == n_panels, f"{name}: {len(panels)} panels, not {n_panels}"):
            continue
        table = _rows((op.outdir / f"{name}.csv").read_text())
        c.expect(len(table) == n_panels * n, f"{name}.csv: {len(table)} rows, not {n_panels * n}")
        c.record(f"{name}.titles", [title for title, _ in panels], "exact")
        for p, (title, body) in enumerate(panels):
            label = f"{name}[{p}]"
            points = [(int(a), float(v)) for a, _, v in _POINT_RE.findall(body)]
            if not c.expect(len(points) == n, f"{label}: {len(points)} points, not {n}"):
                continue
            values = [v for _, v in points]
            _check_scaled(c, label, values, full_close)
            for arm, mean in _MEAN_RE.findall(body):
                group = [v for a, v in points if a == int(arm)]
                c.expect(full_close(float(mean), sum(group) / len(group)),
                         f"{label}: arm {arm} mean line is not the mean of its points")
                c.record(f"{label}.mean{arm}", float(mean), "full")
            plotted = [float(r["scaled_value"]) for r in table if r["method"] == title]
            c.expect(len(plotted) == n and all(map(printed_close, plotted, values)),
                     f"{label}: CSV values differ from the SVG")
            c.record(f"{label}.sumsq", sum(v * v for v in values), "full")
            for k in range(0, n, 100):
                c.record(f"{label}.v{k}", values[k], "full")

    censored = read_trial(op.outdir / "censored_input.csv")
    ok = len(censored) == n and all(
        a2 == a1 and e2 <= e1 and t2 <= t1 + unit(t1) and (e2 == 0 or t2 == t1)
        for (t1, a1, e1), (t2, a2, e2) in zip(trial, censored)
    )
    c.expect(ok, "censor: output is not the input with times cut and events only 1 -> 0")
    c.record("censor.events", sum(e for _, _, e in censored), "exact")
    return c


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_per_arm: int
    run: object
    check: object
    layers: tuple[str, ...]  # layers that should take most of an op's time
    kernel: object  # calibration kernel doing the same kind of work
    with_cli_self: bool = False  # add cli.main self time to the layers' share

    def prepare(self, opdir: Path, seed: int, index: int) -> Op:
        """Simulate this op's trial into ``opdir`` (not timed)."""
        import simulate_delayed_effect

        (opdir / "out").mkdir(parents=True)
        op = Op(index, opdir, opdir / "trial.csv", trial_seed(self.name, seed, index))
        simulate_delayed_effect.main(["--n-per-arm", str(self.n_per_arm),
                                      "--seed", str(op.seed), "--output", str(op.input)])
        return op


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-n300", "the paper's comparison grids; jackknife refits in pseudo dominate",
                 150, run_grid, check_grid, ("pseudo",), calibration.refits),
        Workload("scores-n3000", "closed-form scores and tests at n=3000; never calls pseudo or "
                 "permutation", 1500, run_scores, check_scores, ("logrank",), calibration.tables,
                 with_cli_self=True),
        Workload("exact-n22", "exact permutation p by enumerating 705,432 assignments",
                 11, run_exact, check_exact, ("permutation",), calibration.subset_sums),
        Workload("mc-n300", "Monte-Carlo permutation p, 10,000 replicates drawn by SplitMix64",
                 150, run_mc, check_mc, ("permutation", "rng"), calibration.draws),
    )
}
