"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print; without -s pytest shows them only for failures.
"""

import csv
import math
import xml.etree.ElementTree as ET
from contextlib import contextmanager

import pytest

import survscore as ss
from survscore.cli import main as cli_main
from survscore.rng import SplitMix64
from tests import oracles
from tests.conftest import pseudo_friendly_dataset, random_dataset

SVG_NS = {"svg": "http://www.w3.org/2000/svg"}

ALL_WEIGHTS = [
    ss.WeightSpec.logrank(),
    ss.WeightSpec.fleming_harrington(0, 1),
    ss.WeightSpec.fleming_harrington(1, 1),
    ss.WeightSpec.modest(0.5),
]

# worked score table: time -> (arm, survival-left, weight, raw, scaled); the
# raw score of the event at t=24.98 follows the decomposition formula
SCORE_TABLE = {
    4.38: (0, 1.000, 1.0, 0.917, 1.000),
    6.12: (1, 0.917, 1.0, 0.826, 0.895),
    6.32: (0, 0.833, 1.0, 0.726, 0.780),
    6.69: (0, 0.750, 1.0, 0.615, 0.652),
    13.38: (1, 0.667, 1.0, 0.490, 0.508),
    16.73: (1, 0.583, 1.0, 0.347, 0.344),
    24.98: (0, 0.500, 1.0, 0.180, 0.152),
    27.68: (1, 0.417, 1.0, -0.820, -1.000),
    28.69: (0, 0.417, 1.0, -0.820, -1.000),
    29.46: (1, 0.417, 1.0, -0.820, -1.000),
    33.21: (1, 0.417, 1.0, -0.820, -1.000),
    34.64: (0, 0.417, 1.0, -0.820, -1.000),
}

# worked pseudo-value table: (time, arm) -> (loo rmst, pseudo, scaled)
PSEUDO_TABLE = {
    (34.64, 0): (10.678, 18.00, -1.000),
    (4.38, 0): (13.402, 4.38, 1.000),
    (28.69, 0): (10.678, 18.00, -1.000),
    (6.69, 0): (12.940, 6.69, 0.661),
    (24.98, 0): (10.678, 18.00, -1.000),
    (6.32, 0): (13.014, 6.32, 0.715),
    (13.38, 1): (15.370, 13.38, -0.322),
    (33.21, 1): (14.446, 18.00, -1.000),
    (6.12, 1): (16.822, 6.12, 0.745),
    (16.73, 1): (14.700, 16.73, -0.814),
    (27.68, 1): (14.446, 18.00, -1.000),
    (29.46, 1): (14.446, 18.00, -1.000),
}

PLOT_SPECS = [
    "logrank",
    "fh:rho=0,gamma=1",
    "mw:sstar=0.5",
    "rmst:tau=18",
    "milestone:kappa=18,backend=exp",
    "milestone:kappa=18,backend=pwexp,breakpoints=2:4:6:8",
]


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"[criterion {number:02d}] {name}: FAIL")
        raise
    print(f"[criterion {number:02d}] {name}: PASS")


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def standardized_logrank(toy):
    return ss.WeightSpec.logrank().scaled(toy)


def test_criterion_01_score_table(toy_csv_path, tmp_path):
    with criterion(1, "scores CLI reproduces the worked score table"):
        out = tmp_path / "scores.csv"
        assert cli_main(["scores", "--input", str(toy_csv_path), "--output", str(out),
                         "--test", "logrank"]) == 0
        rows = read_csv(out)
        assert len(rows) == 12
        for row in rows:
            arm, survival, weight, raw, scaled = SCORE_TABLE[float(row["time"])]
            assert int(row["arm"]) == arm
            assert float(row["survival"]) == pytest.approx(survival, abs=1e-3)
            assert float(row["weight"]) == weight
            assert float(row["score"]) == pytest.approx(raw, abs=1e-3)
            assert float(row["scaled_score"]) == pytest.approx(scaled, abs=1e-3)


def test_criterion_02_arm_means(toy):
    with criterion(2, "standardized score arm means are 0.0973 and -0.209"):
        scores = standardized_logrank(toy)
        for arm, expected in ((0, 0.0973), (1, -0.209)):
            values = [b for b, s in zip(scores, toy.subjects) if s.arm == arm]
            assert sum(values) / len(values) == pytest.approx(expected, abs=5e-4)


def test_criterion_03_pseudo_table(toy_csv_path, tmp_path):
    with criterion(3, "pseudo CLI reproduces the worked pseudo-value table"):
        out = tmp_path / "pseudo.csv"
        assert cli_main(["pseudo", "--input", str(toy_csv_path), "--output", str(out),
                         "--estimand", "rmst", "--tau", "18", "--backend", "km",
                         "--pooling", "arm"]) == 0
        rows = read_csv(out)
        assert len(rows) == 12
        for row in rows:
            loo, value, scaled = PSEUDO_TABLE[(float(row["time"]), int(row["arm"]))]
            assert float(row["loo_estimate"]) == pytest.approx(loo, abs=1e-3)
            assert float(row["pseudo"]) == pytest.approx(value, abs=1e-3)
            assert float(row["scaled_pseudo"]) == pytest.approx(scaled, abs=1e-3)


def test_criterion_04_identity_suite(toy):
    with criterion(4, "identity suite (FH(0,0), modest(1), WMST(0,tau), zero-sum)"):
        base = ss.wlrt_test(toy, ss.WeightSpec.logrank())
        for spec in (ss.WeightSpec.fleming_harrington(0, 0), ss.WeightSpec.modest(1.0)):
            res = ss.wlrt_test(toy, spec)
            assert abs(res.statistic - base.statistic) < 1e-9
            assert abs(res.variance - base.variance) < 1e-9
            assert abs(res.z - base.z) < 1e-9
            assert abs(res.p_one_sided - base.p_one_sided) < 1e-9
            for a, b in zip(res.per_subject.values, base.per_subject.values):
                assert abs(a - b) < 1e-9

        for pooling in ("arm", "pooled"):
            rmst_ps = ss.pseudo_values(
                toy, ss.EstimandSpec(kind="rmst", tau=18.0, pooling=pooling)
            )
            wmst_ps = ss.pseudo_values(
                toy, ss.EstimandSpec(kind="wmst", tau1=0.0, tau2=18.0, pooling=pooling)
            )
            for a, b in zip(rmst_ps.values, wmst_ps.values):
                assert abs(a - b) < 1e-9

        for seed in range(200):
            ds = random_dataset(seed)
            rt = ss.build_risk_table(ds)
            pooled = ss.km_fit(ds)
            for spec in ALL_WEIGHTS:
                weights = ss.compute_weights(rt, pooled, spec)
                assert abs(sum(ss.compute_scores(rt, weights).values)) < 1e-9


def test_criterion_05_score_sum_equals_statistic():
    with criterion(5, "arm-1 score sum equals the observed-minus-expected statistic"):
        for seed in range(200):
            ds = random_dataset(seed, max_n=50)
            rt = ss.build_risk_table(ds)
            pooled = ss.km_fit(ds)
            for spec in ALL_WEIGHTS:
                weights = ss.compute_weights(rt, pooled, spec)
                u, _ = ss.u_and_v(rt, weights)
                assert abs(ss.compute_scores(rt, weights).arm1_sum - u) < 1e-9


def test_criterion_06_jackknife_oracle():
    with criterion(6, "pseudo-values equal the naive leave-one-out recomputation"):
        cuts = (2.0, 4.0, 6.0, 8.0)
        for seed in range(50):
            ds, tau = pseudo_friendly_dataset(seed)
            cases = [
                ("rmst", {"tau": tau}),
                ("milestone", {"kappa": 0.7 * tau}),
                ("wmst", {"tau1": 0.3 * tau, "tau2": tau}),
                ("ahsw", {"tau": tau}),
            ]
            for kind, params in cases:
                for backend in ("km", "exponential", "piecewise"):
                    for pooling in ("arm", "pooled"):
                        spec = ss.EstimandSpec(
                            kind=kind, backend=backend, breakpoints=cuts,
                            pooling=pooling, **params,
                        )
                        got = ss.pseudo_values(ds, spec).values
                        want = oracles.jackknife_pseudo(
                            ds, kind, backend, pooling, cuts=cuts, **params
                        )
                        for g, w in zip(got, want):
                            assert abs(g - w) < 1e-9


def test_criterion_07_permutation_affine_invariance():
    with criterion(7, "exact permutation p is invariant under positive affine maps"):
        rng = SplitMix64(2024)
        for seed in range(20):
            ds = random_dataset(seed, max_n=12)
            spec = ss.WeightSpec.logrank()
            scores = spec.test(ds).per_subject
            alpha = 0.1 + 5.0 * rng.next_uniform()
            beta = 10.0 * rng.next_uniform() - 5.0
            mapped = [alpha * a + beta for a in scores.values]
            for direction in ("lower", "upper"):
                p_raw = ss.exact_perm_p(scores.values, ds.arms, direction)
                assert ss.exact_perm_p(mapped, ds.arms, direction) == p_raw
                assert ss.exact_perm_p(spec.scaled(ds), ds.arms, direction) == p_raw


def test_criterion_08_variance_agreement():
    with criterion(8, "sampling and permutation variances agree under equal censoring"):
        def simulate(seed, n_per_arm=100, event_rate=0.08, censor_rate=0.04):
            rng = SplitMix64(seed)
            subjects = []
            for arm in (0, 1):
                for _ in range(n_per_arm):
                    t = -math.log(rng.next_uniform()) / event_rate
                    c = -math.log(rng.next_uniform()) / censor_rate
                    subjects.append(ss.Subject(min(t, c), arm, 1 if t <= c else 0))
            return ss.TrialDataset(tuple(subjects))

        within = 0
        for seed in range(50):
            ds = simulate(seed)
            rt = ss.build_risk_table(ds)
            weights = ss.compute_weights(rt, ss.km_fit(ds), ss.WeightSpec.logrank())
            _, v = ss.u_and_v(rt, weights)
            var_sum, _ = ss.perm_moments(ss.compute_scores(rt, weights).values, ds.n_arm1)
            within += abs(v - var_sum) / v <= 0.05
        assert within >= 45  # at least 90% of 50 datasets


def test_criterion_09_monotonicity(toy):
    with criterion(9, "log-rank event scores fall; FH(0,1) event scores start rising"):
        for seed in range(100):
            ds = random_dataset(seed)
            rt = ss.build_risk_table(ds)
            scores = ss.compute_scores(rt, (1.0,) * len(rt.times))
            events = sorted(
                {(s.time, a) for s, a in zip(ds.subjects, scores.values) if s.event}
            )
            values = [a for _, a in events]
            assert all(b < a for a, b in zip(values, values[1:]))

        rt = ss.build_risk_table(toy)
        weights = ss.compute_weights(rt, ss.km_fit(toy), ss.WeightSpec.fleming_harrington(0, 1))
        scores = ss.compute_scores(rt, weights)
        first_three = [
            a for _, a in sorted(
                (s.time, a) for s, a in zip(toy.subjects, scores.values) if s.event
            )
        ][:3]
        assert first_three == pytest.approx([0.000, 0.076, 0.142], abs=1e-3)
        assert first_three[0] < first_three[1] < first_three[2]


def test_criterion_10_classical_tests(toy):
    with criterion(10, "classical RMST and milestone tests on the worked data"):
        arm0, arm1 = ss.split_by_arm(toy)
        assert ss.rmst(ss.km_fit(arm0), 18.0) == pytest.approx(11.898, abs=1e-3)
        assert ss.rmst(ss.km_fit(arm1), 18.0) == pytest.approx(15.038, abs=1e-3)
        assert ss.rmst_test(toy, 18.0).statistic == pytest.approx(3.140, abs=1e-3)
        assert ss.milestone_test(toy, 18.0).statistic == pytest.approx(0.000, abs=1e-3)


def test_criterion_11_censoring_injection(toy_csv_path, tmp_path):
    with criterion(11, "censoring injection is reproducible and dominated"):
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert cli_main(["censor", "--input", str(toy_csv_path), "--output", str(out),
                             "--max", "26", "--seed", "17"]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

        for seed in range(1000):
            ds = random_dataset(seed, max_n=12)
            c_max = 1.0 + 30.0 * SplitMix64(seed).next_uniform()
            injected = ss.inject_censoring(ds, c_max, seed)
            assert injected.n == ds.n
            for before, after in zip(ds.subjects, injected.subjects):
                assert after.arm == before.arm
                assert after.time <= before.time
                assert after.event <= before.event
                if after.time < before.time:
                    assert after.event == 0
                    assert 0.0 < after.time < c_max


def test_criterion_12_plot_contract(toy_csv_path, tmp_path):
    with criterion(12, "plot panels: 12 markers, dashed mean lines, CSV round-trip"):
        for index, spec in enumerate(PLOT_SPECS):
            out = tmp_path / f"panel{index}.svg"
            assert cli_main(["plot", "--input", str(toy_csv_path), "--spec", spec,
                             "--output", str(out)]) == 0
            panel = ET.parse(out).getroot().findall("svg:g", SVG_NS)[0]
            circles = panel.findall("svg:circle", SVG_NS)
            assert len(circles) == 12
            censored = [c for c in circles if "censored" in c.get("class")]
            assert len(censored) == 5
            lines = [
                line for line in panel.findall("svg:line", SVG_NS)
                if "mean-line" in line.get("class", "")
            ]
            assert len(lines) == 2
            assert all(line.get("stroke-dasharray") == "6 4" for line in lines)

            # the gap between the dashed lines is the mean-difference statistic
            by_arm = {0: [], 1: []}
            for circle in circles:
                arm = 1 if "arm1" in circle.get("class") else 0
                by_arm[arm].append(float(circle.get("data-value")))
            statistic = sum(by_arm[1]) / len(by_arm[1]) - sum(by_arm[0]) / len(by_arm[0])
            gap = abs(float(lines[0].get("data-mean")) - float(lines[1].get("data-mean")))
            assert gap == pytest.approx(abs(statistic), abs=1e-9)

            # sibling CSV round-trips to the plotted mean lines
            rows = read_csv(tmp_path / f"panel{index}.csv")
            assert len(rows) == 12
            means = {}
            for arm in (0, 1):
                values = [float(r["scaled_value"]) for r in rows if int(r["arm"]) == arm]
                means[arm] = sum(values) / len(values)
            stored = sorted(float(line.get("data-mean")) for line in lines)
            assert stored == pytest.approx(sorted(means.values()), abs=1e-5)
