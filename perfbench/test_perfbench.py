"""Tests of the benchmark itself: output checks, failure counting, tracing.

    python3 -m pytest perfbench -q
"""

import copy
import dataclasses
import json
import re
import shutil

import pytest

import run
from tracer import OpProfile, Tracer, layer_metrics, spans_by_op
from workloads import WORKLOADS, _cli, compare_fingerprint, import_program

import_program()
REFERENCE = json.loads(run.REFERENCE.read_text())["ops"]


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    """Op 0 of every workload at the reference seed, run once."""
    done = {}
    for name, workload in WORKLOADS.items():
        op = workload.prepare(tmp_path_factory.mktemp(name) / "op0", run.REFERENCE_SEED, 0)
        workload.run(op)
        done[name] = op
    return done


def problems(name, op):
    check = WORKLOADS[name].check(op)
    return check.problems + compare_fingerprint(check.fingerprint, REFERENCE[name][0])


def perturbed(op, tmp_path):
    clone = copy.deepcopy(op)
    clone.dir = tmp_path / "clone"
    shutil.copytree(op.dir, clone.dir)
    clone.input = clone.dir / op.input.name
    return clone


def test_seed_outputs_pass_checks_and_match_reference(ops):
    for name, op in ops.items():
        assert problems(name, op) == [], name


def _edit_json(op, key, path, change):
    payload = json.loads(op.stdout[key])
    target = payload
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = change(target[path[-1]])
    op.stdout[key] = json.dumps(payload)


def _edit_csv_cell(op, key, row, column, change):
    lines = op.stdout[key].splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    op.stdout[key] = "\n".join(lines) + "\n"


def _edit_file(op, name, pattern, replacement):
    path = op.outdir / name
    text, hits = re.subn(pattern, replacement, path.read_text(), count=1)
    assert hits == 1
    path.write_text(text)


PERTURBATIONS = {
    "one score moved": ("scores-n3000",
                        lambda op: _edit_csv_cell(op, "scores_logrank", 10, "score",
                                                  lambda v: v + 0.01)),
    "scaled score past 1": ("scores-n3000",
                            lambda op: _edit_csv_cell(op, "scores_fh", 0, "scaled_score",
                                                      lambda v: 1.01)),
    "rmst statistic off": ("scores-n3000",
                           lambda op: _edit_json(op, "test_rmst", ["statistic"],
                                                 lambda v: v * 1.001)),
    "p off in 6th digit": ("scores-n3000",
                           lambda op: _edit_json(op, "test_mw", ["p_one_sided"],
                                                 lambda v: v * (1 + 3e-5))),
    "exact count off by one": ("exact-n22",
                               lambda op: _edit_json(op, "exact_logrank", ["permutation", "p"],
                                                     lambda v: float(f"{v + 1 / 705432:.6g}"))),
    "exact p not a count": ("exact-n22",
                            lambda op: _edit_json(op, "exact_pseudo", ["permutation", "p"],
                                                  lambda v: v + 3e-7)),
    "mc p below 1/(R+1)": ("mc-n300",
                           lambda op: _edit_json(op, "mc_logrank", ["permutation", "p"],
                                                 lambda v: 5e-5)),
    "svg panel missing": ("grid-n300",
                          lambda op: _edit_file(op, "fh_grid.svg",
                                                r'(?s)<g class="panel".*?</g>\n', "")),
    "svg value moved": ("grid-n300",
                        lambda op: _edit_file(op, "main_grid.svg", r'data-value="0\.',
                                              'data-value="0.0')),
    "censoring flips an arm": ("grid-n300",
                               lambda op: _edit_file(op, "censored_input.csv",
                                                     r"\n([0-9.e-]+),0,", r"\n\1,1,")),
}


@pytest.mark.parametrize("case", sorted(PERTURBATIONS))
def test_perturbed_output_fails_the_check(ops, tmp_path, case):
    name, perturb = PERTURBATIONS[case]
    op = perturbed(ops[name], tmp_path)
    perturb(op)
    assert problems(name, op)


def _runner(tmp_path, run_op, seed=run.REFERENCE_SEED):
    workload = dataclasses.replace(WORKLOADS["exact-n22"], run=run_op)
    return run.Runner(workload, seed, tmp_path)


def test_runner_counts_a_perturbed_op_as_failed(tmp_path):
    def wrong_count(op):
        WORKLOADS["exact-n22"].run(op)
        _edit_json(op, "exact_logrank", ["permutation", "p"],
                   lambda v: float(f"{v + 1 / 705432:.6g}"))

    record = _runner(tmp_path, wrong_count).op(1, traced=False)
    assert record["ok"] is False
    records = [record, {**record, "ok": True}]
    gated, reported, details = run.end_to_end(records, setup_s=0.2)
    assert reported["error_rate"][0] == 0.5


def test_runner_counts_nonzero_exit_and_exceptions_as_failed(tmp_path):
    import survscore.cli

    def bad_flag(op):
        survscore.cli.main(["test", "--method", "nonsense", "--input", str(op.input)])

    def raises(op):
        raise ZeroDivisionError("boom")

    def exit_one(op):  # --method rmst without --tau: main returns 1
        _cli(op, "rmst", ["test", "--method", "rmst"])

    for run_op in (bad_flag, raises, exit_one):
        assert _runner(tmp_path, run_op, seed=7).op(1, traced=False)["ok"] is False


def test_tracer_patches_every_binding_and_restores_them():
    import method_comparison_experiment
    import survscore
    import survscore.cli
    import survscore.curves
    import survscore.dataset
    import survscore.km_tests
    import survscore.pseudo
    import survscore.rng
    import survscore.svgplot

    bindings = {
        "cli.pseudo_values": (survscore.cli, "pseudo_values"),
        "pseudo.km_fit": (survscore.pseudo, "km_fit"),
        "curves.build_risk_table": (survscore.curves, "build_risk_table"),
        "km_tests.km_fit": (survscore.km_tests, "km_fit"),
        "package.km_fit": (survscore, "km_fit"),
        "experiment.main": (method_comparison_experiment, "survscore_main"),
        "TrialDataset.without": (survscore.dataset.TrialDataset, "without"),
        "SplitMix64.choose": (survscore.rng.SplitMix64, "choose"),
    }
    before = {k: getattr(owner, attr) for k, (owner, attr) in bindings.items()}
    from_values = survscore.svgplot.PlotPanel.__dict__["from_values"]
    tracer = Tracer()
    tracer.install(op=3)
    try:
        for k, (owner, attr) in bindings.items():
            assert getattr(owner, attr) is not before[k], k
        assert survscore.svgplot.PlotPanel.__dict__["from_values"] is not from_values
        ds = survscore.dataset.TrialDataset(
            tuple(survscore.dataset.Subject(t, a, e) for t, a, e in
                  [(1.0, 0, 1), (2.0, 0, 0), (3.0, 0, 1), (1.5, 1, 1), (2.5, 1, 1), (4.0, 1, 0)]))
        spec = survscore.pseudo.EstimandSpec("rmst", tau=2.0, pooling="pooled")
        survscore.pseudo.pseudo_values(ds, spec)
    finally:
        tracer.uninstall()
    for k, (owner, attr) in bindings.items():
        assert getattr(owner, attr) is before[k], k
    assert survscore.svgplot.PlotPanel.__dict__["from_values"] is from_values

    spans = spans_by_op(tracer.spans)[3]
    names = [s[0] for s in spans]
    assert names[0] == "pseudo.pseudo_values" and spans[0][5] == 6
    metrics = layer_metrics(OpProfile(spans))
    assert metrics["pseudo.values_calls"] == 1
    assert metrics["dataset.loo_copies"] == 6
    assert metrics["pseudo.fits_per_value"] == 7 / 6  # one full fit plus six refits
    assert all(s[3] == 0 for s in spans if s[0] == "curves.km_fit")


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0, 10_000, -1, 1, 0],
        ["logrank.wlrt_test", 1_000, 7_000, 0, 1, 0],
        ["logrank.compute_scores", 2_000, 5_000, 1, 1, 0],
        ["dataset.build_risk_table", 5_000, 6_000, 1, 1, 0],
    ]
    profile = OpProfile(spans)
    assert profile.self_s("cli") == pytest.approx(4e-6)
    assert profile.self_s("logrank") == pytest.approx(5e-6)  # 2 us + 3 us
    assert profile.outer_time(("logrank",)) == pytest.approx(6e-6)
    assert profile.outer_time(("logrank", "cli")) == pytest.approx(10e-6)


def test_tail_is_highest_percentile_with_ten_slower_ops():
    assert run.tail_latency([float(i) for i in range(30, 0, -1)]) == (20.0, pytest.approx(200 / 3))
    assert run.tail_latency([float(i) for i in range(11)]) == (0.0, pytest.approx(100 / 11))
    assert run.tail_latency([3.0, 1.0]) == (3.0, 100.0)
