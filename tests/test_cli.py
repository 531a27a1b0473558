import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from survscore import (
    EstimandSpec, WeightSpec, km_fit, parse_dataset, split_by_arm, standardize,
    standardize_pseudo, wlrt_test,
)
from survscore.cli import (
    CHOICES, METHODS, OPTIONS, PERM_MODES, _flag_spec, _tabulate, build_parser, main,
    parse_method_spec,
)
from survscore.logrank import WEIGHT_KINDS
from survscore.pseudo import ESTIMAND_KINDS
from survscore.curves import _product_limit
from tests import oracles
from tests.conftest import TOY_CSV, load_script, simulated_trial_csv, tied_rows_st

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENT = load_script("method_comparison_experiment")

SVG_NS = {"svg": "http://www.w3.org/2000/svg"}
SPEC_KEYS = {name: keys for name, (keys, build, _, _) in METHODS.items() if build}


def run(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_scores_csv(toy_csv_path, tmp_path):
    out = tmp_path / "scores.csv"
    assert run("scores", "--input", str(toy_csv_path), "--output", str(out)) == 0
    rows = read_csv(out)
    assert len(rows) == 12
    assert list(rows[0]) == ["time", "arm", "event", "survival", "weight", "score", "scaled_score"]
    times = [float(r["time"]) for r in rows]
    assert times == sorted(times)
    assert all(r["weight"] == "1" for r in rows)


def test_scores_json(toy_csv_path, capsys):
    assert run("scores", "--input", str(toy_csv_path), "--format", "json") == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 12
    assert isinstance(rows[0]["score"], float)


def test_scores_mw_requires_sstar(toy_csv_path, capsys):
    assert run("scores", "--input", str(toy_csv_path), "--test", "mw") == 1
    assert "error:" in capsys.readouterr().err


def test_pseudo_csv(toy_csv_path, tmp_path):
    out = tmp_path / "pseudo.csv"
    code = run(
        "pseudo", "--input", str(toy_csv_path), "--output", str(out),
        "--estimand", "rmst", "--tau", "18", "--backend", "km", "--pooling", "arm",
    )
    assert code == 0
    rows = read_csv(out)
    assert list(rows[0]) == ["time", "arm", "event", "loo_estimate", "pseudo", "scaled_pseudo"]
    # dataset order is preserved
    assert [r["time"] for r in rows[:3]] == ["34.64", "4.38", "28.69"]


def test_km_rows(toy_csv_path, capsys):
    assert run("km", "--input", str(toy_csv_path)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "time,survival,arm"
    per_arm = {"0": [], "1": []}
    for line in lines[1:]:
        time, survival, arm = line.split(",")
        per_arm[arm].append((float(time), float(survival)))
    # a row at t=0 plus one per distinct event time (4 on arm 0, 3 on arm 1)
    assert len(per_arm["0"]) == 5
    assert len(per_arm["1"]) == 4
    assert per_arm["0"][0] == (0.0, 1.0)
    assert per_arm["1"][-1][1] == 0.5


def test_km_pooled(toy_csv_path, capsys):
    assert run("km", "--input", str(toy_csv_path), "--pooled") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 8  # header + t=0 + 7 event times
    assert lines[1].endswith(",pooled")


@pytest.mark.parametrize("rows, flags, want", [
    # arm 1 has subjects but no event: its curve is flat at 1
    ("1,0,1\n2,0,1\n3,1,0\n4,1,0\n", [], "0,1,0\n1,0.5,0\n2,0,0\n0,1,1\n"),
    ("1,0,0\n2,1,0\n", ["--pooled"], "0,1,pooled\n"),
    ("1,0,0\n2,1,0\n", [], "0,1,0\n0,1,1\n"),
], ids=["arm-without-events", "pooled-without-events", "arms-without-events"])
def test_km_prints_a_flat_curve_for_a_group_without_events(tmp_path, capsys, rows, flags, want):
    path = tmp_path / "trial.csv"
    path.write_text("time,arm,event\n" + rows, encoding="utf-8")
    assert run("km", "--input", str(path), *flags) == 0
    assert capsys.readouterr().out == "time,survival,arm\n" + want


@pytest.mark.parametrize("rows, arm", [("1,0,1\n2,0,0\n", 1), ("1,1,1\n2,1,0\n", 0)],
                         ids=["no-arm-1", "no-arm-0"])
def test_km_refuses_an_arm_without_subjects(tmp_path, capsys, rows, arm):
    path = tmp_path / "trial.csv"
    path.write_text("time,arm,event\n" + rows, encoding="utf-8")
    assert run("km", "--input", str(path)) == 1
    assert capsys.readouterr() == ("", f"error: arm {arm} has no subjects\n")


@pytest.mark.parametrize("specs", [["logrank"], ["logrank", "rmst:tau=2"]], ids=["plot", "compare"])
def test_a_panel_refusal_names_its_spec(tmp_path, capsys, specs):
    # arm 0 is empty and the log-rank scores are valid: the panel refuses, not the fit
    path = tmp_path / "one_arm.csv"
    path.write_text("time,arm,event\n1,1,1\n2,1,0\n3,1,1\n", encoding="utf-8")
    out = tmp_path / "panels.svg"
    command = "plot" if len(specs) == 1 else "compare"
    argv = [command, *(word for spec in specs for word in ("--spec", spec))]
    assert run(*argv, "--input", str(path), "--output", str(out)) == 1
    assert capsys.readouterr() == ("", "error: panel 'logrank': arm 0 has no subjects\n")
    assert not out.exists()


@pytest.mark.parametrize("rows, arm", [
    ("1,0,1\n2,0,1\n4,0,0\n3,1,0\n5,1,0\n", 1),
    ("3,0,0\n5,0,0\n1,1,1\n2,1,1\n4,1,0\n", 0),
], ids=["arm-1-censored", "arm-0-censored"])
@pytest.mark.parametrize("method", [["rmst", "--tau", "3"], ["milestone", "--kappa", "3"]],
                         ids=["rmst", "milestone"])
def test_km_test_names_the_arm_without_events(tmp_path, capsys, rows, arm, method):
    # km draws such an arm flat at 1; the closed-form test refuses it, naming the arm
    path = tmp_path / "trial.csv"
    path.write_text("time,arm,event\n" + rows, encoding="utf-8")
    assert run("test", "--method", *method, "--input", str(path)) == 1
    assert capsys.readouterr() == (
        "", f"error: no event times: dataset contains only censored subjects (arm {arm})\n")


def test_test_json_asymptotic(toy_csv_path, capsys):
    assert run("test", "--input", str(toy_csv_path), "--method", "logrank") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "log-rank"
    assert payload["statistic"] == pytest.approx(-0.797439)
    assert payload["z"] == pytest.approx(-0.607314)
    assert payload["p_one_sided"] == pytest.approx(0.271821)
    assert payload["warnings"] == []
    assert "permutation" not in payload


def test_test_exact_permutation(toy_csv_path, capsys):
    assert run(
        "test", "--input", str(toy_csv_path), "--method", "logrank", "--perm", "exact"
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    perm = payload["permutation"]
    assert perm["mode"] == "exact"
    assert perm["direction"] == "lower"
    assert perm["assignments"] == 924
    assert perm["p"] == pytest.approx(252 / 924, abs=1e-6)


def test_test_exact_permutation_size_limit(tmp_path, capsys):
    # 30 subjects (1.6e8 assignments) are counted exactly; 60 are refused
    for n, code in ((30, 0), (60, 1)):
        path = tmp_path / f"trial{n}.csv"
        rows = "".join(f"{1 + (7 * i) % 23}.5,{i % 2},{int(i % 3 > 0)}\n" for i in range(n))
        path.write_text("time,arm,event\n" + rows, encoding="utf-8")
        assert run("test", "--input", str(path), "--method", "logrank", "--perm", "exact") == code
        out, err = capsys.readouterr()
        if code == 0:
            assert json.loads(out)["permutation"]["assignments"] == 155_117_520
        else:
            assert out == "" and err.count("\n") == 1 and "Monte-Carlo" in err


def test_exact_refusal_names_the_monte_carlo_flag(tmp_path, capsys):
    # it named only the library function mc_perm_p
    trial = simulated_trial_csv(tmp_path)
    assert run("test", "--input", str(trial), "--method", "logrank", "--perm", "exact") == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "--perm mc" in err


def test_experiment_returns_the_code_of_its_first_failing_step(toy_csv_path, tmp_path, capsys):
    # compare() raised SystemExit(1) out of main, so main never returned 1
    out = tmp_path / "experiment"
    argv = ["--input", str(toy_csv_path), "--output-dir", str(out), "--censor-max", "5"]
    assert EXPERIMENT.main(argv) == 1
    assert (out / "main_grid.svg").is_file() and (out / "fh_grid.svg").is_file()
    assert not (out / "censored_grid.svg").exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: panel 'logrank': no event times")


def test_experiment_draws_every_grid_past_a_failing_one(tmp_path, capsys):
    # arm 0 ends at t = 2: rmst:tau=18 fails the main grid and milestone:kappa=18 the
    # censored one, and the FH grid between them is still drawn
    trial = tmp_path / "short.csv"
    rows = ["0.5,0,1", "1,0,1", "1.5,0,0", "2,0,1", "1,1,1", "3,1,0", "5,1,1", "8,1,1",
            "12,1,0", "20,1,1"]
    trial.write_text("time,arm,event\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "experiment"
    assert EXPERIMENT.main(["--input", str(trial), "--output-dir", str(out)]) == 1
    assert not (out / "main_grid.svg").exists() and not (out / "censored_grid.svg").exists()
    assert (out / "fh_grid.svg").is_file() and (out / "fh_grid.csv").is_file()
    beyond = "horizon 18 beyond follow-up 2 (full fit, group arm 0)"
    assert capsys.readouterr().err.splitlines() == [
        f"error: panel 'rmst:tau=18': {beyond}", f"error: panel 'milestone:kappa=18': {beyond}"]


def test_test_mc_permutation_deterministic(toy_csv_path, capsys):
    args = (
        "test", "--input", str(toy_csv_path), "--method", "pseudo",
        "--estimand", "rmst", "--tau", "18",
        "--perm", "mc", "--replicates", "400", "--seed", "11",
    )
    assert run(*args) == 0
    first = capsys.readouterr().out
    assert run(*args) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["permutation"]["direction"] == "upper"
    assert payload["permutation"]["replicates"] == 400


def test_test_flip_direction(toy_csv_path, capsys):
    assert run("test", "--input", str(toy_csv_path), "--method", "logrank") == 0
    base = json.loads(capsys.readouterr().out)
    assert run(
        "test", "--input", str(toy_csv_path), "--method", "logrank", "--flip-direction",
        "--perm", "exact",
    ) == 0
    flipped = json.loads(capsys.readouterr().out)
    assert flipped["p_one_sided"] == pytest.approx(1.0 - base["p_one_sided"], abs=1e-6)
    assert flipped["permutation"]["direction"] == "upper"


# Strong harm on arm 1: all 200 of its events come at 1-3 months, arm 0's at 10-12.
STRONG_HARM_CSV = "time,arm,event\n" + "".join(
    f"{start + 2 * i / 199!r},{arm},1\n" for arm, start in ((1, 1.0), (0, 10.0)) for i in range(200)
)


def test_test_flip_direction_takes_the_other_tail(tmp_path, capsys):
    path = tmp_path / "harm.csv"
    path.write_text(STRONG_HARM_CSV, encoding="utf-8")
    assert run("test", "--input", str(path), "--method", "logrank", "--flip-direction") == 0
    payload = json.loads(capsys.readouterr().out)
    z = wlrt_test(parse_dataset(STRONG_HARM_CSV), WeightSpec.logrank()).z
    assert z > 20
    # Phi(-z), not 1 - Phi(z), which rounds to 0 this far out
    assert payload["p_one_sided"] > 0
    assert payload["p_one_sided"] == float(f"{0.5 * math.erfc(z / math.sqrt(2)):.6g}")


def test_test_method_selects_weight_function(toy_csv_path, capsys):
    assert run("test", "--input", str(toy_csv_path), "--method", "mw", "--sstar", "0.5") == 0
    mw = json.loads(capsys.readouterr().out)
    assert mw["method"] == "modest(s*=0.5)"
    assert run("test", "--input", str(toy_csv_path), "--method", "fh",
               "--rho", "0", "--gamma", "1") == 0
    fh = json.loads(capsys.readouterr().out)
    assert fh["method"] == "Fleming-Harrington(0,1)"
    assert fh["statistic"] != mw["statistic"]
    assert run("test", "--input", str(toy_csv_path), "--method", "mw") == 1
    assert "--sstar" in capsys.readouterr().err


def test_test_classical_methods(toy_csv_path, capsys):
    assert run("test", "--input", str(toy_csv_path), "--method", "rmst", "--tau", "18") == 0
    rmst_payload = json.loads(capsys.readouterr().out)
    assert rmst_payload["statistic"] == pytest.approx(3.14, abs=1e-3)
    assert run("test", "--input", str(toy_csv_path), "--method", "milestone", "--kappa", "18") == 0
    mls_payload = json.loads(capsys.readouterr().out)
    assert mls_payload["statistic"] == pytest.approx(0.0, abs=1e-9)


def test_test_classical_rejects_permutation(toy_csv_path, capsys):
    code = run(
        "test", "--input", str(toy_csv_path), "--method", "rmst", "--tau", "18",
        "--perm", "exact",
    )
    assert code == 1
    assert "per-subject values" in capsys.readouterr().err


def test_censor_deterministic(toy_csv_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(
            "censor", "--input", str(toy_csv_path), "--output", str(out),
            "--max", "26", "--seed", "3",
        ) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = read_csv(a)
    assert len(rows) == 12
    assert all(float(r["time"]) <= 34.64 for r in rows)


def test_censor_rejects_non_finite_bound(toy_csv_path, capsys):
    for bound in ("nan", "inf", "0"):
        assert run("censor", "--input", str(toy_csv_path), "--max", bound) == 1
        err = capsys.readouterr().err
        assert err == "error: censoring bound must be finite and positive\n"


def test_censor_rejects_bound_whose_draw_underflows(toy_csv_path, capsys):
    assert run("censor", "--input", str(toy_csv_path), "--max", "5e-324") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: censoring bound 5e-324 ")
    assert err.count("\n") == 1


def test_plot_writes_svg_and_sibling_csv(toy_csv_path, tmp_path):
    out = tmp_path / "panel.svg"
    assert run(
        "plot", "--input", str(toy_csv_path), "--spec", "fh:rho=0,gamma=1",
        "--output", str(out),
    ) == 0
    root = ET.parse(out).getroot()
    circles = root.findall(".//svg:circle", SVG_NS)
    assert len(circles) == 12
    rows = read_csv(tmp_path / "panel.csv")
    assert list(rows[0]) == ["time", "arm", "event", "scaled_value"]
    assert len(rows) == 12


def test_plot_requires_output(toy_csv_path, capsys):
    assert run("plot", "--input", str(toy_csv_path), "--spec", "logrank") == 1
    assert capsys.readouterr().err == "error: plot and compare require --output\n"


def test_compare_panels_and_combined_csv(toy_csv_path, tmp_path):
    out = tmp_path / "cmp.svg"
    assert run(
        "compare", "--input", str(toy_csv_path),
        "--spec", "logrank",
        "--spec", "mw:sstar=0.5",
        "--spec", "milestone:kappa=18,backend=pwexp,breakpoints=2:4:6:8",
        "--output", str(out),
    ) == 0
    root = ET.parse(out).getroot()
    assert len(root.findall("svg:g", SVG_NS)) == 3
    rows = read_csv(tmp_path / "cmp.csv")
    assert list(rows[0]) == ["method", "time", "arm", "event", "scaled_value"]
    assert len(rows) == 36
    assert len({r["method"] for r in rows}) == 3


def test_compare_needs_two_specs(toy_csv_path, tmp_path, capsys):
    code = run(
        "compare", "--input", str(toy_csv_path), "--spec", "logrank",
        "--output", str(tmp_path / "x.svg"),
    )
    assert code == 1
    assert "at least two" in capsys.readouterr().err


@pytest.mark.parametrize("text", EXPERIMENT.MAIN_GRID + EXPERIMENT.FH_GRID)
def test_panel_draws_the_map_of_what_its_test_tested(text, toy):
    spec = parse_method_spec(text)
    tested = spec.test(toy).per_subject
    assert not hasattr(tested, "scaled")
    mapped = (standardize if isinstance(spec, WeightSpec) else standardize_pseudo)(tested)
    assert list(map(float.hex, spec.scaled(toy))) == list(map(float.hex, mapped))


def test_utf8_bom_input(tmp_path, toy_csv_path, capsys):
    bom = tmp_path / "bom.csv"
    bom.write_text("\ufeff" + TOY_CSV, encoding="utf-8")
    assert run("km", "--input", str(bom)) == 0
    with_bom = capsys.readouterr().out
    assert run("km", "--input", str(toy_csv_path)) == 0
    assert with_bom == capsys.readouterr().out


def test_bad_input_file_is_single_line_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,arm,event\n-1,0,1\n")
    assert run("scores", "--input", str(bad)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert "line 2" in err


def test_parse_method_spec():
    spec = parse_method_spec("logrank")
    assert spec == WeightSpec.logrank() and spec.benefit == "lower"
    spec = parse_method_spec("fh:rho=1,gamma=0.5")
    assert (spec.rho, spec.gamma) == (1.0, 0.5)
    spec = parse_method_spec("rmst:tau=18,backend=exp,pooling=pooled")
    assert isinstance(spec, EstimandSpec) and spec.benefit == "upper"
    assert (spec.backend, spec.pooling) == ("exponential", "pooled")
    spec = parse_method_spec("milestone:kappa=12,backend=pwexp,breakpoints=1:2:3")
    assert spec.breakpoints == (1.0, 2.0, 3.0)
    spec = parse_method_spec("ahsw:tau=9,log=off")
    assert spec.log_scale is False and spec.benefit == "lower"
    with pytest.raises(ValueError, match="unknown method"):
        parse_method_spec("cox")
    with pytest.raises(ValueError, match="unknown keys"):
        parse_method_spec("logrank:tau=3")
    with pytest.raises(ValueError, match="sstar"):
        parse_method_spec("mw")
    with pytest.raises(ValueError, match="pooling given twice"):
        parse_method_spec("rmst:tau=9,pooling=arm,pooling=pooled")


@pytest.mark.parametrize("text", [
    "rmst:tau=18,kappa=nan",
    "rmst:tau=18,log=on",
    "milestone:kappa=18,log=off",
    "milestone:kappa=18,tau=6",
    "wmst:tau1=6,tau2=18,tau=3",
    "ahsw:tau=9,kappa=3",
    "ahsw:tau=9,tau2=18",
])
def test_spec_refuses_keys_its_estimand_never_reads(text):
    with pytest.raises(ValueError, match="unknown keys"):
        parse_method_spec(text)


def test_spec_keys_every_estimand_reads():
    fit = "backend=pwexp,breakpoints=1:2,pooling=pooled"
    for text in ("rmst:tau=9", "milestone:kappa=9", "wmst:tau1=3,tau2=9", "ahsw:tau=9,log=off"):
        spec = parse_method_spec(f"{text},{fit}")
        assert (spec.backend, spec.breakpoints, spec.pooling) == ("piecewise", (1.0, 2.0), "pooled")


@pytest.mark.parametrize("argv", [
    ["compare", "--spec", "rmst:tau=18,kappa=nan", "--spec", "logrank"],
    ["plot", "--spec", "milestone:kappa=18,log=off"],
])
def test_cli_refuses_spec_keys_never_read(argv, toy_csv_path, tmp_path, capsys):
    out = tmp_path / "out.svg"
    assert run(*argv, "--input", str(toy_csv_path), "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad method spec") and "unknown keys" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["plot", "--spec", "rmst:tau=18,tau=6"], "tau"),
    (["compare", "--spec", "logrank", "--spec", "mw:sstar=0.5, sstar=0.9"], "sstar"),
])
def test_cli_refuses_repeated_spec_key(argv, key, toy_csv_path, tmp_path, capsys):
    out = tmp_path / "out.svg"
    assert run(*argv, "--input", str(toy_csv_path), "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad method spec") and f"{key} given twice" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    ("test --method rmst --tau 18 --backend exp --pooling pooled", "--backend"),
    ("test --method logrank --backend pwexp --breakpoints nan", "--breakpoints"),
    ("scores --test fh --sstar 7", "--sstar"),
    ("pseudo --estimand milestone --kappa 18 --tau inf --ahsw-scale ratio", "--ahsw-scale"),
    ("test --method logrank --replicates 5", "--replicates"),
    ("test --method fh --perm exact --seed 3", "--seed"),
    ("test --method logrank --estimand rmst", "--estimand"),
])
def test_cli_refuses_flags_its_method_never_reads(argv, flag, toy_csv_path, capsys):
    assert run(*argv.split(), "--input", str(toy_csv_path)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert flag in err


# One text per option, as a flag takes it and as a spec key takes it.
SAMPLE_TEXTS = {
    "rho": ("1", "1"), "gamma": ("0.5", "0.5"), "sstar": ("0.5", "0.5"),
    "tau": ("9", "9"), "kappa": ("9", "9"), "tau1": ("3", "3"), "tau2": ("9", "9"),
    "backend": ("pwexp", "pwexp"), "breakpoints": ("1,2", "1:2"), "pooling": ("pooled", "pooled"),
    "log": ("ratio", "off"),
}


def _specs_both_ways(name, keys):
    """The spec of ``name`` with ``keys`` given, built from flags and from --spec text."""
    if name in ("logrank", "fh", "mw"):
        argv = ["test", "--method", name]
    else:
        argv = ["test", "--method", "pseudo", "--estimand", name]
    for key in keys:
        argv += [OPTIONS[key][0], SAMPLE_TEXTS[key][0]]
    from_flags = _flag_spec(name, build_parser().parse_args(argv + ["--input", "unused.csv"]))
    text = ",".join(f"{key}={SAMPLE_TEXTS[key][1]}" for key in keys)
    return from_flags, parse_method_spec(f"{name}:{text}" if text else name)


@pytest.mark.parametrize("name", sorted(SPEC_KEYS))
def test_flag_and_spec_spellings_give_one_spec(name):
    required = [key for key in SPEC_KEYS[name] if OPTIONS[key][2] is None]
    from_flags, base = _specs_both_ways(name, required)
    assert from_flags == base
    for key in SPEC_KEYS[name]:
        if key not in required:
            # breakpoints are read only with backend pwexp
            keys = [*required, "backend", key] if key == "breakpoints" else [*required, key]
            from_flags, from_spec = _specs_both_ways(name, keys)
            assert from_flags == from_spec != base  # each sample text differs from the default


def test_method_table_lists_the_library_kinds():
    assert CHOICES["estimand"][1] == ESTIMAND_KINDS
    specs = [f"{name}:" + ",".join(f"{key}={SAMPLE_TEXTS[key][1]}" for key in SPEC_KEYS[name])
             for name in CHOICES["test"][1]]
    assert sorted(parse_method_spec(spec).kind for spec in specs) == sorted(WEIGHT_KINDS)


@pytest.mark.parametrize("argv, message", [
    ("pseudo --estimand rmst --tau abc", "bad --tau 'abc'"),
    ("censor --max abc", "bad --max 'abc'"),
    ("test --method logrank --perm mc --replicates 1e3", "bad --replicates '1e3'"),
    ("compare --spec logrank --spec mw:sstar=0.5 --columns x", "bad --columns 'x'"),
    # a word that reads as NaN is not echoed
    ("pseudo --estimand ahsw --tau 9 --backend nan", "bad --backend: expected km, exp, pwexp"),
    ("pseudo --estimand ahsw --tau 9 --pooling NaN", "bad --pooling: expected arm, pooled"),
    ("pseudo --estimand ahsw --tau 9 --ahsw-scale=-nan", "bad --ahsw-scale: expected log, ratio"),
    ("pseudo --estimand nan", "bad --estimand: expected rmst, milestone, wmst, ahsw"),
    ("scores --test nan", "bad --test: expected logrank, fh, mw"),
    ("test --method nan", "bad --method: expected rmst, milestone, logrank, fh, mw, pseudo"),
    ("test --method logrank --perm nan", "bad --perm: expected exact, mc"),
    ("km --format nan", "bad --format: expected csv, json"),
    ("plot --spec nan", "bad method spec: unknown method"),
    ("plot --spec rmst:tau=9,backend=nan",
     "bad method spec rmst: bad backend: expected km, exp, pwexp"),
    ("plot --spec rmst:tau=9,pooling=+NaN",
     "bad method spec rmst: bad pooling: expected arm, pooled"),
    ("plot --spec ahsw:tau=9,log=nan", "bad method spec ahsw: bad log: expected on, off"),
    ("test --method logrank --perm mc --replicates nan", "bad --replicates"),
    ("test --method logrank --perm mc --seed NaN", "bad --seed"),
    ("censor --seed nan", "bad --seed"),
    ("compare --spec logrank --spec mw:sstar=0.5 --columns nan", "bad --columns"),
], ids=["tau-abc", "max-abc", "replicates-1e3", "columns-x", "backend-nan", "pooling-nan",
        "ahsw-scale-nan", "estimand-nan", "test-nan", "method-nan", "perm-nan", "format-nan",
        "spec-nan", "spec-backend-nan", "spec-pooling-nan", "spec-log-nan", "replicates-nan",
        "test-seed-nan", "censor-seed-nan", "columns-nan"])
def test_bad_flag_value_is_one_exact_line(argv, message, toy_csv_path, tmp_path, capsys):
    """Every flag text and spec word is read in one way: exit 1, one line, no NaN echoed."""
    out = tmp_path / "out.svg"
    assert run(*argv.split(), "--input", str(toy_csv_path), "--output", str(out)) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, choices", [
    ("--backend", "km, exp, pwexp"), ("--pooling", "arm, pooled"), ("--ahsw-scale", "log, ratio"),
])
def test_bad_choice_flag_word_is_one_line_error(flag, choices, toy_csv_path, capsys):
    argv = ["pseudo", "--estimand", "ahsw", "--tau", "9", flag, "foo"]
    assert run(*argv, "--input", str(toy_csv_path)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: bad {flag} 'foo': expected {choices}\n"


@pytest.mark.parametrize("argv, flag, expected", [
    (["pseudo", "--estimand", "foo"], "--estimand", "rmst, milestone, wmst, ahsw"),
    (["scores", "--test", "foo"], "--test", "logrank, fh, mw"),
    (["test", "--method", "foo"], "--method", "rmst, milestone, logrank, fh, mw, pseudo"),
    (["test", "--method", "pseudo", "--estimand", "foo"], "--estimand",
     "rmst, milestone, wmst, ahsw"),
    (["test", "--method", "logrank", "--perm", "foo"], "--perm", "exact, mc"),
    (["km", "--format", "foo"], "--format", "csv, json"),
], ids=["pseudo-estimand", "scores-test", "test-method", "test-estimand", "test-perm", "format"])
def test_bad_choice_word_outside_options_is_one_line_error(argv, flag, expected, toy_csv_path,
                                                           capsys):
    assert run(*argv, "--input", str(toy_csv_path)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: bad {flag} 'foo': expected {expected}\n"


def test_cli_import_loads_no_xml_network_or_hashing_module():
    """Nor pathlib or typing: files are opened with open() and os.path, and a class constant
    needs no ClassVar.  Nor process or thread machinery: the Monte-Carlo workers are plain
    forks.  The cold start loads at most 104 modules in all."""
    probe = ("import sys, survscore.cli as cli; cli.build_parser(); "
             "print('\\n'.join(sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    banned = ("xml", "http", "email", "ssl", "socket", "hashlib", "html", "urllib.request",
              "pathlib", "typing", "threading", "multiprocessing", "concurrent", "subprocess")
    modules = done.stdout.split()
    loaded = [name for name in modules if any(name == b or name.startswith(b + ".") for b in banned)]
    assert loaded == []
    assert len(modules) <= 104


@pytest.mark.parametrize("word", ["log", "ratio", "yes", ""])
def test_spec_log_key_reads_only_on_or_off(word):
    with pytest.raises(ValueError, match="bad log .*: expected on, off"):
        parse_method_spec(f"ahsw:tau=9,log={word}")


@pytest.mark.parametrize("argv, message", [
    (["compare", "--spec", "rmst:tau=-1", "--spec", "wmst:tau1=9,tau2=3"],
     "bad method spec 'rmst:tau=-1': rmst needs a finite positive horizon tau"),
    (["plot", "--spec", "rmst:tau=9,pooling=foo"],
     "bad method spec 'rmst:tau=9,pooling=foo': bad pooling 'foo': expected arm, pooled"),
    (["plot", "--spec", "rmst:tau=x"], "bad method spec 'rmst:tau=x': bad tau 'x'"),
    (["plot", "--spec", "wmst:tau1=6"], "bad method spec 'wmst:tau1=6': wmst requires tau2"),
    # every spec is parsed before any panel: rmst:tau=40 past the toy's follow-up is not reached
    (["compare", "--spec", "rmst:tau=40", "--spec", "banana"],
     "bad method spec 'banana': unknown method 'banana'"),
])
def test_bad_spec_names_its_spec_text(argv, message, toy_csv_path, tmp_path, capsys):
    out = tmp_path / "out.svg"
    assert run(*argv, "--input", str(toy_csv_path), "--output", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not out.with_suffix(".csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["compare", "--spec", "banana", "--spec", "logrank"],
     "bad method spec 'banana': unknown method 'banana'"),
    (["plot", "--spec", "mw:sstar=0.5,nanny=1"],
     "bad method spec 'mw:sstar=0.5,nanny=1': unknown keys for mw: nanny"),
    (["plot", "--spec", "rmst:tau=nan"],
     "bad method spec rmst: rmst needs a finite positive horizon tau"),
    (["plot", "--spec", "fh:rho=-nan"], "bad method spec fh: rho must be finite and nonnegative"),
    (["plot", "--spec", "rmst:tau=9,backend=pwexp,breakpoints=1:NaN"],
     "bad method spec rmst: breakpoints must be finite"),
    (["plot", "--spec", "rmst:tau=9,nan=3"], "bad method spec rmst: unknown keys for rmst"),
    (["plot", "--spec", "rmst:tau=9,NaN"], "bad method spec rmst: expected key=value"),
    (["plot", "--spec", "rmst:tau=9,-nan=3,-nan=6"], "bad method spec rmst: a key given twice"),
], ids=["banana", "nanny", "tau-nan", "rho-minus-nan", "breakpoint-nan", "key-nan", "pair-nan",
        "key-nan-twice"])
def test_spec_text_is_dropped_only_for_a_nan_value(argv, message, toy_csv_path, tmp_path, capsys):
    """A spec is quoted unless a key or value in it reads as a NaN float, which no diagnostic
    prints."""
    out = tmp_path / "out.svg"
    assert run(*argv, "--input", str(toy_csv_path), "--output", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["pseudo", "--estimand", "rmst", "--tau", "3", "--backend", "km", "--breakpoints", "1,2"],
     "--breakpoints: read only with --backend pwexp"),
    (["test", "--method", "pseudo", "--estimand", "rmst", "--tau", "3", "--backend", "exp",
      "--breakpoints", "1,2"], "--breakpoints: read only with --backend pwexp"),
    (["plot", "--spec", "rmst:tau=3,breakpoints=1:2"],
     "bad method spec 'rmst:tau=3,breakpoints=1:2': breakpoints: read only with backend pwexp"),
])
def test_breakpoints_without_pwexp_are_refused(argv, message, toy_csv_path, tmp_path, capsys):
    out = tmp_path / "out.svg"
    assert run(*argv, "--input", str(toy_csv_path), "--output", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


ASCENT = "breakpoints must be positive and strictly ascending"


@pytest.mark.parametrize("argv, message", [
    (["plot", "--spec", "rmst:tau=18,backend=pwexp,breakpoints=4:2"],
     f"bad method spec 'rmst:tau=18,backend=pwexp,breakpoints=4:2': {ASCENT}"),
    (["compare", "--spec", "logrank", "--spec", "milestone:kappa=9,backend=pwexp,breakpoints=2:2"],
     f"bad method spec 'milestone:kappa=9,backend=pwexp,breakpoints=2:2': {ASCENT}"),
    (["pseudo", "--estimand", "rmst", "--tau", "18", "--backend", "pwexp", "--breakpoints", "4,2"],
     ASCENT),
    (["test", "--method", "pseudo", "--estimand", "ahsw", "--tau", "9", "--backend", "pwexp",
      "--breakpoints", "0,2"], ASCENT),
], ids=["plot", "compare", "pseudo", "test"])
def test_bad_breakpoints_are_a_spec_error(argv, message, toy_csv_path, tmp_path, capsys):
    """Refused with the spec, before any group is fitted, so no group is named."""
    out = tmp_path / "out.svg"
    assert run(*argv, "--input", str(toy_csv_path), "--output", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["compare", "--spec", "logrank", "--spec", "rmst:tau=40"],
     "panel 'rmst:tau=40': horizon 40 beyond follow-up 34.64 (full fit, group arm 0)"),
    (["plot", "--spec", "milestone:kappa=34"],
     "panel 'milestone:kappa=34': horizon 34 beyond follow-up 28.69 (after removing subject 0)"),
], ids=["full-fit", "leave-one-out"])
def test_panel_that_cannot_be_computed_names_its_spec(argv, message, toy_csv_path, tmp_path,
                                                      capsys):
    out = tmp_path / "out.svg"
    assert run(*argv, "--input", str(toy_csv_path), "--output", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_panel_of_equal_scores_names_its_spec(tmp_path, capsys):
    path = tmp_path / "degenerate.csv"
    path.write_text(DEGENERATE_CSV, encoding="utf-8")
    out = tmp_path / "out.svg"
    argv = ["compare", "--spec", "mw:sstar=0.5", "--spec", "logrank", "--input", str(path)]
    assert run(*argv, "--output", str(out)) == 1
    assert capsys.readouterr().err == (
        "error: panel 'mw:sstar=0.5': degenerate score range: all scores equal\n"
    )
    assert not out.exists()


# Every score is 0: one event time at which both subjects have their event.
DEGENERATE_CSV = "time,arm,event\n5,0,1\n5,1,1\n"


@pytest.mark.parametrize("method", [["logrank"], ["fh", "--gamma", "1"]])
def test_test_on_equal_scores_reads_z_zero(method, tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text(DEGENERATE_CSV, encoding="utf-8")
    argv = ["test", "--method", *method, "--input", str(path)]
    assert run(*argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [payload[k] for k in ("statistic", "variance", "z", "p_one_sided")] == [0, 0, 0, 0.5]
    assert run(*argv, "--perm", "exact") == 0
    assert json.loads(capsys.readouterr().out)["permutation"]["p"] == 1.0


@pytest.mark.parametrize("given_argv, omitted_argv", [
    ("scores --test fh --rho 0 --gamma 0", "scores --test fh"),
    ("pseudo --estimand ahsw --tau 18 --backend km --pooling arm --ahsw-scale log",
     "pseudo --estimand ahsw --tau 18"),
    ("pseudo --estimand rmst --tau 18 --backend pwexp --breakpoints 2,4,6,8",
     "pseudo --estimand rmst --tau 18 --backend pwexp"),
    ("test --method logrank --perm mc --replicates 10000 --seed 0",
     "test --method logrank --perm mc"),
])
def test_defaults_given_print_what_omitted_prints(given_argv, omitted_argv, toy_csv_path, capsys):
    outputs = []
    for argv in (given_argv, omitted_argv):
        assert run(*argv.split(), "--input", str(toy_csv_path)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# Numbers no horizon, weight or layout admits, plus a few that some do.
EDGE_NUMBERS = ["nan", "inf", "-inf", "0", "-1", "-0.5", "1e300", "1e308", "0.5", "6", "18"]
edge = st.sampled_from(EDGE_NUMBERS)
HORIZONS = ("tau", "kappa", "tau1", "tau2")
# Half the drawn horizons lie inside the toy trial's follow-up (4.38 to 34.64),
# so the property reaches the estimators and not only the spec checks.
horizon = edge | st.floats(min_value=0.5, max_value=30).map("{:.2f}".format)
NAN_WORDS = ["nan", "NaN", "-nan"]  # words no flag admits that read as NaN, which no error echoes


def _words(*words):
    """One of the words a flag admits, or one time in four a NaN word."""
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(NAN_WORDS if k == 0 else words))


OPTION_VALUES = {  # method key -> its flag and the values drawn for it
    **{key: (f"--{key}", edge) for key in ("rho", "gamma", "sstar")},
    **{key: (f"--{key}", horizon) for key in HORIZONS},
    "backend": ("--backend", _words("km", "exp", "pwexp")),
    "breakpoints": ("--breakpoints", st.builds("{},{}".format, edge, edge)),
    "pooling": ("--pooling", _words("arm", "pooled")),
    "log": ("--ahsw-scale", _words("log", "ratio")),
}
ESTIMANDS = ["rmst", "milestone", "wmst", "ahsw"]


def _method_flags(draw, own, strays):
    """Each of the method's ``own`` keys as a flag, and now and then one stray.

    A horizon, which its estimand needs, is given with chance 3/4; any other key with chance 1/2.
    """
    keys = [key for key in own if draw(st.booleans()) or (key in HORIZONS and draw(st.booleans()))]
    if draw(st.integers(0, 7)) == 0:
        keys.append(draw(st.sampled_from(sorted(set(strays) - set(own)))))
    return [f"{OPTION_VALUES[key][0]}={draw(OPTION_VALUES[key][1])}" for key in keys]


@st.composite
def _pseudo_argv(draw):
    estimand = draw(st.sampled_from(ESTIMANDS))
    strays = [key for name in ESTIMANDS for key in SPEC_KEYS[name]]
    return ["pseudo", "--estimand", estimand, *_method_flags(draw, SPEC_KEYS[estimand], strays)]


@st.composite
def _test_argv(draw):
    method = draw(_words("rmst", "milestone", "logrank", "fh", "mw", "pseudo"))
    argv = ["test", f"--method={method}"]
    if method in NAN_WORDS:
        return argv
    if method == "pseudo":
        estimand = draw(st.sampled_from(ESTIMANDS))
        argv += ["--estimand", estimand]
        own = SPEC_KEYS[estimand]
    else:
        route = METHODS[method][3]  # a closed-form test reads only its own keys
        own = SPEC_KEYS[method] if route is None else route[1]
    argv += _method_flags(draw, own, OPTION_VALUES)
    if draw(st.booleans()):
        argv += [f"--perm={draw(_words('mc'))}", f"--replicates={draw(st.just('50') | edge)}"]
        if draw(st.booleans()):
            argv.append(f"--seed={draw(edge)}")
    return argv


@st.composite
def _censor_argv(draw):
    return ["censor", *(f"{flag}={draw(edge)}" for flag in ("--max", "--seed")
                        if draw(st.booleans()))]


OUT = "<out>"  # stands for the SVG path, which exists only inside the test


@st.composite
def _compare_argv(draw):
    nan_key = draw(st.sampled_from(NAN_WORDS))
    specs = [
        f"rmst:tau={draw(edge)}",
        f"milestone:kappa={draw(edge)},backend={draw(st.sampled_from(['km', 'exp', 'pwexp']))}",
        f"wmst:tau1={draw(edge)},tau2={draw(edge)}",
        f"ahsw:tau={draw(edge)},backend=exp",
        f"fh:rho={draw(edge)},gamma={draw(edge)}",
        f"mw:sstar={draw(edge)}",
        f"rmst:tau=18,backend=pwexp,breakpoints={draw(edge)}:{draw(edge)}",
        f"ahsw:tau={draw(edge)},log={draw(_words('on', 'off'))}",
        f"milestone:kappa=18,{draw(st.sampled_from(['backend', 'pooling']))}=nan",
        f"rmst:tau=18,{nan_key}=3",
        f"rmst:tau=18,{nan_key}",
        f"rmst:tau=18,{nan_key}=3,{nan_key}=6",
        draw(st.sampled_from(NAN_WORDS)),
    ]
    chosen = draw(st.lists(st.sampled_from(specs), min_size=2, max_size=3))
    argv = ["compare", "--output", OUT]
    for spec in chosen:
        argv.append(f"--spec={spec}")
    return argv + [f"--columns={draw(st.sampled_from([-1, 0, 1, 2, 10**9, 'nan']))}"]


NAN = re.compile(r"\bnan\b", re.IGNORECASE)
INF = re.compile(r"\binf(inity)?\b", re.IGNORECASE)  # -inf too; JSON writes Infinity
# An exponential fit integrates any horizon, so a huge tau drives the
# pseudo-values of this trial, and their sum of squares, past the float range.
ONE_EARLY_EVENT_CSV = "time,arm,event\n1,0,1\n2,0,0\n3,0,0\n1.5,1,1\n2.5,1,1\n3.5,1,0\n"


def _assert_contract(argv, written_paths=(), refusal=None):
    """Exit 0, 1 or 2 with no traceback; a one-line error on exit 1; no NaN printed; and on
    exit 0 no infinity in stdout or in a written file.  With ``refusal``, exit 1 with
    exactly that error."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2)
    written = [p.read_text() for p in written_paths if p.exists()]
    for text in [stdout.getvalue(), stderr.getvalue()] + written:
        assert not NAN.search(text), (argv, text[:300])
    if code == 0:
        for text in [stdout.getvalue()] + written:
            assert not INF.search(text), (argv, text[:300])
    if code == 1:
        assert stderr.getvalue().startswith("error:")
        assert len(stderr.getvalue().strip().splitlines()) == 1
    if refusal is not None:
        assert (code, stderr.getvalue()) == (1, f"error: {refusal}\n"), argv
    return code


@given(argv=st.one_of(_pseudo_argv(), _test_argv(), _compare_argv(), _censor_argv()),
       one_early_event=st.booleans())
@example(argv=["pseudo", "--estimand", "rmst", "--tau=1e300", "--backend=exp"], one_early_event=True)
@example(argv=["pseudo", "--estimand", "rmst", "--tau=1e308", "--backend=exp"], one_early_event=True)
@example(argv=["test", "--method", "pseudo", "--estimand", "rmst", "--tau=1e300", "--backend=exp"],
         one_early_event=True)
@example(argv=["test", "--method", "pseudo", "--estimand", "rmst", "--tau=1e308", "--backend=exp"],
         one_early_event=True)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_contract_under_edge_flag_values(toy_csv_path, tmp_path, argv, one_early_event):
    """Any flag values on either input: exit 0, 1 or 2 with no traceback, and no NaN printed."""
    out = tmp_path / "cmp.svg"
    for stale in (out, out.with_suffix(".csv")):
        stale.unlink(missing_ok=True)
    one = tmp_path / "one.csv"
    one.write_text(ONE_EARLY_EVENT_CSV, encoding="utf-8")
    source = one if one_early_event else toy_csv_path
    argv = [str(out) if arg == OUT else arg for arg in argv] + ["--input", str(source)]
    _assert_contract(argv, (out, out.with_suffix(".csv")))


@pytest.mark.parametrize("argv", [
    ["pseudo", "--estimand", "rmst", "--tau", "1e308", "--backend", "exp"],
    ["test", "--method", "pseudo", "--estimand", "rmst", "--tau", "1e200", "--backend", "exp"],
])
def test_cli_contract_at_overflowing_horizons(argv, tmp_path):
    one = tmp_path / "one.csv"
    one.write_text(ONE_EARLY_EVENT_CSV, encoding="utf-8")
    assert _assert_contract(argv + ["--input", str(one)]) == 1


# arm 1's exponential rate is 3 events over about 1e300 months of follow-up, about 3e-300
TINY_RATE_CSV = "time,arm,event\n2,1,1\n0.5,1,1\n1e300,1,1\n1,0,1\n3,0,1\n"


def test_exp_rmst_at_a_tiny_rate_is_not_zero(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text(TINY_RATE_CSV, encoding="utf-8")
    assert run("pseudo", "--estimand", "rmst", "--tau", "1", "--backend", "exp",
               "--input", str(path)) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    # without subject 0 or 1, arm 1 keeps a rate near 2e-300: S is 1 on [0, 1]
    assert [float(row["loo_estimate"]) for row in rows[:2]] == [1.0, 1.0]


def test_ahsw_at_a_tiny_rate_is_one_error_line(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(TINY_RATE_CSV, encoding="utf-8")
    argv = ["pseudo", "--estimand", "ahsw", "--tau", "1", "--backend", "exp", "--input", str(path)]
    assert _assert_contract(argv) == 1  # arm 1's S(1) is 1.0: no log of 0
    assert _assert_contract([*argv, "--ahsw-scale", "ratio"]) == 0


@pytest.mark.parametrize("scale", ["log", "ratio"])
def test_ahsw_zero_integral_is_one_error_line(scale, toy_csv_path, monkeypatch):
    for module in ("curves", "pseudo"):
        monkeypatch.setattr(f"survscore.{module}.piecewise_rmst", lambda *args: 0.0)
    argv = ["test", "--method", "pseudo", "--estimand", "ahsw", "--tau", "18", "--backend", "exp",
            "--ahsw-scale", scale, "--input", str(toy_csv_path)]
    assert _assert_contract(argv) == 1


@pytest.mark.parametrize("rows", [
    "1,0,1\n2,0,1\n3,1,1\n4,1,0\n1.7976931348623157e308,0,0\n",  # next round number: inf
    "5e-324,0,1\n5e-324,1,1\n5e-324,0,0\n5e-324,1,0\n5e-324,1,1\n",  # power of 10: 0
])
def test_svg_axis_at_the_float_range_ends_prints_no_inf_or_nan(rows, tmp_path):
    path = tmp_path / "ends.csv"
    path.write_text("time,arm,event\n" + rows, encoding="utf-8")
    out = tmp_path / "plot.svg"
    argv = ["plot", "--spec", "logrank", "--input", str(path), "--output", str(out)]
    assert _assert_contract(argv, (out, out.with_suffix(".csv"))) == 0


def _contract_argvs():
    """One small argv per METHODS row (its table and its panel), per test --method route and
    per --perm mode, each key without a default given its SAMPLE_TEXTS text; and km, censor."""
    argvs = [["km"], ["censor"]]
    for name, (keys, build, lists, route) in METHODS.items():
        reads = keys if route is None else route[1]
        needed = [key for key in reads if OPTIONS[key][2] is None]
        flags = [text for key in needed for text in (OPTIONS[key][0], SAMPLE_TEXTS[key][0])]
        if "test" in lists:
            argvs.append(["scores", "--test", name, *flags])
        if "estimand" in lists:
            argvs.append(["pseudo", "--estimand", name, *flags, "--backend", "exp"])
        if build:
            pairs = ",".join(f"{key}={SAMPLE_TEXTS[key][1]}" for key in needed)
            argvs.append(["plot", "--spec", f"{name}:{pairs}" if pairs else name, "--output", OUT])
        if "method" in lists:
            estimand = [] if build else ["--estimand", "ahsw", "--tau", "9", "--backend", "exp"]
            argvs.append(["test", "--method", name, *flags, *estimand])
    for mode in PERM_MODES:
        replicates = ["--replicates", "20"] if mode == "mc" else []
        argvs.append(["test", "--method", "mw", "--sstar", "0.5", "--perm", mode, *replicates])
    return argvs


CONTRACT_ARGVS = _contract_argvs()
# Times over the whole positive float range; drawing from a few of them makes ties.
CSV_TIMES = [5e-324, 1e-300, 1e-10, 0.5, 1.0, 2.5, 6.0, 9.0, 12.0, 30.0, 1e16, 1e300,
             sys.float_info.max]


@st.composite
def _trial_csv_texts(draw):
    """1-12 rows over at most six times; now and then one arm or no event, a BOM or CRLF."""
    times = draw(st.lists(st.sampled_from(CSV_TIMES), min_size=1, max_size=6, unique=True))
    arms = draw(st.sampled_from([(0, 1), (0, 1), (0, 1), (0,), (1,)]))
    events = draw(st.sampled_from([(0, 1), (0, 1), (1,), (0,)]))
    size = draw(st.integers(1, 12))
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, (times, arms, events))),
                         min_size=size, max_size=size))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["time,arm,event", *(f"{t!r},{a},{e}" for t, a, e in rows)]
    return draw(st.sampled_from(["", "\ufeff"])) + newline.join(lines) + newline


@given(text=_trial_csv_texts())
@example(text=TINY_RATE_CSV)
@example(text="time,arm,event\n1,0,1\n2,0,1\n3,1,1\n4,1,0\n1.7976931348623157e308,0,0\n")
@example(text="time,arm,event\n5e-324,0,1\n5e-324,1,1\n5e-324,0,0\n5e-324,1,0\n5e-324,1,1\n")
@example(text="time,arm,event\n1.0,1,0\n2.5,1,0\n")  # one arm, no event
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_contract_on_any_trial_csv(text, tmp_path):
    """Any trial CSV text, through every method, route and --perm mode: the CLI contract holds.

    On a trial with an empty arm, every two-sample command (km, test, plot) refuses it first,
    with the one text, which a panel prefixes with its spec.
    """
    path = tmp_path / "trial.csv"
    path.write_bytes(text.encode("utf-8"))
    labels = {row.split(",")[1] for row in text.splitlines()[1:]}
    empty = next((arm for arm in "01" if arm not in labels), None)
    out = tmp_path / "panel.svg"
    for argv in CONTRACT_ARGVS:
        for stale in (out, out.with_suffix(".csv")):
            stale.unlink(missing_ok=True)
        refusal = None
        if empty and argv[0] in ("km", "test", "plot"):
            prefix = f"panel {argv[2]!r}: " if argv[0] == "plot" else ""
            refusal = f"{prefix}arm {empty} has no subjects"
        argv = [str(out) if arg == OUT else arg for arg in argv] + ["--input", str(path)]
        _assert_contract(argv, (out, out.with_suffix(".csv")), refusal)


@given(rows=tied_rows_st)
@example(rows=[(2.0, 0, 1), (2.0, 1, 0), (2.0, 1, 1), (1.0, 0, 0), (4.0, 1, 0)])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_scores_survival_column_is_the_left_limit(rows, tmp_path, monkeypatch):
    path = tmp_path / "tied.csv"
    path.write_text("time,arm,event\n" + "".join(f"{t},{a},{e}\n" for t, a, e in rows),
                    encoding="utf-8")
    tables = []
    monkeypatch.setattr("survscore.cli._tabulate", lambda columns, fmt: tables.append(columns) or "")
    if run("scores", "--input", str(path)) != 0:
        return  # no event, or all scores equal: nothing is tabulated
    pooled = km_fit(parse_dataset(path.read_text(encoding="utf-8")))
    (columns,) = tables
    steps = list(zip(pooled.jump_times, pooled.values))
    assert columns["survival"] == [oracles.step_left(steps, t) for t in columns["time"]]


def test_one_km_fit_per_dataset_across_subcommands(toy_csv_path, capsys, monkeypatch):
    fits = []
    monkeypatch.setattr("survscore.curves._product_limit",
                        lambda ds: fits.append(ds) or _product_limit(ds))
    parse_dataset.cache_clear()
    for argv in SCORE_CALLS:
        assert run(*argv, "--input", str(toy_csv_path)) == 0
    ds = parse_dataset(TOY_CSV)
    assert sorted(map(id, fits)) == sorted(map(id, (ds, *split_by_arm(ds))))


def test_cli_field_over_csv_limit_is_single_line_error(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text("time,arm,event\n" + "1" * 131073 + ",0,1\n2,1,1\n", encoding="utf-8")
    for command in ("km", "scores", "pseudo --estimand rmst --tau 1", "test --method logrank",
                    "censor"):
        assert run(*command.split(), "--input", str(big)) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: line 2: field larger than field limit (131072)\n"


# the eight CLI calls of one scores-n3000 benchmark op, all on one input
SCORE_CALLS = [
    ["km"],
    ["scores", "--test", "logrank"],
    ["scores", "--test", "fh", "--rho", "0", "--gamma", "1"],
    ["scores", "--test", "mw", "--sstar", "0.5"],
    ["test", "--method", "logrank"],
    ["test", "--method", "mw", "--sstar", "0.5"],
    ["test", "--method", "rmst", "--tau", "18"],
    ["test", "--method", "milestone", "--kappa", "18"],
]


def test_memos_never_change_an_answer(toy_csv_path, capsys):
    """A fresh parse, the remembered dataset with its tables, and a parse after
    clearing the memo print the same bytes."""

    def stdouts():
        printed = []
        for argv in SCORE_CALLS:
            assert run(*argv, "--input", str(toy_csv_path)) == 0
            printed.append(capsys.readouterr().out)
        return printed

    parse_dataset.cache_clear()
    first, second = stdouts(), stdouts()
    parse_dataset.cache_clear()
    assert first == second == stdouts()


# SHA-256 of stdout plus every written file (name and bytes, in name order) of
# one run per subcommand on the toy CSV; any change to the printed bytes fails.
GOLDEN_RUNS = {  # name -> (argv without --input, digest)
    "km": (
        ["km", "--pooled", "--format", "json"],
        "a677fa6a6ea289b25965baf39510686e931fa533ea8ab608cbbdf86302f2ca60",
    ),
    "km-arms": (
        ["km"],
        "f37c7b9c9712bc6f993d4039dd3521e31da82bf5117e1417aee194fe1ae169fc",
    ),
    "scores": (
        ["scores", "--test", "fh", "--rho", "0", "--gamma", "1"],
        "4778533138b9a595217d21646ca1e89a9f3b39e35f037b971e0899d00102e101",
    ),
    "scores-mw-json": (
        ["scores", "--test", "mw", "--sstar", "0.5", "--format", "json"],
        "2963a64e487d2e1464f968ea31b72591d0cad6b52dfe771980ae0efbfbb38d26",
    ),
    "pseudo": (
        ["pseudo", "--estimand", "rmst", "--tau", "18", "--format", "json"],
        "d8ecafd5888e46ddab36627f8e8a47948feaeb26212fd35ed80369f7e82ff873",
    ),
    "pseudo-pwexp": (
        ["pseudo", "--estimand", "ahsw", "--tau", "18", "--backend", "pwexp",
         "--pooling", "pooled", "--output", "pseudo.csv"],
        "40a9470dff550a224ee56ab933992d28b524fab2e5b93747e5c98cd0023cf045",
    ),
    "test": (
        ["test", "--method", "pseudo", "--estimand", "milestone", "--kappa", "18",
         "--backend", "exp", "--perm", "exact"],
        "05f4c56623bb47be413f1ecbb2a8c164c8d8e2aac3f9397dc176057281cd56ff",
    ),
    "test-logrank": (
        ["test", "--method", "logrank"],
        "3f428dbb7576d38e1ae9b96f3277e5b2b3773b689816f235e068b5ade7546f4c",
    ),
    "test-rmst": (
        ["test", "--method", "rmst", "--tau", "18"],
        "e64085cd40da041e4b524263cebc225bfb4ace05b0c0e0202ffa945cdf26dfa6",
    ),
    "test-milestone": (
        ["test", "--method", "milestone", "--kappa", "18"],
        "a66f07bbc75171f396c39c7ce8e5d6a07d2d0a2d809e758562c961f90371cc3c",
    ),
    "test-pseudo-ahsw": (  # the one estimand whose benefit is "lower"
        ["test", "--method", "pseudo", "--estimand", "ahsw", "--tau", "18"],
        "500c65bd5a2a76b9aac64764f96ab2a7c04e93397b24b163d438ff011424ecc8",
    ),
    "test-fh": (
        ["test", "--method", "fh", "--rho", "0", "--gamma", "1"],
        "83b8aec09ef722565b6484fc0db47a035b5e189d48077a5d8ed5d662fe15b3a5",
    ),
    "test-mc": (
        ["test", "--method", "mw", "--sstar", "0.5", "--perm", "mc", "--replicates", "500",
         "--flip-direction"],
        "b1f33ec311933240239d0c17339a9701ec55ca030c3b3e92a09bef0859ca2dd2",
    ),
    "censor": (
        ["censor", "--max", "20", "--seed", "3"],
        "5dfb23e7f1ad20769ce4d8ee8f3eafa2710af8e04488f735ba36b5cc5d854667",
    ),
    "plot": (
        ["plot", "--spec", "wmst:tau1=6,tau2=18", "--output", "plot.svg"],
        "be404bd5b19d3a064492e1006bf998964b9fce62b9bf6e37b46f56ed8952e311",
    ),
    "compare": (
        ["compare", "--spec", "logrank", "--spec", "mw:sstar=0.5", "--spec",
         "milestone:kappa=18,backend=pwexp", "--columns", "2", "--output", "cmp.svg"],
        "21bf55ee92477a840a3fc9d2a65939a4934e7c7e45436d68f30ac9088a28b2b6",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_bytes_match_golden(name, toy_csv_path, tmp_path, capsys, monkeypatch):
    argv, digest = GOLDEN_RUNS[name]
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--input", toy_csv_path.name) == 0
    h = hashlib.sha256(capsys.readouterr().out.encode())
    for path in sorted(tmp_path.iterdir()):
        if path != toy_csv_path:
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == digest


# SHA-256 of `survscore --help` and of each subcommand's --help at 80 columns.
# From Python 3.13 argparse keeps a required option and its metavar on one usage
# line, which moves the wrap of the pseudo and test usage.
HELP_DIGESTS = {  # subcommand ("" for the top level) -> digest on Python 3.10-3.12
    "": "1ff362f58ee0107c4f088a379817a6e64ba8c581b355ba114912065ec8b707c6",
    "km": "fb4ed7822f5f8bf35b9c894c07f5c94bcf8baad83e2ed50aebece2e8d2a20f61",
    "scores": "2330019b49b619f84b7302dc3f18acab7170f327c22da0dc38e932e437da8a89",
    "pseudo": "5a636109e0af1065846ad3e3fbb664e2a89bbca8880bc37475408c543eec4297",
    "test": "c77bb431967643810573cde36b094276118f96494a6b6451a2c7a89c66bd728d",
    "censor": "b7d0905dd20af0a090aeca44e73f50b2ccce9b8b62e2654fa4b9255e39416cb6",
    "plot": "a838f6e719a5cccab7406b09b2eb5c773248931b5426213d5d3658c0a8089e44",
    "compare": "6c6871be26467483073603f22ea0fec3b7df08368d4c44d40045133d6a4ba16f",
}
HELP_DIGESTS_313 = {
    **HELP_DIGESTS,
    "pseudo": "72379f3dee5f726c925fe1769329e045082370b1f7b023b54239c52d4b5d7be7",
    "test": "bcfd98e09abc55c828b4598daaad9e6e3fa46fe3de5231c2b7ac585d0d10de96",
}


@pytest.mark.skipif(not (3, 10) <= sys.version_info[:2] <= (3, 13),
                    reason="help digests are pinned for Python 3.10-3.13")
@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_bytes_match_golden(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run(*command.split(), "--help")
    assert exc.value.code == 0
    digests = HELP_DIGESTS_313 if sys.version_info >= (3, 13) else HELP_DIGESTS
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digests[command]


def test_parametric_panel_bytes_on_simulated_trial(tmp_path):
    # An exponential fit over 300 subjects: its person-time total must add left to
    # right, or the full-precision data-value/data-mean move with the Python version
    svg = tmp_path / "panel.svg"
    trial = simulated_trial_csv(tmp_path)
    assert run("plot", "--input", str(trial), "--spec", "milestone:kappa=18,backend=exp",
               "--output", str(svg)) == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
        "ecbceca66208b0234ef4854eb41d1cc6b923c62ac1ad1b5a3e4f793d72c61dc4"
    )
    assert hashlib.sha256(svg.with_suffix(".csv").read_bytes()).hexdigest() == (
        "71b88ddfb91a7abf612dc3ca818d75a11ebe21f6ee2e419dd5a868b739930b6a"
    )


# Out of time order, and the first subject by time is censored before any
# event, so its weight is missing: an empty CSV cell and a JSON null.
EARLY_CENSORED_CSV = "time,arm,event\n5,0,1\n1,0,0\n6,1,1\n2,1,1\n4,1,0\n3,0,1\n"
EARLY_CENSORED_SCORES = """\
time,arm,event,survival,weight,score,scaled_score
1,0,0,1,,0,-0.0666667
2,1,1,1,1,0.8,1
3,0,1,0.8,0.8,0.4,0.466667
4,1,0,0.6,0.8,-0.4,-0.6
5,0,1,0.6,0.6,-0.1,-0.2
6,1,1,0.3,0.3,-0.7,-1
"""


def test_scores_bytes_with_weight_missing(tmp_path, capsys):
    path = tmp_path / "early.csv"
    path.write_text(EARLY_CENSORED_CSV, encoding="utf-8")
    argv = ["scores", "--input", str(path), "--test", "fh", "--rho", "1", "--gamma", "0"]
    assert run(*argv) == 0
    assert capsys.readouterr().out == EARLY_CENSORED_SCORES
    assert run(*argv, "--format", "json") == 0
    out = capsys.readouterr().out
    assert json.loads(out)[0]["weight"] is None
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2163c6b54d88c86f9299b6f8f0d01c5e78fd3ae7dbd2995ad32dcfa54b0e22ab"
    )


_CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.5e-310, 1e16, 1e-7]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
_CSV_STRINGS = st.one_of(
    st.sampled_from(["", " ", " padded ", "a,b", ",", 'say "hi"', '"', "x\ny", "x\ry", "\r\n"]),
    st.text(),
)
_CSV_CELLS = st.one_of(_CSV_FLOATS, st.integers(), st.booleans(), st.none(), _CSV_STRINGS)


@st.composite
def _csv_tables(draw):
    """1-7 named columns of one length: each all floats, or any mix of cell types."""
    rows = draw(st.integers(0, 6))
    names = draw(st.lists(st.text(max_size=4), min_size=1, max_size=7, unique=True))
    float_column = st.lists(_CSV_FLOATS, min_size=rows, max_size=rows)
    mixed_column = st.lists(_CSV_CELLS, min_size=rows, max_size=rows)
    return {name: draw(st.one_of(float_column, mixed_column)) for name in names}


@given(columns=_csv_tables())
@example(columns={"only": [None, "", 0.0, "x"]})  # one column: an empty cell is written ""
@example(columns={"a": [0, 0.0, False, None], "b": [1, 1.0, True, "1"]})  # equal, not alike
@example(columns={"int": [0, True, 10**20], "float": [1.5, -0.0, math.nan]})
@settings(max_examples=200, deadline=None)
def test_tabulate_csv_matches_per_cell_oracle(columns):
    assert _tabulate(columns, "csv") == oracles.tabulate_csv(columns)


def test_format_only_on_tabular_subcommands(toy_csv_path, capsys):
    assert run("km", "--input", str(toy_csv_path), "--format", "json") == 0
    for argv in (["test", "--method", "logrank"], ["censor"]):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--input", str(toy_csv_path), "--format", "json")
        assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def _quick_start_commands():
    """The ``survscore ...`` command lines of README's Quick start, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    lines = section.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("survscore ")]


def test_readme_quick_start_runs(toy_csv_path, tmp_path, capsys):
    commands = _quick_start_commands()
    assert len(commands) >= 4
    for argv in commands:
        argv = [str(toy_csv_path) if arg == "trial.csv" else arg for arg in argv]
        if "--output" in argv:
            at = argv.index("--output") + 1
            argv[at] = str(tmp_path / argv[at])
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_readme_states_every_option_default():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = " ".join(readme.split("Defaults:", 1)[1].split(";", 1)[0].split())
    stated = [(flag, default) for flag, _, default, _ in OPTIONS.values() if default is not None]
    assert len(stated) == 6
    for flag, default in stated:
        assert f"`{flag} {default}`" in sentence, (flag, default, sentence)


def _ci_step_script(name):
    """The ``run`` script of the CI workflow step called ``name``."""
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    step = workflow.split(f"- name: {name}\n", 1)[1].split("\n      - name: ", 1)[0]
    return textwrap.dedent(step.split("run: |\n", 1)[1])


def test_standard_library_only_ci_step(tmp_path, capsys):
    # The CI step runs before any test dependency is installed; here it runs on this
    # interpreter, named `python` on PATH, and writes what an in-process run writes.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "python").symlink_to(sys.executable)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
               RUNNER_TEMP=str(tmp_path))
    done = subprocess.run(["bash", "-eo", "pipefail", "-c", _ci_step_script(
        "Standard-library-only runtime")], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stderr
    trial = str(tmp_path / "trial.csv")
    for name, argv in (
        ("scores.csv", ["scores", "--test", "mw", "--sstar", "0.5"]),
        ("pseudo.csv", ["pseudo", "--estimand", "rmst", "--tau", "12", "--backend", "exp"]),
    ):
        assert run(*argv, "--input", trial) == 0
        assert (tmp_path / name).read_text(encoding="utf-8") == capsys.readouterr().out
    assert (tmp_path / "compare.svg").is_file()
