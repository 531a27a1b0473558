import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shlex
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from survscore import EstimandSpec, WeightSpec, parse_dataset, wlrt_test
from survscore.cli import KM_TEST_KEYS, METHOD_KEYS, main, parse_method_spec
from tests.conftest import TOY_CSV, simulated_trial_csv

SVG_NS = {"svg": "http://www.w3.org/2000/svg"}


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
    assert run("plot", "--input", str(toy_csv_path), "--spec", "logrank") == 2
    assert "--output" in capsys.readouterr().err


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


@pytest.mark.parametrize("given_argv, omitted_argv", [
    ("scores --test fh --rho 0 --gamma 0", "scores --test fh"),
    ("pseudo --estimand ahsw --tau 18 --backend km --breakpoints 2,4,6,8 --pooling arm "
     "--ahsw-scale log", "pseudo --estimand ahsw --tau 18"),
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
OPTION_VALUES = {  # method key -> its flag and the values drawn for it
    **{key: (f"--{key}", edge) for key in ("rho", "gamma", "sstar")},
    **{key: (f"--{key}", horizon) for key in HORIZONS},
    "backend": ("--backend", st.sampled_from(["km", "exp", "pwexp"])),
    "breakpoints": ("--breakpoints", st.builds("{},{}".format, edge, edge)),
    "pooling": ("--pooling", st.sampled_from(["arm", "pooled"])),
    "log": ("--ahsw-scale", st.sampled_from(["log", "ratio"])),
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
    strays = [key for name in ESTIMANDS for key in METHOD_KEYS[name]]
    return ["pseudo", "--estimand", estimand, *_method_flags(draw, METHOD_KEYS[estimand], strays)]


@st.composite
def _test_argv(draw):
    method = draw(st.sampled_from(["rmst", "milestone", "logrank", "fh", "mw", "pseudo"]))
    argv = ["test", "--method", method]
    if method == "pseudo":
        estimand = draw(st.sampled_from(ESTIMANDS))
        argv += ["--estimand", estimand]
        own = METHOD_KEYS[estimand]
    else:
        own = KM_TEST_KEYS.get(method, METHOD_KEYS[method])
    argv += _method_flags(draw, own, OPTION_VALUES)
    if draw(st.booleans()):
        argv += ["--perm", "mc", "--replicates", "50"]
    return argv


OUT = "<out>"  # stands for the SVG path, which exists only inside the test


@st.composite
def _compare_argv(draw):
    specs = [
        f"rmst:tau={draw(edge)}",
        f"milestone:kappa={draw(edge)},backend={draw(st.sampled_from(['km', 'exp', 'pwexp']))}",
        f"wmst:tau1={draw(edge)},tau2={draw(edge)}",
        f"ahsw:tau={draw(edge)},backend=exp",
        f"fh:rho={draw(edge)},gamma={draw(edge)}",
        f"mw:sstar={draw(edge)}",
        f"rmst:tau=18,backend=pwexp,breakpoints={draw(edge)}:{draw(edge)}",
    ]
    chosen = draw(st.lists(st.sampled_from(specs), min_size=2, max_size=3))
    argv = ["compare", "--output", OUT]
    for spec in chosen:
        argv += ["--spec", spec]
    return argv + [f"--columns={draw(st.sampled_from([-1, 0, 1, 2, 10**9]))}"]


NAN = re.compile(r"\bnan\b", re.IGNORECASE)
# An exponential fit integrates any horizon, so a huge tau drives the
# pseudo-values of this trial, and their sum of squares, past the float range.
ONE_EARLY_EVENT_CSV = "time,arm,event\n1,0,1\n2,0,0\n3,0,0\n1.5,1,1\n2.5,1,1\n3.5,1,0\n"


def _assert_contract(argv, written_paths=()):
    """Exit 0, 1 or 2 with no traceback; a one-line error on exit 1; no NaN printed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2)
    written = [p.read_text() for p in written_paths if p.exists()]
    for text in [stdout.getvalue(), stderr.getvalue()] + written:
        assert not NAN.search(text), (argv, text[:300])
    if code == 1:
        assert stderr.getvalue().startswith("error:")
        assert len(stderr.getvalue().strip().splitlines()) == 1
    return code


@given(argv=st.one_of(_pseudo_argv(), _test_argv(), _compare_argv()),
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


def test_cli_field_over_csv_limit_is_single_line_error(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text("time,arm,event\n" + "1" * 131073 + ",0,1\n2,1,1\n", encoding="utf-8")
    for command in ("km", "scores", "pseudo --estimand rmst --tau 1", "test --method logrank",
                    "censor"):
        assert run(*command.split(), "--input", str(big)) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: line 2: field larger than field limit (131072)\n"


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
        "0188b6c9a2bc1b1aef373b395fbb9e2cf6ec59f65c467b3bbeb993894f514e5d",
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
