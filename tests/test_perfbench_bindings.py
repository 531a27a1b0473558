"""The library names that the benchmark binds from outside ``src/``.

``perfbench/tracer.py`` wraps survscore functions and methods by module path
and name, and ``perfbench/run.py`` calls ``compute_scores(rt, weights, spec)``
with three arguments.  A traced benchmark run fails when one of them is gone;
this test fails first.
"""

from pathlib import Path

import survscore
import survscore.cli  # noqa: F401  (the tracer wraps cli.main)
from survscore.curves import km_fit
from survscore.dataset import build_risk_table
from survscore.logrank import WeightSpec, compute_scores, compute_weights

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs_and_score_chain_takes_its_spec(monkeypatch, toy):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    traced = tracer.Tracer()
    traced.install(0)  # looks up every traced binding; a missing one raises here
    try:
        assert survscore.logrank.compute_scores is not compute_scores
        spec = WeightSpec.logrank()
        rt = build_risk_table(toy)
        scores = survscore.logrank.compute_scores(
            rt, survscore.logrank.compute_weights(rt, km_fit(toy), spec), spec
        )
    finally:
        traced.uninstall()
    assert survscore.logrank.compute_scores is compute_scores
    assert "logrank.compute_scores" in [span[0] for span in traced.spans]
    assert scores.spec is spec
    assert compute_scores(rt, compute_weights(rt, km_fit(toy), spec), spec) == scores
