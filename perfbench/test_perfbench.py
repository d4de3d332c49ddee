"""Tests of the benchmark itself (not part of the package's test suite).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload is run twice, traced, at the same seed.  The tests assert that
the named counts repeat exactly, that the layer shares the workloads were
chosen for hold, that the run-all reports are byte-identical with and without
tracing, and that the tracer restores every name it wraps.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402

EXACT_COUNTS = (
    "calculus.als_sweeps",
    "calculus.restarts",
    "words.word_new",
    "operators.materialize.basis",
    "operators.series_mul.pairs",
    "calculus.contraction_unchecked",
)


def _run(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs per workload: (result, info) pairs."""
    out = {}
    for workload in ("run-all", "symbolic", "materialize"):
        pairs = []
        for _ in range(2):
            proc = _run(workload, trace=1)
            assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
            lines = proc.stdout.splitlines()
            pairs.append((json.loads(lines[-1]), json.loads(lines[-2])["info"]))
        out[workload] = pairs
    return out


@pytest.mark.parametrize("workload", ["run-all", "symbolic", "materialize"])
def test_traced_runs_pass_and_report_every_metric(traced_runs, workload):
    for result, info in traced_runs[workload]:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {name for name, _ in tracing.PER_LAYER}
        assert info["absent"] == []


@pytest.mark.parametrize("workload", ["run-all", "symbolic", "materialize"])
def test_named_counts_repeat_exactly(traced_runs, workload):
    (first, _), (second, _) = traced_runs[workload]
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_run_all_is_dominated_by_ball_search(traced_runs):
    for result, info in traced_runs["run-all"]:
        search = result["metrics"]["calculus.search.s"]["value"]
        assert search >= 0.7 * info["traced_walls_s"][0]
        assert result["metrics"]["calculus.restarts"]["value"] == 32


def test_symbolic_materialises_nothing(traced_runs):
    for result, _ in traced_runs["symbolic"]:
        assert result["metrics"]["operators.materialize.calls"]["value"] == 0
        assert result["metrics"]["operators.series_mul.pairs"]["value"] > 0


def test_materialize_uses_both_norm_arms(traced_runs):
    for result, _ in traced_runs["materialize"]:
        assert result["metrics"]["operators.op_norm.dense.calls"]["value"] > 0
        assert result["metrics"]["operators.op_norm.sparse.calls"]["value"] > 0


def test_run_all_digest_same_traced_and_untraced(traced_runs):
    digests = set()
    for _, info in traced_runs["run-all"]:
        (seed_digests,) = info["run_all_digest"].values()
        digests.update(seed_digests)
        # one untraced and at least one traced run-all, all with this digest
        assert len(info["untraced_walls_s"]) >= 1 and len(info["traced_walls_s"]) >= 1
    assert len(digests) == 1


def test_tracer_restores_every_name():
    import fockalg  # noqa: F401  (loads every fockalg module)

    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "fockalg" or name.startswith("fockalg.")}
    classes = [fockalg.Word, fockalg.BasisIndexer, fockalg.FockVector, fockalg.FreeSeries,
               fockalg.TruncOp]
    before = [dict(vars(cls)) for cls in classes]
    with tracing.Tracer() as tracer:
        assert fockalg.operators.op_norm is not mods["fockalg.operators"]["op_norm"]
    assert not tracer.absent
    for name, saved in mods.items():
        assert dict(vars(sys.modules[name])) == saved, name
    assert [dict(vars(cls)) for cls in classes] == before


def test_missing_name_is_reported_absent(monkeypatch):
    import fockalg.hardy
    import fockalg.operators

    monkeypatch.delattr(fockalg.hardy, "partial_sum_sup")
    monkeypatch.delattr(fockalg.operators.FreeSeries, "mul")
    with tracing.Tracer() as tracer:
        metrics = tracer.metrics()
    for name in ("hardy.partial_sum_sup.s", "hardy.partial_sum_sup.terms",
                 "operators.series_mul.pairs", "operators.series_mul.s"):
        assert metrics[name] is None
    assert metrics["operators.apply.s"] == 0.0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".run"))
    proc = _run("symbolic", trace=0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
