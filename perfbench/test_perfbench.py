"""Self-tests of the benchmark. From the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

The traced-workload tests run each workload once traced and once not,
about three minutes in all.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracer  # noqa: E402


def test_metric_names_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    layers = [(m, u) for m, u, _, _ in run.LAYER_METRICS] + [("trace_overhead_frac", "ratio")]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_install_rebinds_direct_imports():
    # a fresh interpreter, because install patches the ogc modules for good
    code = "import json, tracer; print(json.dumps(tracer.Tracer().install()))"
    out = subprocess.run([sys.executable, "-c", code], cwd=run.BENCH, env=run.child_env(),
                         capture_output=True, text=True, check=True)
    bound = json.loads(out.stdout)
    assert set(bound) == {f"{m}.{f}" for m, f in tracer.PROBES}
    assert all(n >= 1 for n in bound.values()), bound
    # bound in ogc, ogc.graphs, ogc.complexes and ogc.skeleton
    assert bound["graphs.canonicalize"] >= 4


def test_self_check_flags_missed_binding_and_changed_rows():
    metrics = {m: {"value": 1} for m, *_ in run.LAYER_METRICS}
    same = [run.Pass(outputs=["rows"]), run.Pass(outputs=["rows"])]
    assert run.trace_problems("props", metrics, same) == []
    metrics["graphs.canonicalize.calls"] = {"value": 0}
    assert run.trace_problems("props", metrics, same)
    assert run.trace_problems("tables", metrics, same) == []
    metrics["graphs.canonicalize.calls"] = {"value": 1}
    changed = [run.Pass(outputs=["rows"]), run.Pass(outputs=["other rows"])]
    assert run.trace_problems("props", metrics, changed)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_matches_untraced_and_sees_dominant_layers(workload, tmp_path):
    runner = run.Runner(workload, 1, tmp_path, time.perf_counter() + run.RUN_LIMIT_S)
    passes, metrics, problems = run.traced(runner, 0)
    assert [msg for p in passes for msg in p.problems] == []
    assert problems == []
    assert len(passes) == 2 and passes[0].outputs == passes[1].outputs
    for metric, w in run.DOMINATED:
        if w == workload:
            assert metrics[metric]["value"] > 0, metric
