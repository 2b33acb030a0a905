#!/usr/bin/env python3
"""Benchmark of the ogc command-line toolkit.

Run from the repository root:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --reach

``--trace 0`` times fresh CLI processes from outside and reports the
end-to-end metrics; ``--trace 1`` reruns the workload under
perfbench/tracer.py and reports per-module metrics. ``--workload all``
prints the end-to-end table for every workload. ``--reach`` is a one-shot
probe of the largest slice that finishes within a budget. Every CLI
output is checked against the rows in perfbench/reference.json. The last
line of a workload run is one JSON object: correct, attempted, failed and
metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
TMP_ROOT = ROOT / ".perfbench_tmp"

MEMORY_CAP_MB = 2048  # RLIMIT_AS of every child; the cold `tables` command peaks near 600 MB
RUN_LIMIT_S = 170  # every child is killed once a run has lasted this long
SETUP_REPS = 30  # a start takes about 0.2 s and one start varies by up to 30%
# A cache hit takes about 0.25 s, mostly interpreter start-up, and one start
# varies by up to 30%: untraced passes rerun each cached command this often,
# alternating between commands, and take the median per command.
REPLAY_REPS = 20

# CLI arguments of each command; every command also gets --workers 1 and
# its own fresh --cache-dir. `canon` runs perfbench/canon.py instead.
WORKLOADS = {
    "tables": [
        ["--command", "homology", "--n", str(n), "--loop-order", "3", "--vertices-max", "5"]
        for n in (0, 1)
    ],
    "props": [["--command", "verify-props", "--n", "1", "--colors", "1"]],
    "treemap": [
        ["--command", command, "--n", str(n)]
        for command in ("verify-chain", "verify-thm1")
        for n in (0, 1)
    ],
    "canon": None,
}

END_TO_END = [("wall_s", "s"), ("replay_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# (metric, unit, span name, statistic); a statistic is calls, self_s,
# total_s, the sum of a per-call count, or zero_frac
LAYER_METRICS = [
    ("graphs.canonicalize.calls", "count", "graphs.canonicalize", "calls"),
    ("graphs.canonicalize.self_s", "s", "graphs.canonicalize", "self_s"),
    ("graphs.canonicalize.zero_frac", "ratio", "graphs.canonicalize", "zero_frac"),
    ("graphs.canonicalize.vfact_sum", "count", "graphs.canonicalize", "vfact"),
    ("complexes.enumerate_basis.calls", "count", "complexes.enumerate_basis", "calls"),
    ("complexes.enumerate_basis.self_s", "s", "complexes.enumerate_basis", "self_s"),
    ("complexes.enumerate_basis.basis_out", "count", "complexes.enumerate_basis", "basis_out"),
    ("complexes.differential_matrix.calls", "count", "complexes.differential_matrix", "calls"),
    ("complexes.differential_matrix.self_s", "s", "complexes.differential_matrix", "self_s"),
    ("complexes.differential_matrix.cols", "count", "complexes.differential_matrix", "cols"),
    ("complexes.differential_matrix.nnz", "count", "complexes.differential_matrix", "nnz"),
    ("linalg.rank.calls", "count", "linalg.rank", "calls"),
    ("linalg.rank.self_s", "s", "linalg.rank", "self_s"),
    ("linalg.rank.nnz_in", "count", "linalg.rank", "nnz_in"),
    ("linalg.kernel_basis.calls", "count", "linalg.kernel_basis", "calls"),
    ("linalg.kernel_basis.self_s", "s", "linalg.kernel_basis", "self_s"),
    ("skeleton.skeleton_degree_slice.calls", "count", "skeleton.skeleton_degree_slice", "calls"),
    ("skeleton.skeleton_degree_slice.self_s", "s", "skeleton.skeleton_degree_slice", "self_s"),
    ("skeleton.skeleton_degree_slice.basis_out", "count", "skeleton.skeleton_degree_slice", "basis_out"),
    ("skeleton.skeleton_differential_matrix.calls", "count", "skeleton.skeleton_differential_matrix", "calls"),
    ("skeleton.skeleton_differential_matrix.self_s", "s", "skeleton.skeleton_differential_matrix", "self_s"),
    ("skeleton.skeleton_differential_matrix.nnz", "count", "skeleton.skeleton_differential_matrix", "nnz"),
    ("skeleton.expand_dotted.calls", "count", "skeleton.expand_dotted", "calls"),
    ("skeleton.expand_dotted.self_s", "s", "skeleton.expand_dotted", "self_s"),
    ("skeleton.expand_dotted.configs", "count", "skeleton.expand_dotted", "configs"),
    ("skeleton.canonicalize_skeleton.calls", "count", "skeleton.canonicalize_skeleton", "calls"),
    ("skeleton.canonicalize_skeleton.self_s", "s", "skeleton.canonicalize_skeleton", "self_s"),
    ("treemap.spanning_trees.calls", "count", "treemap.spanning_trees", "calls"),
    ("treemap.spanning_trees.trees_out", "count", "treemap.spanning_trees", "trees_out"),
    ("treemap.spanning_tree_map.calls", "count", "treemap.spanning_tree_map", "calls"),
    ("treemap.spanning_tree_map.self_s", "s", "treemap.spanning_tree_map", "self_s"),
    ("treemap.spanning_tree_map.terms_out", "count", "treemap.spanning_tree_map", "terms_out"),
    ("treemap.induced_matrix.calls", "count", "treemap.induced_matrix", "calls"),
    ("treemap.induced_matrix.self_s", "s", "treemap.induced_matrix", "self_s"),
    ("cache.load.calls", "count", "cache.load", "calls"),
    ("cache.load.hits", "count", "cache.load", "hits"),
    ("cache.load.self_s", "s", "cache.load", "self_s"),
    ("cache.store.calls", "count", "cache.store", "calls"),
    ("cache.store.self_s", "s", "cache.store", "self_s"),
    ("cli.main.s", "s", "cli.main", "total_s"),
]

# (layer metric, a workload it dominates): zero there means the tracer
# missed a binding
DOMINATED = [
    ("complexes.enumerate_basis.calls", "tables"),
    ("cache.load.hits", "tables"),
    ("graphs.canonicalize.calls", "props"),
    ("graphs.canonicalize.calls", "canon"),
    ("skeleton.expand_dotted.calls", "treemap"),
    ("treemap.spanning_tree_map.calls", "treemap"),
]

REACH_PROBES = [(0, 2), (0, 3), (0, 4), (1, 1)]  # (k, b)
REACH_BUDGET_S = 60
REACH_V_MAX = 12


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, broken reference)."""


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under TMP_ROOT, removed with TMP_ROOT (when empty) on exit."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "OGC_CACHE_DIR")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _cap_memory():
    cap = MEMORY_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@dataclass
class Child:
    code: int
    seconds: float
    rss_mb: float
    out: str
    err: str


def run_child(argv, deadline, tmp):
    """Run argv under the memory cap, timed from outside; killed at deadline."""
    with tempfile.TemporaryFile(dir=tmp) as out, tempfile.TemporaryFile(dir=tmp) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, preexec_fn=_cap_memory,
        )
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            killer.join()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, seconds, usage.ru_maxrss / 1024,
                     out.read().decode(errors="replace"), err.read().decode(errors="replace"))


def command_key(args):
    return " ".join(args)


def load_reference():
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {REFERENCE}: {exc}")


def cli_rows(child):
    """Canonical JSON of the record's rows; None when the output is no record."""
    try:
        return canonical(json.loads(child.out)["rows"])
    except (ValueError, KeyError, TypeError):
        return None


@dataclass
class Pass:
    wall_s: float = 0.0
    replay_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # span files of a traced pass
    problems: list = field(default_factory=list)


class Runner:
    """One benchmark run: its scratch directory, deadline and seed."""

    def __init__(self, workload, seed, tmp, deadline):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.reference = load_reference() if WORKLOADS[workload] else None

    def child(self, args, traced, pass_):
        """Run one command of the workload in a fresh process, through the
        tracer when traced."""
        cli = WORKLOADS[self.workload] is not None
        if traced:
            spans = Path(tempfile.mkstemp(dir=self.tmp, suffix=".spans.json")[1])
            pass_.spans.append(spans)
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), "cli" if cli else "canon", *args]
        else:
            argv = [sys.executable, *(["-m", "ogc.cli"] if cli else [str(BENCH / "canon.py")]), *args]
        c = run_child(argv, self.deadline, self.tmp)
        pass_.peak_rss_mb = max(pass_.peak_rss_mb, c.rss_mb)
        return c

    def run_pass(self, traced=False, replays=REPLAY_REPS):
        p = Pass()
        if WORKLOADS[self.workload] is None:
            self._canon_pass(p, traced)
        else:
            self._cli_pass(p, traced, replays)
        return p

    def _cli_pass(self, p, traced, replays):
        runs = []  # (args, child) of every process, to gate
        cached = []  # (args, argv, replay times) of commands that left a cache entry
        for args in WORKLOADS[self.workload]:
            if command_key(args) not in self.reference:
                raise BenchError(f"no reference rows for {command_key(args)!r}")
            cache = tempfile.mkdtemp(dir=self.tmp)
            argv = [*args, "--workers", "1", "--cache-dir", cache]
            cold = self.child(argv, traced, p)
            p.wall_s += cold.seconds
            runs.append((args, cold))
            # A rerun is served from the cache when the cold run left an
            # entry; otherwise it recomputes, which the cold run has timed.
            if any(os.scandir(cache)):
                cached.append((args, argv, []))
            else:
                p.replay_s += cold.seconds
                shutil.rmtree(cache)
        # Replays alternate between the cached commands, so that each
        # command's samples spread over the whole replay phase.
        for _ in range(replays):
            for args, argv, times in cached:
                c = self.child(argv, traced, p)
                times.append(c.seconds)
                runs.append((args, c))
        p.replay_s += sum(statistics.median(times) for _, _, times in cached)
        for _, argv, _ in cached:
            shutil.rmtree(argv[-1])
        for args, c in runs:
            ref = self.reference[command_key(args)]
            rows = cli_rows(c)
            p.attempted += 1
            p.outputs.append(rows)
            if c.code != ref["code"] or rows != canonical(ref["rows"]):
                p.failed += 1
                p.problems.append(f"{command_key(args)}: exit {c.code}, rows "
                                  f"{'differ' if rows else 'missing'}; {c.err.strip()[-300:]}")

    def _canon_pass(self, p, traced):
        c = self.child(["--seed", str(self.seed)], traced, p)
        p.wall_s = p.replay_s = c.seconds  # canonicalization keeps no cache
        try:
            out = json.loads(c.out)
            pairs, failed, digest = int(out["pairs"]), int(out["failed"]), out["digest"]
        except (ValueError, KeyError, TypeError):
            pairs, failed, digest = 1, 1, None  # no batch result: one failed operation
        if c.code != 0 or failed:
            failed = max(failed, 1)
            p.problems.append(f"canon: exit {c.code}, {failed} pairs failed; {c.err.strip()[-300:]}")
        p.attempted = max(pairs, 1)
        p.failed = failed
        p.outputs.append(digest)


def repeat(seconds, deadline, fn):
    """Call fn at least once, and again while the next call should end
    within `seconds` of the start and before the deadline."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(fn())
        took = time.perf_counter() - t0
        if time.perf_counter() + took > min(start + seconds, deadline):
            return results


def measure_setup(tmp, deadline):
    """Median wall time of a fresh interpreter importing ogc.cli."""
    argv = [sys.executable, "-c", "import ogc.cli"]
    times = []
    for i in range(SETUP_REPS + 1):
        c = run_child(argv, deadline, tmp)
        if c.code != 0:
            raise BenchError(f"cannot import ogc.cli from {SRC}: {c.err.strip()[-500:]}")
        if i:  # the first start also compiles bytecode, which users pay once
            times.append(c.seconds)
    return statistics.median(times)


def check_outputs(passes):
    """Every pass must print the same rows (catches nondeterminism)."""
    first = passes[0].outputs
    return [] if all(p.outputs == first for p in passes) else ["outputs differ between passes"]


def end_to_end(runner, seconds, tmp):
    setup_s = measure_setup(tmp, runner.deadline)
    passes = repeat(seconds, runner.deadline, runner.run_pass)
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "replay_s": statistics.median(p.replay_s for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }
    units = dict(END_TO_END)
    return passes, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, check_outputs(passes)


def layer_stats(span_files):
    """Sum calls, self time, total time and counts per span name."""
    stats = {}
    for path in span_files:
        spans = json.loads(Path(path).read_text())["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, counts in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, counts) in enumerate(spans):
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            s["calls"] += 1
            s["self_s"] += end - start - child_time[i]
            s["total_s"] += end - start
            for key, value in (counts or {}).items():
                s[key] = s.get(key, 0) + value
    return stats


def layer_metrics(stats):
    out = {}
    for metric, unit, name, stat in LAYER_METRICS:
        s = stats.get(name, {})
        if stat == "zero_frac":
            value = s.get("zero", 0) / s["calls"] if s.get("calls") else 0.0
        else:
            value = s.get(stat, 0)
        out[metric] = {"value": value, "unit": unit}
    return out


def traced(runner, seconds):
    """Alternate untraced and traced passes; per-layer metrics are medians
    over the traced passes."""
    # one replay per cached command: enough to trace the cache-hit path
    pairs = repeat(seconds, runner.deadline,
                   lambda: (runner.run_pass(replays=1), runner.run_pass(traced=True, replays=1)))
    plain = [a for a, _ in pairs]
    with_trace = [b for _, b in pairs]
    per_pass = [layer_metrics(layer_stats(p.spans)) for p in with_trace]
    metrics = {
        name: {"value": statistics.median(m[name]["value"] for m in per_pass), "unit": unit}
        for name, unit, _, _ in LAYER_METRICS
    }
    untraced_s = statistics.median(p.wall_s for p in plain)
    traced_s = statistics.median(p.wall_s for p in with_trace)
    metrics["trace_overhead_frac"] = {"value": (traced_s - untraced_s) / untraced_s, "unit": "ratio"}
    return plain + with_trace, metrics, trace_problems(runner.workload, metrics, plain + with_trace)


def trace_problems(workload, metrics, passes):
    """The tracer's self-check: traced and untraced passes print the same
    rows, and no layer reads zero calls on a workload it dominates."""
    problems = check_outputs(passes)
    for metric, w in DOMINATED:
        if w == workload and metrics[metric]["value"] == 0:
            problems.append(f"tracer recorded no {metric} on {workload}: a binding was missed")
    return problems


def provenance(workload, seed):
    sha = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = r.stdout.strip() if r.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ogc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "memory_cap_mb": MEMORY_CAP_MB,
    }


def measure(workload, seed, seconds, trace):
    """One gated run; returns the result object of the last output line."""
    start = time.perf_counter()
    with scratch_dir() as tmp:
        runner = Runner(workload, seed, tmp, start + RUN_LIMIT_S)
        if trace:
            passes, metrics, problems = traced(runner, seconds)
        else:
            passes, metrics, problems = end_to_end(runner, seconds, tmp)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems] + problems
    for msg in problems:
        print(f"problem: {msg}", file=sys.stderr)
    print(f"provenance {canonical(provenance(workload, seed))}")
    print(f"{workload}: {len(passes)} passes in {time.perf_counter() - start:.1f} s")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':48s} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def reach():
    """Largest v whose slice (v, v + b, k) enumerates within REACH_BUDGET_S
    under the memory cap, per (k, b) in REACH_PROBES. Informational only."""
    result = {}
    with scratch_dir() as tmp:
        for k, b in REACH_PROBES:
            best = None
            for v in range(1, REACH_V_MAX + 1):
                e = v + b
                argv = [sys.executable, "-m", "ogc.cli", "--command", "enumerate", "--n", "0",
                        "--colors", str(k), "--loop-order", str(b), "--vertices-max", str(v),
                        "--edges-max", str(e), "--window", f"{v}:{v}", "--force", "--workers", "1"]
                c = run_child(argv, time.perf_counter() + REACH_BUDGET_S, tmp)
                print(f"reach k={k} b={b} v={v} e={e}: exit {c.code}, {c.seconds:.2f} s, "
                      f"{c.rss_mb:.0f} MB", flush=True)
                if c.code != 0:
                    break
                best = v
            result[f"k{k}_b{b}"] = best
    print(f"provenance {canonical(provenance('reach', None))}")
    print(canonical({"reach_v": result, "budget_s": REACH_BUDGET_S, "memory_cap_mb": MEMORY_CAP_MB}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--reach", action="store_true", help="one-shot reach probe")
    args = p.parse_args(argv)
    try:
        if not (SRC / "ogc" / "cli.py").is_file():
            raise BenchError(f"no ogc source tree at {SRC}")
        if args.reach:
            reach()
            return 0
        if args.workload is None:
            p.error("--workload is required")
        if args.workload == "all":
            results = {w: measure(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
            print(canonical(results))
            return 0 if all(r["correct"] for r in results.values()) else 1
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(canonical(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
