"""CLI: flags, output formats, cache behavior, exit codes."""

import json
import subprocess
import sys

import pytest

from ogc.cli import main, parse_constraints
from ogc.complexes import Constraint, REDUCED_CONSTRAINTS


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_constraints():
    assert parse_constraints("reduced") == REDUCED_CONSTRAINTS
    assert parse_constraints("connected,min2") == frozenset(
        {Constraint.CONNECTED, Constraint.MIN_VALENCE_2}
    )
    with pytest.raises(ValueError):
        parse_constraints("bogus")


def test_enumerate_point(capsys, tmp_path):
    code, out, _ = run_cli(
        [
            "--command", "enumerate", "--n", "0", "--colors", "0",
            "--vertices-max", "1", "--edges-max", "0",
            "--constraints", "connected", "--cache-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["rows"] == [{"v": 1, "e": 0, "b": -1, "degree": 0, "value": 1}]


def test_enumerate_symmetry_killed_double_edge(capsys, tmp_path):
    code, out, _ = run_cli(
        [
            "--command", "enumerate", "--n", "0",
            "--vertices-max", "2", "--edges-max", "2",
            "--constraints", "connected", "--loop-order", "0",
            "--cache-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert {"v": 2, "e": 2, "b": 0, "degree": 2, "value": 0} in rows


def test_enumerate_k4_reduced_slice(capsys, tmp_path):
    code, out, _ = run_cli(
        [
            "--command", "enumerate", "--n", "0",
            "--vertices-max", "4", "--edges-max", "6",
            "--loop-order", "2", "--window", "4:4",
            "--cache-dir", str(tmp_path),
        ],
        capsys,
    )
    rows = json.loads(out)["rows"]
    assert len(rows) == 1 and rows[0]["v"] == 4
    # the complete graph class is present; the exact count is pinned by
    # the library test suite's independent enumeration oracle
    assert rows[0]["value"] >= 1


def test_homology_cache_hit_is_byte_identical(capsys, tmp_path):
    argv = [
        "--command", "homology", "--n", "0", "--loop-order", "2",
        "--vertices-max", "4", "--cache-dir", str(tmp_path),
    ]
    code1, out1, _ = run_cli(argv, capsys)
    assert code1 == 0
    assert len(list(tmp_path.glob("*.json"))) == 1
    code2, out2, _ = run_cli(argv, capsys)
    assert code2 == 0
    assert out1 == out2


def test_homology_k4_row(capsys, tmp_path):
    code, out, _ = run_cli(
        [
            "--command", "homology", "--n", "0", "--loop-order", "2",
            "--vertices-max", "4", "--cache-dir", str(tmp_path),
        ],
        capsys,
    )
    rows = json.loads(out)["rows"]
    by_v = {r["v"]: r["value"] for r in rows}
    assert by_v[4] >= 1


def test_cache_corruption_reported_and_recomputed(capsys, tmp_path):
    argv = [
        "--command", "homology", "--n", "1", "--loop-order", "1",
        "--vertices-max", "2", "--cache-dir", str(tmp_path),
    ]
    code, out1, _ = run_cli(argv, capsys)
    assert code == 0
    entry = next(tmp_path.glob("*.json"))
    entry.write_text("{not json")
    code, out2, err = run_cli(argv, capsys)
    assert code == 0
    assert "corrupt" in err
    assert json.loads(out1)["rows"] == json.loads(out2)["rows"]


def test_csv_output(capsys, tmp_path):
    code, out, _ = run_cli(
        [
            "--command", "enumerate", "--n", "0", "--vertices-max", "2",
            "--edges-max", "1", "--constraints", "connected",
            "--output", "csv", "--cache-dir", str(tmp_path),
        ],
        capsys,
    )
    lines = out.strip().splitlines()
    assert lines[0] == "v,e,b,degree,value"
    assert len(lines) > 1


def test_bounds_refused_without_force(capsys, tmp_path):
    code, _, err = run_cli(
        ["--command", "enumerate", "--vertices-max", "9", "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "force" in err


def test_verify_dsq_small(capsys, tmp_path):
    code, out, _ = run_cli(
        [
            "--command", "verify-dsq", "--n", "1", "--colors", "0",
            "--vertices-max", "4", "--edges-max", "5",
            "--constraints", "connected", "--cache-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows and all(r["value"] == "pass" for r in rows)


def test_verify_thm1_b1(capsys, tmp_path):
    code, out, _ = run_cli(
        [
            "--command", "verify-thm1", "--n", "0", "--loop-order", "1",
            "--cache-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert all(r["value"].startswith("pass") for r in json.loads(out)["rows"])


def test_workers_do_not_change_rows(capsys, tmp_path):
    argv = [
        "--command", "enumerate", "--n", "1", "--vertices-max", "3",
        "--edges-max", "4", "--constraints", "connected",
        "--cache-dir", str(tmp_path),
    ]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv + ["--workers", "3"], capsys)
    assert json.loads(out1)["rows"] == json.loads(out2)["rows"]


def test_pool_starts_no_more_workers_than_jobs(capsys, tmp_path, monkeypatch):
    # the first submit starts every worker the pool is given, so a large
    # --workers must shrink to the job count; a fake pool records the
    # size asked for and runs each job in-process, so no process starts
    import concurrent.futures

    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers, self.jobs = max_workers, 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.jobs += 1
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    argv = [
        "--command", "enumerate", "--n", "1", "--vertices-max", "3",
        "--edges-max", "4", "--constraints", "connected",
        "--cache-dir", str(tmp_path),
    ]
    _, out1, _ = run_cli(argv, capsys)
    code, out2, _ = run_cli(argv + ["--workers", "500"], capsys)
    assert code == 0
    assert json.loads(out1)["rows"] == json.loads(out2)["rows"]
    (pool,) = pools
    assert 1 < pool.jobs and pool.max_workers <= pool.jobs


def test_cache_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OGC_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run_cli(
        ["--command", "homology", "--n", "1", "--loop-order", "1", "--vertices-max", "2"],
        capsys,
    )
    assert code == 0
    assert list((tmp_path / "envcache").glob("*.json"))


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ogc.cli", "--command", "enumerate",
         "--vertices-max", "1", "--edges-max", "0", "--constraints", "connected"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "enumerate"


def test_import_loads_no_pool_or_csv_module():
    # a one-worker JSON run needs neither the process pool nor csv, so
    # importing the front end loads none of their modules
    code = (
        "import sys, ogc.cli\n"
        "names = ('concurrent.futures', 'multiprocessing', 'csv')\n"
        "print(sorted(m for m in sys.modules if m in names or m.startswith(names[:2])))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["ogc.cli", "ogc.graphs"])
def test_import_adds_no_dataclasses_or_hashlib(module):
    # records are tuples and only the homology cache hashes, so against
    # what a bare interpreter already holds, importing the front end or
    # the graph module loads neither dataclasses (with inspect) nor
    # hashlib (with OpenSSL)
    code = (
        "import sys\n"
        "names = ('dataclasses', 'inspect', 'hashlib', '_hashlib')\n"
        "bare = set(sys.modules)\n"
        f"import {module}\n"
        "print(sorted(m for m in names if m in sys.modules and m not in bare))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cache_path_loads_no_openssl(tmp_path):
    # the cache hashes with the builtin _blake2, so neither a cold
    # homology run nor a cache hit loads hashlib or OpenSSL's _hashlib
    code = (
        "import sys\n"
        "from ogc.cli import main\n"
        "argv = ['--command', 'homology', '--n', '1', '--loop-order', '1',\n"
        "        '--vertices-max', '2', '--cache-dir', sys.argv[1]]\n"
        "seen = []\n"
        "for _ in range(2):\n"
        "    assert main(argv) == 0\n"
        "    seen.append(sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))\n"
        "print(seen)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    cold, hit, seen = proc.stdout.splitlines()
    assert cold == hit and seen == "[[], []]"
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_cache_keys_are_blake2b_digests():
    import hashlib
    from pathlib import Path

    from ogc import cache

    digest = hashlib.blake2b(digest_size=32)
    for path in sorted(Path(cache.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0")
        digest.update(hashlib.blake2b(path.read_bytes(), digest_size=32).digest())
    assert cache.code_hash() == digest.hexdigest()
    params = {"n": 1, "colors": 0, "loop_order": 2, "constraints": "reduced", "vertices_max": 4}
    payload = json.dumps({"command": "homology", "params": params, "version": "v"}, sort_keys=True, separators=(",", ":"))
    key = cache.record_key("homology", params, "v")
    assert key == hashlib.blake2b(payload.encode(), digest_size=32).hexdigest()
    assert len(key) == 64


def load_script(name):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_battery_digest_is_the_sha256_of_the_rows(capsys, tmp_path):
    import hashlib

    script = load_script("run_verifications")
    argv = ["--command", "verify-dsq", "--n", "1", "--colors", "1", "--vertices-max", "3",
            "--edges-max", "4", "--constraints", "connected", "--cache-dir", str(tmp_path)]
    _, out, _ = run_cli(argv, capsys)
    rows = json.loads(out)["rows"]
    expected = hashlib.sha256(json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    assert script.rows_digest(out) == expected
    assert script.rows_digest("") == "-"


@pytest.mark.parametrize(
    "n, colors, loop_max, vertices_max",
    [(0, 1, 1, 4), (1, 1, 2, 5)],
    ids=["k1-n0-b1-v4", "k1-n1-b2-v5"],
)
def test_homology_table_script_prints_the_homology_rows(n, colors, loop_max, vertices_max, capsys, tmp_path):
    # the script's top slice gets its boundaries from one vertex above,
    # so it prints the rows `homology` prints, never a cycle count
    load_script("homology_table").main(
        ["--n", str(n), "--colors", str(colors), "--loop-max", str(loop_max), "--vertices-max", str(vertices_max)]
    )
    table = sorted(tuple(map(int, line.split())) for line in capsys.readouterr().out.splitlines()[2:])
    expected = []
    for b in range(1, loop_max + 1):
        argv = ["--command", "homology", "--n", str(n), "--colors", str(colors), "--loop-order", str(b),
                "--vertices-max", str(vertices_max), "--cache-dir", str(tmp_path)]
        _, out, _ = run_cli(argv, capsys)
        expected += [(r["b"], r["v"], r["e"], r["degree"], r["value"]) for r in json.loads(out)["rows"]]
    assert table == sorted(expected)


def test_homology_table_script_refuses_a_slice_over_the_bounds():
    # the v = 8 row needs the v = 9 slice above it: one error line and
    # exit 2, as `homology` gives, and no table
    from pathlib import Path

    script = Path(__file__).resolve().parents[1] / "scripts" / "homology_table.py"
    argv = ["--n", "0", "--colors", "1", "--loop-max", "1", "--vertices-max", "8"]
    proc = subprocess.run([sys.executable, str(script), *argv], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: slice (v=9, e=10, k=1) exceeds the default bounds")
    assert len(proc.stderr.splitlines()) == 1


def test_work_does_not_depend_on_the_hash_seed():
    # constraint sets hash their members by name, so their iteration order
    # follows the string-hash seed; the canonical-form memo's counts and
    # the orbit generator's output show any work that followed it
    import os

    code = (
        "from ogc.complexes import Constraint, homology_table\n"
        "from ogc.graphs import _canonical_form, _orbit_reps\n"
        "cons = {Constraint.CONNECTED, Constraint.MIN_VALENCE_2}\n"
        "print(homology_table(1, 1, 1, cons, 5))\n"
        "print(_canonical_form.cache_info())\n"
        "print(_orbit_reps.cache_info(), _orbit_reps(5, 6, False, True, 2))\n"
    )
    outs = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env={**os.environ, "PYTHONHASHSEED": seed})
        for seed in ("0", "1")
    ]
    assert all(proc.returncode == 0 for proc in outs), [proc.stderr for proc in outs]
    assert outs[0].stdout == outs[1].stdout
