"""CLI contract: the cache never replays records of other code, a failed
verdict exits 1, and usage and internal errors have their own exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from ogc import cache as result_cache
from ogc import cli
from ogc.linalg import ClosureError, SparseRationalMatrix
from ogc.skeleton import skeleton_homology_dims
from ogc.treemap import verify_quasi_iso

HOMOLOGY = ["--command", "homology", "--n", "1", "--loop-order", "1", "--vertices-max", "2"]


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_entry_of_other_code_is_recomputed(capsys, tmp_path, monkeypatch):
    argv = HOMOLOGY + ["--cache-dir", str(tmp_path)]
    monkeypatch.setattr(result_cache, "code_hash", lambda: "a" * 64)
    code, fresh, _ = run_cli(argv, capsys)
    assert code == 0
    # doctor the stored record: under the same code it replays as stored
    (entry,) = tmp_path.glob("*.json")
    body = json.loads(entry.read_text())
    stale = [dict(body["record"]["rows"][0], value="stale")]
    body["record"]["rows"] = stale
    entry.write_text(json.dumps(body))
    _, replayed, _ = run_cli(argv, capsys)
    assert json.loads(replayed)["rows"] == stale
    # other code keys a different entry and recomputes
    monkeypatch.setattr(result_cache, "code_hash", lambda: "b" * 64)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["rows"] == json.loads(fresh)["rows"]
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_entry_under_current_key_with_other_code_header_is_recomputed(capsys, tmp_path, monkeypatch):
    argv = HOMOLOGY + ["--cache-dir", str(tmp_path)]
    monkeypatch.setattr(result_cache, "code_hash", lambda: "b" * 64)
    _, fresh, _ = run_cli(argv, capsys)
    (entry,) = tmp_path.glob("*.json")
    body = json.loads(entry.read_text())
    body["code_version"] = "a" * 64
    body["record"]["rows"] = ["stale"]
    entry.write_text(json.dumps(body))
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert "header mismatch" in err
    assert json.loads(out)["rows"] == json.loads(fresh)["rows"]


ROW = {"v": 1, "e": 2, "b": 1, "degree": 0, "value": 0}


@pytest.mark.parametrize(
    "record, output",
    [
        (["not", "a", "dict"], "json"),
        ({"command": "homology", "params": {}, "rows": "none", "timing": 0}, "json"),
        ({"command": "homology", "params": {}, "rows": [{"v": 1, "e": 2}], "timing": 0}, "csv"),
        ({"command": "homology", "params": {}, "rows": [dict(ROW, extra=1)], "timing": 0}, "json"),
        ({"command": "homology", "params": {}, "rows": [ROW, "stale"], "timing": 0}, "csv"),
        ({"rows": [ROW]}, "json"),
        ({"command": "homology", "params": {}, "rows": [ROW], "timing": 0, "extra": 1}, "json"),
    ],
    ids=[
        "not-a-dict",
        "rows-not-a-list",
        "row-missing-fields",
        "row-extra-field",
        "row-not-a-dict",
        "record-missing-keys",
        "record-extra-key",
    ],
)
def test_malformed_record_is_reported_and_recomputed(record, output, capsys, tmp_path):
    argv = HOMOLOGY + ["--cache-dir", str(tmp_path), "--output", output]
    code, fresh, _ = run_cli(argv, capsys)
    assert code == 0
    (entry,) = tmp_path.glob("*.json")
    stored = json.loads(entry.read_text())
    entry.write_text(json.dumps(dict(stored, record=record)))
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert err == f"warning: cache entry {entry.stem} at {entry} is corrupt: malformed record\n"
    if output == "csv":
        assert out == fresh
    else:
        assert json.loads(out)["rows"] == json.loads(fresh)["rows"]
    # the recomputed record replaces the malformed one
    assert json.loads(entry.read_text())["record"]["rows"] == stored["record"]["rows"]
    assert run_cli(argv, capsys)[2] == ""


def test_code_hash_only_on_the_cached_path(capsys, tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("code hash computed outside the homology command")

    monkeypatch.setattr(result_cache, "code_hash", refuse)
    code, _, _ = run_cli(
        [
            "--command", "enumerate", "--vertices-max", "2", "--edges-max", "1",
            "--constraints", "connected", "--cache-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0


def test_homology_cache_keys_only_on_flags_it_reads(capsys, tmp_path):
    # under --window, homology reads neither --vertices-max nor --edges-max
    argv = HOMOLOGY[:-2] + ["--window", "1:2", "--cache-dir", str(tmp_path)]
    records = []
    for extra in (["--vertices-max", "7"], [], ["--edges-max", "3"]):
        code, out, err = run_cli(argv + extra, capsys)
        assert code == 0 and err == ""
        records.append(json.loads(out))
    assert len(list(tmp_path.glob("*.json"))) == 1
    assert [(r["params"]["vertices_max"], r["params"]["edges_max"]) for r in records] == [(7, 8), (5, 8), (5, 3)]
    assert all(r["params"]["window"] == "1:2" for r in records)
    assert records[0]["rows"] == records[1]["rows"] == records[2]["rows"] != []


def test_regular_file_as_cache_dir_still_prints_the_record(capsys, tmp_path):
    _, fresh, _ = run_cli(HOMOLOGY + ["--cache-dir", str(tmp_path / "cache")], capsys)
    (entry,) = (tmp_path / "cache").glob("*.json")
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("kept")
    code, out, err = run_cli(HOMOLOGY + ["--cache-dir", str(not_a_dir)], capsys)
    assert code == 0
    assert json.loads(out)["rows"] == json.loads(fresh)["rows"]
    assert err.startswith(f"warning: cannot write cache entry {entry.stem} at {not_a_dir / entry.name}: ")
    assert err.count("\n") == 1
    assert not_a_dir.read_text() == "kept"


def test_directory_at_the_entry_path_still_prints_the_record(capsys, tmp_path):
    argv = HOMOLOGY + ["--cache-dir", str(tmp_path)]
    _, fresh, _ = run_cli(argv, capsys)
    (entry,) = tmp_path.glob("*.json")
    entry.unlink()
    entry.mkdir()
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["rows"] == json.loads(fresh)["rows"]
    corrupt, unwritable = err.splitlines()
    assert corrupt.startswith(f"warning: cache entry {entry.stem} at {entry} is corrupt: ")
    assert unwritable.startswith(f"warning: cannot write cache entry {entry.stem} at {entry}: ")
    # the writer's temp file does not outlive the failed move
    assert list(tmp_path.iterdir()) == [entry] and entry.is_dir()


@pytest.mark.parametrize(
    "error, target, argv",
    [
        (
            ClosureError("differential term missing from the target slice:\nv 2 k 0\n1: 0 1"),
            "differential_matrix",
            ["--command", "verify-dsq", "--vertices-max", "3", "--edges-max", "3",
             "--constraints", "connected"],
        ),
        (
            ClosureError("differential term left the tadpole_sub family (u=3 -> 2)"),
            "skeleton_homology_dims",
            ["--command", "verify-props", "--vertices-max", "2"],
        ),
        (
            ClosureError("image term missing from target slice u=4"),
            "verify_quasi_iso",
            ["--command", "verify-thm1", "--loop-order", "1"],
        ),
    ],
    ids=["basis", "skeleton", "image"],
)
def test_internal_error_exit_code(error, target, argv, capsys, tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, target, fail)
    code, out, err = run_cli(argv + ["--cache-dir", str(tmp_path)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert str(error).splitlines()[0] in err


@pytest.mark.parametrize(
    "window",
    ["5:2", "3", "a:b", "0:3", "1:2:3"],
    ids=["reversed", "no-colon", "not-integer", "below-one", "three-parts"],
)
@pytest.mark.parametrize("command", ["enumerate", "homology"])
def test_malformed_window_is_a_usage_error(command, window, capsys, tmp_path):
    argv = ["--command", command, "--loop-order", "1", "--vertices-max", "4",
            "--window", window, "--cache-dir", str(tmp_path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --window ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_window_selects_vertex_range(capsys, tmp_path):
    argv = ["--command", "enumerate", "--loop-order", "1", "--vertices-max", "4",
            "--window", "2:3", "--constraints", "connected", "--cache-dir", str(tmp_path)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert [row["v"] for row in json.loads(out)["rows"]] == [2, 3]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--command", "enumerate", "--colors", "-1"], "--colors"),
        (["--command", "enumerate", "--workers", "0"], "--workers"),
        (["--command", "enumerate", "--edges-max", "-1"], "--edges-max"),
        (["--command", "enumerate", "--vertices-max", "0"], "--vertices-max"),
        (["--command", "verify-thm1", "--loop-order", "0"], "--loop-order"),
        (["--command", "verify-thm1", "--loop-order", "-2"], "--loop-order"),
    ],
    ids=["colors", "workers", "edges-max", "vertices-max", "thm1-loop-order-0", "thm1-loop-order-negative"],
)
def test_out_of_range_count_is_a_usage_error(argv, flag, capsys, tmp_path):
    code, out, err = run_cli(argv + ["--cache-dir", str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flag in err and err.count("\n") == 1


def test_a_dead_worker_exits_5_with_one_line(capsys, monkeypatch):
    # a job that kills its worker process breaks the pool; the run prints
    # no record, one error line naming a job left without rows, and stops
    # every worker
    import multiprocessing

    real = cli.jobs_verify_props
    monkeypatch.setitem(cli.COMMANDS, "verify-props", lambda args: real(args) + [(("exit",), os._exit, (7,))])
    code, out, err = run_cli(["--command", "verify-props", "--n", "1", "--colors", "1", "--workers", "2"], capsys)
    assert (code, out) == (5, "")
    assert err.startswith("error: a worker process died, and job (") and err.count("\n") == 1
    assert not multiprocessing.active_children()


def test_verify_chain_reports_the_bounds_it_checks(capsys, tmp_path):
    # unforced, verify-chain checks v <= 4 and e <= 6, and its record says so
    argv = ["--command", "verify-chain", "--cache-dir", str(tmp_path)]
    code, out, _ = run_cli(argv + ["--vertices-max", "9", "--edges-max", "9"], capsys)
    record = json.loads(out)
    assert code == 0
    assert (record["params"]["vertices_max"], record["params"]["edges_max"]) == (4, 6)
    _, same, _ = run_cli(argv + ["--vertices-max", "4", "--edges-max", "6"], capsys)
    assert json.loads(same)["rows"] == record["rows"]
    _, forced, _ = run_cli(argv + ["--vertices-max", "3", "--edges-max", "5", "--force"], capsys)
    assert (json.loads(forced)["params"]["vertices_max"], json.loads(forced)["params"]["edges_max"]) == (3, 5)


@pytest.mark.parametrize("command", ["verify-dsq", "verify-chain"])
def test_verify_with_nothing_to_check_is_a_usage_error(command, capsys, tmp_path):
    argv = ["--command", command, "--edges-max", "1", "--cache-dir", str(tmp_path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {command}: ") and "nothing to check" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, top",
    [
        (["--command", "homology", "--loop-order", "5", "--vertices-max", "7"], "(v=8, e=13)"),
        (["--command", "verify-props", "--vertices-max", "8"], "(v=9, e=10)"),
    ],
    ids=["homology", "verify-props"],
)
def test_top_slice_over_bounds_is_a_usage_error(argv, top, capsys, tmp_path):
    # the flags are within the bounds, but the chain runs one vertex above them
    code, out, err = run_cli(argv + ["--cache-dir", str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert top in err and "--force" in err and "force=True" not in err
    assert not list(tmp_path.iterdir())


def _all_ones(src, dst):
    entries = {(i, j): Fraction(1) for i in range(len(dst)) for j in range(len(src))}
    return SparseRationalMatrix(len(dst), len(src), entries)


def _thm1_dims_differ(b, k, n, force=False):
    report = verify_quasi_iso(b, k, n, force=force)
    report.rows[0].dim_target += 1
    return report


def _quotient_not_acyclic(*args, **kwargs):
    dims, slices = skeleton_homology_dims(*args, **kwargs)
    return [(u, dim + 1) for u, dim in dims], slices


@pytest.mark.parametrize(
    "target, fake, argv",
    [
        (
            "differential_matrix",
            _all_ones,
            ["--command", "verify-dsq", "--colors", "1", "--vertices-max", "3", "--edges-max", "3",
             "--constraints", "connected"],
        ),
        ("verify_chain_map", lambda g, parity: SimpleNamespace(ok=False), ["--command", "verify-chain"]),
        ("verify_quasi_iso", _thm1_dims_differ, ["--command", "verify-thm1", "--loop-order", "1"]),
        ("skeleton_homology_dims", _quotient_not_acyclic, ["--command", "verify-props", "--vertices-max", "2"]),
    ],
    ids=["verify-dsq", "verify-chain", "verify-thm1", "verify-props"],
)
def test_failed_verdict_exits_1(target, fake, argv, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, target, fake)
    code, out, err = run_cli(argv + ["--cache-dir", str(tmp_path)], capsys)
    assert code == 1
    assert err == ""
    values = [row["value"] for row in json.loads(out)["rows"]]
    assert any(value.startswith("fail") for value in values)


def test_out_of_memory_exits_4(capsys, tmp_path, monkeypatch):
    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "enumerate_basis", exhaust)
    argv = ["--command", "enumerate", "--vertices-max", "2", "--edges-max", "1",
            "--constraints", "connected", "--cache-dir", str(tmp_path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


# one writer of a shared cache: it waits until the other writer is up,
# then stores the same key over and over
STORE_SAME_KEY = """
import sys, time
from pathlib import Path
from ogc import cache
cache_dir, ready, me, other = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3], sys.argv[4]
(ready / me).touch()
deadline = time.monotonic() + 30
while not (ready / other).exists() and time.monotonic() < deadline:
    time.sleep(0.001)
for i in range(200):
    cache.store(cache_dir, "c" * 64, "v", {"writer": me, "i": i})
"""


def test_concurrent_writers_of_one_key_share_a_cache(tmp_path):
    cache_dir, ready = tmp_path / "cache", tmp_path / "ready"
    ready.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(result_cache.__file__).parents[1]))
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", STORE_SAME_KEY, str(cache_dir), str(ready), me, other],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for me, other in (("a", "b"), ("b", "a"))
    ]
    for proc in writers:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    assert result_cache.load(cache_dir, "c" * 64, "v")["i"] == 199
    assert list(cache_dir.iterdir()) == [cache_dir / f"{'c' * 64}.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--command", "homology", "--loop-order", "1", "--vertices-max", "3", "--edges-max", "13"],
        ["--command", "verify-dsq", "--vertices-max", "9", "--edges-max", "3", "--constraints", "connected"],
        ["--command", "verify-thm1", "--loop-order", "1", "--vertices-max", "9", "--edges-max", "13"],
    ],
    ids=["homology-edges-max", "verify-dsq-vertices-max", "verify-thm1-both"],
)
def test_bounds_apply_only_to_what_a_command_builds(argv, capsys, tmp_path):
    # each command ignores the flag over the bounds, or builds below it
    code, out, err = run_cli(argv + ["--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert err == ""
    assert json.loads(out)["rows"]


@pytest.mark.parametrize("flag", [["--colors", "2"], ["--constraints", "connected"]], ids=["colors", "constraints"])
@pytest.mark.parametrize("command", ["verify-chain", "verify-thm1"])
def test_fixed_colors_and_constraints_are_a_usage_error(command, flag, capsys, tmp_path):
    argv = ["--command", command, "--loop-order", "1", "--cache-dir", str(tmp_path)] + flag
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {command} ") and flag[0] in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--command", "verify-dsq", "--vertices-max", "3", "--edges-max", "4", "--constraints", "connected"],
         ["--loop-order", "1"]),
        (["--command", "verify-dsq", "--vertices-max", "3", "--edges-max", "4", "--constraints", "connected"],
         ["--window", "2:2"]),
        (["--command", "verify-chain", "--vertices-max", "2", "--edges-max", "3"], ["--loop-order", "1"]),
        (["--command", "verify-chain", "--vertices-max", "2", "--edges-max", "3"], ["--window", "1:2"]),
        (["--command", "verify-thm1", "--loop-order", "1"], ["--window", "1:2"]),
        (["--command", "verify-props", "--vertices-max", "2"], ["--loop-order", "1"]),
        (["--command", "verify-props", "--vertices-max", "2"], ["--window", "1:2"]),
        (["--command", "verify-props", "--vertices-max", "2"], ["--constraints", "connected"]),
    ],
    ids=["dsq-loop-order", "dsq-window", "chain-loop-order", "chain-window", "thm1-window",
         "props-loop-order", "props-window", "props-constraints"],
)
def test_ignored_flag_is_a_usage_error(argv, flag, capsys, tmp_path):
    # each command runs without the flag; with it, it would report a
    # parameter that never entered its rows
    code, out, err = run_cli(argv + flag + ["--cache-dir", str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {argv[1]} ") and flag[0] in err and err.count("\n") == 1
