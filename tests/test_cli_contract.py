"""CLI contract: the cache never replays records of other code, and
internal errors have their own exit code."""

import json

import pytest

from ogc import cache as result_cache
from ogc import cli
from ogc.complexes import BasisClosureError
from ogc.skeleton import SkeletonClosureError
from ogc.treemap import ImageClosureError

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
    body["record"]["rows"] = ["stale"]
    entry.write_text(json.dumps(body))
    _, replayed, _ = run_cli(argv, capsys)
    assert json.loads(replayed)["rows"] == ["stale"]
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


@pytest.mark.parametrize(
    "error, target, argv",
    [
        (
            BasisClosureError("differential term missing from the target slice:\nv 2 k 0\n1: 0 1"),
            "differential_matrix",
            ["--command", "verify-dsq", "--vertices-max", "3", "--edges-max", "3",
             "--constraints", "connected"],
        ),
        (
            SkeletonClosureError("differential term left the tadpole_sub family (u=3 -> 2)"),
            "skeleton_homology_dims",
            ["--command", "verify-props", "--vertices-max", "2"],
        ),
        (
            ImageClosureError("image term missing from target slice u=4"),
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


@pytest.mark.parametrize("command", ["verify-dsq", "verify-chain"])
def test_verify_with_nothing_to_check_is_a_usage_error(command, capsys, tmp_path):
    argv = ["--command", command, "--edges-max", "1", "--cache-dir", str(tmp_path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {command}: ") and "nothing to check" in err
    assert err.count("\n") == 1
