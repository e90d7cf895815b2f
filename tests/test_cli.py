"""Command line behavior: output shape, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from f1kit.cli import main, parse_selector
from f1kit.errors import SelectorError
from f1kit.spectrum import face_masks
from test_spectrum import _feasible_calls


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "f1kit", *args],
        capture_output=True, timeout=120,
    )


def test_selector_parsing():
    assert parse_selector("gl:4").params == {"n": 4}
    assert parse_selector("parabolic:4:2+2").params == {"n": 4, "parts": (2, 2)}
    assert parse_selector("gr:2,5").params == {"k": 2, "n": 5}
    assert parse_selector("torus:3").params == {"r": 3}
    assert parse_selector("monoid:/some/file.json").params == {"path": "/some/file.json"}
    for bad in ("gl", "gl:x", "gr:2", "parabolic:4", "mystery:1", "monoid:"):
        with pytest.raises(SelectorError):
            parse_selector(bad)


def test_main_returns_exit_codes_in_process(capsys):
    assert main(["count", "gl:2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["poly_q"] == [0, 1, -1, -1, 1]
    assert main(["count", "mystery:1"]) == 2
    assert "unknown selector" in capsys.readouterr().err


def test_count_command_fields():
    r = run_cli("count", "gl:3", "--limit", "--eval", "2,3")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["rho"] == 3 and out["limit"] == 6
    assert out["evals"] == {"2": 168, "3": 11232}
    assert out["poly_qminus1"][0] == 0


def test_points_command():
    r = run_cli("points", "gr:1,3")
    out = json.loads(r.stdout)
    assert out == {"count": 3, "labels": [[1], [2], [3]]}
    r = run_cli("points", "additive:2", "--over", "h:2")
    assert json.loads(r.stdout)["count"] == 9
    r = run_cli("points", "gl:2")
    assert json.loads(r.stdout)["count"] == 2


def test_spec_command_orthant(tmp_path):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({
        "kind": "affine", "ambient_dim": 2,
        "generators": [[1, 0], [0, 1]],
    }))
    r = run_cli("spec", f"monoid:{mfile}")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert len(out["points"]) == 4
    assert out["min_rank"] == 0


def test_check_command_pass_and_fail(tmp_path):
    r = run_cli("check", "gl:2", "--suite", "group,sigma,action,strongweak")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["pass"] is True
    assert set(out["suite"]) == {"group", "sigma", "action", "strongweak"}

    sl2 = tmp_path / "sl2.json"
    sl2.write_text(json.dumps({
        "labels": ["e", "s"],
        "table": [["e", "s"], ["s", "e"]],
        "r": 1,
        "theta": [[[1]], [[-1]]],
        "cocycle": [[[1], [1]], [[1], [-1]]],
        "cells": {"e": 1, "s": 2},
    }))
    r = run_cli("check", f"ext:{sl2}", "--suite", "group")
    assert r.returncode == 0
    r = run_cli("check", f"ext:{sl2}", "--suite", "sigma")
    assert r.returncode == 1
    out = json.loads(r.stdout)
    assert out["suite"]["sigma"]["witness"]["pair"] == ["s", "s"]


def test_check_quotient_suite():
    r = run_cli("check", "gl:3", "--suite", "quotient:1")
    assert r.returncode == 0
    assert json.loads(r.stdout)["pass"] is True
    r = run_cli("check", "gl:3", "--suite", "quotient:5")
    assert r.returncode == 2


def test_oracle_command():
    r = run_cli("oracle", "gr:2,4", "--q", "2,3")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["equal"] is True
    assert out["per_q"]["2"]["brute"] == 35
    r = run_cli("oracle", "gl:2", "--q", "2")
    assert json.loads(r.stdout)["per_q"]["2"]["poly"] == 6
    # no oracle for parabolic models
    r = run_cli("oracle", "parabolic:3:1+2", "--q", "2")
    assert r.returncode == 2


def test_oracle_walks_the_faces_once(tmp_path, monkeypatch, capsys):
    gens = [(1, 0), (1, 1), (1, 2), (2, 1), (3, 1), (0, 1)]
    mfile = tmp_path / "wedge.json"
    mfile.write_text(json.dumps({"kind": "affine", "ambient_dim": 2, "generators": gens}))
    walk = _feasible_calls(monkeypatch, lambda: face_masks(gens, 2))
    sel = parse_selector(f"monoid:{mfile}")
    assert sel.monoid() is sel.monoid()
    oracle = ["oracle", f"monoid:{mfile}", "--q", "2,3,5"]
    assert _feasible_calls(monkeypatch, lambda: main(oracle)) == walk > 0
    assert json.loads(capsys.readouterr().out)["equal"] is True


def test_oracle_rejects_non_prime():
    r = run_cli("oracle", "gr:1,2", "--q", "4")
    assert r.returncode == 2
    assert b"prime" in r.stderr


def test_const_group_file(tmp_path):
    c3 = tmp_path / "c3.json"
    c3.write_text(json.dumps({
        "labels": ["0", "1", "2"],
        "table": [["0", "1", "2"], ["1", "2", "0"], ["2", "0", "1"]],
    }))
    r = run_cli("check", f"const:{c3}", "--suite", "group,sigma")
    assert r.returncode == 0
    r = run_cli("points", f"const:{c3}")
    assert json.loads(r.stdout)["count"] == 3
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({
        "labels": ["0", "1"],
        "table": [["0", "1"], ["1", "1"]],
    }))
    r = run_cli("check", f"const:{broken}", "--suite", "group")
    assert r.returncode == 2


def test_bad_usage_exits_2():
    assert run_cli("count", "gl:nope").returncode == 2
    assert run_cli("spec", "gl:2").returncode == 2
    assert run_cli("points", "torus:1", "--over", "bad").returncode == 2
    assert run_cli("nosuchcommand").returncode == 2


@pytest.mark.parametrize("data", [
    {"kind": "affine", "ambient_dim": 1, "generators": "ab"},
    {"kind": "affine", "ambient_dim": "x", "generators": [[1]]},
    [{"kind": "affine", "ambient_dim": 1, "generators": [[1]]}],
    {"kind": "affine", "ambient_dim": 1.7, "generators": [[1]]},
    {"kind": "affine", "ambient_dim": 2, "generators": [[1.5, 0]]},
    {"kind": "affine", "ambient_dim": 1, "generators": "12"},
    {"kind": "affine", "ambient_dim": 2, "generators": [[True, 0]]},
    {"kind": "affine", "ambient_dim": -1, "generators": []},
], ids=["generators-string", "ambient-dim-string", "top-level-list",
        "ambient-dim-float", "generator-float", "generators-digits", "generator-bool",
        "ambient-dim-negative"])
def test_malformed_monoid_file_exits_2(tmp_path, data):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(data))
    r = run_cli("spec", f"monoid:{mfile}")
    assert r.returncode == 2
    assert r.stderr.startswith(b"error: ")
    assert b"Traceback" not in r.stderr


@pytest.mark.parametrize("field, value", [
    ("table", 5),
    ("labels", "es"),
    ("table", [["e", "s"], "se"]),
], ids=["table-int", "labels-string", "row-string"])
def test_malformed_group_table_file_exits_2(tmp_path, field, value):
    cfile = tmp_path / "const.json"
    cfile.write_text(json.dumps({"labels": ["e", "s"], "table": [["e", "s"], ["s", "e"]],
                                 field: value}))
    r = run_cli("check", f"const:{cfile}", "--suite", "group")
    assert r.returncode == 2
    assert r.stderr.startswith(b"error: ")
    assert b"Traceback" not in r.stderr


_SL2 = {
    "labels": ["e", "s"],
    "table": [["e", "s"], ["s", "e"]],
    "r": 1,
    "theta": [[[1]], [[-1]]],
    "cocycle": [[[1], [1]], [[1], [-1]]],
    "cells": {"e": 1, "s": 2},
}


@pytest.mark.parametrize("field, value", [
    ("cells", {"e": "x", "s": 2}),
    ("cells", {"e": 1.5, "s": 2}),
    ("cells", "es"),
    ("theta", [[["a"]], [[-1]]]),
    ("cocycle", [[["x"], [1]], [[1], [-1]]]),
    ("r", "1"),
], ids=["cell-string", "cell-float", "cells-string", "theta-string", "cocycle-string",
        "r-string"])
def test_malformed_extension_file_exits_2(tmp_path, field, value):
    efile = tmp_path / "ext.json"
    efile.write_text(json.dumps({**_SL2, field: value}))
    r = run_cli("check", f"ext:{efile}", "--suite", "group")
    assert r.returncode == 2
    assert r.stderr.startswith(b"error: ")
    assert b"Traceback" not in r.stderr


def test_pretty_flag_changes_formatting_only():
    flat = run_cli("count", "torus:2")
    pretty = run_cli("count", "torus:2", "--pretty")
    assert flat.stdout != pretty.stdout
    assert json.loads(flat.stdout) == json.loads(pretty.stdout)
    assert flat.stdout.endswith(b"\n")
