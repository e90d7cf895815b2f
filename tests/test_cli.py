"""Command line behavior: output shape, exit codes, determinism."""

import contextlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import f1kit.cli
import f1kit.counting
import f1kit.linalg
import f1kit.reductive
from f1kit.cli import _emit, _report_json, main, parse_selector
from f1kit.counting import brute_count_monoid_homs
from f1kit.errors import SelectorError
from f1kit.groups import Cocycle, ExtensionLaw, FiniteGroupTable, ThetaRep, check_action, \
    extension_model, sigma_check
from f1kit.linalg import Mat, relations
from f1kit.monoids import FgAbelianGroup, GroupHom, PointedMonoid
from f1kit.schemes import MonomialMap, RankScheme, StrongMorphismRk, WeakMorphism, check_weak
from f1kit.spectrum import face_masks, space_report, spec
from test_groups import _flipped
from test_spectrum import _dd_passes, _is_monoid, _oracle_corpus


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


def test_check_runs_each_distinct_suite_once(monkeypatch, capsys):
    assert main(["check", "gl:4", "--suite", "quotient:2"]) == 0
    single = capsys.readouterr().out
    runs = []
    real = f1kit.cli._run_check
    monkeypatch.setattr(f1kit.cli, "_run_check", lambda name, sel: runs.append(name) or real(name, sel))
    assert main(["check", "gl:4", "--suite", "quotient:2,quotient:2"]) == 0
    assert runs == ["quotient:2"]
    assert capsys.readouterr().out == single
    # each name runs at its first place in the list
    assert main(["check", "gl:3", "--suite", "sigma,group,sigma"]) == 0
    assert runs == ["quotient:2", "sigma", "group"]
    assert json.loads(capsys.readouterr().out)["pass"] is True


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


def test_oracle_runs_each_distinct_q_once(monkeypatch, capsys):
    runs = []
    real = f1kit.counting.brute_count
    monkeypatch.setattr(f1kit.counting, "brute_count",
                        lambda kind, params, q: runs.append(q) or real(kind, params, q))
    assert main(["oracle", "gl:3", "--q", "3,3,3"]) == 0
    assert runs == [3]
    assert capsys.readouterr().out == (
        '{"equal":true,"kind":"gl","per_q":{"3":{"brute":11232,"equal":true,"poly":11232}},'
        '"poly_q":[0,0,0,-1,1,1,0,-1,-1,1]}\n')
    # each q runs at its first place in the list
    assert main(["oracle", "gr:2,4", "--q", "3,2,3"]) == 0
    assert runs == [3, 3, 2]
    assert json.loads(capsys.readouterr().out)["equal"] is True


def test_oracle_walks_the_faces_once(tmp_path, monkeypatch, capsys):
    gens = [(1, 0), (1, 1), (1, 2), (2, 1), (3, 1), (0, 1)]
    mfile = tmp_path / "wedge.json"
    mfile.write_text(json.dumps({"kind": "affine", "ambient_dim": 2, "generators": gens}))
    assert _dd_passes(monkeypatch, lambda: face_masks(gens, 2)) == 1
    sel = parse_selector(f"monoid:{mfile}")
    assert sel.monoid is sel.monoid
    oracle = ["oracle", f"monoid:{mfile}", "--q", "2,3,5"]
    assert _dd_passes(monkeypatch, lambda: main(oracle)) == 1
    assert json.loads(capsys.readouterr().out)["equal"] is True
    # one relation basis per face outside every relation-free face, not one
    # per face per q: the bases are kept on the instance, and a fresh, equal
    # instance starts empty.  Of the wedge's 4 faces, the empty face lies in
    # the relation-free ray <(1, 0)>, so 3 calls
    calls = []
    monkeypatch.setattr(f1kit.linalg, "relations", lambda vs: calls.append(vs) or relations(vs))
    assert len(face_masks(gens, 2)) == 4
    assert main(oracle) == 0
    assert len(calls) == 3
    m = sel.monoid
    calls.clear()
    brute_count_monoid_homs(m, 2)
    assert len(calls) == 3
    brute_count_monoid_homs(m, 3)
    assert len(calls) == 3
    brute_count_monoid_homs(PointedMonoid.affine(2, gens), 3)
    assert len(calls) == 6
    # an orthant's full face has no relation, so it is the one call of 2^7
    calls.clear()
    assert brute_count_monoid_homs(PointedMonoid.orthant(7), 3) == 3 ** 7
    assert len(calls) == 1


def test_oracle_rejects_non_prime():
    r = run_cli("oracle", "gr:1,2", "--q", "4")
    assert r.returncode == 2
    assert b"prime" in r.stderr


@pytest.mark.parametrize("q", ["1" + "0" * 400, "1000000000000000009"])
def test_oracle_refuses_a_huge_q_at_once(q, capsys):
    # the field guard answers before trial division, and no float square
    # root of q is taken
    start = time.perf_counter()
    assert main(["oracle", "gr:2,4", "--q", q]) == 2
    assert time.perf_counter() - start < 1
    assert "brute field guard" in capsys.readouterr().err
    r = run_cli("oracle", "gr:2,4", "--q", q)
    assert r.returncode == 2
    assert b"Traceback" not in r.stderr


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


def test_bad_usage_exits_2(tmp_path, capsys):
    assert run_cli("count", "gl:nope").returncode == 2
    assert run_cli("spec", "gl:2").returncode == 2
    assert run_cli("points", "torus:1", "--over", "bad").returncode == 2
    assert run_cli("nosuchcommand").returncode == 2
    # out-of-scale requests: a guard refuses each at once, before the big object exists
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"kind": "affine", "ambient_dim": 10**9, "generators": []}))
    gwz = tmp_path / "gwz.json"
    gwz.write_text(json.dumps({"kind": "group_with_zero", "rank": 10**9}))
    for argv, refusal in [
        (["spec", f"monoid:{huge}"], "lattice guard"),
        (["points", f"monoid:{huge}"], "lattice guard"),
        (["count", f"monoid:{huge}"], "lattice guard"),
        (["spec", "additive:1000000000"], "lattice guard"),
        (["count", "torus:1000000000"], "cell dimension guard"),
        (["points", "torus:1000000000"], "cell dimension guard"),
        (["check", "torus:100000", "--suite", "group"], "cell dimension guard"),
        (["check", "torus:400", "--suite", "group,sigma,action,strongweak"],
         "theta determinant guard: 1 x 400^3 elimination steps = 64000000 exceeds cap 8000000"),
        (["count", "additive:1000000000"], "cell dimension guard"),
        (["points", "additive:1000000000", "--over", "h:3"], "cell dimension guard"),
        (["count", f"monoid:{gwz}"], "cell dimension guard"),
        (["oracle", f"monoid:{gwz}", "--q", "2"], "cell dimension guard"),
        (["count", "gl:1000000000"],
         "component table guard: at least 5040^2 entries = 25401600 exceeds cap 518400"),
        (["count", "gr:3,1000000000"], "grassmannian cells guard: at least "),
        (["count", "gr:1000000000,1000000000"], "grassmannian cells guard"),
        (["points", "gr:0,1000000000"], "grassmannian cells guard"),
    ]:
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 1, argv
        assert refusal in capsys.readouterr().err, argv


def test_scale_factor_multiplies_every_cap(monkeypatch, capsys):
    monkeypatch.setenv("F1KIT_MAX_SCALE", "2")     # 2^4 matrices, far below every cap
    assert main(["oracle", "gl:2", "--q", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["equal"] is True
    for half in ("1/2", "0.5"):
        monkeypatch.setenv("F1KIT_MAX_SCALE", half)
        assert main(["count", "gl:6"]) == 2
        assert capsys.readouterr().err == (
            "error: component table guard: 720^2 entries = 518400 exceeds cap 259200 "
            "(scale caps with F1KIT_MAX_SCALE)\n")
    for bad in ("0", "-1", "x", "1/0", "nan"):
        monkeypatch.setenv("F1KIT_MAX_SCALE", bad)
        assert main(["count", "gl:2"]) == 2
        assert capsys.readouterr().err == (
            f"error: F1KIT_MAX_SCALE must be a positive integer or fraction, got {bad!r}\n")


@pytest.mark.parametrize("command", ["count", "points"])
def test_gl7_cells_keep_the_component_table_refusal(command):
    r = run_cli(command, "gl:7")
    assert (r.returncode, r.stdout) == (2, b"")
    assert r.stderr == (b"error: component table guard: 5040^2 entries = 25401600 exceeds cap 518400 "
                        b"(scale caps with F1KIT_MAX_SCALE)\n")


def test_catalog_counts_and_points_build_no_group_law(monkeypatch, capsys):
    commands = (["count", "gl:4", "--limit"], ["count", "parabolic:5:2+3", "--eval", "2"],
                ["points", "gl:3"], ["points", "parabolic:4:1+3", "--over", "h:2"],
                ["oracle", "gl:2", "--q", "2,3"], ["count", "gr:2,4"])
    answers = []
    for argv in commands:
        assert main(argv) == 0
        answers.append(capsys.readouterr().out)

    def refuse(*args):
        raise AssertionError("a group law was built")

    monkeypatch.setattr(f1kit.reductive, "_block_table", refuse)
    monkeypatch.setattr(f1kit.reductive, "_block_model", refuse)
    for argv, answer in zip(commands, answers):
        assert main(argv) == 0
        assert capsys.readouterr().out == answer
    # a check suite reads the law, so it meets the refusal
    with pytest.raises(AssertionError, match="a group law was built"):
        main(["check", "gl:2", "--suite", "group"])


def test_selection_builds_its_group_model_once(monkeypatch, capsys):
    calls = []
    build = f1kit.reductive._block_model
    monkeypatch.setattr(f1kit.reductive, "_block_model",
                        lambda *args: calls.append(args) or build(*args))
    assert main(["check", "gl:4", "--suite", "group,sigma,action"]) == 0
    assert calls == [(4, (4,))]


@pytest.mark.parametrize("data", [
    {"kind": "affine", "ambient_dim": 1, "generators": "ab"},
    {"kind": "affine", "ambient_dim": "x", "generators": [[1]]},
    [{"kind": "affine", "ambient_dim": 1, "generators": [[1]]}],
    {"kind": "affine", "ambient_dim": 1.7, "generators": [[1]]},
    {"kind": "affine", "ambient_dim": 2, "generators": [[1.5, 0]]},
    {"kind": "affine", "ambient_dim": 1, "generators": "12"},
    {"kind": "affine", "ambient_dim": 2, "generators": [[True, 0]]},
    {"kind": "affine", "ambient_dim": -1, "generators": []},
    {"kind": "group_with_zero", "rank": 1, "torsion": [0, 3]},
], ids=["generators-string", "ambient-dim-string", "top-level-list",
        "ambient-dim-float", "generator-float", "generators-digits", "generator-bool",
        "ambient-dim-negative", "torsion-zero"])
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


def test_points_over_a_huge_prime_order_answers_at_once(capsys):
    # h's invariant factors come from gcd and lcm, so a prime order of 61
    # bits is not factored by trial division
    p = 2 ** 61 - 1
    start = time.perf_counter()
    assert main(["points", "torus:1", "--over", f"h:{p}"]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == f'{{"count":{p},"over":[{p}]}}\n'
    assert main(["points", "additive:3", "--over", "h:4,6"]) == 0
    assert capsys.readouterr().out == '{"count":15625,"over":[2,12]}\n'


def _jsonable(value):
    """The converter _emit ran before it handed answers to json.dumps
    as they are: tuples to lists, non-str dict keys to their repr."""
    if isinstance(value, tuple) or isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k if isinstance(k, str) else repr(k): _jsonable(v) for k, v in value.items()}
    return value


def _assert_emits_as_before(obj):
    for pretty in (False, True):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _emit(obj, pretty)
        if pretty:
            want = json.dumps(_jsonable(obj), sort_keys=True, indent=2)
        else:
            want = json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))
        assert out.getvalue() == want + "\n"


def _has_tuple(value):
    if isinstance(value, dict):
        return any(map(_has_tuple, value.values()))
    return isinstance(value, tuple) or isinstance(value, list) and any(map(_has_tuple, value))


def test_emit_writes_the_bytes_of_the_old_converter(monkeypatch):
    for d, gens in _oracle_corpus():
        if _is_monoid(gens):
            _assert_emits_as_before(space_report(spec(PointedMonoid.affine(d, gens))))
    answers = []
    monkeypatch.setattr(f1kit.cli, "_emit", lambda obj, pretty: answers.append(obj))
    for argv in (["points", "gr:2,4"], ["points", "gl:3"], ["points", "additive:3"],
                 ["points", "parabolic:3:1+2", "--over", "h:2,3"],
                 ["count", "gl:3", "--limit", "--eval", "2,3"],
                 ["count", "gr:2,5", "--limit", "--eval", "4"],
                 ["count", "torus:2", "--limit", "--eval", "5,7"],
                 ["oracle", "gl:2", "--q", "2,3"], ["oracle", "additive:3", "--q", "2,3"],
                 ["oracle", "gr:2,4", "--q", "2"]):
        assert main(argv) == 0
    assert len(answers) == 10 and _has_tuple([a["labels"] for a in answers[:3]])
    # failing checks whose witnesses nest tuples: a law morphism with one
    # target moved, a signed extension with tuple labels, halves that disagree
    g, y, act = _flipped("z", "target")
    w = FiniteGroupTable.cyclic(2, (("e", 0), ("s", 1)))
    theta = ThetaRep(w, 1, (Mat.identity(1), Mat.from_rows(1, 1, [[-1]])))
    signed = extension_model(ExtensionLaw(theta, Cocycle(w, 1, (((1,), (1,)), ((1,), (-1,))))),
                             {("e", 0): 1, ("s", 1): 2})
    one, free = Mat.identity(1), FgAbelianGroup.free(1)
    a, b = RankScheme(((("p", 0), free),)), RankScheme(((("r", 1), free), (("s", 2), free)))
    halves = WeakMorphism(
        StrongMorphismRk(a, b, (("r", 1),), (GroupHom.on_free(free, free, one),)),
        MonomialMap(a, b, (("s", 2),), (one,), ((1,),)))
    for rep in (check_action(g, y, act), sigma_check(signed), check_weak(halves)):
        assert not rep.ok and _has_tuple(rep.witness)
        answers.append({"suite": {"x": _report_json(rep)}, "pass": False})
    for obj in answers:
        _assert_emits_as_before(obj)


# -- exit-code contract, fuzzed ------------------------------------------------

_SIZES = st.sampled_from([-1, 0, 1, 2, 3, 10**9])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | _SIZES | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)


@st.composite
def _monoid_json(draw):
    d = draw(st.integers(0, 3) | _SIZES)
    vector = st.lists(st.integers(-2, 2), min_size=d, max_size=d) if 0 <= d <= 3 else _JSON
    return {"kind": draw(st.sampled_from(["affine", "group_with_zero", "torus"])),
            "ambient_dim": d, "generators": draw(st.lists(vector, max_size=4)),
            "rank": draw(_SIZES), "torsion": draw(st.lists(_SIZES, max_size=2))}


@st.composite
def _group_json(draw):
    labels = draw(st.sampled_from([["e"], ["e", "s"], ["0", "1", "2"]]))
    n = len(labels)
    cyclic = [[labels[(i + j) % n] for j in range(n)] for i in range(n)]
    table = draw(st.just(cyclic) | st.lists(st.lists(st.sampled_from(labels), min_size=n,
                                                     max_size=n), min_size=n, max_size=n))
    r = draw(st.integers(0, 2) | _SIZES)
    one = [[int(i == j) for j in range(r)] for i in range(r)] if 0 <= r <= 2 else r
    return {"labels": labels, "table": table, "r": r,
            "theta": draw(st.just([one] * n) | _JSON),
            "cells": draw(st.just({lab: 2 for lab in labels})
                          | st.dictionaries(st.sampled_from(labels), _SIZES | _JSON)),
            **draw(st.fixed_dictionaries({}, optional={"cocycle": _JSON, "mo_law": _JSON}))}


_SIZE = _SIZES.map(str)
_VALUES = st.lists(_SIZES | st.sampled_from([2, 3]), min_size=1, max_size=2).map(
    lambda values: ",".join(map(str, values)))


@st.composite
def _selectors(draw, tmp_path):
    kind = draw(st.sampled_from(["gl", "parabolic", "gr", "torus", "additive",
                                 "monoid", "const", "ext", "junk"]))
    if kind in ("gl", "torus", "additive"):
        return f"{kind}:{draw(_SIZE)}"
    if kind == "parabolic":
        return f"parabolic:{draw(_SIZE)}:" + "+".join(draw(st.lists(_SIZE, min_size=1, max_size=3)))
    if kind == "gr":
        return f"gr:{draw(_SIZE)},{draw(_SIZE)}"
    if kind == "junk":
        return draw(st.text(max_size=10).filter(lambda t: not t.startswith("-")))
    path = tmp_path / f"{kind}.json"
    files = {"monoid": _monoid_json(), "const": _group_json(), "ext": _group_json() | st.just(_SL2)}
    path.write_text(json.dumps(draw(files[kind] | _JSON)))
    (tmp_path / "latin1.json").write_bytes(b"\xff{}")
    odd = [str(tmp_path), "no/such.json", "nul\0.json", str(tmp_path / "latin1.json")]
    return f"{kind}:" + draw(st.sampled_from([str(path)] * 4 + odd))


@st.composite
def _cli_calls(draw, tmp_path):
    command = draw(st.sampled_from(["spec", "points", "count", "check", "oracle"]))
    argv = [command, draw(_selectors(tmp_path))]
    if command == "points" and draw(st.booleans()):
        argv.append("--over=" + draw(st.sampled_from(["f1", "bad"]) | _VALUES.map("h:".__add__)))
    if command == "count":
        argv += ["--limit"] if draw(st.booleans()) else []
        argv += ["--eval=" + draw(_VALUES)] if draw(st.booleans()) else []
    if command == "check":
        names = st.sampled_from(["group", "sigma", "action", "strongweak", "nosuch"])
        suite = draw(st.lists(names | _SIZE.map("quotient:".__add__), min_size=1, max_size=3)
                     | st.just([]))
        argv.append("--suite=" + ",".join(suite))
    if command == "oracle":
        argv.append("--q=" + draw(_VALUES))
    return argv


def _run_in_process(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_fuzz_exit_code_contract(tmp_path, data):
    """Any selector, size, flag and file: exit 0, 1 or 2, never an exception
    out of main, and a successful call prints the same bytes twice.  The
    sizes include 0, -1 and 10^9, which a guard must refuse at once."""
    argv = data.draw(_cli_calls(tmp_path), label="argv")
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 2)
    assert (code == 2) == err.startswith("error: ")
    if code == 0:
        assert _run_in_process(argv)[1] == out
