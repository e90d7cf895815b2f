"""The four workloads: seeded rounds of operations with checked answers.

Every workload is a closed loop with one client: the benchmark issues an
operation, waits for it, checks the answer and issues the next.  Inputs come
in rounds.  Round ``i`` of a run is generated from ``random.Random`` seeded
with the string ``"<workload>/<seed>/<i>"``, so the same seed always gives the
same byte-identical inputs, and every round holds the same mix of input
classes.  A run measures whole rounds; that keeps the mix, and therefore the
metrics, comparable between runs and seeds.

Answers are checked against facts known from how the input was built (face
lattices of constructed cones, membership by construction, brute-force
counts, Gauss binomials, ``oracle`` agreement) and otherwise against the
canonical output recorded from the seed package in ``golden.json``.
"""

from dataclasses import dataclass
import contextlib
import io
import json
import os
from pathlib import Path
import random
import subprocess
import sys
from time import perf_counter
import traceback
from typing import Any, Callable

import f1kit
import f1kit.cli
from f1kit.errors import MembershipUndecidedWithinBound, OutOfScale

from cones import KnownCone, known_cone

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

FAILURE_CLASSES = ("undecided", "out_of_scale", "exception", "wrong_answer",
                   "exit_code", "traceback")


@dataclass
class Op:
    """One public call (or one CLI process) and the check of its answer.

    ``check`` returns None for a right answer and "wrong_answer",
    "exit_code" or "traceback" otherwise.  ``replay`` runs a CLI op in
    process through ``f1kit.cli.main`` for the traced run.
    ``undecided_ok`` marks the membership ops whose answer at the seed is
    "undecided"; on every other op an undecided answer is a failure.
    """
    kind: str
    inputs: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    replay: Callable[[], Any] | None = None
    undecided_ok: bool = False


def execute(op: Op, in_process: bool = False):
    """Run one op; return (latency_s, result, failure class or None)."""
    call = op.replay if in_process and op.replay is not None else op.call
    t0 = perf_counter()
    try:
        result = call()
    except MembershipUndecidedWithinBound:
        return perf_counter() - t0, None, "undecided"
    except OutOfScale:
        return perf_counter() - t0, None, "out_of_scale"
    except Exception:
        return perf_counter() - t0, None, "exception"
    latency = perf_counter() - t0
    return latency, result, op.check(result)


def is_failure(op: Op, failure: str | None) -> bool:
    """Whether a failure class counts against the run: every class does,
    except "undecided" on an op marked ``undecided_ok``."""
    return failure is not None and not (failure == "undecided" and op.undecided_ok)


def _expect(value) -> Callable[[Any], str | None]:
    return lambda got: None if got == value else "wrong_answer"


def _expect_json(value) -> Callable[[Any], str | None]:
    """Compare after a JSON round trip, so tuples and lists compare equal."""
    return lambda got: None if json.loads(json.dumps(got)) == value else "wrong_answer"


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# -- spectra ------------------------------------------------------------------

def _orthant(d: int) -> KnownCone:
    gens = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    faces = sorted((tuple(j for j in range(d) if mask >> j & 1), bin(mask).count("1"))
                   for mask in range(1 << d))
    return KnownCone(d, gens, tuple(faces), 0)


def _spectral_ops(name: str, cone: KnownCone, monoid, with_brute: bool,
                  only_spec: bool = False) -> list[Op]:
    report = cone.space_report()
    ops = [Op("spec", name, lambda: f1kit.space_report(f1kit.spec(monoid)), _expect(report))]
    if only_spec:
        return ops
    coeffs = cone.poly_coeffs()
    ops.append(Op("point_count_poly", name,
                  lambda: f1kit.point_count_poly(monoid).coeffs, _expect(coeffs)))
    ops.append(Op("affine_toric+f1_points", name,
                  lambda: f1kit.f1_points(f1kit.affine_toric(monoid)),
                  _expect((cone.minimal_face(),))))
    if with_brute:
        for q in (2, 3):
            ops.append(Op(f"brute_count_monoid_homs:q={q}", name,
                          lambda q=q: f1kit.counting.brute_count_monoid_homs(monoid, q),
                          _expect(cone.poly_at(q))))
    return ops


def _describe(cone: KnownCone) -> str:
    return f"d={cone.dim} gens={[list(g) for g in cone.gens]}"


# block shapes of the random cones by dimension (see cones.py)
POINTED_SHAPES = {2: ("wedge",), 3: ("polygon",), 4: ("polygon", "ray")}
LINE_SHAPES = {2: ("ray", "line"), 3: ("wedge", "line"), 4: ("polygon", "line")}


def spectra_round(rng: random.Random, ctx) -> list[Op]:
    """Orthants of dimension 4..7 and random cones with k = 4..12 generators.

    Cones with k <= 9 come in pairs, one pointed and one containing a line,
    in d = 2..4 by a fixed pattern, two cones per slot; they go through
    spec, point_count_poly and affine_toric + f1_points, plus the brute
    monoid-hom count at q = 2, 3 when k <= 8.  Cones with k = 10..12 are
    pointed, lie in d = 2 and run spec only: at the seed each face
    enumeration takes 0.3-1.8 s, and its repeats would make a round too long
    to steady a run.  Each slot has a fixed dimension, block shape and
    polygon vertex count; the seed draws the polygon and extra generators,
    the unimodular change of basis and the generator order.  That keeps the
    cost of a round, and so every metric, comparable between seeds; the
    second cone per slot doubles the cones a run samples, which narrows the
    part of its latency quantiles that depends on the cones the seed drew.
    """
    ops: list[Op] = []
    # orthants below dimension 4 take under 2 ms and check nothing the
    # larger ones miss; with them, the median op fell between two clusters
    # of latencies and jumped from one to the other with the seed
    for d in range(4, 8):
        cone = _orthant(d)
        m = f1kit.PointedMonoid.orthant(d)
        ops += _spectral_ops(f"orthant({d})", cone, m, with_brute=True)
    plan = [(k, 2 + (k + 1) % 3, POINTED_SHAPES) for k in range(4, 9)] * 2
    plan += [(k, 2 + k % 3, LINE_SHAPES) for k in range(4, 10)] * 2
    plan += [(k, 2, POINTED_SHAPES) for k in range(10, 13)]
    for k, d, shapes in plan:
        cone = known_cone(rng, d, k, shape=shapes[d], vertices=3 if k <= 5 else 4)
        m = f1kit.PointedMonoid.affine(d, cone.gens)
        ops += _spectral_ops(_describe(cone), cone, m, with_brute=k <= 8,
                             only_spec=k >= 10)
    rng.shuffle(ops)
    return ops


# -- membership ---------------------------------------------------------------

def _member_case(rng: random.Random, kind: str, d, k, line: bool) -> Op:
    dim = rng.choice(d)
    cone = known_cone(rng, dim, rng.choice(k), want_line=line, scale=2)
    m = f1kit.PointedMonoid.affine(dim, cone.gens)
    if kind == "units_of":
        return Op("units_of", _describe(cone),
                  lambda: f1kit.units_of(m).rank, _expect(cone.unit_rank))
    expected = kind == "in"
    if expected:
        # redrawn when zero, which member answers before any search
        target = [0] * dim
        while not any(target):
            coeffs = [rng.randint(1, 2) if rng.random() < 0.5 else 0 for _ in cone.gens]
            target = [sum(c * g[i] for c, g in zip(coeffs, cone.gens)) for i in range(dim)]
    else:
        # one generator, then a unit step off the sublattice that holds them
        # all; the search bound grows with the target, so keep it small
        target = list(rng.choice(cone.gens))
        functional, scale = cone.lattice_scale
        i = next(i for i, f in enumerate(functional) if f % scale)
        target[i] += 1
    return _member_op(kind, line, m, tuple(target), expected)


def _member_op(kind: str, line: bool, m, target: tuple, expected: bool) -> Op:
    gens = [list(g) for g in m.generators]
    # off-lattice targets in line cones are the ones the seed leaves undecided
    return Op(f"member:{kind}:{'line' if line else 'pointed'}",
              f"d={m.ambient_dim} gens={gens} target={list(target)}",
              lambda: f1kit.member(m, target), _expect(expected),
              undecided_ok=kind == "out" and line)


def _undecided_line_op(rng: random.Random) -> Op:
    """<2, -2, +-4> in Z with an odd target: not a member, since every
    generator is even, but the bounded search ends undecided (~0.2 s at the
    seed).  Fixed magnitudes keep this heavy op's cost steady."""
    gens = [(2,), (-2,), (rng.choice((-4, 4)),)]
    rng.shuffle(gens)
    target = (rng.choice((-5, -3, -1, 1, 3, 5)),)
    return _member_op("out", True, f1kit.PointedMonoid.affine(1, gens), target, False)


# (op kind, dimensions, generator counts, with a line, ops per round).  Targets
# off the lattice in line cones make the bounded search answer "undecided".
# Classes whose cost at the seed ranges over three orders of magnitude (line
# cones with k >= 4 and off-lattice targets, pointed cones with k >= 4 and
# off-lattice targets) are left out: one such call can take from 1 ms to
# minutes, so a share large enough to matter would make a run unsteady or
# longer than a run may take.
MEMBERSHIP_MIX = (
    ("in", (2, 3), (3,), False, 6),
    ("in", (2,), (4,), False, 2),
    ("in", (1, 2), (2, 3), True, 4),
    ("units_of", (2, 3), (3, 5), False, 4),
    ("units_of", (2,), (3,), True, 4),
    ("out", (2, 3), (3,), False, 4),
    ("out", (1,), (2,), True, 4),
)


def membership_round(rng: random.Random, ctx) -> list[Op]:
    """member and units_of on pointed cones and cones with a line."""
    ops = [_member_case(rng, kind, d, k, line)
           for kind, d, k, line, count in MEMBERSHIP_MIX for _ in range(count)]
    ops.append(_undecided_line_op(rng))
    rng.shuffle(ops)
    return ops


# -- group checks -------------------------------------------------------------

GROUP_MODELS = (
    "gl:2", "gl:3", "gl:4",
    "parabolic:3:1+2", "parabolic:3:2+1", "parabolic:4:2+2", "parabolic:4:1+3",
    "parabolic:4:3+1", "parabolic:4:1+1+2", "parabolic:4:1+2+1",
    "torus:1", "torus:2", "torus:3",
    "const:cyclic2.json", "const:cyclic3.json", "const:cyclic4.json",
    "const:cyclic5.json", "ext:ext.json", "ext:ext_product.json",
)
BASE_SUITES = ("group", "sigma", "action", "strongweak")
# 4.4-6 s at the seed, more than all other pairs together: with it a round
# lasts about 10 s, so a run would time each op near the p90 only two or
# three times and the p90 would follow the machine's speed at those moments
LEFT_OUT = {("gl:4", "action")}


def group_catalog() -> list[tuple[str, str]]:
    """Every (model, suite) pair the group-checks workload runs.

    gl:5 stays out: its suites take 10-90 s each at the seed.  So does the
    gl:4 action suite (LEFT_OUT); gl:4 runs every other suite.
    """
    pairs = []
    for model in GROUP_MODELS:
        suites = list(BASE_SUITES)
        if model.startswith("gl:"):
            n = int(model[3:])
            suites += [f"quotient:{k}" for k in range(1, n)]
        pairs += [(model, s) for s in suites if (model, s) not in LEFT_OUT]
    return pairs


def model_selector(model: str) -> str:
    """The `f1kit check` selector of a catalog model."""
    kind, _, rest = model.partition(":")
    return f"{kind}:{DATA / rest}" if kind in ("const", "ext") else model


def group_round(rng: random.Random, ctx) -> list[Op]:
    """Every catalog (model, suite) pair once, in a seeded order.

    Each op runs one suite as `f1kit check` does, through the CLI's own
    selector parser and suite runner, so it builds the model afresh (and
    reads the model file for const and ext).
    """
    cli = f1kit.cli
    golden = ctx.golden["group"]
    ops = []
    for model, suite in group_catalog():
        want = golden[f"{model} {suite}"]
        ops.append(Op(f"check:{suite.split(':')[0]}", f"{model} {suite}",
                      lambda s=suite, t=model_selector(model):
                          cli._report_json(cli._run_check(s, cli.parse_selector(t))),
                      _expect_json(want)))
    rng.shuffle(ops)
    return ops


# -- cli-cold -----------------------------------------------------------------

CLI_CATALOG = (
    "count gl:2",
    "count gl:3 --limit --eval 2,3",
    "count gr:2,4 --eval 2,3",
    "count gr:2,5 --limit",
    "count gr:3,6",
    "count parabolic:3:1+2 --limit",
    "count additive:4 --eval 2,3",
    "count torus:3 --eval 2",
    "count monoid:{data}/num23.json",
    "count gl:7",
    "count mystery:1",
    "points gl:3",
    "points gr:2,4",
    "points additive:2 --over h:2,3",
    "points torus:2 --over h:3",
    "spec additive:3",
    "spec monoid:{data}/num23.json",
    "check gl:2 --suite group,sigma",
    "check gl:3 --suite strongweak,quotient:1",
    "check parabolic:3:1+2 --suite group,action",
    "check torus:2 --suite group,sigma,action,strongweak",
    "check const:{data}/cyclic3.json --suite group,sigma",
    "check ext:{data}/ext.json --suite sigma",
    "check ext:{data}/ext_product.json --suite group,strongweak",
    "oracle gl:2 --q 2,3",
    "oracle gr:2,4 --q 2,3",
    "oracle additive:3 --q 2,3",
    "oracle monoid:{data}/num23.json --q 2,3,5",
)


def _independent_cli_check(command: str) -> Callable[[str], bool]:
    """A second check of CLI stdout that does not rely on the golden bytes."""
    words = command.split()
    if words[0] == "oracle":
        return lambda out: json.loads(out)["equal"] is True
    if words[0] == "count" and words[1].startswith("gr:"):
        k, n = (int(x) for x in words[1][3:].split(","))
        return lambda out: (json.loads(out)["poly_q"]
                            == list(f1kit.gauss_binomial(n, k).coeffs))
    if words[0] == "count" and words[1].startswith("additive:"):
        n = int(words[1].split(":")[1])
        return lambda out: json.loads(out)["poly_q"] == [0] * n + [1]
    return lambda out: True


class Context:
    """Golden answers, plus paths and environment for CLI child processes."""

    def __init__(self, root: Path, tmp_dir: Path):
        self.tmp_dir = tmp_dir
        self.env = {k: v for k, v in os.environ.items() if k != "F1KIT_MAX_SCALE"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


def _cli_op(ctx, argv: list[str], kind: str, inputs: str, expect_code: int,
            expect_out: str, extra: Callable[[str], bool]) -> Op:
    def check(result) -> str | None:
        code, out, err = result
        if "Traceback" in err:
            return "traceback"
        if code != expect_code:
            return "exit_code"
        if out != expect_out or (code == 0 and not extra(out)):
            return "wrong_answer"
        return None

    def call():
        proc = subprocess.run([sys.executable, "-m", "f1kit", *argv], env=ctx.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def replay():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = f1kit.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    return Op(kind, inputs, call, check, replay)


def cli_round(rng: random.Random, ctx) -> list[Op]:
    """The catalog of small CLI calls plus spec, points and oracle on seeded
    cones written to monoid files, one fresh process each."""
    golden = ctx.golden["cli"]
    ops = []
    for command in CLI_CATALOG:
        argv = command.replace("{data}", str(DATA)).split()
        want = golden[command]
        ops.append(_cli_op(ctx, argv, f"cli:{argv[0]}", command, want["exit"],
                           want["stdout"], _independent_cli_check(command)))
    for k in (4, 5, 6):
        d = rng.randint(2, 3)
        cone = known_cone(rng, d, k)
        path = ctx.tmp_dir / f"cone-{rng.getrandbits(64):016x}.json"
        path.write_text(json.dumps({"kind": "affine", "ambient_dim": d,
                                    "generators": [list(g) for g in cone.gens]}))
        sel = f"monoid:{path}"
        name = _describe(cone)
        per_q = {str(q): {"brute": cone.poly_at(q), "equal": True, "poly": cone.poly_at(q)}
                 for q in (2, 3)}
        expected = {
            "spec": _canonical(cone.space_report()),
            "points": _canonical({"count": 1, "labels": [list(cone.minimal_face())]}),
            "oracle": _canonical({"equal": True, "kind": "monoid_homs", "per_q": per_q,
                                  "poly_q": list(cone.poly_coeffs())}),
        }
        for cmd, out in expected.items():
            argv = [cmd, sel] + (["--q", "2,3"] if cmd == "oracle" else [])
            ops.append(_cli_op(ctx, argv, f"cli:{cmd}", f"{cmd} {name}", 0, out,
                               lambda out: True))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "spectra": spectra_round,
    "membership": membership_round,
    "group-checks": group_round,
    "cli-cold": cli_round,
}


def rounds(workload: str, seed: int, ctx):
    """Endless seeded rounds; round i depends only on (workload, seed, i)."""
    make = WORKLOADS[workload]
    i = 0
    while True:
        yield make(random.Random(f"{workload}/{seed}/{i}"), ctx)
        i += 1
