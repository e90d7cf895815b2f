"""Affine monoids whose face lattice is known by construction.

A cone is built as a direct sum of small blocks whose faces are known:

* ``ray``:     a half-line; faces {apex, ray}.
* ``line``:    a whole line (generators of both signs); one face, the line.
* ``wedge``:   a pointed 2-d cone on two extreme rays.
* ``polygon``: the 3-d cone over a convex polygon whose vertices lie on the
  parabola (t, t^2, 1); faces apex, vertex rays, edge planes, whole cone.

Faces of a direct sum are the products of block faces.  Extra generators are
positive combinations of a block face's extreme rays, so each lies in the
relative interior of that face (its carrier) and belongs exactly to the faces
containing the carrier.  A random unimodular map and a random generator
order then hide the block structure without changing the face lattice.

Everything here uses only the standard library, so the expected answers do
not depend on the package under test.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
import random


@dataclass(frozen=True)
class Block:
    """Local generators, each with the extreme rays of its carrier face."""
    dim: int
    gens: tuple[tuple[int, ...], ...]
    carriers: tuple[frozenset, ...]
    faces: tuple[tuple[frozenset, int], ...]   # (extreme rays, rank)

    def gens_in(self, face: frozenset) -> list[int]:
        return [i for i, c in enumerate(self.carriers) if c <= face]


@dataclass(frozen=True)
class KnownCone:
    """Generators in Z^d plus the exact face lattice of their cone."""
    dim: int
    gens: tuple[tuple[int, ...], ...]
    faces: tuple[tuple[tuple[int, ...], int], ...]   # sorted (subset, rank)
    unit_rank: int
    lattice_scale: tuple[tuple[int, ...], int] | None = None  # (functional, s)

    def space_report(self) -> dict:
        """What spectrum.space_report gives for this monoid's spectrum."""
        masks = [sum(1 << j for j in face) for face, _ in self.faces]
        pairs = sorted((i, j) for i, mi in enumerate(masks)
                       for j, mj in enumerate(masks) if mj & mi == mj)
        return {
            "points": [{"patch": 0, "face": list(face), "rank": r}
                       for face, r in self.faces],
            "specialization": [[i, j] for i, j in pairs],
            "min_rank": min(r for _, r in self.faces),
        }

    def poly_coeffs(self) -> tuple[int, ...]:
        """Coefficients in q, ascending, of sum over faces of (q-1)^rank."""
        top = max(r for _, r in self.faces)
        out = [0] * (top + 1)
        for _, r in self.faces:
            binom = 1
            for i in range(r + 1):   # (q-1)^r = sum C(r,i) q^i (-1)^(r-i)
                out[i] += binom * (-1) ** (r - i)
                binom = binom * (r - i) // (i + 1)
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return tuple(out)

    def poly_at(self, q: int) -> int:
        return sum((q - 1) ** r for _, r in self.faces)

    def minimal_face(self) -> tuple[int, ...]:
        return min(self.faces, key=lambda f: (f[1], f[0]))[0]


def _ray() -> Block:
    return Block(1, ((1,),), (frozenset({0}),),
                 ((frozenset(), 0), (frozenset({0}), 1)))


def _line(rng: random.Random) -> Block:
    a, b = rng.randint(1, 2), rng.randint(1, 2)
    both = frozenset({0, 1})
    return Block(1, ((a,), (-b,)), (both, both), ((both, 1),))


def _wedge(rng: random.Random) -> Block:
    v = (rng.randint(-2, 2), rng.randint(1, 2))
    return Block(2, ((1, 0), v), (frozenset({0}), frozenset({1})),
                 ((frozenset(), 0), (frozenset({0}), 1), (frozenset({1}), 1),
                  (frozenset({0, 1}), 2)))


def _polygon(rng: random.Random, m: int) -> Block:
    ts = sorted(rng.sample(range(-2, 3), m))
    gens = tuple((t, t * t, 1) for t in ts)
    edges = [(i, i + 1) for i in range(m - 1)] + [(0, m - 1)]
    faces = [(frozenset(), 0)]
    faces += [(frozenset({i}), 1) for i in range(m)]
    faces += [(frozenset(e), 2) for e in edges]
    faces.append((frozenset(range(m)), 3))
    return Block(3, gens, tuple(frozenset({i}) for i in range(m)), tuple(faces))


def _with_extra(block: Block, rng: random.Random) -> Block | None:
    """Add one generator in the relative interior of a random face."""
    face, _ = rng.choice([f for f in block.faces if f[1] > 0])
    if len(block.faces) == 1:                  # the line: either direction
        point = (rng.choice((-1, 1)) * rng.randint(1, 3),)
    else:
        point = [0] * block.dim
        for r in face:
            c = rng.randint(1, 3)
            point = [p + c * x for p, x in zip(point, block.gens[r])]
        point = tuple(point)
    if point in block.gens:
        return None
    return Block(block.dim, block.gens + (point,), block.carriers + (face,),
                 block.faces)


def _unimodular(rng: random.Random, d: int) -> list[list[int]]:
    """One shear, a row permutation and row signs: small entries, det +-1."""
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    if d > 1:
        i, j = rng.sample(range(d), 2)
        s = rng.choice((-1, 1))
        u[i] = [x + s * y for x, y in zip(u[i], u[j])]
    rng.shuffle(u)
    return [[s * x for x in row] for s, row in ((rng.choice((-1, 1)), r) for r in u)]


# block lists by dimension for random shapes; repeated entries weight the draw
_SHAPES = {
    1: (("ray",), ("line",)),
    2: (("wedge",), ("ray", "ray"), ("ray", "line"), ("line", "line"),
        ("wedge",), ("ray", "ray")),
    3: (("polygon",), ("wedge", "ray"), ("wedge", "line"), ("ray", "ray", "ray"),
        ("polygon",), ("polygon",)),
}


def _blocks_for(rng: random.Random, d: int, want_line: bool | None) -> list[str]:
    """A block list of total dimension at most d, with or without a line."""
    while True:
        parts, left = [], d
        while left:
            size = rng.randint(1, min(left, 3))
            parts.extend(rng.choice(_SHAPES[size]))
            left -= size
        if rng.random() < 0.25 and len(parts) > 1:
            parts.pop()               # a cone that does not span Z^d
        has_line = "line" in parts
        if want_line is None or want_line == has_line:
            return parts


def known_cone(rng: random.Random, d: int, k: int, *, want_line: bool | None = None,
               scale: int = 1, shape: tuple[str, ...] | None = None,
               vertices: int | None = None) -> KnownCone:
    """A cone in Z^d with exactly k generators and known faces.

    shape fixes the block list (total dimension at most d); otherwise it is
    drawn at random, with or without a line as want_line asks.  vertices
    fixes the vertex count (3 to 5) of a polygon block; otherwise it is
    drawn.  scale > 1 multiplies one hidden coordinate by scale, so every
    generator lies in a proper sublattice whose membership functional is
    recorded.
    """
    for _ in range(200):
        names = list(shape) if shape else _blocks_for(rng, d, want_line)
        blocks = []
        for name in names:
            if name == "ray":
                blocks.append(_ray())
            elif name == "line":
                blocks.append(_line(rng))
            elif name == "wedge":
                blocks.append(_wedge(rng))
            else:
                blocks.append(_polygon(rng, vertices or rng.randint(3, 5)))
        if sum(len(b.gens) for b in blocks) > k:
            continue
        tries = 0
        while sum(len(b.gens) for b in blocks) < k and tries < 60:
            tries += 1
            i = rng.randrange(len(blocks))
            grown = _with_extra(blocks[i], rng)
            if grown is not None:
                blocks[i] = grown
        if sum(len(b.gens) for b in blocks) == k:
            return _assemble(rng, d, blocks, scale)
    raise ValueError(f"no cone with {k} generators in dimension {d} (line={want_line})")


def _assemble(rng: random.Random, d: int, blocks: list[Block], scale: int) -> KnownCone:
    local = []                      # (global vector before the map, block, index)
    offset = 0
    for bi, b in enumerate(blocks):
        for gi, g in enumerate(b.gens):
            v = [0] * d
            v[offset:offset + b.dim] = g
            local.append((v, bi, gi))
        offset += b.dim
    scaled_coord = rng.randrange(d) if scale > 1 else None
    if scaled_coord is not None:
        for v, _, _ in local:
            v[scaled_coord] *= scale
    u = _unimodular(rng, d)
    order = list(range(len(local)))
    rng.shuffle(order)
    gens = []
    position = {}
    for new, old in enumerate(order):
        v, bi, gi = local[old]
        gens.append(tuple(sum(a * x for a, x in zip(row, v)) for row in u))
        position[(bi, gi)] = new

    faces = []
    for combo in product(*(b.faces for b in blocks)):
        members = sorted(position[(bi, gi)]
                         for bi, (face, _) in enumerate(combo)
                         for gi in blocks[bi].gens_in(face))
        faces.append((tuple(members), sum(r for _, r in combo)))
    faces.sort()
    unit_rank = sum(b.dim for b in blocks if len(b.faces) == 1)
    functional = None
    if scaled_coord is not None:
        # x lies in the scaled lattice iff (u^-1 x)[scaled_coord] % scale == 0;
        # u^-1 is integral, so record its row for that coordinate
        functional = (tuple(_inverse_row(u, scaled_coord)), scale)
    return KnownCone(d, tuple(gens), tuple(faces), unit_rank, functional)


def _inverse_row(u: list[list[int]], row: int) -> list[int]:
    """Row of the inverse of a unimodular matrix, by exact elimination."""
    d = len(u)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(d)]
         for i, r in enumerate(u)]
    for c in range(d):
        p = next(i for i in range(c, d) if a[i][c] != 0)
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for i in range(d):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    out = a[row][d:]
    assert all(x.denominator == 1 for x in out)
    return [int(x) for x in out]
