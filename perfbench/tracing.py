"""Span tracing of f1kit's layers, installed from outside the package.

``install`` wraps every function the package exports, the brute-force
oracles, the command line's functions and a few hot methods, each named after
the module that defines it (its layer), and rebinds each wrapper in every
module namespace that binds the original (``feasible`` is bound in linalg,
spectrum, monoids, counting and the package itself).  Each call records a span: name, start,
end, parent span and op id, kept in flat arrays and written once at the end.
A span's self time is its duration minus the part of it that child spans
cover; per-layer metrics are sums of self times and counts of spans.
"""

from array import array
from collections import Counter
import functools
import gzip
import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("linalg", "monoids", "spectrum", "counting", "schemes", "groups",
          "reductive", "cli")

# (module, class, attribute) -> span name, for methods worth their own span
METHODS = {
    ("linalg", "Mat", "__mul__"): "linalg.mat_mul",
    ("linalg", "Mat", "identity"): "linalg.mat_identity",
    ("groups", "FiniteGroupTable", "build"): "groups.table_build",
    ("groups", "GroupModel", "law_blocks"): "groups.law_blocks",
    ("schemes", "RankScheme", "index"): "schemes.rank_index",
}
POLY_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__call__")
POLY_FUNCTIONS = ("torification_poly", "gauss_number", "gauss_factorial",
                  "gauss_binomial", "vanishing_order_and_limit")
BRUTE = ("counting.brute_count_monoid_homs", "counting.brute_count_gl",
         "counting.brute_count_subspaces")


class Tracer:
    """In-memory span store: one entry per call in parallel arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = -1
        self.counters: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.current = idx
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.current = self.parent[idx]

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """All spans as JSON lines, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self)):
                fh.write(json.dumps([self.names[self.name[i]], self.start[i], self.end[i],
                                     self.parent[i], self.op[i]]) + "\n")


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def _hooks():
    """Counters read from arguments, results and exceptions of a call."""
    from f1kit.errors import MembershipUndecidedWithinBound

    def spec(tracer, args, result, exc):
        if exc is None:
            tracer.counters["spectrum.faces_found"] += len(result.points)

    def member(tracer, args, result, exc):
        if isinstance(exc, MembershipUndecidedWithinBound):
            tracer.counters["monoids.member.undecided"] += 1

    # size of the enumeration each brute oracle covers, from its arguments
    def brute_monoid(tracer, args, result, exc):
        m, q = args[0], args[1]
        if exc is None and m.kind == "affine":
            tracer.counters["counting.brute.assignments"] += q ** len(m.generators)

    def brute_gl(tracer, args, result, exc):
        if exc is None:
            tracer.counters["counting.brute.assignments"] += args[1] ** (args[0] * args[0])

    def brute_subspaces(tracer, args, result, exc):
        if exc is None:             # one reduced echelon form per counted subspace
            tracer.counters["counting.brute.assignments"] += result

    return {"spectrum.spec": spec, "monoids.member": member,
            "counting.brute_count_monoid_homs": brute_monoid,
            "counting.brute_count_gl": brute_gl,
            "counting.brute_count_subspaces": brute_subspaces}


def _wrap(tracer: Tracer, name: str, fn, hook=None):
    nid = tracer.name_id(name)

    def traced(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx)
            if hook is not None:
                hook(tracer, args, None, exc)
            raise
        tracer.close(idx)
        if hook is not None:
            hook(tracer, args, result, None)
        return result

    return functools.update_wrapper(traced, fn)


def install(tracer: Tracer):
    """Wrap the layers' public functions; return a function that undoes it."""
    import f1kit
    modules = {layer: importlib.import_module(f"f1kit.{layer}") for layer in LAYERS}
    hooks = _hooks()
    exported = set(vars(f1kit))
    wrapped = {}                    # id(original) -> (original, wrapper)
    for layer, mod in modules.items():
        for attr, fn in vars(mod).items():
            name = f"{layer}.{attr}"
            public = attr in exported or name in BRUTE or (
                layer == "cli" and not attr.startswith("_"))
            if not public or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapped[id(fn)] = (fn, _wrap(tracer, name, fn, hooks.get(name)))
    undo = []
    for ns in [f1kit, *modules.values()]:
        for attr, value in list(vars(ns).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(ns, attr, hit[1])
                undo.append((ns, attr, value))

    targets = dict(METHODS)
    for attr in vars(modules["counting"].IntPolynomial):
        if not attr.startswith("_") or attr in POLY_OPERATORS:
            targets[("counting", "IntPolynomial", attr)] = f"counting.IntPolynomial.{attr}"
    for (layer, cls_name, attr), name in targets.items():
        cls = getattr(modules[layer], cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(_wrap(tracer, name, raw.__func__))
        elif inspect.isfunction(raw):
            new = _wrap(tracer, name, raw)
        else:
            continue
        setattr(cls, attr, new)
        undo.append((cls, attr, raw))

    def uninstall():
        for ns, attr, value in reversed(undo):
            setattr(ns, attr, value)
    return uninstall


def _is_poly(name: str) -> bool:
    return (name.startswith("counting.IntPolynomial.")
            or name in {f"counting.{f}" for f in POLY_FUNCTIONS})


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times from the recorded spans."""
    names = tracer.names
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    under: Counter = Counter()      # (child name, parent name) -> count
    for i, nid in enumerate(tracer.name):
        name = names[nid]
        calls[name] += 1
        self_s[name] += selfs[i]
        p = tracer.parent[i]
        if p >= 0:
            under[(name, names[tracer.name[p]])] += 1

    def total(pred, table):
        return sum(v for n, v in table.items() if pred(n))

    def feasible_under(parents):
        return sum(under[("linalg.feasible", p)] for p in parents)

    subsets = feasible_under(["spectrum.spec"])
    faces = tracer.counters["spectrum.faces_found"]
    out = {
        "linalg.feasible.calls": calls["linalg.feasible"],
        "linalg.feasible.self_s": self_s["linalg.feasible"],
        "spectrum.spec.self_s": self_s["spectrum.spec"],
        "spectrum.subsets_tested": subsets,
        "spectrum.faces_found": faces,
        "spectrum.face_yield": faces / subsets if subsets else 0.0,
        "monoids.member.calls": calls["monoids.member"],
        "monoids.member.self_s": self_s["monoids.member"],
        "monoids.member.feasible_calls": feasible_under(["monoids.member"]),
        "monoids.member.undecided": tracer.counters["monoids.member.undecided"],
        "monoids.units_of.self_s": self_s["monoids.units_of"],
        "counting.brute.calls": total(lambda n: n in BRUTE, calls),
        "counting.brute.self_s": total(lambda n: n in BRUTE, self_s),
        "counting.brute.assignments": tracer.counters["counting.brute.assignments"],
        "counting.brute.feasible_calls": feasible_under(BRUTE),
        "counting.poly.calls": total(_is_poly, calls),
        "counting.poly.self_s": total(_is_poly, self_s),
        "linalg.mat_mul.calls": calls["linalg.mat_mul"],
        "linalg.mat_mul.self_s": self_s["linalg.mat_mul"],
        "linalg.mat_identity.calls": calls["linalg.mat_identity"],
        "linalg.det.calls": calls["linalg.det"],
        "groups.table_build.calls": calls["groups.table_build"],
        "groups.table_build.self_s": self_s["groups.table_build"],
        "groups.law_blocks.calls": calls["groups.law_blocks"],
        "groups.check_group_axioms.self_s": self_s["groups.check_group_axioms"],
        "groups.check_action.self_s": self_s["groups.check_action"],
        "groups.checks": tracer.counters["groups.checks"],
        "schemes.rank_index.calls": calls["schemes.rank_index"],
        "schemes.rank_index.self_s": self_s["schemes.rank_index"],
        "schemes.compose_weak.calls": calls["schemes.compose_weak"],
        "schemes.check_weak.calls": calls["schemes.check_weak"],
        "reductive.gl_model.self_s": self_s["reductive.gl_model"],
        "reductive.universality_check.self_s": self_s["reductive.universality_check"],
        "reductive.tau_check.self_s": self_s["reductive.tau_check"],
        "reductive.quotient_square_check.self_s": self_s["reductive.quotient_square_check"],
    }
    for layer in LAYERS:
        prefix = layer + "."
        out[f"{layer}.calls"] = total(lambda n: n.startswith(prefix), calls)
        out[f"{layer}.self_s"] = total(lambda n: n.startswith(prefix), self_s)
    return out
