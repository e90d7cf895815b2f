"""The frozen records: construction, equality, hash, repr and immutability,
the same on every record class of the package."""

import importlib
from functools import cached_property

import pytest

from f1kit import _record
from f1kit.counting import IntPolynomial, LimitResult
from f1kit.errors import ShapeMismatch
from f1kit.groups import Cocycle, ExtensionLaw, FiniteGroupTable, ThetaRep
from f1kit.linalg import Mat
from f1kit.monoids import FgAbelianGroup, GroupHom, PointedMonoid
from f1kit.report import Report
from f1kit.schemes import Cell, RankScheme, Torification, monomial_morphism
from f1kit.spectrum import MoPoint, spec

MODULES = ("counting", "groups", "linalg", "monoids", "report", "schemes", "spectrum")


def _samples():
    z1 = FgAbelianGroup.free(1)
    w = FiniteGroupTable.cyclic(2)
    theta, cocycle = ThetaRep.trivial(w, 1), Cocycle.trivial(w, 1)
    line = RankScheme((("a", z1), ("b", z1)))
    weak = monomial_morphism(line, line, ("b", "a"), (Mat.identity(1),) * 2, [(-1,), (1,)])
    return [
        IntPolynomial.of(1, 2), LimitResult(2, 1),
        w, theta, cocycle, ExtensionLaw(theta, cocycle),
        Mat.from_rows(1, 2, [[1, -2]]),
        FgAbelianGroup(1, (2,)), GroupHom.on_free(z1, z1, Mat.identity(1)), PointedMonoid.orthant(2),
        Report(False, 3, "first", ("note",)),
        Cell(1, "a", 2), Torification((Cell(0, "e"),)), line, weak.z_side, weak.mo_side, weak,
        MoPoint(0, 0, (), z1), spec(PointedMonoid.orthant(1)),
    ]


def _fields(x):
    return tuple(getattr(x, f) for f in type(x).__match_args__)


def test_every_record_class_is_sampled():
    records = {cls for name in MODULES
               for cls in vars(importlib.import_module(f"f1kit.{name}")).values()
               if isinstance(cls, type) and cls.__setattr__ is _record._refuse}
    assert records == {type(x) for x in _samples()} and len(records) == 19


@pytest.mark.parametrize("x", _samples(), ids=lambda x: type(x).__name__)
def test_record_semantics(x, monkeypatch):
    cls = type(x)
    # the fields are the class's own annotated names, in order
    assert cls.__match_args__ == tuple(cls.__annotations__)
    values = _fields(x)
    # built again by position or by keyword: equal, with equal hashes
    for y in (cls(*values), cls(**dict(zip(cls.__match_args__, values)))):
        assert y == x and y is not x and hash(y) == hash(x)
    assert hash(x) == hash(values)
    # == compares the same class only
    assert x.__eq__(values) is NotImplemented and x != values
    assert all(x != y for y in _samples() if type(y) is not cls)
    if cls is not IntPolynomial:    # the one record with a repr of its own
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(cls.__match_args__, values))
        assert repr(x) == f"{cls.__qualname__}({shown})"
    # defaults come from class attributes
    defaults = {f: vars(cls)[f] for f in cls.__match_args__ if f in vars(cls)}
    if defaults:
        y = cls(**{f: v for f, v in zip(cls.__match_args__, values) if f not in defaults})
        assert all(getattr(y, f) == v for f, v in defaults.items())
    # assignment and deletion are refused; writing through object or vars is not
    first = cls.__match_args__[0]
    for attempt in (lambda: setattr(x, first, None), lambda: delattr(x, first),
                    lambda: setattr(x, "extra", 1)):
        with pytest.raises(AttributeError):
            attempt()
    assert getattr(x, first) == values[0]
    object.__setattr__(x, "_scratch", 1)
    vars(x).update(_scratch=2)
    assert x._scratch == 2 and x == cls(*values)
    # an error in __post_init__ propagates out of the constructor
    if hasattr(cls, "__post_init__"):
        def broken(self):
            raise ShapeMismatch("post-init ran")
        monkeypatch.setattr(cls, "__post_init__", broken)
        with pytest.raises(ShapeMismatch, match="post-init ran"):
            cls(*values)


def test_records_keep_their_own_repr_and_take_cached_properties():
    assert repr(IntPolynomial.of(0, 1)) == "IntPolynomial.of(0, 1)"
    assert repr(Mat.identity(1)) == "Mat(rows=1, cols=1, data=((1,),))"
    assert repr(Report(True, 1)) == "Report(ok=True, checks=1, witness=None, notes=())"

    @_record.record
    class Lazy:
        n: int

        @cached_property
        def square(self):
            return self.n * self.n

    x = Lazy(3)
    assert x.square == 9 and vars(x) == {"n": 3, "square": 9} and x == Lazy(3)
    assert Lazy.__init__.__qualname__.endswith("<locals>.Lazy.__init__")
    assert Lazy.__eq__.__module__ == __name__
