"""Set-valued interleaving functions and conjunction of families.

A set-valued function maps an ordered trace pair to a nonempty finite
trace set, or is undefined.  Closure asks, per pair, for some family
member defined there whose whole output lands inside the set.  The
pairing construction combines two scalar functions: undefined where
either is, otherwise the union of the two outputs.  Conjunctions of two
types are handled symbolically, because a type stands for the infinite
set of all constraint-obeying functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .families import Sif
from .siftypes import SifType, closed_under_type
from .traces import LassoTrace, System

GenSif = Callable[[LassoTrace, LassoTrace], "frozenset | None"]


@dataclass(frozen=True)
class LiftedGenSif:
    """A scalar function viewed as a singleton-set-valued one."""

    sif: Sif

    def __call__(self, a: LassoTrace, b: LassoTrace) -> frozenset | None:
        out = self.sif(a, b)
        return None if out is None else frozenset((out,))


@dataclass(frozen=True)
class ExtensionalGenSif:
    """A finite pair-to-trace-set table."""

    table: tuple[tuple[tuple[LassoTrace, LassoTrace], frozenset], ...]

    def __post_init__(self):
        # reversed, so the first entry for a pair wins, as in a scan of the table
        object.__setattr__(self, "_lookup", dict(reversed(self.table)))

    def __call__(self, a: LassoTrace, b: LassoTrace) -> frozenset | None:
        return self._lookup.get((a, b))


@dataclass(frozen=True)
class ConjPairGenSif:
    """The pairing of two functions: undefined where either component is,
    otherwise the union of their (lifted) outputs."""

    f: object
    g: object

    def __call__(self, a: LassoTrace, b: LassoTrace) -> frozenset | None:
        fa = _as_set(self.f, a, b)
        if fa is None:
            return None
        gb = _as_set(self.g, a, b)
        if gb is None:
            return None
        return fa | gb


def _as_set(fn, a, b) -> frozenset | None:
    out = fn(a, b)
    if out is None:
        return None
    if isinstance(out, frozenset):
        return out
    if isinstance(out, LassoTrace):
        return frozenset((out,))
    return frozenset(out)


@dataclass(frozen=True)
class TypeConjFamily:
    """Symbolic stand-in for all pairings of a function of the first type
    with a function of the second type."""

    t1: SifType
    t2: SifType


Family = Union[TypeConjFamily, Iterable[GenSif]]


def conj_family(f1, f2):
    """Conjunction of two families.

    Two types give the symbolic form; otherwise both arguments must be
    iterables of functions (scalar functions are lifted) and the result
    is the finite family of all pairings.
    """
    if isinstance(f1, SifType) and isinstance(f2, SifType):
        return TypeConjFamily(f1, f2)
    if isinstance(f1, SifType) or isinstance(f2, SifType):
        raise TypeError("mixing a type with an extensional family is not supported")
    return tuple(ConjPairGenSif(f, g) for f in f1 for g in f2)


def closed_under_gen(s: System, family) -> bool:
    """Closure of ``s`` under a set-valued family.

    For the symbolic two-type family the per-pair condition unfolds to:
    some member matches the first type's constraints and some member
    matches the second's.  That matches the extensional pairing form
    because each type contains every constraint-obeying function.  The
    quantifier over pairs distributes over the conjunction, so the
    closure is the conjunction of the two type closures.
    """
    if isinstance(family, TypeConjFamily):
        return closed_under_type(s, family.t1) and closed_under_type(s, family.t2)
    fams = tuple(family)
    for a in s.members:
        for b in s.members:
            for g in fams:
                out = _as_set(g, a, b)
                if out is not None and out and out <= s.traces:
                    break
            else:
                return False
    return True


def lift_family(family: Iterable[Sif]) -> tuple[LiftedGenSif, ...]:
    """Lift every scalar function of a family; closure verdicts are preserved."""
    return tuple(LiftedGenSif(f) for f in family)
