"""Partial interleaving functions and finite families of them.

A function here takes an ordered pair of traces and returns ``None``
(undefined), a ``frozenset`` of traces (a generalized, set-valued
function), or any other value, which is one trace.  An output lands in
a trace set when it is a member, or when it is a nonempty set of
members.  A trace set is closed under a family when every ordered pair
of members has some family member defined at the pair whose output
lands.  Four realizations matter:

* extensional tables (finite pair-to-output maps),
* the per-family membership functions behind the strategy-system
  equivalence (one function per family and member trace),
* the zigzag functions that pin down a single trace set, built over an
  ordered core subset,
* pairings of two functions, whose output is the union of theirs; the
  conjunction of two types is kept symbolic, because a type stands for
  the infinite set of all constraint-obeying functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .errors import FormatError, InjectivityError, SiflabError
from .properties import StrategySystem, check_injectivity
from .siftypes import SifType, closed_under_type
from .traces import (
    L_VIEW,
    LassoTrace,
    System,
    TraceSpace,
    _list,
    format_trace,
    read_json,
    space_from_obj,
    space_to_obj,
    trace_from_obj,
    trace_to_obj,
    view,
)

Sif = Callable[[LassoTrace, LassoTrace], "LassoTrace | frozenset | None"]


@dataclass(frozen=True)
class ExtensionalSif:
    """A finite pair-to-output table (a trace or a trace set); undefined
    off the table."""

    table: tuple[tuple[tuple[LassoTrace, LassoTrace], LassoTrace | frozenset], ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "ExtensionalSif":
        return cls(tuple(sorted(mapping.items(), key=lambda kv: repr(kv[0]))))

    def __post_init__(self):
        # reversed, so the first entry for a pair wins, as in a scan of the table
        object.__setattr__(self, "_lookup", dict(reversed(self.table)))

    def __call__(self, a: LassoTrace, b: LassoTrace) -> LassoTrace | frozenset | None:
        return self._lookup.get((a, b))


@dataclass(frozen=True)
class NosMemberSif:
    """Returns its fixed trace when the first argument shares that trace's
    low view and the second argument belongs to the fixed family;
    undefined otherwise."""

    family_name: str
    sigma: LassoTrace
    family_traces: frozenset

    def __call__(self, a: LassoTrace, b: LassoTrace) -> LassoTrace | None:
        if b in self.family_traces and view(self.sigma, L_VIEW) == view(a, L_VIEW):
            return self.sigma
        return None


def nos_family(ss: StrategySystem) -> tuple[NosMemberSif, ...]:
    """One function per (family, member trace) pair.

    Closure of the union under this family is equivalent to the NOS
    verdict; the equivalence is exercised exhaustively by the test suite.
    """
    if not check_injectivity(ss):
        raise InjectivityError("strategy system violates the distinguishability precondition")
    out = []
    for name, fam in ss.families:
        for sigma in fam.members:
            out.append(NosMemberSif(name, sigma, fam.traces))
    return tuple(out)


@dataclass(frozen=True)
class ZigzagSif:
    """The trace-set-pinning function over an ordered core.

    Undefined unless both arguments are in the target set.  With exactly
    one argument in the core, that argument is returned; with neither,
    the first core element.  With both in the core at 1-based positions
    i and j, the result is the core element at i+1 when j is even and
    i-1 when j is odd, wrapped into 1..k.
    """

    target: frozenset
    core: tuple

    def __post_init__(self):
        if not self.core:
            raise SiflabError("the ordered core must be nonempty")
        if len(set(self.core)) != len(self.core):
            raise SiflabError("core elements must be distinct")
        if not set(self.core) <= self.target:
            raise SiflabError("the core must be a subset of the target set")
        object.__setattr__(self, "_pos", {t: i + 1 for i, t in enumerate(self.core)})

    def __call__(self, a: LassoTrace, b: LassoTrace) -> LassoTrace | None:
        if a not in self.target or b not in self.target:
            return None
        i = self._pos.get(a)
        j = self._pos.get(b)
        if i is None and j is None:
            return self.core[0]
        if i is None:
            return b
        if j is None:
            return a
        k = len(self.core)
        idx = i + 1 if j % 2 == 0 else i - 1
        idx = (idx - 1) % k + 1
        return self.core[idx - 1]


def zigzag_sif(target: System) -> ZigzagSif:
    """The pinning function for ``target``, over all of the target in its
    canonical order, which always satisfies the distinguishing-core
    condition."""
    return ZigzagSif(target.traces, target.members)


@dataclass(frozen=True)
class ConjPairGenSif:
    """The pairing of two functions: undefined where either component is,
    otherwise the union of their outputs (a single trace counts as a
    one-element set)."""

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
    if out is None or isinstance(out, frozenset):
        return out
    return frozenset((out,))


@dataclass(frozen=True)
class TypeConjFamily:
    """Symbolic stand-in for all pairings of a function of the first type
    with a function of the second type."""

    t1: SifType
    t2: SifType


def conj_family(f1, f2):
    """Conjunction of two families.

    Two types give the symbolic form; otherwise both arguments must be
    iterables of functions and the result is the finite family of all
    pairings.
    """
    if isinstance(f1, SifType) and isinstance(f2, SifType):
        return TypeConjFamily(f1, f2)
    if isinstance(f1, SifType) or isinstance(f2, SifType):
        raise TypeError("mixing a type with an extensional family is not supported")
    return tuple(ConjPairGenSif(f, g) for f in f1 for g in f2)


def closed_under_family(s: System, family: TypeConjFamily | Iterable[Sif]) -> bool:
    """Every ordered pair of members has an output under some member
    function that lands in ``s``.

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
    inside = s.traces
    for a in s.members:
        for b in s.members:
            for f in fams:
                out = f(a, b)
                # a trace set never holds a frozenset, so a scalar output
                # is settled by the membership test alone
                if out is not None and (out in inside or isinstance(out, frozenset) and out and out <= inside):
                    break
            else:
                return False
    return True


def family_union(f1: Iterable[Sif], f2: Iterable[Sif]) -> tuple[Sif, ...]:
    """Set union, preserving first-seen order."""
    return tuple(dict.fromkeys(chain(f1, f2)))


@dataclass(frozen=True)
class ZigzagCollectionReport:
    """Outcome of the desk-scale pinning checks over one collection.

    ``uniqueness_ok``: each collection member is the unique member closed
    under its own singleton family.  ``representation_ok``: for every
    subfamily S of the collection, closure under {f_T : T in S} holds for
    exactly the members of S.  A counterexample records (subset mask,
    offending member index, closed verdict).
    """

    size: int
    uniqueness_ok: bool
    representation_ok: bool
    counterexample: tuple[int, int, bool] | None


def _pair_witness_masks(collection: Sequence[System]) -> list[list[int]]:
    """For member q and each ordered trace pair of it: the bitmask of
    collection members whose pinning function maps the pair back into
    member q."""
    fams = [zigzag_sif(s) for s in collection]
    table: list[list[int]] = []
    for q, target in enumerate(collection):
        rows = []
        for a in target.members:
            for b in target.members:
                mask = 0
                for m, f in enumerate(fams):
                    out = f(a, b)
                    if out is not None and out in target.traces:
                        mask |= 1 << m
                rows.append(mask)
        table.append(rows)
    return table


def verify_zigzag_collection(collection: Sequence[System]) -> ZigzagCollectionReport:
    """Exhaustively check uniqueness and subfamily representation.

    All members must be nonempty and pairwise distinct.
    """
    k = len(collection)
    if k == 0:
        raise SiflabError("empty collection")
    if any(len(s) == 0 for s in collection):
        raise SiflabError("collection members must be nonempty")
    if len({s.traces for s in collection}) != k:
        raise SiflabError("collection members must be pairwise distinct")
    witness = _pair_witness_masks(collection)
    uniqueness_ok = True
    representation_ok = True
    counterexample = None
    for subset in range(1 << k):
        for q in range(k):
            closed = all(w & subset for w in witness[q])
            expected = bool(subset >> q & 1)
            if closed != expected:
                representation_ok = False
                if counterexample is None:
                    counterexample = (subset, q, closed)
                if bin(subset).count("1") == 1:
                    uniqueness_ok = False
        if not representation_ok and not uniqueness_ok:
            break
    return ZigzagCollectionReport(k, uniqueness_ok, representation_ok, counterexample)


def sif_table_from_obj(obj) -> ExtensionalSif:
    """Load an extensional table from a list of (first, second, output) triples."""
    if not isinstance(obj, dict) or "alphabets" not in obj or "triples" not in obj:
        raise FormatError('a table file must contain "alphabets" and "triples"')
    space = space_from_obj(obj["alphabets"])
    mapping = {}
    for triple in _list(obj["triples"], '"triples"'):
        if not isinstance(triple, list) or len(triple) != 3:
            raise FormatError("each entry must be a [first, second, output] triple")
        a, b, c = (trace_from_obj(x) for x in triple)
        for t in (a, b, c):
            if not space.contains(t):
                raise FormatError(f"trace {format_trace(t)} does not conform to the alphabets")
        if (a, b) in mapping and mapping[(a, b)] != c:
            raise FormatError("conflicting outputs for one argument pair")
        mapping[(a, b)] = c
    return ExtensionalSif.from_mapping(mapping)


def sif_table_to_obj(sif: ExtensionalSif, space: TraceSpace) -> dict:
    return {
        "alphabets": space_to_obj(space),
        "triples": [[trace_to_obj(a), trace_to_obj(b), trace_to_obj(c)] for (a, b), c in sif.table],
    }


def load_sif_table(path: str | Path) -> ExtensionalSif:
    return sif_table_from_obj(read_json(path))
