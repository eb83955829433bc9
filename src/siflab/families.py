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
* pairings of two functions, whose output is the union of theirs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product, starmap
from typing import Callable, Iterable, Mapping, Sequence

from ._accel import powerset_size, sweep_pairs, sweep_rules
from .errors import SiflabError
from .properties import StrategySystem, require_injectivity
from .traces import L_VIEW, LassoTrace, System, _sort_key, canonical_repr, view

Sif = Callable[[LassoTrace, LassoTrace], "LassoTrace | frozenset | None"]


class ExtensionalSif:
    """A finite pair-to-output table (a trace or a trace set); undefined
    off the table.

    Built from a mapping of argument pairs ``(a, b)`` to outputs.  Two
    tables are equal when they map the same pairs to the same outputs.
    """

    __slots__ = ("_lookup",)

    def __init__(self, mapping: Mapping[tuple[LassoTrace, LassoTrace], LassoTrace | frozenset]):
        self._lookup = dict(mapping)

    @classmethod
    def _adopt(cls, table: dict) -> "ExtensionalSif":
        """The table over ``table`` itself, not a copy, for a caller that
        hands over a fresh dict and keeps no other reference to it."""
        f = object.__new__(cls)
        f._lookup = table
        return f

    @property
    def table(self) -> tuple[tuple[tuple[LassoTrace, LassoTrace], LassoTrace | frozenset], ...]:
        """The entries in a canonical order: by argument pair, each
        argument ranked by :func:`~siflab.traces._sort_key`."""
        args = sorted({t for pair in self._lookup for t in pair}, key=_sort_key)
        rank = {t: i for i, t in enumerate(args)}
        return tuple(sorted(self._lookup.items(), key=lambda kv: (rank[kv[0][0]], rank[kv[0][1]])))

    def __call__(self, a: LassoTrace, b: LassoTrace) -> LassoTrace | frozenset | None:
        return self._lookup.get((a, b))

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtensionalSif) and self._lookup == other._lookup

    def __hash__(self) -> int:
        return hash(frozenset(self._lookup.items()))

    def __repr__(self) -> str:
        return f"ExtensionalSif(table={self.table!r})"


@dataclass(slots=True, unsafe_hash=True)
class NosMemberSif:
    """Returns its fixed trace when the first argument shares that trace's
    low view and the second argument belongs to the fixed family;
    undefined otherwise."""

    family_name: str
    sigma: LassoTrace
    family_traces: frozenset
    _low: LassoTrace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._low = view(self.sigma, L_VIEW)

    def __repr__(self) -> str:
        return (
            f"NosMemberSif(family_name={self.family_name!r}, sigma={self.sigma!r}, "
            f"family_traces={canonical_repr(self.family_traces)})"
        )

    def __call__(self, a: LassoTrace, b: LassoTrace) -> LassoTrace | None:
        # views are interned traces, so equal views are one object
        if b in self.family_traces and self._low is view(a, L_VIEW):
            return self.sigma
        return None


def nos_family(ss: StrategySystem) -> tuple[NosMemberSif, ...]:
    """One function per (family, member trace) pair.

    Closure of the union under this family is equivalent to the NOS
    verdict; the equivalence is exercised exhaustively by the test suite.
    """
    require_injectivity(ss)
    out = []
    for name, fam in ss.families:
        for sigma in fam.members:
            out.append(NosMemberSif(name, sigma, fam.traces))
    return tuple(out)


@dataclass(slots=True, unsafe_hash=True)
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
    _pos: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        core = self.core
        if not core:
            raise SiflabError("the ordered core must be nonempty")
        if len(set(core)) != len(core):
            raise SiflabError("core elements must be distinct")
        if not set(core) <= self.target:
            raise SiflabError("the core must be a subset of the target set")
        self._pos = {t: i + 1 for i, t in enumerate(core)}

    def __repr__(self) -> str:
        return f"ZigzagSif(target={canonical_repr(self.target)}, core={self.core!r})"

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
    """The pinning function for ``target``, with all of the target as its
    core in canonical order.  A pairwise disjoint collection passes
    :func:`verify_zigzag_collection` with these cores; an overlapping one
    may fail subset representation, and that checker decides it."""
    return ZigzagSif(target.traces, target.members)


@dataclass(slots=True, unsafe_hash=True)
class ConjPairGenSif:
    """The pairing of two functions: undefined where either component is,
    otherwise the union of their outputs (a single trace counts as a
    one-element set).

    It calls each component through its bound ``__call__``, as
    :func:`closed_under_family` does.
    """

    f: Sif
    g: Sif
    _f: Sif = field(init=False, repr=False, compare=False)
    _g: Sif = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._f = self.f.__call__
        self._g = self.g.__call__

    def __call__(self, a: LassoTrace, b: LassoTrace) -> frozenset | None:
        fa = self._f(a, b)
        if fa is None:
            return None
        gb = self._g(a, b)
        if gb is None:
            return None
        if isinstance(fa, frozenset):
            return fa.union(gb) if isinstance(gb, frozenset) else fa.union((gb,))
        return gb.union((fa,)) if isinstance(gb, frozenset) else frozenset((fa, gb))


def conj_family(f1: Iterable[Sif], f2: Iterable[Sif]) -> tuple[ConjPairGenSif, ...]:
    """Conjunction of two families: each member of ``f1`` paired with each of ``f2``."""
    return tuple(starmap(ConjPairGenSif, product(f1, f2)))


def closed_under_family(s: System, family: Iterable[Sif]) -> bool:
    """Every ordered pair of members has a function of ``family`` landing its output in ``s``."""
    # bound __call__ methods: a call through one skips the lookup of the
    # method on the function's type that calling the function makes
    calls = [f.__call__ for f in family]
    inside = s.traces
    for a in s.members:
        for b in s.members:
            for call in calls:
                out = call(a, b)
                if out is None:
                    continue
                # a set lands when it is nonempty and inside; a trace, when inside
                if isinstance(out, frozenset):
                    if out and out <= inside:
                        break
                elif out in inside:
                    break
            else:
                return False
    return True


def closed_over_pool(f: Sif, pool: Sequence, count: int) -> int:
    """``closed_under_family(S, (f,))`` for the subsets S of ``pool`` with
    masks ``0 .. count - 1`` (bit i stands for ``pool[i]``), by one pair
    sweep, as an int whose bit m is the verdict of mask m; ``f`` must be
    scalar valued.

    Those subsets draw on the first ``width = (count - 1).bit_length()``
    traces only.  A subset holding a and b lands ``f(a, b)`` exactly when
    it holds that output, so the witness mask of the pair is the output's
    bit when the output is one of those traces, and 0 otherwise.
    """
    width = (count - 1).bit_length()
    traces = pool[:width]
    bit = {t: 1 << i for i, t in enumerate(traces)}
    table = [[bit.get(f(a, b), 0) for b in traces] for a in traces]
    return sweep_pairs(table, range(count), width)


def family_union(f1: Iterable[Sif], f2: Iterable[Sif]) -> tuple[Sif, ...]:
    """Set union, preserving first-seen order."""
    return tuple(dict.fromkeys(chain(f1, f2)))


@dataclass(frozen=True)
class ZigzagCollectionReport:
    """Outcome of the desk-scale pinning checks over one collection.

    ``uniqueness_ok``: each collection member is the unique member closed
    under its own singleton family.  ``representation_ok``: for every
    subfamily S of the collection, closure under {f_T : T in S} holds for
    exactly the members of S.
    """

    uniqueness_ok: bool
    representation_ok: bool


def _pair_witness_masks(collection: Sequence[System]) -> list[list[int]]:
    """For member q and each ordered trace pair of it: the bitmask of
    collection members whose pinning function maps the pair back into
    member q."""
    # bound, as in closed_under_family
    fams = [(zigzag_sif(s).__call__, 1 << m) for m, s in enumerate(collection)]
    table: list[list[int]] = []
    for target in collection:
        inside = target.traces
        rows = []
        for a in target.members:
            for b in target.members:
                mask = 0
                for f, bit in fams:
                    # an undefined output, None, is never a member
                    if f(a, b) in inside:
                        mask |= bit
                rows.append(mask)
        table.append(rows)
    return table


def _subfamily_verdicts(collection: Sequence[System], patterns: dict[int, int]) -> list[int]:
    """For each member q, the verdict int over the 2^k subfamilies of the
    collection: bit S is set when q is closed under {f_T : T in S}.

    Member q is closed under S when S meets the witness mask of each of
    its pairs, so each distinct witness mask w is a rule ``((), w)``, with
    the kernel memo ``patterns``.  More than ``_accel.MAX_TRACES`` members
    raise ``CapExceeded`` before any table is built.
    """
    k = len(collection)
    powerset_size(k, "member")  # raises CapExceeded before any table
    return [sweep_rules([((), w) for w in set(rows)], 1 << k, k, patterns) for rows in _pair_witness_masks(collection)]


def verify_zigzag_collection(collection: Sequence[System]) -> ZigzagCollectionReport:
    """Exhaustively check uniqueness and subfamily representation, for all
    2^k subfamilies at once.

    All members must be nonempty and pairwise distinct, and there may be
    at most ``_accel.MAX_TRACES`` (24) of them.
    """
    k = len(collection)
    if k == 0:
        raise SiflabError("empty collection")
    if any(len(s) == 0 for s in collection):
        raise SiflabError("collection members must be nonempty")
    if len({s.traces for s in collection}) != k:
        raise SiflabError("collection members must be pairwise distinct")
    patterns: dict[int, int] = {}
    verdicts = _subfamily_verdicts(collection, patterns)
    # representation: q is closed under exactly the subfamilies holding q, which ((), {q}) leaves
    representation_ok = all(v == sweep_rules([((), 1 << q)], 1 << k, k, patterns) for q, v in enumerate(verdicts))
    # uniqueness: of the singleton subfamilies {m}, q is closed under {q} alone
    uniqueness_ok = all((v >> (1 << m) & 1) == (m == q) for q, v in enumerate(verdicts) for m in range(k))
    return ZigzagCollectionReport(uniqueness_ok, representation_ok)
