"""Enumeration of trace universes and exhaustive system verdicts.

Small trace universes (at most 24 traces) admit a bit-parallel encoding:
a system is a bitmask over the universe, and a verdict vector is one int
with one bit per system.  Two deciders fill such vectors.  Property
membership uses the pair sweep: for every ordered pair (a, b) of members
the system must intersect the witness mask ``W[a][b]``, the traces
sharing a's C1 view and b's C2 view, for each (C1, C2) pair of the
property's entry in ``properties.PROPERTY_VIEWS``.  Closure under a type
uses pairs of view classes, the count identity of ``siftypes`` in its
inclusion form, for every system at once.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Sequence

from ._accel import avoiding, powerset_size, sweep_pairs
from .errors import CapExceeded, SiflabError
from .properties import PROPERTY_VIEWS, PropertyKind
from .siftypes import SifType
from .traces import (
    VIEW_KEY,
    _COMPONENT_KEYS,
    Component,
    LassoTrace,
    System,
    TraceSpace,
    _sort_key,
    canonicalize,
    format_trace,
)


def uniform_alphabets(alphabet_size: int) -> dict[str, tuple[str, ...]]:
    if alphabet_size < 1:
        raise SiflabError("alphabet size must be at least 1")
    syms = tuple(str(i) for i in range(alphabet_size))
    return {k: syms for k in _COMPONENT_KEYS}


def check_candidates(letters: int, max_prefix: int, max_cycle: int, cap: int) -> None:
    """Refuse a lasso enumeration over ``letters`` distinct 4-tuples whose
    raw candidate count exceeds ``cap``; no candidate is built.

    The count is the sum of ``letters ** (plen + clen)``.  Its terms are
    added in order only until the sum passes ``cap``, so huge bounds or
    alphabets cost a few terms, and the count itself is never printed.
    """
    if max_prefix < 0 or max_cycle < 0:
        raise SiflabError("length bounds must be nonnegative")
    if letters > 1 and max_cycle:
        terms = (letters ** (plen + clen) for plen in range(max_prefix + 1) for clen in range(1, max_cycle + 1))
    else:  # no term, or every term is ``letters`` itself
        terms = (letters * (max_prefix + 1) * max_cycle,)
    raw = 0
    for term in terms:
        raw += term
        if raw > cap:
            raise CapExceeded(f"candidate lassos exceed the cap of {cap}")


def enumerate_traces(
    space: TraceSpace,
    max_prefix: int = 0,
    max_cycle: int = 1,
    cap: int = 1 << 22,
) -> tuple[LassoTrace, ...]:
    """All distinct canonical eventually periodic traces (nonempty cycle)
    with bounded prefix and cycle lengths.

    ``cap`` bounds the raw candidate count before deduplication; it is
    checked from the alphabet sizes, before any candidate is built.
    """
    check_candidates(prod(len(space.alphabets[k]) for k in _COMPONENT_KEYS), max_prefix, max_cycle, cap)
    if not max_cycle:
        return ()  # every lasso here has a nonempty cycle; no prefix is built
    tuples = list(product(*(space.alphabets[k] for k in _COMPONENT_KEYS)))
    seen: set[LassoTrace] = set()
    for plen in range(max_prefix + 1):
        for pre in product(tuples, repeat=plen):
            for clen in range(1, max_cycle + 1):
                for cyc in product(tuples, repeat=clen):
                    seen.add(canonicalize(pre, cyc))
    return tuple(sorted(seen, key=_sort_key))


def standard_universe(
    alphabet_size: int = 2,
    max_prefix: int = 0,
    max_cycle: int = 1,
) -> tuple[TraceSpace, tuple[LassoTrace, ...]]:
    space = TraceSpace(uniform_alphabets(alphabet_size))
    return space, enumerate_traces(space, max_prefix, max_cycle)


class BitUniverse:
    """Bit-parallel encoding of a nonempty trace universe of at most 24 traces.

    A verdict vector is one int whose bit m is the verdict of system mask
    m; bit 0, the empty system, is set, as the empty system satisfies
    every condition vacuously.  Property verdicts come from sweeping the
    whole powerset; the :meth:`witness_table` of each mask pair in
    ``PROPERTY_VIEWS`` is swept once and its verdict is cached.  Closure
    verdicts come from the view classes of the type's mask pair, and are
    cached per pair apart from the sweeps, so the two never share a
    verdict.  A witness table is built once per mask pair and kept.
    """

    def __init__(self, space: TraceSpace, traces: Sequence[LassoTrace]):
        if not traces:
            raise SiflabError("a universe needs at least one trace")
        powerset_size(len(traces))  # raises CapExceeded past the sweep limit
        if len(set(traces)) != len(traces):
            raise SiflabError("universe traces must be distinct")
        self.space = space
        self.traces = tuple(traces)
        self.n = len(self.traces)
        self.full = (1 << (1 << self.n)) - 1  # every system
        system = System(space, self.traces)
        rows = dict(zip(system.members, system.view_ids))
        ids = [rows[t] for t in self.traces]  # in universe order
        # joint-view equality is the conjunction of per-component view
        # equalities, since word equality is positionwise; every trace
        # shares the empty view
        self._eq: list[tuple[int, ...]] = [((1 << self.n) - 1,) * self.n]
        for key_of in VIEW_KEY.values():  # masks 1 to 15, in order
            keys = list(map(key_of, ids))
            groups: dict[int | tuple[int, ...], int] = {}
            for i, key in enumerate(keys):
                groups[key] = groups.get(key, 0) | 1 << i
            self._eq.append(tuple(groups[key] for key in keys))
        self._tables: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
        self._avoiding: dict[int, int] = {}
        self._swept: dict[tuple[int, int], int] = {}
        self._closed: dict[tuple[int, int], int] = {}

    @classmethod
    def standard(cls) -> "BitUniverse":
        """The 16 period-1 binary traces."""
        return cls(*standard_universe())

    def view_eq_mask(self, mask: Component) -> tuple[int, ...]:
        """Per trace: the bitmask of traces sharing its ``mask`` view.
        Its distinct values are the ``mask`` view classes; it stays to
        expose them to the oracle tests' word-level projection."""
        return self._eq[mask]

    def witness_table(self, first: int, second: int) -> tuple[tuple[int, ...], ...]:
        """``W[a][b]``: the traces sharing trace a's ``first`` view and
        trace b's ``second`` view.  A system satisfies the pair-quantified
        condition of the mask pair (a type's ``masks``, or a pair of
        ``PROPERTY_VIEWS``) exactly when it meets ``W[a][b]`` for every
        ordered pair of its members.  Each pair's table is built once."""
        table = self._tables.get((first, second))
        if table is None:
            seconds = self._eq[second]
            # the traces of one first-view class share one row
            rows = {x: tuple(x & y for y in seconds) for x in set(self._eq[first])}
            table = self._tables[first, second] = tuple(map(rows.__getitem__, self._eq[first]))
        return table

    def _avoiding_class(self, members: int) -> int:
        """The systems avoiding the view class ``members``, built once."""
        clear = self._avoiding.get(members)
        if clear is None:
            clear = self._avoiding[members] = avoiding(members, self.n)
        return clear

    def property_ok(self, kind: PropertyKind) -> int:
        """Property verdicts: the AND of the cached sweeps of the witness
        tables of the property's mask pairs."""
        verdicts = self.full
        for pair in PROPERTY_VIEWS[PropertyKind(kind)]:
            swept = self._swept.get(pair)
            if swept is None:
                swept = self._swept[pair] = sweep_pairs(self.witness_table(*pair), range(1 << self.n), self.n)
            verdicts &= swept
        return verdicts

    def type_ok(self, t: SifType) -> int:
        """Closure verdicts, by the inclusion form of the count identity of
        ``siftypes``: a system is closed under a type taking C1 and C2
        exactly when, for each C1-class A and C2-class B that it meets, it
        meets ``A & B``.  So each class pair rules out the systems that
        meet A and B and avoid ``A & B``; a pair with one class inside the
        other rules out nothing."""
        closed = self._closed.get(t.masks)
        if closed is None:
            first, second = t.masks
            meets = {c: self.full ^ self._avoiding_class(c) for c in {*self._eq[first], *self._eq[second]}}
            ruled = 0
            for a in set(self._eq[first]):
                for b in set(self._eq[second]):
                    both = a & b
                    if both != a and both != b:
                        ruled |= meets[a] & meets[b] & self._avoiding_class(both)
            closed = self._closed[t.masks] = self.full & ~ruled
        return closed

    def system_from_mask(self, mask: int) -> System:
        """It stays to turn the mask :func:`represents_over_universe` returns back into a system."""
        return System(self.space, (self.traces[i] for i in range(self.n) if mask >> i & 1))

    def describe_mask(self, mask: int) -> str:
        names = [format_trace(self.traces[i]) for i in range(self.n) if mask >> i & 1]
        return "{" + ", ".join(names) + "}"


def represents_over_universe(
    bu: BitUniverse, t: SifType, kind: PropertyKind
) -> tuple[bool, int | None]:
    """Exhaustively compare property and closure verdicts.

    Returns (verdict, first disagreeing system mask or None).
    """
    diff = bu.property_ok(kind) ^ bu.type_ok(t)
    if not diff:
        return True, None
    return False, (diff & -diff).bit_length() - 1


def implication_violations(antecedent: int, consequent: int) -> int:
    """Count systems where the antecedent holds but the consequent fails."""
    return (antecedent & ~consequent).bit_count()
