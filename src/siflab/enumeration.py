"""Enumeration of trace universes and exhaustive system verdicts.

Small trace universes (at most 24 traces) admit a bit-parallel encoding:
a system is a bitmask over the universe, and a verdict vector holds one
verdict per system.  Two deciders fill such vectors.  Property membership
uses the pair sweep: for every ordered pair (a, b) of members the system
must intersect the witness mask ``W[a, b]``, the traces sharing a's C1
view and b's C2 view, for each (C1, C2) pair of the property's entry in
``properties.PROPERTY_VIEWS``.  Closure under a type
uses distinct-view counts, the identity of ``siftypes`` evaluated for
every system at once.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Sequence

import numpy as np

from ._accel import cube_index, powerset_size, sweep_pairs
from .errors import CapExceeded, SiflabError
from .properties import PROPERTY_VIEWS, PropertyKind
from .siftypes import SifType
from .traces import (
    COMPONENT_ORDER,
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

    Property verdicts come from sweeping the whole powerset; the
    :meth:`witness_table` of each mask pair in ``PROPERTY_VIEWS`` is swept
    once and its verdict vector is cached.  Closure verdicts come from the
    distinct-view counts of every system, built on the first closure query
    (16 bytes per system).
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
        system = System(space, self.traces)
        rows = dict(zip(system.members, system.view_ids))
        ids = [rows[t] for t in self.traces]  # in universe order
        self._eq: dict[Component, np.ndarray] = {}
        for col, comp in enumerate(COMPONENT_ORDER):
            groups: dict[int, int] = {}
            for i, row in enumerate(ids):
                groups[row[col]] = groups.get(row[col], 0) | (1 << i)
            self._eq[comp] = np.array([groups[row[col]] for row in ids], dtype=np.uint64)
        self._verdicts: dict[tuple[int, int], np.ndarray] = {}
        self._counts: tuple[np.ndarray, ...] | None = None

    @classmethod
    def standard(cls) -> "BitUniverse":
        """The 16 period-1 binary traces."""
        return cls(*standard_universe())

    def view_eq_mask(self, mask: Component) -> np.ndarray:
        """Per trace: the bitmask of traces sharing its ``mask`` view.

        Joint-view equality is the conjunction of per-component view
        equalities, since word equality is positionwise.
        """
        out = np.full(self.n, (1 << self.n) - 1, dtype=np.uint64)
        for comp in COMPONENT_ORDER:
            if mask & comp:
                out &= self._eq[comp]
        return out

    def witness_table(self, first: int, second: int) -> np.ndarray:
        """``W[a, b]``: the traces sharing trace a's ``first`` view and
        trace b's ``second`` view.  A system satisfies the pair-quantified
        condition of the mask pair (a type's ``masks``, or a pair of
        ``PROPERTY_VIEWS``) exactly when it meets ``W[a, b]`` for every
        ordered pair of its members."""
        return self.view_eq_mask(first)[:, None] & self.view_eq_mask(second)[None, :]

    def _view_counts(self) -> tuple[np.ndarray, ...]:
        """``counts[mask][S]``: the number of distinct ``mask``-views in
        system ``S``, for the 16 component masks and every mask S.

        A view class is a value of :meth:`view_eq_mask`.  Every system
        starts at the number of classes and loses one for each class it
        misses, in one strided write on the powerset cube per class.
        """
        if self._counts is None:
            n = self.n
            counts = []
            for mask in range(16):
                classes = set(self.view_eq_mask(Component(mask)).tolist())
                count = np.full(1 << n, len(classes), dtype=np.uint8)
                cube = count.reshape((2,) * n)
                for members in classes:
                    cube[cube_index(n, members)] -= 1
                count.flags.writeable = False
                counts.append(count)
            self._counts = tuple(counts)
        return self._counts

    def property_ok(self, kind: PropertyKind) -> np.ndarray:
        """Property verdicts over the nonempty systems (index i is mask
        i + 1): the AND of the cached sweeps of the witness tables of the
        property's mask pairs."""
        verdicts = None
        for pair in PROPERTY_VIEWS[PropertyKind(kind)]:
            swept = self._verdicts.get(pair)
            if swept is None:
                systems = np.arange(powerset_size(self.n), dtype=np.uint64)
                swept = sweep_pairs(self.witness_table(*pair), systems, self.n)[1:]
                swept.flags.writeable = False
                self._verdicts[pair] = swept
            verdicts = swept if verdicts is None else verdicts & swept
        return verdicts

    def type_ok(self, t: SifType) -> np.ndarray:
        """Closure verdicts over the nonempty systems (index i is mask
        i + 1), by ``count[C1 | C2] == count[C1] * count[C2]`` per system
        (see ``siftypes``); the product is widened, as it can pass 255."""
        first, second = t.masks
        counts = self._view_counts()
        return counts[first | second][1:] == counts[first][1:].astype(np.uint16) * counts[second][1:]

    def system_from_mask(self, mask: int) -> System:
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
    prop = bu.property_ok(kind)
    clos = bu.type_ok(t)
    diff = prop != clos
    if not diff.any():
        return True, None
    # the verdicts cover masks 1 .. 2^n - 1, so index i is mask i + 1
    return False, int(np.argmax(diff)) + 1


def implication_violations(antecedent: np.ndarray, consequent: np.ndarray) -> int:
    """Count systems where the antecedent holds but the consequent fails."""
    return int((antecedent & ~consequent).sum())
