"""Enumeration of trace universes and exhaustive system sweeps.

Small trace universes (at most 24 traces) admit a bit-parallel encoding:
a system is a bitmask over the universe, and the pair-quantified checks
(property membership, closure under a type, conjunctions of types) all
reduce to one primitive, the pair sweep.  For every ordered pair (a, b)
of members the system must intersect a precomputed witness mask; the
masks are derived from per-component view equality.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ._accel import powerset_size, sweep_pairs
from .errors import CapExceeded, SiflabError
from .properties import PROPERTY_VIEWS, PropertyKind
from .siftypes import (
    REFUTED_CLOSED_NOT_HOLDS,
    REFUTED_HOLDS_NOT_CLOSED,
    UNREFUTED,
    Refutation,
    RefutationReport,
    SifType,
    Slot,
    enumerate_types,
)
from .traces import (
    COMPONENT_NAMES,
    COMPONENT_ORDER,
    _COMPONENT_KEYS,
    Component,
    LassoTrace,
    System,
    TraceSpace,
    _sort_key,
    canonicalize,
    format_trace,
    view,
)


def uniform_alphabets(alphabet_size: int) -> dict[str, tuple[str, ...]]:
    if alphabet_size < 1:
        raise SiflabError("alphabet size must be at least 1")
    syms = tuple(str(i) for i in range(alphabet_size))
    return {k: syms for k in _COMPONENT_KEYS}


def enumerate_traces(
    space: TraceSpace,
    max_prefix: int = 0,
    max_cycle: int = 1,
    include_finite: bool = False,
    cap: int = 1 << 22,
) -> tuple[LassoTrace, ...]:
    """All distinct canonical traces with bounded prefix and cycle lengths.

    By default only eventually periodic traces (nonempty cycle) are
    produced; ``include_finite`` adds the finite traces up to the prefix
    bound.  ``cap`` bounds the raw candidate count before deduplication.
    """
    if max_prefix < 0 or max_cycle < 0:
        raise SiflabError("length bounds must be nonnegative")
    tuples = [tuple(p) for p in product(*(space.alphabets[k] for k in _COMPONENT_KEYS))]
    nt = len(tuples)
    raw = 0
    for plen in range(max_prefix + 1):
        for clen in range(1, max_cycle + 1):
            raw += nt ** (plen + clen)
        if include_finite:
            raw += nt**plen
    if raw > cap:
        raise CapExceeded(f"{raw} candidate lassos exceed the cap of {cap}", cap)
    seen: set[LassoTrace] = set()
    for plen in range(max_prefix + 1):
        for pre in product(tuples, repeat=plen):
            for clen in range(1, max_cycle + 1):
                for cyc in product(tuples, repeat=clen):
                    seen.add(canonicalize(pre, cyc))
            if include_finite:
                seen.add(canonicalize(pre, ()))
    return tuple(sorted(seen, key=_sort_key))


def standard_universe(
    alphabet_size: int = 2,
    max_prefix: int = 0,
    max_cycle: int = 1,
    include_finite: bool = False,
) -> tuple[TraceSpace, tuple[LassoTrace, ...]]:
    space = TraceSpace(uniform_alphabets(alphabet_size))
    return space, enumerate_traces(space, max_prefix, max_cycle, include_finite)


def enumerate_systems(
    space: TraceSpace,
    max_prefix: int = 0,
    max_cycle: int = 1,
    include_finite: bool = False,
    include_empty: bool = False,
    cap: int = 1 << 20,
) -> Iterator[System]:
    """All systems over the generated universe, in deterministic order.

    Raises :class:`CapExceeded` when the subset count would pass ``cap``.
    """
    universe = enumerate_traces(space, max_prefix, max_cycle, include_finite)
    n = len(universe)
    count = (1 << n) - (0 if include_empty else 1)
    if count > cap:
        raise CapExceeded(f"{count} systems exceed the cap of {cap}", cap)
    start = 0 if include_empty else 1
    for mask in range(start, 1 << n):
        yield System(space, (universe[i] for i in range(n) if mask >> i & 1))


class BitUniverse:
    """Bit-parallel encoding of a trace universe of at most 24 traces.

    Verdicts come from sweeping the whole powerset; each witness table is
    swept once and its verdict vector is cached.
    """

    def __init__(self, space: TraceSpace, traces: Sequence[LassoTrace]):
        powerset_size(len(traces))  # raises CapExceeded past the sweep limit
        if len(set(traces)) != len(traces):
            raise SiflabError("universe traces must be distinct")
        self.space = space
        self.traces = tuple(traces)
        self.n = len(self.traces)
        self.index = {t: i for i, t in enumerate(self.traces)}
        self._eq: dict[Component, np.ndarray] = {}
        for comp in COMPONENT_ORDER:
            groups: dict[LassoTrace, int] = {}
            for i, t in enumerate(self.traces):
                v = view(t, comp)
                groups[v] = groups.get(v, 0) | (1 << i)
            eq = np.zeros(self.n, dtype=np.uint64)
            for i, t in enumerate(self.traces):
                eq[i] = groups[view(t, comp)]
            self._eq[comp] = eq
        self._verdicts: dict[PropertyKind | SifType, np.ndarray] = {}

    @classmethod
    def standard(cls, alphabet_size: int = 2, max_prefix: int = 0, max_cycle: int = 1) -> "BitUniverse":
        space, traces = standard_universe(alphabet_size, max_prefix, max_cycle)
        return cls(space, traces)

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

    def property_table(self, kind: PropertyKind) -> np.ndarray:
        """Witness-mask table for a pair-quantified property (not DGNI)."""
        m1, m2 = PROPERTY_VIEWS[PropertyKind(kind)]
        e1 = self.view_eq_mask(m1)
        e2 = self.view_eq_mask(m2)
        return e1[:, None] & e2[None, :]

    def type_table(self, t: SifType) -> np.ndarray:
        """Witness-mask table for closure under a type."""
        table = np.full((self.n, self.n), (1 << self.n) - 1, dtype=np.uint64)
        for comp, which in t.constraints():
            eq = self._eq[comp]
            if which == Slot.FIRST:
                table &= eq[:, None]
            else:
                table &= eq[None, :]
        return table

    def all_system_masks(self, include_empty: bool = False) -> np.ndarray:
        start = 0 if include_empty else 1
        return np.arange(start, powerset_size(self.n), dtype=np.uint64)

    def _select(self, key: PropertyKind | SifType, make_table, systems: np.ndarray | None) -> np.ndarray:
        """Verdicts over ``systems`` (default: all nonempty) from the cached
        vector of ``key``, which holds one verdict per mask 0 .. 2^n - 1."""
        verdicts = self._verdicts.get(key)
        if verdicts is None:
            verdicts = sweep_pairs(make_table(), self.all_system_masks(include_empty=True), self.n)
            verdicts.flags.writeable = False
            self._verdicts[key] = verdicts
        return verdicts[1:] if systems is None else verdicts[systems]

    def property_ok(self, kind: PropertyKind, systems: np.ndarray | None = None) -> np.ndarray:
        """Property verdicts over ``systems`` (default: all nonempty)."""
        kind = PropertyKind(kind)
        if kind is PropertyKind.DGNI:
            return self.property_ok(PropertyKind.GNI, systems) & self.property_ok(PropertyKind.RGNI, systems)
        return self._select(kind, lambda: self.property_table(kind), systems)

    def type_ok(self, t: SifType, systems: np.ndarray | None = None) -> np.ndarray:
        """Closure verdicts over ``systems`` (default: all nonempty)."""
        return self._select(t, lambda: self.type_table(t), systems)

    def system_from_mask(self, mask: int) -> System:
        return System(self.space, (self.traces[i] for i in range(self.n) if mask >> i & 1))

    def mask_from_system(self, s: System) -> int:
        mask = 0
        for t in s.traces:
            if t not in self.index:
                raise SiflabError(f"trace {format_trace(t)} is not in the universe")
            mask |= 1 << self.index[t]
        return mask

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
    first = int(np.argmax(diff))
    masks = bu.all_system_masks()
    return False, int(masks[first])


def refute_all_types_over_universe(bu: BitUniverse, kind: PropertyKind) -> RefutationReport:
    """Per-type disagreement search over every nonempty system of the universe."""
    masks = bu.all_system_masks()
    prop = bu.property_ok(kind)
    entries = []
    for t in enumerate_types():
        clos = bu.type_ok(t)
        diff = prop != clos
        if diff.any():
            first = int(np.argmax(diff))
            status = REFUTED_HOLDS_NOT_CLOSED if prop[first] else REFUTED_CLOSED_NOT_HOLDS
            entries.append(Refutation(t, status, f"mask {int(masks[first])}"))
        else:
            entries.append(Refutation(t, UNREFUTED))
    return RefutationReport(tuple(entries))


def implication_violations(antecedent: np.ndarray, consequent: np.ndarray) -> int:
    """Count systems where the antecedent holds but the consequent fails."""
    return int((antecedent & ~consequent).sum())
