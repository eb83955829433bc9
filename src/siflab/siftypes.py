"""Interleaving-function types and closure under a type.

A type constrains, per tuple component (high input, low input, high
output, low output), where the output trace's view must come from: the
first argument (1), the second argument (2), or anywhere (0, free).
There are 3^4 = 81 types.  A trace set is closed under a type when every
ordered pair of members has some member matching the constrained views;
this matches closure under the (infinite) set of functions obeying the
constraints, because such a set contains every constraint-obeying
function and the witness may vary per pair.

Closure is decided by counting.  Let t take the components C1 from its
first argument and C2 from its second, let count[C] be the number of
distinct C-views among the members of s, and let Q = {(x|C1, x|C2) : x
in s}.  Then s is closed under t exactly when

    count[C1 | C2] == count[C1] * count[C2].

Proof: closure says s|C1 x s|C2 is a subset of Q; Q is always a subset
of that product, and |Q| = count[C1 | C2] since C1 and C2 are disjoint,
so the inclusion holds exactly when the sizes agree.  The empty system
gives 0 == 0, and count[no components] = 1 on any other system, so
sixteen counts per system (``System.view_counts``) settle all 81 types.
The identity is used on one system at a time here
(:func:`closed_under_type`).  Its inclusion form, that s meets A & B for
every C1-class A and C2-class B it meets, is one kernel rule per class
pair for every system of a bit universe at once (``BitUniverse.type_ok``).

A type's pair (C1, C2) is :attr:`SifType.masks`.  Each pair-quantified
property is the same kind of condition on every pair of its entry in
``PROPERTY_VIEWS``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, product
from typing import Callable, Iterable, Mapping, Sequence

from .errors import FormatError
from .properties import PropertyKind, StrategySystem, check_nos, check_property, union_system
from .traces import HI_VIEW, HO_VIEW, LI_VIEW, LO_VIEW, System


_SLOT_COMPONENTS = (
    ("in_h", HI_VIEW),
    ("in_l", LI_VIEW),
    ("out_h", HO_VIEW),
    ("out_l", LO_VIEW),
)


@dataclass(frozen=True, order=True)
class SifType:
    """Four copy slots: inputs and outputs, high and low.

    Each slot is the int 0, 1 or 2.  Construction also computes
    ``masks``, the pair (C1, C2) of component masks the type takes from
    its first and its second argument; ``_count_keys``, the indices
    (C1 | C2, C1, C2) into ``System.view_counts`` that closure checks
    read 81 times per system; and its hash, ``hash(slots)`` as a
    generated dataclass hash would be.  Pickling rebuilds the type from
    its slots, so a stored hash never outlives the process that computed
    it.
    """

    in_h: int
    in_l: int
    out_h: int
    out_l: int

    def __post_init__(self):
        masks = [0, 0, 0]  # by slot value; slot 0 (free) is dropped
        for name, comp in _SLOT_COMPONENTS:
            slot = getattr(self, name)
            if type(slot) is not int or slot not in (0, 1, 2):
                raise FormatError(f"slot {name} must be the int 0, 1 or 2, got {slot!r}")
            masks[slot] |= int(comp)
        object.__setattr__(self, "masks", (masks[1], masks[2]))
        object.__setattr__(self, "_count_keys", (masks[1] | masks[2], masks[1], masks[2]))
        object.__setattr__(self, "_hash", hash(self.slots))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (SifType, self.slots)

    @property
    def slots(self) -> tuple[int, int, int, int]:
        return (self.in_h, self.in_l, self.out_h, self.out_l)

    def __str__(self) -> str:
        return format_type(self)


_TYPE_RE = re.compile(r"^([012]):([012])/([012]):([012])$")


def parse_type(literal: str) -> SifType:
    """Parse the CLI literal ``"a:b/c:d"`` (inputs high:low / outputs high:low)."""
    m = _TYPE_RE.match(literal.strip())
    if not m:
        raise FormatError(f'type literal must look like "1:2/0:2", got {literal!r}')
    a, b, c, d = (int(g) for g in m.groups())
    return SifType(a, b, c, d)


def format_type(t: SifType) -> str:
    return f"{t.in_h}:{t.in_l}/{t.out_h}:{t.out_l}"


# The 81 types are constants, built once: slots (a, b, c, d) sit at index
# 27a + 9b + 3c + d, and each type's mirror is another of them.  A
# refutation search starts from one type of each mirror pair.
_TYPES = tuple(SifType(a, b, c, d) for a, b, c, d in product((0, 1, 2), repeat=4))
_FLIP = (0, 2, 1)
_SWAPS = {t: _TYPES[sum(_FLIP[slot] * 3 ** (3 - i) for i, slot in enumerate(t.slots))] for t in _TYPES}
_MIRROR_CLASSES = tuple(t for t in _TYPES if t <= _SWAPS[t])


def enumerate_types() -> tuple[SifType, ...]:
    """All 81 types in lexicographic slot order."""
    return _TYPES


def swap_type(t: SifType) -> SifType:
    """Exchange first and second in every slot; an involution."""
    return _SWAPS[t]


# Canonical types for the three pair-quantified properties.  The RGNI
# choice mirrors the GNI one by symmetry and is validated exhaustively
# over the enumerated universe before anything relies on it.
SEP_TYPE = SifType(1, 2, 1, 2)
GNI_TYPE = SifType(1, 2, 0, 2)
RGNI_TYPE = SifType(1, 2, 1, 0)

# Types with no second-argument slot; a pair's first trace matches all of
# them, so every trace set whatsoever is closed under these (and, by the
# swap rule, under their mirrors).
ALL_SYSTEMS_TYPES = tuple(t for t in enumerate_types() if all(s in (0, 1) for s in t.slots))


def closed_under_type(s: System, t: SifType) -> bool:
    """Pair-quantified closure of ``s`` under ``t``, by distinct-view counts.

    Closure under all pairings of a type-t1 with a type-t2 function is
    closure under t1 and under t2: each type holds every constraint-obeying
    function, and the quantifier over pairs distributes over the conjunction.
    """
    both, first, second = t._count_keys
    counts = s._counts
    if counts is None:
        counts = s.view_counts
    return counts[both] == counts[first] * counts[second]


REFUTED_HOLDS_NOT_CLOSED = "property-holds-not-closed"
REFUTED_CLOSED_NOT_HOLDS = "closed-property-fails"
UNREFUTED = "unrefuted"


@dataclass(frozen=True)
class Refutation:
    """Verdict for one type: a disagreement witness, or none found."""

    type: SifType
    status: str
    witness: str | None = None

    @property
    def refuted(self) -> bool:
        return self.status != UNREFUTED


@dataclass(frozen=True)
class RefutationReport:
    """One verdict per type, covering all 81 exactly once."""

    entries: tuple[Refutation, ...]

    def __post_init__(self):
        if len(self.entries) != 81:
            raise ValueError("a refutation report covers all 81 types")

    @property
    def all_refuted(self) -> bool:
        return all(e.refuted for e in self.entries)

    @property
    def unrefuted(self) -> tuple[SifType, ...]:
        return tuple(e.type for e in self.entries if not e.refuted)

    def entry(self, t: SifType) -> Refutation:
        for e in self.entries:
            if e.type == t:
                return e
        raise KeyError(t)

    def lines(self) -> list[str]:
        out = []
        for e in self.entries:
            if e.refuted:
                out.append(f"{format_type(e.type)}  refuted by {e.witness} ({e.status})")
            else:
                out.append(f"{format_type(e.type)}  UNREFUTED")
        return out


def as_plain_system(member) -> System:
    """The trace set closure checks run on (union for strategy systems)."""
    if isinstance(member, System):
        return member
    if isinstance(member, StrategySystem):
        return union_system(member)
    raise TypeError(f"expected a system or strategy system, got {type(member).__name__}")


def property_predicate(kind: PropertyKind | str) -> Callable:
    """A predicate over pool members for the named property (NOS included)."""
    if str(kind) == "nos":
        return lambda member: check_nos(member)
    try:
        k = PropertyKind(kind)
    except ValueError:
        raise FormatError(f"no pool predicate for property {kind!r}") from None
    return lambda member: check_property(k, as_plain_system(member))


def refute_all_types(
    predicate: Callable,
    pool: Mapping[str, object] | Sequence[tuple[str, object]],
    extension: Iterable[tuple[str, object]] = (),
) -> RefutationReport:
    """Search, per type, for a member where the property and closure
    under the type disagree; the first such member is the witness.

    ``pool`` maps labels to systems or strategy systems and is judged in
    full up front, so a bad member always raises; ``extension`` is pulled
    lazily after it, and only while some type is left unrefuted.  Each
    witness settles a type and its slot-swapped mirror at once, which is
    sound because closure is invariant under the swap.
    """
    items = list(pool.items()) if isinstance(pool, Mapping) else list(pool)
    judged = [(label, bool(predicate(m)), as_plain_system(m)) for label, m in items]
    pulled = ((label, bool(predicate(m)), as_plain_system(m)) for label, m in extension)

    verdicts: dict[SifType, Refutation] = {}
    open_types = _MIRROR_CLASSES
    for label, holds, system in chain(judged, pulled):
        still = []
        for t in open_types:
            if closed_under_type(system, t) == holds:
                still.append(t)
                continue
            status = REFUTED_HOLDS_NOT_CLOSED if holds else REFUTED_CLOSED_NOT_HOLDS
            for settled in (t, _SWAPS[t]):
                verdicts[settled] = Refutation(settled, status, label)
        open_types = still
        if not open_types:
            break
    return RefutationReport(tuple(verdicts.get(t) or Refutation(t, UNREFUTED) for t in _TYPES))
