"""Low-view-local properties and the asynchronous insertion property.

A property is low-view local when membership of a trace set can be
decided by applying one predicate Q to each member's low-view equivalence
class (the set of members sharing that member's low view).  The
machinery here is polymorphic over trace kind: synchronous lasso systems
use the canonical low projection, asynchronous event systems use the
subsequence of low events.

The asynchronous part also implements the insertion property: low
projections of members are members, and a high event extending a member
can be re-inserted before any low-only suffix.  A single total function
(the insertion function) captures it as a closure condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence, Union

from .errors import DuplicateTraceError, FormatError, SiflabError
from .families import closed_under_family
from .properties import StrategySystem, union_system
from .traces import (
    L_VIEW,
    System,
    _coerce_symbol,
    _list,
    canonical_repr,
    space_from_obj,
    space_to_obj,
    system_from_objs,
    trace_to_obj,
    view,
)

EventTrace = tuple  # tuple of event names


@dataclass(frozen=True)
class EventDecl:
    """Named events, each classified low or high.

    The name-to-level map and the set of low events (``lows``) are built
    once here; they take no part in equality or hashing.
    """

    events: tuple[tuple[str, str], ...]

    def __post_init__(self):
        levels = dict(self.events)
        if len(levels) != len(self.events):
            raise FormatError("event names must be unique")
        for name, level in self.events:
            if level not in ("L", "H"):
                raise FormatError(f"event {name}: level must be L or H")
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "names", tuple(levels))
        object.__setattr__(self, "low_events", tuple(n for n, lv in self.events if lv == "L"))
        object.__setattr__(self, "high_events", tuple(n for n, lv in self.events if lv == "H"))
        object.__setattr__(self, "lows", frozenset(self.low_events))

    def level(self, name: str) -> str:
        """``"L"`` or ``"H"``; a :class:`KeyError` for an undeclared name."""
        return self._levels[name]


class AsyncSystem:
    """A duplicate-free finite set of finite event traces.

    ``_classes``, each member's low-view class, is filled by
    :func:`_member_classes` on first use and takes no part in equality,
    hashing or pickling.
    """

    __slots__ = ("decl", "traces", "members", "_hash", "_classes")

    def __init__(self, decl: EventDecl, traces: Iterable[EventTrace]):
        tset = frozenset(map(tuple, traces))
        undeclared = set().union(*tset).difference(decl.names)
        if undeclared:
            raise FormatError(f"undeclared event {min(undeclared)!r}")
        self.decl = decl
        self.traces = tset
        self.members = tuple(sorted(tset))
        self._hash = hash((decl, tset))
        self._classes = None

    def __contains__(self, t) -> bool:
        return tuple(t) in self.traces

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other) -> bool:
        return isinstance(other, AsyncSystem) and self.decl == other.decl and self.traces == other.traces

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, so the hash is that of the loading process
        return (AsyncSystem, (self.decl, self.members))

    def __repr__(self) -> str:
        return f"AsyncSystem({len(self.traces)} traces)"


AnySystem = Union[System, AsyncSystem]


def lles(t, s: AnySystem) -> frozenset:
    """Members of ``s`` sharing ``t``'s low view: the paper's definition,
    which stays as the reference :func:`_member_classes` is tested against."""
    low = (lambda x: low_projection(x, s.decl)) if isinstance(s, AsyncSystem) else (lambda x: view(x, L_VIEW))
    key = low(t)
    return frozenset(x for x in s.members if low(x) == key)


def _member_classes(s: AnySystem) -> tuple[frozenset, ...]:
    """``lles(t, s)`` for each member ``t``, in ``members`` order, from
    one pass that groups the members by low view; kept on ``s``."""
    if s._classes is None:
        if isinstance(s, AsyncSystem):
            decl = s.decl
            keys = [low_projection(t, decl) for t in s.members]
        else:
            keys = list(map(view, s.members, repeat(L_VIEW)))
        groups: dict = {}
        for key, t in zip(keys, s.members):
            groups.setdefault(key, []).append(t)
        for key, group in groups.items():
            groups[key] = frozenset(group)
        s._classes = tuple(map(groups.__getitem__, keys))
    return s._classes


QPredicate = Callable[[frozenset], bool]


@dataclass(slots=True, unsafe_hash=True)
class ExtensionalQ:
    """A predicate given by the explicit family of accepted sets."""

    accepted: frozenset

    def __repr__(self) -> str:
        return f"ExtensionalQ(accepted={canonical_repr(self.accepted)})"

    def __call__(self, a: frozenset) -> bool:
        return frozenset(a) in self.accepted


@dataclass(frozen=True)
class NosPredicate:
    """Accepts a set iff it intersects every family of a strategy system.

    Applying this to each member's low-view class of the union system
    decides NOS.
    """

    ss: StrategySystem

    def __call__(self, a: frozenset) -> bool:
        return all(a & fam.traces for _, fam in self.ss.families)


@dataclass(slots=True, unsafe_hash=True)
class AndQ:
    """The conjunction of two predicates."""

    q1: QPredicate
    q2: QPredicate

    def __call__(self, a: frozenset) -> bool:
        return self.q1(a) and self.q2(a)


def zl_check(s: AnySystem, q: QPredicate) -> bool:
    """Q holds of every member's low-view equivalence class; vacuous on empty sets."""
    # Q's bound __call__: a call through it skips the lookup of the method
    # on Q's type that calling Q makes
    return all(map(q.__call__, _member_classes(s)))


def nos_as_zl(ss: StrategySystem) -> bool:
    """The low-view-local reformulation of NOS over the union system."""
    return zl_check(union_system(ss), NosPredicate(ss))


def zl_q_search(target: Sequence[AnySystem], universe: Sequence[AnySystem]) -> ExtensionalQ | None:
    """Find a predicate realizing ``target`` as a low-view-local property
    over ``universe``, or report that none exists.

    Empty systems are dropped from both collections first: they satisfy
    every such property vacuously, so they carry no information and would
    otherwise make any target excluding them trivially unrealizable.

    Any predicate over the low-view classes arising in the universe is a
    candidate, but one suffices.  A realizing predicate accepts every
    class of every target system, so the candidate accepting exactly
    those forced classes accepts every target and only systems that any
    realizing predicate accepts too: it succeeds iff any predicate does.
    Checking it takes one pass over the members.
    """
    universe_sets = {}
    for s in universe:
        if len(s) > 0:
            universe_sets[s.traces] = s
    target_keys = set()
    for s in target:
        if len(s) == 0:
            continue
        if s.traces not in universe_sets:
            raise SiflabError("every target system must occur in the universe")
        target_keys.add(s.traces)

    classes_of = {key: frozenset(_member_classes(s)) for key, s in universe_sets.items()}
    forced = frozenset().union(*(classes_of[k] for k in target_keys)) if target_keys else frozenset()
    candidate = ExtensionalQ(forced)
    for key, s in universe_sets.items():
        if zl_check(s, candidate) != (key in target_keys):
            return None
    return candidate


def low_projection(t: EventTrace, decl: EventDecl) -> EventTrace:
    return tuple(filter(decl.lows.__contains__, t))


@dataclass(slots=True, unsafe_hash=True)
class InsertionSif:
    """The total function whose closure condition is the insertion property.

    On (s1, s2): when s2 ends with a high event e, its remainder is a
    prefix of s1, and the rest of s1 is low-only, the result re-inserts e
    there; otherwise the result is s1's low projection.

    It shares no code with :func:`psp_check` beyond :class:`EventDecl`,
    so PROP-PSP-SIF compares two independent deciders.
    """

    decl: EventDecl

    def __call__(self, s1: EventTrace, s2: EventTrace) -> EventTrace:
        s1 = tuple(s1)
        s2 = tuple(s2)
        lows = self.decl.lows
        if s2 and s2[-1] not in lows:
            # s2 is beta + (e,); s1 must be beta + alpha with alpha low-only
            cut = len(s2) - 1
            if s1[:cut] == s2[:cut] and lows.issuperset(s1[cut:]):
                return s2 + s1[cut:]
        return tuple(filter(lows.__contains__, s1))


def psp_obligations(t: EventTrace, decl: EventDecl) -> Iterator[tuple[EventTrace | None, EventTrace]]:
    """What the insertion property asks of a system holding ``t``, as
    ``(premise, conclusion)`` pairs: when the premise is a member too (or
    is ``None``), the conclusion must be one.

    The low projection of ``t`` is obliged outright.  For each split of
    ``t`` as beta+alpha with alpha nonempty and low-only, and each high
    event e, a member beta+e obliges the insertion beta+e+alpha.
    """
    lows = decl.lows
    yield None, low_projection(t, decl)
    # alpha = t[cut:] is nonempty and low-only exactly for the cuts from
    # the end of t back to just after its last high event; an empty alpha
    # makes the insertion beta+e itself
    cut = len(t)
    while cut and t[cut - 1] in lows:
        cut -= 1
        beta, alpha = t[:cut], t[cut:]
        for e in decl.high_events:
            yield beta + (e,), beta + (e,) + alpha


def psp_check(s: AsyncSystem) -> bool:
    """Decide the insertion property by exhaustive decomposition: every
    obligation of every member (:func:`psp_obligations`) is met."""
    traces = s.traces
    return all(
        conclusion in traces
        for t in s.members
        for premise, conclusion in psp_obligations(t, s.decl)
        if premise is None or premise in traces
    )


def psp_over_pool(decl: EventDecl, pool: Sequence[EventTrace], count: int) -> int:
    """``psp_check`` of the subsets of ``pool`` with masks
    ``0 .. count - 1`` (bit i stands for ``pool[i]``), all at once, as an
    int whose bit m is the verdict of mask m.

    Those subsets draw on the first ``width = (count - 1).bit_length()``
    traces only.  Each obligation of such a trace t is a pair of masks:
    ``need``, the bits of t and of the premise, and ``have``, the bit of
    the conclusion.  It rules out every subset that holds ``need`` and
    misses ``have``.  A conclusion past the first ``width`` traces is
    never held; a premise past them is never held either, so its
    obligation never fires.
    """
    width = (count - 1).bit_length()
    bit = {t: 1 << i for i, t in enumerate(pool[:width])}
    ruled = 0
    for t, t_bit in bit.items():
        for premise, conclusion in psp_obligations(t, decl):
            if premise is None:
                need = t_bit
            elif premise in bit:
                need = t_bit | bit[premise]
            else:
                continue
            have = bit.get(conclusion, 0)
            if have & need:
                continue  # the conclusion is part of the premise
            # the subsets that hold need and miss have, built trace by
            # trace: those holding trace i sit 2^i bits above the others
            out = 1
            for i in range(width):
                if need >> i & 1:
                    out <<= 1 << i
                elif not have >> i & 1:
                    out |= out << (1 << i)
            ruled |= out
    return ((1 << count) - 1) & ~ruled


def closed_under_insertion(s: AsyncSystem) -> bool:
    """Closure of ``s`` under the singleton family of its insertion function."""
    return closed_under_family(s, (InsertionSif(s.decl),))


def event_decl_from_obj(obj) -> EventDecl:
    if not isinstance(obj, list):
        raise FormatError('"events" must be a list of {"name", "level"} objects')
    events = []
    for entry in obj:
        if not isinstance(entry, dict) or set(entry) != {"name", "level"}:
            raise FormatError(f'each event needs exactly "name" and "level", got {entry!r}')
        events.append((_coerce_symbol(entry["name"]), str(entry["level"]).upper()))
    return EventDecl(tuple(events))


def event_decl_to_obj(decl: EventDecl) -> list:
    return [{"name": n, "level": lv} for n, lv in decl.events]


def _event_traces_from_objs(objs, where: str) -> set[EventTrace]:
    """The event traces of a list of event-name lists; duplicates are an error."""
    seen: set[EventTrace] = set()
    for raw in _list(objs, where):
        t = tuple(map(_coerce_symbol, _list(raw, "each trace")))
        if t in seen:
            raise DuplicateTraceError(f"duplicate trace {t!r} in {where}")
        seen.add(t)
    return seen


def async_system_from_obj(obj) -> AsyncSystem:
    if not isinstance(obj, dict) or "events" not in obj or "traces" not in obj:
        raise FormatError('an event-trace file must contain "events" and "traces"')
    decl = event_decl_from_obj(obj["events"])
    return AsyncSystem(decl, _event_traces_from_objs(obj["traces"], '"traces"'))


def async_system_to_obj(s: AsyncSystem) -> dict:
    return {"events": event_decl_to_obj(s.decl), "traces": [list(t) for t in s.members]}


def collection_from_obj(obj) -> list[AnySystem]:
    """Load a list of systems sharing one declaration.

    Synchronous collections use ``{"alphabets", "systems"}`` with each
    system a list of trace objects; asynchronous collections use
    ``{"events", "systems"}`` with each system a list of event-name
    lists.
    """
    if not isinstance(obj, dict) or "systems" not in obj:
        raise FormatError('a collection file must contain "systems"')
    if "alphabets" in obj:
        space = space_from_obj(obj["alphabets"])
        out: list[AnySystem] = []
        for i, entry in enumerate(_list(obj["systems"], '"systems"')):
            out.append(system_from_objs(entry, space, where=f"system {i}"))
        return out
    if "events" in obj:
        decl = event_decl_from_obj(obj["events"])
        result: list[AnySystem] = []
        for i, entry in enumerate(_list(obj["systems"], '"systems"')):
            result.append(AsyncSystem(decl, _event_traces_from_objs(entry, f"system {i}")))
        return result
    raise FormatError('a collection file must contain "alphabets" or "events"')


def collection_to_obj(systems: Sequence[AnySystem]) -> dict:
    """The file object of a nonempty list of systems sharing the first
    one's declaration, as :func:`collection_from_obj` reads it."""
    first = systems[0]
    if isinstance(first, AsyncSystem):
        return {"events": event_decl_to_obj(first.decl), "systems": [[list(t) for t in s.members] for s in systems]}
    return {"alphabets": space_to_obj(first.space), "systems": [[trace_to_obj(t) for t in s.members] for s in systems]}
