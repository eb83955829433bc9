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
from pathlib import Path
from typing import Callable, Iterable, Sequence, Union

from .errors import CapExceeded, DuplicateTraceError, FormatError, SiflabError
from .families import closed_under_family
from .properties import StrategySystem, union_system
from .traces import L_VIEW, System, _list, read_json, space_from_obj, traces_from_objs, view

EventTrace = tuple  # tuple of event names


@dataclass(frozen=True)
class EventDecl:
    """Named events, each classified low or high."""

    events: tuple[tuple[str, str], ...]

    def __post_init__(self):
        names = [n for n, _ in self.events]
        if len(set(names)) != len(names):
            raise FormatError("event names must be unique")
        for name, level in self.events:
            if level not in ("L", "H"):
                raise FormatError(f"event {name}: level must be L or H")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.events)

    @property
    def low_events(self) -> tuple[str, ...]:
        return tuple(n for n, lv in self.events if lv == "L")

    @property
    def high_events(self) -> tuple[str, ...]:
        return tuple(n for n, lv in self.events if lv == "H")

    def level(self, name: str) -> str:
        for n, lv in self.events:
            if n == name:
                return lv
        raise KeyError(name)


class AsyncSystem:
    """A duplicate-free finite set of finite event traces."""

    __slots__ = ("decl", "traces", "members", "_hash")

    def __init__(self, decl: EventDecl, traces: Iterable[EventTrace]):
        declared = set(decl.names)
        tset = frozenset(tuple(t) for t in traces)
        for t in tset:
            for e in t:
                if e not in declared:
                    raise FormatError(f"undeclared event {e!r}")
        self.decl = decl
        self.traces = tset
        self.members = tuple(sorted(tset))
        self._hash = hash((decl, tset))

    def low(self, t: EventTrace) -> EventTrace:
        return low_projection(t, self.decl)

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

    def __repr__(self) -> str:
        return f"AsyncSystem({len(self.traces)} traces)"


AnySystem = Union[System, AsyncSystem]


def low_view_key(t, s: AnySystem):
    """The low view of ``t`` in the trace kind of ``s``."""
    if isinstance(s, AsyncSystem):
        return s.low(tuple(t))
    return view(t, L_VIEW)


def lles(t, s: AnySystem) -> frozenset:
    """Members of ``s`` sharing ``t``'s low view."""
    key = low_view_key(t, s)
    return frozenset(x for x in s.members if low_view_key(x, s) == key)


QPredicate = Callable[[frozenset], bool]


@dataclass(frozen=True)
class ExtensionalQ:
    """A predicate given by the explicit family of accepted sets."""

    accepted: frozenset

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


@dataclass(frozen=True)
class AndQ:
    q1: QPredicate
    q2: QPredicate

    def __call__(self, a: frozenset) -> bool:
        return self.q1(a) and self.q2(a)


@dataclass(frozen=True)
class OrQ:
    q1: QPredicate
    q2: QPredicate

    def __call__(self, a: frozenset) -> bool:
        return self.q1(a) or self.q2(a)


def q_and(q1: QPredicate, q2: QPredicate) -> QPredicate:
    return AndQ(q1, q2)


def q_or(q1: QPredicate, q2: QPredicate) -> QPredicate:
    return OrQ(q1, q2)


def zl_check(s: AnySystem, q: QPredicate) -> bool:
    """Q holds of every member's low-view equivalence class; vacuous on empty sets."""
    return all(q(lles(t, s)) for t in s.members)


def nos_as_zl(ss: StrategySystem) -> bool:
    """The low-view-local reformulation of NOS over the union system."""
    return zl_check(union_system(ss), NosPredicate(ss))


def zl_q_search(
    target: Sequence[AnySystem], universe: Sequence[AnySystem], cap: int = 1 << 20
) -> ExtensionalQ | None:
    """Find a predicate realizing ``target`` as a low-view-local property
    over ``universe``, or report that none exists.

    Empty systems are dropped from both collections first: they satisfy
    every such property vacuously, so they carry no information and would
    otherwise make any target excluding them trivially unrealizable.

    The search covers all assignments over the finitely many distinct
    low-view classes arising in the universe.  It is organized around the
    minimal candidate: classes of target members are forced to true, and
    any valid assignment agrees on them, so the candidate accepting
    exactly the forced classes succeeds iff any assignment does.  The cap
    bounds the implied assignment space (2^classes) and is reported when
    exceeded.
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

    classes_of = {key: frozenset(lles(t, s) for t in s.members) for key, s in universe_sets.items()}
    all_classes = set().union(*classes_of.values()) if classes_of else set()
    if (1 << len(all_classes)) > cap:
        raise CapExceeded(
            f"2^{len(all_classes)} assignments over {len(all_classes)} view classes exceed the cap of {cap}",
            cap,
        )

    forced = frozenset().union(*(classes_of[k] for k in target_keys)) if target_keys else frozenset()
    candidate = ExtensionalQ(forced)
    for key, s in universe_sets.items():
        if zl_check(s, candidate) != (key in target_keys):
            return None
    return candidate


def low_projection(t: EventTrace, decl: EventDecl) -> EventTrace:
    lows = set(decl.low_events)
    return tuple(e for e in t if e in lows)


@dataclass(frozen=True)
class InsertionSif:
    """The total function whose closure condition is the insertion property.

    On (s1, s2): when s2 ends with a high event e, its remainder is a
    prefix of s1, and the rest of s1 is low-only, the result re-inserts e
    there; otherwise the result is s1's low projection.
    """

    decl: EventDecl

    def __call__(self, s1: EventTrace, s2: EventTrace) -> EventTrace:
        s1 = tuple(s1)
        s2 = tuple(s2)
        if s2 and self.decl.level(s2[-1]) == "H":
            beta, e = s2[:-1], s2[-1]
            if s1[: len(beta)] == beta:
                alpha = s1[len(beta):]
                if all(self.decl.level(x) == "L" for x in alpha):
                    return beta + (e,) + alpha
        return low_projection(s1, self.decl)


def psp_check(s: AsyncSystem) -> bool:
    """Decide the insertion property by exhaustive decomposition.

    Two requirements: the low projection of every member is a member;
    and whenever a member splits as beta+alpha with alpha low-only and
    beta extended by a high event e is also a member, the insertion
    beta+e+alpha is a member too.
    """
    decl = s.decl
    traces = s.traces
    for t in traces:
        if low_projection(t, decl) not in traces:
            return False
    highs = decl.high_events
    for t in s.members:
        for cut in range(len(t) + 1):
            beta, alpha = t[:cut], t[cut:]
            if any(decl.level(x) == "H" for x in alpha):
                continue
            for e in highs:
                if beta + (e,) in traces and beta + (e,) + alpha not in traces:
                    return False
    return True


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
        events.append((str(entry["name"]), str(entry["level"]).upper()))
    return EventDecl(tuple(events))


def event_decl_to_obj(decl: EventDecl) -> list:
    return [{"name": n, "level": lv} for n, lv in decl.events]


def async_system_from_obj(obj) -> AsyncSystem:
    if not isinstance(obj, dict) or "events" not in obj or "traces" not in obj:
        raise FormatError('an event-trace file must contain "events" and "traces"')
    decl = event_decl_from_obj(obj["events"])
    seen = []
    for raw in _list(obj["traces"], '"traces"'):
        t = tuple(str(e) for e in _list(raw, "each trace"))
        if t in seen:
            raise DuplicateTraceError(f"duplicate trace {t!r}")
        seen.append(t)
    return AsyncSystem(decl, seen)


def async_system_to_obj(s: AsyncSystem) -> dict:
    return {"events": event_decl_to_obj(s.decl), "traces": [list(t) for t in s.members]}


def load_async_system(path: str | Path) -> AsyncSystem:
    return async_system_from_obj(read_json(path))


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
            out.append(System(space, traces_from_objs(entry, space, where=f"system {i}")))
        return out
    if "events" in obj:
        decl = event_decl_from_obj(obj["events"])
        result: list[AnySystem] = []
        for i, entry in enumerate(_list(obj["systems"], '"systems"')):
            traces = (tuple(str(e) for e in _list(t, "each trace")) for t in _list(entry, f"system {i}"))
            result.append(AsyncSystem(decl, traces))
        return result
    raise FormatError('a collection file must contain "alphabets" or "events"')


def load_collection(path: str | Path) -> list[AnySystem]:
    return collection_from_obj(read_json(path))
