"""Canonical lasso traces, views, and trace-set containers.

A trace is a finite or eventually periodic infinite sequence of tuples.
Synchronous traces use 4-tuples (high input, low input, high output, low
output).  An eventually periodic trace is stored as a lasso: a finite
prefix plus a repeating cycle.  Every trace is kept in canonical form,
which makes denotational equality structural and hashing cheap:

* the cycle is primitive (not a power of a shorter word), and
* the prefix is minimal (its last tuple differs from the cycle's last
  tuple, so nothing can be absorbed into the cycle).

A finite trace is a lasso with an empty cycle.  Projections restrict each
tuple to a subset of components and re-canonicalize, since dropping
components can shrink the period.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntFlag
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import AlphabetError, DuplicateTraceError, FormatError

Symbol = str
Tuple4 = tuple  # tuple of symbols; arity 4 for unprojected traces


class Component(IntFlag):
    """The four tuple components of a synchronous trace."""

    HI = 1
    LI = 2
    HO = 4
    LO = 8


COMPONENT_ORDER = (Component.HI, Component.LI, Component.HO, Component.LO)
COMPONENT_NAMES = {Component.HI: "hi", Component.LI: "li", Component.HO: "ho", Component.LO: "lo"}

FULL_VIEW = Component.HI | Component.LI | Component.HO | Component.LO
L_VIEW = Component.LI | Component.LO
H_VIEW = Component.HI | Component.HO
HI_VIEW = Component.HI
LI_VIEW = Component.LI
HO_VIEW = Component.HO
LO_VIEW = Component.LO


def _primitive_root(cycle: tuple) -> tuple:
    """Shortest word whose repetition equals ``cycle``."""
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle[:d] * (n // d) == cycle:
            return cycle[:d]
    return cycle


@dataclass(frozen=True)
class LassoTrace:
    """A canonical eventually-periodic (or finite) trace.

    Construct through :func:`canonicalize`; the constructor rejects
    non-canonical input so invariants cannot be violated by accident.
    """

    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        arities = {len(t) for t in self.prefix} | {len(t) for t in self.cycle}
        if len(arities) > 1:
            raise ValueError("mixed tuple arities in one trace")
        if self.cycle:
            if _primitive_root(self.cycle) != self.cycle:
                raise ValueError("cycle is not primitive; use canonicalize()")
            if self.prefix and self.prefix[-1] == self.cycle[-1]:
                raise ValueError("prefix not minimal; use canonicalize()")

    @property
    def is_finite(self) -> bool:
        return not self.cycle

    @property
    def arity(self) -> int | None:
        if self.prefix:
            return len(self.prefix[0])
        if self.cycle:
            return len(self.cycle[0])
        return None

    def __str__(self) -> str:
        return format_trace(self)


def format_trace(t: LassoTrace) -> str:
    """Compact one-line rendering, e.g. ``(0,1,1,1)[(1,1,1,1)]^w``."""
    head = "".join("(" + ",".join(map(str, tup)) + ")" for tup in t.prefix)
    if not t.cycle:
        return head if head else "()"
    tail = "".join("(" + ",".join(map(str, tup)) + ")" for tup in t.cycle)
    return head + "[" + tail + "]^w"


def canonicalize(prefix: Sequence, cycle: Sequence) -> LassoTrace:
    """Return the unique canonical lasso denoting ``prefix + cycle^w``
    (or the finite word ``prefix`` when ``cycle`` is empty).  Idempotent.
    """
    pre = tuple(tuple(t) for t in prefix)
    cyc = tuple(tuple(t) for t in cycle)
    if cyc:
        cyc = _primitive_root(cyc)
        work = list(pre)
        while work and work[-1] == cyc[-1]:
            work.pop()
            cyc = (cyc[-1],) + cyc[:-1]
        pre = tuple(work)
    return LassoTrace(pre, cyc)


def project(t: LassoTrace, mask: Component) -> LassoTrace:
    """Component-wise restriction of ``t``, re-canonicalized.

    ``project(t, FULL_VIEW)`` returns ``t`` itself.  Raises on an empty
    mask.  Only meaningful for unprojected (arity-4) traces.
    """
    if not mask:
        raise ValueError("empty component mask")
    if mask == FULL_VIEW:
        return t
    idx = [i for i, c in enumerate(COMPONENT_ORDER) if c & mask]
    pre = tuple(tuple(tup[i] for i in idx) for tup in t.prefix)
    cyc = tuple(tuple(tup[i] for i in idx) for tup in t.cycle)
    return canonicalize(pre, cyc)


@lru_cache(maxsize=None)
def view(t: LassoTrace, mask: Component) -> LassoTrace:
    """Cached :func:`project`; the hot path for property and closure checks."""
    return project(t, mask)


def prefix_of(t: LassoTrace, n: int) -> tuple:
    """First ``n`` tuples of the denoted word.

    A finite trace shorter than ``n`` is returned whole.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= len(t.prefix):
        return t.prefix[:n]
    if not t.cycle:
        return t.prefix
    k = n - len(t.prefix)
    q, r = divmod(k, len(t.cycle))
    return t.prefix + t.cycle * q + t.cycle[:r]


_COMPONENT_KEYS = ("hi", "li", "ho", "lo")


class TraceSpace:
    """Per-component alphabets."""

    __slots__ = ("alphabets", "_key")

    def __init__(self, alphabets: Mapping[str, Sequence[Symbol]]):
        missing = [k for k in _COMPONENT_KEYS if k not in alphabets]
        extra = [k for k in alphabets if k not in _COMPONENT_KEYS]
        if missing or extra:
            raise FormatError(f"alphabets must have keys hi/li/ho/lo (missing={missing}, extra={extra})")
        cleaned = {}
        for key in _COMPONENT_KEYS:
            syms = tuple(dict.fromkeys(alphabets[key]))
            if not syms:
                raise FormatError(f"alphabet for {key} is empty")
            cleaned[key] = syms
        self.alphabets = cleaned
        self._key = tuple((k, cleaned[k]) for k in _COMPONENT_KEYS)

    def contains(self, t: LassoTrace) -> bool:
        """True when every symbol of ``t`` belongs to its component alphabet."""
        if t.arity is None:
            return True
        if t.arity != 4:
            return False
        alpha = [set(self.alphabets[k]) for k in _COMPONENT_KEYS]
        for tup in t.prefix + t.cycle:
            for sym, allowed in zip(tup, alpha):
                if sym not in allowed:
                    return False
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, TraceSpace) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        sizes = "x".join(str(len(self.alphabets[k])) for k in _COMPONENT_KEYS)
        return f"TraceSpace(alphabet sizes {sizes})"


def binary_space() -> TraceSpace:
    """The standard space with alphabet {0,1} on every component."""
    return TraceSpace({k: ("0", "1") for k in _COMPONENT_KEYS})


def _sort_key(t: LassoTrace):
    return (len(t.prefix), len(t.cycle), t.prefix, t.cycle)


class System:
    """A finite set of canonical traces over a shared trace space."""

    __slots__ = ("space", "traces", "members", "_hash")

    def __init__(self, space: TraceSpace, traces: Iterable[LassoTrace]):
        tset = frozenset(traces)
        for t in tset:
            if not space.contains(t):
                raise AlphabetError(f"trace {format_trace(t)} does not conform to the system's space")
        self.space = space
        self.traces = tset
        self.members = tuple(sorted(tset, key=_sort_key))
        self._hash = hash((space, tset))

    def __contains__(self, t: LassoTrace) -> bool:
        return t in self.traces

    def __iter__(self) -> Iterator[LassoTrace]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.traces)

    def __eq__(self, other) -> bool:
        return isinstance(other, System) and self.space == other.space and self.traces == other.traces

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"System({len(self.traces)} traces)"


def _coerce_symbol(x) -> Symbol:
    if isinstance(x, bool):
        raise FormatError(f"symbols must be strings or integers, got {x!r}")
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    raise FormatError(f"symbols must be strings or integers, got {x!r}")


def _list(obj, what: str):
    """``obj`` itself when it is a list (or tuple); a :class:`FormatError` otherwise."""
    if not isinstance(obj, (list, tuple)):
        raise FormatError(f"{what} must be a list, got {obj!r}")
    return obj


def _tuple_from_obj(obj) -> tuple:
    if not isinstance(obj, (list, tuple)) or len(obj) != 4:
        raise FormatError(f"each trace tuple must be a 4-element list, got {obj!r}")
    return tuple(_coerce_symbol(x) for x in obj)


def trace_from_obj(obj) -> LassoTrace:
    """Build a canonical trace from ``{"prefix": [...], "cycle": [...]}``."""
    if not isinstance(obj, dict):
        raise FormatError(f"each trace must be an object with prefix/cycle, got {obj!r}")
    unknown = set(obj) - {"prefix", "cycle"}
    if unknown:
        raise FormatError(f"unknown trace keys: {sorted(unknown)}")
    pre = [_tuple_from_obj(x) for x in _list(obj.get("prefix", []), "a trace prefix")]
    cyc = [_tuple_from_obj(x) for x in _list(obj.get("cycle", []), "a trace cycle")]
    return canonicalize(pre, cyc)


def trace_to_obj(t: LassoTrace) -> dict:
    return {"prefix": [list(tup) for tup in t.prefix], "cycle": [list(tup) for tup in t.cycle]}


def space_from_obj(obj) -> TraceSpace:
    if not isinstance(obj, dict):
        raise FormatError("alphabets must be an object with keys hi/li/ho/lo")
    return TraceSpace({k: [_coerce_symbol(s) for s in _list(v, f"alphabet {k}")] for k, v in obj.items()})


def space_to_obj(space: TraceSpace) -> dict:
    return {k: list(space.alphabets[k]) for k in _COMPONENT_KEYS}


def traces_from_objs(objs, space: TraceSpace, where: str = "traces") -> tuple:
    """Canonicalize a list of trace objects; duplicates are an error."""
    seen = []
    for obj in _list(objs, where):
        t = trace_from_obj(obj)
        if not space.contains(t):
            raise AlphabetError(f"trace {format_trace(t)} in {where} does not conform to the alphabets")
        if t in seen:
            raise DuplicateTraceError(f"duplicate trace {format_trace(t)} in {where} after canonicalization")
        seen.append(t)
    return tuple(seen)


def system_from_obj(obj) -> System:
    if not isinstance(obj, dict) or "alphabets" not in obj or "traces" not in obj:
        raise FormatError('a system file must contain "alphabets" and "traces"')
    space = space_from_obj(obj["alphabets"])
    return System(space, traces_from_objs(obj["traces"], space))


def system_to_obj(s: System) -> dict:
    return {"alphabets": space_to_obj(s.space), "traces": [trace_to_obj(t) for t in s.members]}


def read_json(path: str | Path):
    """The parsed contents of a JSON file.

    This is the package's one file reader: a missing file, a path that
    cannot be read (a directory, say), bytes that are not UTF-8 and text
    that is not JSON all raise :class:`FormatError`.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file") from None
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc


def load_system(path: str | Path) -> System:
    """Read a system file (JSON)."""
    return system_from_obj(read_json(path))


def save_system(s: System, path: str | Path) -> None:
    Path(path).write_text(json.dumps(system_to_obj(s), indent=2) + "\n")
