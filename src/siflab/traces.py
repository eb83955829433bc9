"""Canonical lasso traces, views, and trace-set containers.

A trace is a finite or eventually periodic infinite sequence of tuples.
Synchronous traces use 4-tuples (high input, low input, high output, low
output).  An eventually periodic trace is stored as a lasso: a finite
prefix plus a repeating cycle.  Every trace is kept in canonical form,
which makes denotational equality structural, and every canonical form is
interned, which makes that equality identity:

* the cycle is primitive (not a power of a shorter word), and
* the prefix is minimal (its last tuple differs from the cycle's last
  tuple, so nothing can be absorbed into the cycle).

A finite trace is a lasso with an empty cycle.  Projections restrict each
tuple to a subset of components and re-canonicalize, since dropping
components can shrink the period.
"""

from __future__ import annotations

import json
import weakref
from enum import IntFlag
from functools import lru_cache
from operator import attrgetter, itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import AlphabetError, DuplicateTraceError, FormatError, SiflabError

Symbol = str


class Component(IntFlag):
    """The four tuple components of a synchronous trace."""

    HI = 1
    LI = 2
    HO = 4
    LO = 8


# The public column layout: component ``COMPONENT_ORDER[i]`` is column
# ``i`` of a 4-tuple and bit ``i`` of a mask.
COMPONENT_ORDER = (Component.HI, Component.LI, Component.HO, Component.LO)

FULL_VIEW = Component.HI | Component.LI | Component.HO | Component.LO
L_VIEW = Component.LI | Component.LO
H_VIEW = Component.HI | Component.HO
HI_VIEW = Component.HI
LI_VIEW = Component.LI
HO_VIEW = Component.HO
LO_VIEW = Component.LO


# Per mask, its columns in ``COMPONENT_ORDER``.
_VIEW_COLUMNS = tuple(tuple(i for i in range(4) if mask >> i & 1) for mask in range(16))


# Per nonzero mask, in mask order, the function that takes a row of
# ``System.view_ids`` to its mask-view key: one id, or a tuple of ids.
VIEW_KEY = {mask: itemgetter(*columns) for mask, columns in enumerate(_VIEW_COLUMNS) if columns}


# The key functions of the masks of two or three components, in mask
# order (3, 5, 6, 7, 9, ..., 14): the counts ``System.view_counts`` takes
# a set for.
_JOINT_KEYS = tuple(VIEW_KEY[mask] for mask, columns in enumerate(_VIEW_COLUMNS) if len(columns) in (2, 3))


# Per nonzero mask: the function that restricts a 4-tuple to the mask's
# components, as a tuple (a one-column mask takes a one-element slice).
_RESTRICT = {
    mask: itemgetter(*columns) if len(columns) > 1 else itemgetter(slice(columns[0], columns[0] + 1))
    for mask, columns in enumerate(_VIEW_COLUMNS)
    if columns
}


def _primitive_root(cycle: tuple) -> tuple:
    """Shortest word whose repetition equals ``cycle``."""
    n = len(cycle)
    for d in range(1, n // 2 + 1):
        if n % d == 0 and cycle[:d] * (n // d) == cycle:
            return cycle[:d]
    return cycle


class _TableRef(weakref.ref):
    """A weak reference to an interned trace that remembers its table key."""

    __slots__ = ("key",)


def _evict(ref: _TableRef) -> None:
    # A newer trace may have taken the key after this one died and before
    # this callback ran; its entry must stay.
    if _TABLE.get(ref.key) is ref:
        del _TABLE[ref.key]


# (prefix, cycle) -> weak reference to the one live trace with those fields
_TABLE: dict[tuple[tuple, tuple], _TableRef] = {}


class LassoTrace:
    """A canonical eventually-periodic (or finite) trace.

    Construct through :func:`canonicalize`; the constructor rejects
    non-canonical input so invariants cannot be violated by accident.

    One object per canonical lasso; equality is identity.  The
    constructor returns the live trace with the same ``(prefix, cycle)``
    when there is one, so ``object``'s identity equality and hash serve
    every dict and set keyed on traces.  The table holds its traces
    weakly, and traces are immutable because they are shared.  Pickling
    and copying rebuild through the constructor, so they give the same
    object back.  Construction is not thread-safe, and nothing in siflab
    uses threads.

    ``sort_key`` ranks the trace in the canonical member order
    (``_sort_key``): prefix length, cycle length, prefix, cycle.  It is
    built once, with the trace.
    """

    __slots__ = ("prefix", "cycle", "sort_key", "__weakref__")

    prefix: tuple
    cycle: tuple
    sort_key: tuple

    def __new__(cls, prefix: tuple, cycle: tuple):
        key = (prefix, cycle)
        ref = _TABLE.get(key)
        if ref is not None:
            t = ref()
            if t is not None:
                return t
        if len({*map(len, prefix), *map(len, cycle)}) > 1:
            raise ValueError("mixed tuple arities in one trace")
        if cycle:
            if _primitive_root(cycle) != cycle:
                raise ValueError("cycle is not primitive; use canonicalize()")
            if prefix and prefix[-1] == cycle[-1]:
                raise ValueError("prefix not minimal; use canonicalize()")
        t = object.__new__(cls)
        _set_prefix(t, prefix)
        _set_cycle(t, cycle)
        _set_sort_key(t, (len(prefix), len(cycle), prefix, cycle))
        ref = _TableRef(t, _evict)
        ref.key = key
        _TABLE[key] = ref
        return t

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: traces are shared")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: traces are shared")

    def __reduce__(self):
        return (LassoTrace, (self.prefix, self.cycle))

    def __repr__(self) -> str:
        return f"LassoTrace(prefix={self.prefix!r}, cycle={self.cycle!r})"

    def __str__(self) -> str:
        return format_trace(self)


# The slots' setters, for the constructor alone: ``LassoTrace.__setattr__``
# refuses every assignment, and a setter call costs less than
# ``object.__setattr__``'s lookup of the name.
_set_prefix = LassoTrace.prefix.__set__
_set_cycle = LassoTrace.cycle.__set__
_set_sort_key = LassoTrace.sort_key.__set__


def format_trace(t: LassoTrace) -> str:
    """Compact one-line rendering, e.g. ``(0,1,1,1)[(1,1,1,1)]^w``."""
    head = "".join("(" + ",".join(map(str, tup)) + ")" for tup in t.prefix)
    if not t.cycle:
        return head if head else "()"
    tail = "".join("(" + ",".join(map(str, tup)) + ")" for tup in t.cycle)
    return head + "[" + tail + "]^w"


def _canonical_form(prefix: tuple, cycle: tuple) -> tuple[tuple, tuple]:
    """The canonical ``(prefix, cycle)`` of ``prefix + cycle^w`` over any
    hashable letters: the cycle's primitive root, with every prefix letter
    that repeats the cycle's last letter absorbed into the cycle."""
    if not cycle:
        return prefix, cycle
    cycle = _primitive_root(cycle)
    k = len(prefix)
    while k and prefix[k - 1] == cycle[-1]:
        k -= 1
        cycle = (cycle[-1],) + cycle[:-1]
    return prefix[:k], cycle


def canonicalize(prefix: Sequence, cycle: Sequence) -> LassoTrace:
    """Return the unique canonical lasso denoting ``prefix + cycle^w``
    (or the finite word ``prefix`` when ``cycle`` is empty).  Idempotent.
    """
    return LassoTrace(*_canonical_form(tuple(tuple(t) for t in prefix), tuple(tuple(t) for t in cycle)))


def project(t: LassoTrace, mask: Component) -> LassoTrace:
    """Component-wise restriction of ``t``, re-canonicalized.

    ``project(t, FULL_VIEW)`` returns ``t`` itself.  Raises on an empty
    mask.  Only meaningful for unprojected (arity-4) traces.
    """
    if not mask:
        raise ValueError("empty component mask")
    if mask == FULL_VIEW:
        return t
    restrict = _RESTRICT[mask]
    return LassoTrace(*_canonical_form(tuple(map(restrict, t.prefix)), tuple(map(restrict, t.cycle))))


# Bound on the entries of each of this module's caches (`view`,
# `_canonical_column`, `_LETTERS`, `_SPACES`); a module constant, not an
# option.
_CACHE_BOUND = 4096


@lru_cache(maxsize=_CACHE_BOUND)
def view(t: LassoTrace, mask: Component) -> LassoTrace:
    """Cached :func:`project`, for the callers that need ``LassoTrace``
    views (low views in ``zl``, ``check_nos``, families and strategies);
    property and closure checks read :attr:`System.view_ids` instead.
    It holds the ``_CACHE_BOUND`` most recent questions, so it keeps at
    most that many traces, and their views, alive."""
    return project(t, mask)


# The canonical form of one component word.  A system's columns repeat a
# few short words, unlike its traces, so only this use is cached.
_canonical_column = lru_cache(maxsize=_CACHE_BOUND)(_canonical_form)


_COMPONENT_KEYS = ("hi", "li", "ho", "lo")


class TraceSpace:
    """Per-component alphabets.

    ``_allowed`` holds the alphabets in ``_COMPONENT_KEYS`` order for
    :meth:`contains`; equality and hashing use ``_key`` only, and its
    hash is taken once, as ``_hash``.  It holds tuples, not sets:
    alphabets have a few symbols, so a scan costs no more than a lookup.
    Systems read with one alphabet spelling share one space
    (:func:`space_from_obj`), so ``alphabets`` is a read-only mapping.
    """

    __slots__ = ("alphabets", "_key", "_allowed", "_hash")

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
        self.alphabets = MappingProxyType(cleaned)
        self._key = tuple((k, cleaned[k]) for k in _COMPONENT_KEYS)
        self._allowed = tuple(cleaned[k] for k in _COMPONENT_KEYS)
        self._hash = hash(self._key)

    def contains(self, t: LassoTrace) -> bool:
        """True when every symbol of ``t`` belongs to its component alphabet."""
        return self.admits((t,))

    def admits(self, traces: Iterable[LassoTrace]) -> bool:
        """True when :meth:`contains` holds for every trace of ``traces``,
        checked in one loop."""
        hi, li, ho, lo = self._allowed
        for t in traces:
            # a trace's tuples share one arity, so an empty trace has none to check
            for tup in t.prefix + t.cycle:
                if len(tup) != 4:
                    return False
                a, b, c, d = tup
                if a not in hi or b not in li or c not in ho or d not in lo:
                    return False
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, TraceSpace) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, so the hash is that of the loading process
        return (TraceSpace, (dict(self.alphabets),))

    def __repr__(self) -> str:
        sizes = "x".join(str(len(self.alphabets[k])) for k in _COMPONENT_KEYS)
        return f"TraceSpace(alphabet sizes {sizes})"


def binary_space() -> TraceSpace:
    """The standard space with alphabet {0,1} on every component."""
    return TraceSpace({k: ("0", "1") for k in _COMPONENT_KEYS})


_NO_COLUMNS = ((), (), (), ())


# The canonical member order, read off the key each trace keeps.
_sort_key = attrgetter("sort_key")


def _member_key(x):
    # a trace ranks by its sort_key, a set by its members' keys in order,
    # and any other member (an event trace, say) as itself
    if type(x) is LassoTrace:
        return x.sort_key
    if type(x) is frozenset:
        return sorted(map(_member_key, x))
    return x


def canonical_repr(x) -> str:
    """``repr(x)``, with the members of each frozenset in it listed in the
    canonical member order, so equal sets print alike whatever order they
    were built in; a frozenset of sets lists each set so, and ranks them
    by their members' keys."""
    if type(x) is not frozenset:
        return repr(x)
    if not x:
        return "frozenset()"
    return "frozenset({" + ", ".join(map(canonical_repr, sorted(x, key=_member_key))) + "})"


class System:
    """A finite set of canonical traces over a shared trace space.

    Five slots are filled on first use and take no part in equality,
    hashing or pickling: ``_ids`` and ``_column_counts``, the number of
    distinct ids in each of the four columns, by :attr:`view_ids`;
    ``_counts`` by :attr:`view_counts`; ``_verdicts``, a dict from a
    (C1, C2) mask pair of ``properties.PROPERTY_VIEWS`` to its verdict,
    created by the first ``properties.check_property`` call; and
    ``_classes``, each member's low-view class, by
    ``zl._member_classes``.
    """

    __slots__ = ("space", "traces", "members", "_hash", "_ids", "_column_counts", "_counts", "_verdicts", "_classes")

    def __init__(self, space: TraceSpace, traces: Iterable[LassoTrace]):
        tset = frozenset(traces)
        if not space.admits(tset):
            outside = [t for t in tset if not space.contains(t)]
            # the least rendering, so the message does not depend on set order
            raise AlphabetError(f"trace {min(map(format_trace, outside))} does not conform to the system's space")
        self.space = space
        self.traces = tset
        self.members = tuple(sorted(tset, key=_sort_key))
        self._hash = hash((space._hash, tset))
        self._ids = None
        self._column_counts = None
        self._counts = None
        self._verdicts = None
        self._classes = None

    @property
    def view_ids(self) -> tuple[tuple[int, int, int, int], ...]:
        """Per member, in ``members`` order, its four interned component views.

        Column ``i`` holds the id of the member's view
        ``project(t, COMPONENT_ORDER[i])``, numbered by first occurrence
        within this system, so equal ids in a column mean equal views.
        Word equality is positionwise, so two members share a joint view
        exactly when they share the id of each of its components.
        """
        if self._ids is None:
            # One transposition per member gives its four component words
            # (an empty prefix or cycle gives four empty ones).
            prefixes = [tuple(zip(*t.prefix)) or _NO_COLUMNS for t in self.members]
            cycles = [tuple(zip(*t.cycle)) or _NO_COLUMNS for t in self.members]
            columns = []
            sizes = []
            for i in range(4):
                seen: dict[tuple[tuple, tuple], int] = {}
                columns.append([seen.setdefault(_canonical_column(pre[i], cyc[i]), len(seen)) for pre, cyc in zip(prefixes, cycles)])
                sizes.append(len(seen))
            self._ids = tuple(zip(*columns))
            self._column_counts = tuple(sizes)
        return self._ids

    @property
    def view_counts(self) -> tuple[int, ...]:
        """``view_counts[mask]``: the number of distinct ``mask``-views
        among the members, for each of the 16 component masks: the number
        of distinct ``VIEW_KEY[mask]`` keys of the :attr:`view_ids` rows
        (``view_counts[0]`` is 1, or 0 for the empty system).

        Only the ten masks of two or three components need a set: a
        one-component count is its column's id count, and distinct
        members have distinct full views, so the full-mask count is the
        number of members."""
        if self._counts is None:
            rows = self.view_ids
            n = len(rows)
            hi, li, ho, lo = self._column_counts
            c3, c5, c6, c7, c9, c10, c11, c12, c13, c14 = (len(set(map(key, rows))) for key in _JOINT_KEYS)
            self._counts = (min(n, 1), hi, li, c3, ho, c5, c6, c7, lo, c9, c10, c11, c12, c13, c14, n)
        return self._counts

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

    def __reduce__(self):
        # rebuilt, so the hash is that of the loading process
        return (System, (self.space, self.members))

    def __repr__(self) -> str:
        return f"System({len(self.traces)} traces)"


def _coerce_symbol(x) -> Symbol:
    # bool is an int subclass, and not a symbol
    if isinstance(x, str):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return str(x)
    raise FormatError(f"symbols must be strings or integers, got {x!r}")


def _list(obj, what: str):
    """``obj`` itself when it is a list (or tuple); a :class:`FormatError` otherwise."""
    if not isinstance(obj, (list, tuple)):
        raise FormatError(f"{what} must be a list, got {obj!r}")
    return obj


# Raw 4-tuple of exact ints or exact strs -> its one shared coerced letter;
# emptied before it would hold more than _CACHE_BOUND keys.
_LETTERS: dict[tuple, tuple] = {}


def _word_from_obj(objs) -> tuple:
    """The letters of a list of tuple objects.  A letter of four exact
    ints or four exact strs is read from ``_LETTERS``, so equal letters
    are one shared tuple; any other letter is coerced symbol by symbol."""
    word = []
    for obj in objs:
        if not isinstance(obj, (list, tuple)) or len(obj) != 4:
            raise FormatError(f"each trace tuple must be a 4-element list, got {obj!r}")
        a, b, c, d = obj
        # Only exact ints or exact strs are keys: True == 1 and 1.0 == 1, and
        # both must still reach _coerce_symbol's error.
        cls = type(a)
        if (cls is int or cls is str) and type(b) is cls and type(c) is cls and type(d) is cls:
            key = (a, b, c, d)
            letter = _LETTERS.get(key)
            if letter is None:
                if len(_LETTERS) > _CACHE_BOUND - 2:  # room for key and coerced
                    _LETTERS.clear()
                coerced = tuple(map(_coerce_symbol, key))
                # the all-str key of the same letter shares its tuple
                letter = _LETTERS[key] = _LETTERS.setdefault(coerced, coerced)
            word.append(letter)
        else:
            word.append(tuple(map(_coerce_symbol, obj)))
    return tuple(word)


def trace_from_obj(obj) -> LassoTrace:
    """Build a canonical trace from ``{"prefix": [...], "cycle": [...]}``."""
    if not isinstance(obj, dict):
        raise FormatError(f"each trace must be an object with prefix/cycle, got {obj!r}")
    unknown = set(obj) - {"prefix", "cycle"}
    if unknown:
        raise FormatError(f"unknown trace keys: {sorted(unknown)}")
    pre = _word_from_obj(_list(obj.get("prefix", []), "a trace prefix"))
    cyc = _word_from_obj(_list(obj.get("cycle", []), "a trace cycle"))
    return LassoTrace(*_canonical_form(pre, cyc))


def trace_to_obj(t: LassoTrace) -> dict:
    return {"prefix": [list(tup) for tup in t.prefix], "cycle": [list(tup) for tup in t.cycle]}


# Coerced alphabet spelling, ((key, symbols), ...) in the object's order,
# -> its one shared space; emptied before it would hold more than
# _CACHE_BOUND keys.
_SPACES: dict[tuple, TraceSpace] = {}


def space_from_obj(obj) -> TraceSpace:
    """The space of an alphabets object; equal spellings share one space."""
    if not isinstance(obj, dict):
        raise FormatError("alphabets must be an object with keys hi/li/ho/lo")
    key = tuple((k, tuple(map(_coerce_symbol, _list(v, f"alphabet {k}")))) for k, v in obj.items())
    space = _SPACES.get(key)
    if space is None:
        space = TraceSpace(dict(key))
        if len(_SPACES) >= _CACHE_BOUND:
            _SPACES.clear()
        _SPACES[key] = space
    return space


def space_to_obj(space: TraceSpace) -> dict:
    return {k: list(space.alphabets[k]) for k in _COMPONENT_KEYS}


def system_from_objs(objs, space: TraceSpace, where: str = "traces") -> System:
    """The system of a list of trace objects over ``space``.  Two objects
    of one canonical trace, or a trace outside the alphabets, is an error
    that names ``where``; the ``System`` constructor alone checks the
    alphabets, so each trace is checked once."""
    seen: set[LassoTrace] = set()
    for obj in _list(objs, where):
        t = trace_from_obj(obj)
        if t in seen:
            raise DuplicateTraceError(f"duplicate trace {format_trace(t)} in {where} after canonicalization")
        seen.add(t)
    try:
        return System(space, seen)
    except AlphabetError as exc:
        raise AlphabetError(f"{exc}, in {where}") from None


def system_from_obj(obj) -> System:
    if not isinstance(obj, dict) or "alphabets" not in obj or "traces" not in obj:
        raise FormatError('a system file must contain "alphabets" and "traces"')
    return system_from_objs(obj["traces"], space_from_obj(obj["alphabets"]))


def system_to_obj(s: System) -> dict:
    """The JSON object of ``s``; it stays to write the system fixtures."""
    return {"alphabets": space_to_obj(s.space), "traces": [trace_to_obj(t) for t in s.members]}


def read_json(path: str | Path):
    """The parsed contents of a JSON file.

    This is the package's one file reader: a missing file, a path that
    cannot be read (a directory, say), bytes that are not UTF-8, text
    that is not JSON, nesting too deep for the parser and an integer too
    long to convert all raise :class:`FormatError`.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file") from None
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc


def load_json(path: str | Path, build: Callable):
    """``build`` applied to the parsed JSON file ``path``: every loader's
    one path.  An input error from ``build`` gets the path in front of its
    message, as :func:`read_json`'s own errors already have it."""
    obj = read_json(path)
    try:
        return build(obj)
    except SiflabError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
