"""Seeded corpora for the equivalence and implication suites.

Everything here is deterministic given the seed, so verification runs
and tests see identical inputs.  Three kinds of material are produced:
strategy systems generated from random finite-state protocols, system
collections for the pinning-function suite, and asynchronous event
systems for the insertion-property suite.
"""

from __future__ import annotations

import random
from itertools import product
from math import ceil, log
from typing import Iterator

from .enumeration import standard_universe
from .errors import CapExceeded, ProtocolError, RunExplosion
from .families import ExtensionalSif, verify_zigzag_collection
from .fixtures import echo_protocols
from .properties import StrategySystem, _injective
from .strategies import (
    GenerationMode,
    SystemProtocol,
    UserProtocol,
    _family_keys,
    _system_of_keys,
    build_strategy_system,
    derive_space,
    protocols_from_obj,
)
from .traces import LassoTrace, System, binary_space
from .zl import AsyncSystem, EventDecl, ExtensionalQ, _member_classes

DEFAULT_SEED = 74911

_BITS = ("0", "1")


class _Draws(random.Random):
    """The random stream of every seeded generator here.

    It is ``random.Random`` with the bounded draws of ``randint``,
    ``choice`` and ``sample`` made in one Python frame each, as the
    standard library makes them: a draw below n takes
    ``n.bit_length()`` bits and is redrawn while it is ``>= n``, and
    ``sample`` picks its pool or its set branch by the library's
    ``setsize`` rule.  So a seed gives the same values and leaves the
    same state.  ``random``, ``getrandbits``, ``shuffle`` and
    ``randrange`` are the library's own.  ``sample`` takes a sequence and
    no ``counts``.
    """

    def randint(self, a: int, b: int) -> int:
        n = b - a + 1
        if n <= 0:
            raise ValueError(f"empty range for randint({a}, {b})")
        getrandbits, k = self.getrandbits, n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return a + r

    def choice(self, seq):
        n = len(seq)
        if not n:
            raise IndexError("Cannot choose from an empty sequence")
        getrandbits, k = self.getrandbits, n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return seq[r]

    def sample(self, population, k: int) -> list:
        n = len(population)
        if not 0 <= k <= n:
            raise ValueError("Sample larger than population or is negative")
        getrandbits = self.getrandbits
        setsize = 21
        if k > 5:
            setsize += 4 ** ceil(log(k * 3, 4))
        result = []
        if n <= setsize:
            # the library's pool branch: the unpicked items are pool[:m]
            pool = list(population)
            for m in range(n, n - k, -1):
                bits = m.bit_length()
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                result.append(pool[j])
                pool[j] = pool[m - 1]
        else:
            # the library's set branch: redraw below n until unpicked
            bits = n.bit_length()
            picked = set()
            for _ in range(k):
                j = getrandbits(bits)
                while j >= n or j in picked:
                    j = getrandbits(bits)
                picked.add(j)
                result.append(population[j])
        return result


# ---------------------------------------------------------------- protocols


def constant_user(bit: str) -> UserProtocol:
    return UserProtocol(
        ("s",),
        "s",
        {"s": (bit,)},
        {("s", i, o): "s" for i in _BITS for o in _BITS},
    )


def _one_state_machine(outputs) -> SystemProtocol:
    """A one-state machine answering inputs ``(hi, li)`` with the single
    output pair ``outputs(hi, li)``."""
    return SystemProtocol(
        ("m",),
        "m",
        {("m", hi, li): (outputs(hi, li),) for hi in _BITS for li in _BITS},
        {("m", hi, li, ho, lo): "m" for hi in _BITS for li in _BITS for ho in _BITS for lo in _BITS},
    )


def copy_low_machine() -> SystemProtocol:
    """Both outputs repeat the current low input."""
    return _one_state_machine(lambda hi, li: (li, li))


def echo_high_machine() -> SystemProtocol:
    """High output repeats the high input; low output stays silent."""
    return _one_state_machine(lambda hi, li: (hi, "0"))


def leak_high_machine() -> SystemProtocol:
    """Both outputs repeat the high input; the low user sees everything."""
    return _one_state_machine(lambda hi, li: (hi, hi))


def alternating_user() -> UserProtocol:
    return UserProtocol(
        ("a", "b"),
        "a",
        {"a": ("0",), "b": ("1",)},
        {(s, i, o): ("b" if s == "a" else "a") for s in ("a", "b") for i in _BITS for o in _BITS},
    )


def designed_strategy_systems() -> list[StrategySystem]:
    """Hand-built protocol sets covering the interesting verdict corners."""
    out = []
    ps, pl, hs = protocols_from_obj(echo_protocols())
    out.append(build_strategy_system(ps, pl, hs, GenerationMode.exact()))

    # union satisfies separability; NOS holds
    out.append(
        build_strategy_system(
            echo_high_machine(),
            constant_user("0"),
            {"H0": constant_user("0"), "H1": constant_user("1")},
            GenerationMode.exact(),
        )
    )
    # the machine leaks the high input into the low output; NOS fails
    out.append(
        build_strategy_system(
            leak_high_machine(),
            constant_user("0"),
            {"H0": constant_user("0"), "H1": constant_user("1")},
            GenerationMode.exact(),
        )
    )
    # three protocols, one of them period two
    out.append(
        build_strategy_system(
            copy_low_machine(),
            constant_user("1"),
            {"H0": constant_user("0"), "H1": constant_user("1"), "H2": alternating_user()},
            GenerationMode.exact(),
        )
    )
    return out


# The tables a random protocol fills, by its number of states: the
# states, then the keys its draws fill, in the order they draw.
_USER_TABLES = tuple((states, tuple(product(states, _BITS, _BITS))) for states in (("u0",), ("u0", "u1")))
_MACHINE_TABLES = tuple(
    (
        states,
        tuple(product(states, _BITS, _BITS)),
        tuple(product(states, _BITS, _BITS, _BITS, _BITS)),
    )
    for states in (("m0",), ("m0", "m1"))
)
_PAIRS = tuple(product(_BITS, _BITS))

# Each bounded draw below is ``_Draws.choice``'s, made inline: a value
# below n takes ``n.bit_length()`` bits and is redrawn while ``>= n``.
# ``randint(1, 2)`` is such a draw below 2, and ``sample(pairs, 2)`` is
# one below 4 and one below 3 from the pool with its pick replaced by
# the last pair.


def _draw_table(getrandbits, keys, values) -> dict:
    """``{key: values[i]}`` over ``keys`` in order, each i a draw below
    ``len(values)``."""
    n = len(values)
    k = n.bit_length()
    table = {}
    for key in keys:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        table[key] = values[r]
    return table


def _random_user(rng: _Draws) -> UserProtocol:
    getrandbits, random_ = rng.getrandbits, rng.random
    r = getrandbits(2)
    while r >= 2:
        r = getrandbits(2)
    states, keys = _USER_TABLES[r]
    emit = {}
    for s in states:
        if random_() < 0.25:
            emit[s] = _BITS
        else:
            r = getrandbits(2)
            while r >= 2:
                r = getrandbits(2)
            emit[s] = (_BITS[r],)
    return UserProtocol(states, states[0], emit, _draw_table(getrandbits, keys, states))


def _random_machine(rng: _Draws) -> SystemProtocol:
    getrandbits, random_ = rng.getrandbits, rng.random
    r = getrandbits(2)
    while r >= 2:
        r = getrandbits(2)
    states, output_keys, update_keys = _MACHINE_TABLES[r]
    output = {}
    for key in output_keys:
        if random_() < 0.2:
            first = getrandbits(3)
            while first >= 4:
                first = getrandbits(3)
            r = getrandbits(2)
            while r >= 3:
                r = getrandbits(2)
            output[key] = (_PAIRS[first], _PAIRS[3] if r == first else _PAIRS[r])
        else:
            r = getrandbits(3)
            while r >= 4:
                r = getrandbits(3)
            output[key] = (_PAIRS[r],)
    return SystemProtocol(states, states[0], output, _draw_table(getrandbits, update_keys, states))


# Random protocol sets run at most this many high protocols and keep
# only systems whose families all have at most this many traces.
MAX_PROTOCOLS = 3
MAX_FAMILY_SIZE = 8
_HIGH_NAMES = tuple(f"H{i}" for i in range(MAX_PROTOCOLS))


def strategy_corpus(count: int = 120, seed: int = DEFAULT_SEED) -> list[StrategySystem]:
    """Injective strategy systems generated from finite-state protocols.

    Starts with the designed systems (so both NOS verdicts and a
    separable union are always present), then draws random protocol
    sets.  A draw is generated exactly when every family passes exact
    mode's check, and as ``bounded:3`` runs when some family has a
    choice on a cycle; the bounded runs reuse the moves the check
    computed.  It is skipped when its tables are incomplete, when a
    family has more than ``MAX_FAMILY_SIZE`` runs (the enumeration stops
    there), or when its families are not injective.  All of that is
    decided on the runs' canonical ``(prefix, cycle)`` keys; traces,
    systems and the space are built only for a kept draw.  No build
    draws a random number, so a skip keeps every later draw as it was.
    ``tests/test_strategies.py`` pins the corpus and checks it against a
    rebuild through ``build_strategy_system``.
    """
    rng = _Draws(seed)
    out = designed_strategy_systems()
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError("strategy corpus generation stalled; loosen the filters")
        highs = [_random_user(rng) for _ in range(rng.randint(1, MAX_PROTOCOLS))]
        pl = _random_user(rng)
        ps = _random_machine(rng)
        memos = [{} for _ in highs]
        try:
            try:
                keys = _family_keys(ps, pl, highs, None, MAX_FAMILY_SIZE, memos)
            except RunExplosion:
                keys = _family_keys(ps, pl, highs, 3, MAX_FAMILY_SIZE, memos)
            if not _injective(keys):
                continue
            space = derive_space(ps, pl, highs)
        except (ProtocolError, CapExceeded):
            continue
        out.append(StrategySystem(tuple(zip(_HIGH_NAMES, (_system_of_keys(space, k) for k in keys)))))
    return out[:count]


# ----------------------------------------------------- pinning collections


def _standard_traces() -> list[LassoTrace]:
    _, traces = standard_universe()
    return list(traces)


def disjoint_collection(block_sizes: list[int], seed: int = DEFAULT_SEED) -> list[System]:
    """Pairwise disjoint systems partitioning the 16-trace universe."""
    traces = _standard_traces()
    if sum(block_sizes) > len(traces) or any(b < 1 for b in block_sizes):
        raise ValueError("block sizes must be positive and fit the universe")
    rng = _Draws(seed)
    rng.shuffle(traces)
    space = binary_space()
    out = []
    at = 0
    for size in block_sizes:
        out.append(System(space, traces[at : at + size]))
        at += size
    return out


def disjoint_ten() -> list[System]:
    """A fixed ten-member pairwise disjoint collection."""
    return disjoint_collection([2, 2, 2, 2, 2, 2, 1, 1, 1, 1], seed=7)


def zigzag_corpus(count: int = 24, seed: int = DEFAULT_SEED) -> tuple[list[list[System]], int]:
    """Collections on which the pinning-function suite is exercised.

    Half are pairwise disjoint partitions (these provably satisfy both
    the uniqueness and the subset-representation claims); the rest are
    random overlapping draws kept only when the exhaustive checker
    confirms both claims.  Returns the collections and the number of
    rejected draws: overlapping members can defeat subset
    representation, so rejections are expected and reported rather than
    hidden.
    """
    rng = _Draws(seed)
    traces = _standard_traces()
    space = binary_space()
    collections: list[list[System]] = []
    rejected = 0
    half = count // 2
    while len(collections) < half:
        k = rng.randint(2, 8)
        sizes = []
        left = len(traces)
        for i in range(k):
            # Leave at least one trace for each block still to come.
            size = rng.randint(1, min(4, left - (k - i - 1)))
            sizes.append(size)
            left -= size
        collections.append(disjoint_collection(sizes, seed=rng.randrange(1 << 30)))
    while len(collections) < count:
        k = rng.randint(3, 6)
        members = []
        seen = set()
        while len(members) < k:
            size = rng.randint(1, 5)
            s = System(space, rng.sample(traces, size))
            if s.traces not in seen:
                seen.add(s.traces)
                members.append(s)
        report = verify_zigzag_collection(members)
        if report.uniqueness_ok and report.representation_ok:
            collections.append(members)
        else:
            rejected += 1
    return collections, rejected


# --------------------------------------------------------- async material


def enumerate_event_decls(max_events: int = 3) -> list[EventDecl]:
    """All declarations with 1..max_events events and every level split."""
    decls = []
    for k in range(1, max_events + 1):
        names = tuple(f"e{i}" for i in range(1, k + 1))
        for levels in product("LH", repeat=k):
            decls.append(EventDecl(tuple(zip(names, levels))))
    return decls


def enumerate_event_traces(decl: EventDecl, max_len: int = 3) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    for n in range(max_len + 1):
        out.extend(product(decl.names, repeat=n))
    return out


def enumerate_async_pools(
    max_events: int = 3, max_len: int = 3, cap: int = 60000
) -> Iterator[tuple[EventDecl, list[tuple[str, ...]], int]]:
    """The plan of the capped enumeration: ``(decl, pool, count)`` per
    event declaration.

    The cap is split evenly across declarations.  A declaration's systems
    are the subsets of its length-sorted trace pool with masks
    ``0 .. count - 1`` (bit i stands for ``pool[i]``), from the empty
    system on, until the quota or the powerset runs out.
    """
    decls = enumerate_event_decls(max_events)
    quota = max(1, cap // len(decls))
    for decl in decls:
        pool = enumerate_event_traces(decl, max_len)
        yield decl, pool, min(1 << len(pool), quota)


# Random event systems declare at most this many events and draw at
# most this many traces of at most this length.
ASYNC_MAX_EVENTS = 4
ASYNC_MAX_LEN = 4
ASYNC_MAX_TRACES = 6
_ASYNC_NAMES = tuple(f"e{i}" for i in range(1, ASYNC_MAX_EVENTS + 1))


def async_corpus(count: int = 500, seed: int = DEFAULT_SEED) -> list[AsyncSystem]:
    """Random event systems, larger than the capped enumeration covers."""
    rng = _Draws(seed)
    randint, choice = rng.randint, rng.choice
    out = []
    # systems with the same level split share one declaration and trace pool
    shared: dict[tuple, tuple[EventDecl, list]] = {}
    while len(out) < count:
        levels = tuple([choice("LH") for _ in range(randint(2, ASYNC_MAX_EVENTS))])
        if "L" not in levels or "H" not in levels:
            continue
        entry = shared.get(levels)
        if entry is None:
            # events e1, e2, ... at the drawn levels
            decl = EventDecl(tuple(zip(_ASYNC_NAMES, levels)))
            entry = shared[levels] = (decl, enumerate_event_traces(decl, ASYNC_MAX_LEN))
        decl, pool = entry
        out.append(AsyncSystem(decl, rng.sample(pool, randint(1, ASYNC_MAX_TRACES))))
    return out


# -------------------------------------------------------- randomized cases


def _system_of(systems: dict, space, members) -> System:
    """The system of ``members``, built once per distinct member set and
    kept in ``systems``, so its low-view classes are computed once too."""
    key = frozenset(members)
    s = systems.get(key)
    if s is None:
        s = systems[key] = System(space, key)
    return s


def conj_cases(
    count: int = 1000, seed: int = DEFAULT_SEED
) -> Iterator[tuple[System, list[ExtensionalSif], list[ExtensionalSif]]]:
    """Random (system, family, family) triples for the pairing identity.
    Cases that draw the same members share one ``System``.

    Its stream is the module's one draw class, ``_Draws``.  The tables
    draw inline, as ``_Draws.choice`` would, and
    ``tests/test_pairing.py::test_random_case_streams_are_pinned`` pins the
    cases they give.
    """
    rng = _Draws(seed)
    random_, getrandbits, randint = rng.random, rng.getrandbits, rng.randint
    traces = _standard_traces()
    n_all = len(traces)
    k_all = n_all.bit_length()
    space = binary_space()
    systems: dict = {}
    adopt = ExtensionalSif._adopt
    for _ in range(count):
        members = rng.sample(traces, randint(2, 5))
        s = _system_of(systems, space, members)
        n = len(members)
        k = n.bit_length()
        pairs = list(product(members, repeat=2))
        f1: list[ExtensionalSif] = []
        f2: list[ExtensionalSif] = []
        for fam in (f1, f2):
            for _ in range(randint(1, 3)):
                table = {}
                for pair in pairs:
                    if random_() < 0.8:
                        # mostly map back into the system, sometimes out;
                        # each branch is _Draws.choice's draw: the bits of
                        # the pool's length, redrawn while past it
                        if random_() < 0.85:
                            i = getrandbits(k)
                            while i >= n:
                                i = getrandbits(k)
                            table[pair] = members[i]
                        else:
                            i = getrandbits(k_all)
                            while i >= n_all:
                                i = getrandbits(k_all)
                            table[pair] = traces[i]
                fam.append(adopt(table))
        yield s, f1, f2


def zl_conj_cases(
    count: int = 1000, seed: int = DEFAULT_SEED
) -> Iterator[tuple[System, ExtensionalQ, ExtensionalQ]]:
    """Random (system, Q, Q') triples for the conjunction identity.
    Cases that draw the same members share one ``System``."""
    rng = _Draws(seed)
    traces = _standard_traces()
    space = binary_space()
    all_classes = []
    for size in (1, 2, 3, 4):
        for _ in range(8):
            s = System(space, rng.sample(traces, size))
            all_classes.extend(_member_classes(s))
    class_pool = sorted(set(all_classes), key=lambda c: sorted(map(repr, c)))
    systems: dict = {}
    random_, randint, sample = rng.random, rng.randint, rng.sample
    for _ in range(count):
        s = _system_of(systems, space, sample(traces, randint(1, 4)))
        own = _member_classes(s)
        # each Q accepts some of the system's classes and four drawn ones
        q1 = ExtensionalQ(frozenset([c for c in own if random_() < 0.7] + sample(class_pool, 4)))
        q2 = ExtensionalQ(frozenset([c for c in own if random_() < 0.7] + sample(class_pool, 4)))
        yield s, q1, q2
