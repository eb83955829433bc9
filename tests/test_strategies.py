"""Protocol composition and trace-set generation."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from oracles import unroll
from siflab import (
    CapExceeded,
    FormatError,
    GenerationMode,
    ProtocolError,
    RunExplosion,
    StrategySystem,
    SystemProtocol,
    UserProtocol,
    build_strategy_system,
)
from siflab import canonicalize
from siflab import fixtures as F
from siflab import strategies
from siflab.corpus import (
    MAX_FAMILY_SIZE,
    MAX_PROTOCOLS,
    _random_machine,
    _random_user,
    constant_user,
    designed_strategy_systems,
    echo_high_machine,
    strategy_corpus,
)
from siflab.properties import check_injectivity, strategy_system_to_obj
from siflab.strategies import derive_space, family_h_view_determined, protocols_from_obj
from siflab.traces import load_json


def _echo():
    return protocols_from_obj(F.echo_protocols())


def _sigma_h(ps, pl, h, mode):
    """The trace set of one high protocol: the one family of a
    one-protocol ``build_strategy_system``."""
    ((_, family),) = build_strategy_system(ps, pl, {"H": h}, mode).families
    return family


# ----------------------------------------------------------------- modes


def test_generation_mode_parse():
    assert GenerationMode.parse("exact").bound is None
    assert GenerationMode.parse(" EXACT ").bound is None
    assert GenerationMode.parse("bounded:3").bound == 3
    assert str(GenerationMode.bounded(2)) == "bounded:2"
    assert str(GenerationMode.exact()) == "exact"
    for bad in ("bounded:x", "b", "bounded:", "exactly", "bounded:0"):
        with pytest.raises(FormatError):
            GenerationMode.parse(bad)
    with pytest.raises(FormatError):
        GenerationMode.bounded(0)


# ------------------------------------------------------------- exact mode


def test_echo_exact_equals_the_designed_two_trace_family():
    ps, pl, hs = _echo()
    got = _sigma_h(ps, pl, hs["H"], GenerationMode.exact())
    want = dict(F.nos_two_trace().families)["H"]
    assert got.traces == want.traces


def test_exact_mode_on_deterministic_protocols_gives_one_lasso():
    ps, pl, hs = _echo()
    # lock the low user to a single first choice: fully deterministic
    left = UserProtocol(pl.states, "lock0", pl.emit, pl.update)
    got = _sigma_h(ps, left, hs["H"], GenerationMode.exact())
    assert len(got.members) == 1


def test_bounded_traces_are_prefixes_of_exact_unrollings():
    ps, pl, hs = _echo()
    exact = _sigma_h(ps, pl, hs["H"], GenerationMode.exact())
    for n in (1, 2, 3, 4):
        bounded = _sigma_h(ps, pl, hs["H"], GenerationMode.bounded(n))
        assert all(not t.cycle for t in bounded.members)
        assert len(bounded.members) == 2  # one per committed low bit
        for t in bounded.members:
            word = unroll(t.prefix, t.cycle, n)
            assert any(word == unroll(e.prefix, e.cycle, n) for e in exact.members)


def test_run_explosion_on_choiceful_cycle():
    ps, pl, hs = _echo()
    # a low user that keeps its choice open forever: the choice point now
    # lies on the only cycle
    free = UserProtocol(
        ("free",),
        "free",
        {"free": ("0", "1")},
        {("free", i, o): "free" for i in ("0", "1") for o in ("0", "1")},
    )
    with pytest.raises(RunExplosion):
        _sigma_h(ps, free, hs["H"], GenerationMode.exact())
    # the bounded mode still works there
    got = _sigma_h(ps, free, hs["H"], GenerationMode.bounded(3))
    assert len(got.members) == 8


def _chain_machine(n: int) -> SystemProtocol:
    """States m0 .. m(n-1) in a line, the last one looping on itself; state
    i outputs a fixed pair read off i, so no two neighbours look alike."""
    states = tuple(f"m{i}" for i in range(n))
    bits = ("0", "1")
    output = {(f"m{i}", hi, li): ((str(i % 2), str(i // 3 % 2)),) for i in range(n) for hi in bits for li in bits}
    update = {
        (f"m{i}", hi, li, ho, lo): states[min(i + 1, n - 1)]
        for i in range(n)
        for hi in bits
        for li in bits
        for ho in bits
        for lo in bits
    }
    return SystemProtocol(states, states[0], output, update)


def test_deep_deterministic_chain_gives_one_lasso_or_run():
    n = 3000
    ps = _chain_machine(n)
    user = constant_user("0")
    tuples = [("0", "0", str(i % 2), str(i // 3 % 2)) for i in range(n)]
    exact = _sigma_h(ps, user, user, GenerationMode.exact())
    assert exact.members == (canonicalize(tuples[:-1], tuples[-1:]),)
    assert len(exact.members[0].prefix) == n - 1
    bounded = _sigma_h(ps, user, user, GenerationMode.bounded(n))
    assert bounded.members == (canonicalize(tuples, ()),)


def test_exact_lassos_unroll_to_the_bounded_runs():
    rng = random.Random(2024)
    accepted = 0
    while accepted < 100:
        ps, pl, h = _random_machine(rng), _random_user(rng), _random_user(rng)
        try:
            exact = _sigma_h(ps, pl, h, GenerationMode.exact())
        except (RunExplosion, ProtocolError):
            continue
        accepted += 1
        for n in range(1, 7):
            bounded = _sigma_h(ps, pl, h, GenerationMode.bounded(n))
            assert {unroll(t.prefix, t.cycle, n) for t in exact.members} == {t.prefix for t in bounded.members}


def _capped_cases():
    """The echo protocols and 40 seeded random protocol sets, each in
    exact and bounded:3 mode, with the uncapped trace set; the draws
    whose tables break or whose exact runs explode are skipped."""
    ps, pl, hs = _echo()
    draws = [(ps, pl, hs["H"])]
    rng = random.Random(2718)
    draws += [(_random_machine(rng), _random_user(rng), _random_user(rng)) for _ in range(40)]
    for ps, pl, h in draws:
        for mode in (GenerationMode.exact(), GenerationMode.bounded(3)):
            try:
                yield ps, pl, h, mode, _sigma_h(ps, pl, h, mode)
            except (RunExplosion, ProtocolError):
                continue


def test_a_trace_cap_raises_exactly_when_the_runs_exceed_it(monkeypatch):
    sizes = set()
    # every case is built at the default cap, before the loop lowers it
    for ps, pl, h, mode, full in list(_capped_cases()):
        sizes.add(len(full))
        for k in range(1, 11):
            monkeypatch.setattr(strategies, "FAMILY_TRACE_CAP", k)
            if len(full) > k:
                with pytest.raises(CapExceeded, match=f"^the runs give more than {k} traces$"):
                    _sigma_h(ps, pl, h, mode)
            else:
                assert _sigma_h(ps, pl, h, mode) == full
    # sizes at, below and above the caps tried
    assert {1, 2, 4, 8} <= sizes and max(sizes) > 10


def test_build_strategy_system_caps_every_family(monkeypatch):
    # the high input is echoed: one run for a constant user, 2^3 for one choosing freely
    free = UserProtocol(("s",), "s", {"s": ("0", "1")}, {("s", i, o): "s" for i in "01" for o in "01"})
    args = (echo_high_machine(), constant_user("0"), {"one": constant_user("0"), "free": free}, GenerationMode.bounded(3))
    full = build_strategy_system(*args)
    assert [len(fam) for _, fam in full.families] == [1, 8]
    monkeypatch.setattr(strategies, "FAMILY_TRACE_CAP", 8)
    assert build_strategy_system(*args) == full
    monkeypatch.setattr(strategies, "FAMILY_TRACE_CAP", 7)
    with pytest.raises(CapExceeded):
        build_strategy_system(*args)


def test_exact_mode_checks_every_family_before_it_enumerates_or_caps_any(monkeypatch):
    # the second family's user chooses freely on its one-state cycle
    free = UserProtocol(("s",), "s", {"s": ("0", "1")}, {("s", i, o): "s" for i in "01" for o in "01"})
    hs = {"one": constant_user("0"), "free": free}
    for cap in (strategies.FAMILY_TRACE_CAP, 1):
        monkeypatch.setattr(strategies, "FAMILY_TRACE_CAP", cap)
        with pytest.raises(RunExplosion):
            build_strategy_system(echo_high_machine(), constant_user("0"), hs, GenerationMode.exact())


def test_build_strategy_system_runs_each_named_high_protocol():
    ps, pl, hs = _echo()
    flip = UserProtocol(
        ("only",),
        "only",
        {"only": ("1",)},
        {("only", i, o): "only" for i in ("0", "1") for o in ("0", "1")},
    )
    ss = build_strategy_system(ps, pl, {"echo": hs["H"], "ones": flip}, GenerationMode.exact())
    assert [name for name, _ in ss.families] == ["echo", "ones"]
    echo_traces = dict(ss.families)["echo"].traces
    assert echo_traces == dict(F.nos_two_trace().families)["H"].traces
    with pytest.raises(FormatError):
        build_strategy_system(ps, pl, {}, GenerationMode.exact())


# ------------------------------------------------------------------ space


def test_derive_space_reads_alphabets_off_the_tables():
    ps, pl, hs = _echo()
    space = derive_space(ps, pl, list(hs.values()))
    assert space.alphabets["li"] == ("0", "1")
    assert space.alphabets["hi"] == ("0", "1")


def test_derive_space_requires_nonempty_alphabets():
    ps, pl, hs = _echo()
    empty_sys = SystemProtocol(("run",), "run", {}, {})
    with pytest.raises(ProtocolError):
        derive_space(empty_sys, pl, list(hs.values()))


# ----------------------------------------------------------- table errors


def test_user_protocol_validation():
    with pytest.raises(ProtocolError):
        UserProtocol(("a",), "missing", {"a": ("0",)}, {})
    with pytest.raises(ProtocolError):
        UserProtocol(("a",), "a", {"a": ()}, {})
    with pytest.raises(ProtocolError):
        UserProtocol(("a",), "a", {"a": (0,)}, {})
    with pytest.raises(ProtocolError, match="^state 'a' has no emission choices or repeats one$"):
        UserProtocol(("a",), "a", {"a": ("0", "1", "0")}, {})


def test_system_protocol_validation():
    with pytest.raises(ProtocolError):
        SystemProtocol(("s",), "other", {}, {})
    ps = SystemProtocol(("s",), "s", {("s", "0", "0"): ()}, {})
    with pytest.raises(ProtocolError):
        ps.choices("s", "0", "0")
    with pytest.raises(ProtocolError):
        ps.choices("s", "1", "1")
    ps = SystemProtocol(("s",), "s", {("s", "0", "0"): (("0", "1"), ("1", "0"), ("0", "1"))}, {})
    message = "^system output for state='s' hi='0' li='0' is empty or repeats a choice$"
    with pytest.raises(ProtocolError, match=message):
        ps.choices("s", "0", "0")


def test_missing_update_surfaces_as_protocol_error():
    ps, pl, hs = _echo()
    broken = UserProtocol(pl.states, pl.initial, pl.emit, {})
    with pytest.raises(ProtocolError):
        _sigma_h(ps, broken, hs["H"], GenerationMode.bounded(2))


# ------------------------------------------------------------------ loaders


def test_protocols_from_obj_validation():
    with pytest.raises(FormatError):
        protocols_from_obj([])
    with pytest.raises(FormatError):
        protocols_from_obj({"system": {}, "low": {}})
    obj = F.echo_protocols()
    obj["highs"] = {}
    with pytest.raises(FormatError):
        protocols_from_obj(obj)
    obj = F.echo_protocols()
    del obj["low"]["states"]
    with pytest.raises(FormatError):
        protocols_from_obj(obj)


@pytest.mark.parametrize(
    "path, field",
    [
        (("system", "states"), "system protocol states"),
        (("system", "output"), "system protocol output"),
        (("system", "output", 0, "choices"), "system protocol choices"),
        (("system", "output", 0, "choices", 0), "a system protocol choice"),
        (("system", "update"), "system protocol update"),
        (("low", "states"), "low protocol states"),
        (("low", "emit"), "low protocol emit"),
        (("low", "emit", 0, "choices"), "low protocol choices"),
        (("highs", "H", "update"), "H protocol update"),
    ],
)
def test_a_string_is_not_read_as_a_list(path, field):
    """A string where a list belongs is rejected by name, not split into characters."""
    obj = F.echo_protocols()
    *parents, last = path
    node = obj
    for key in parents:
        node = node[key]
    node[last] = "".join(map(str, node[last])) if all(isinstance(x, str) for x in node[last]) else "run"
    with pytest.raises(FormatError, match=f"^{field} must be a list, got '"):
        protocols_from_obj(obj)


def test_load_protocols_roundtrip(tmp_path):
    path = tmp_path / "protocols.json"
    path.write_text(json.dumps(F.echo_protocols()))
    ps, pl, hs = load_json(path, protocols_from_obj)
    got = _sigma_h(ps, pl, hs["H"], GenerationMode.exact())
    assert len(got.members) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(FormatError):
        load_json(bad, protocols_from_obj)


# ------------------------------------------------------------------ reports


def test_generated_families_are_h_view_determined(corpus120):
    for ss in corpus120[:30]:
        assert family_h_view_determined(ss)


def test_h_view_determination_fails_on_a_crafted_overlap():
    from siflab import binary_space, strategy_system_from_mapping
    from siflab.fixtures import constant_trace

    ss = strategy_system_from_mapping(
        binary_space(),
        {
            "H0": [constant_trace((0, 0, 0, 0))],
            # same high view (hi=0, ho=0) but a different low behavior
            "H1": [constant_trace((0, 1, 0, 1))],
        },
    )
    assert not family_h_view_determined(ss)


def test_injectivity_report_names_offenders():
    from siflab import binary_space, strategy_system_from_mapping
    from siflab.fixtures import constant_trace

    t0 = constant_trace((0, 0, 0, 0))
    t1 = constant_trace((1, 1, 1, 1))
    t2 = constant_trace((1, 0, 1, 1))
    ss = strategy_system_from_mapping(binary_space(), {"H0": [t0, t1], "H1": [t0]})
    assert not check_injectivity(ss)
    # H1 is the one offender: a trace of its own mends the system, one more for H0 does not
    assert check_injectivity(strategy_system_from_mapping(binary_space(), {"H0": [t0, t1], "H1": [t0, t2]}))
    assert not check_injectivity(strategy_system_from_mapping(binary_space(), {"H0": [t0, t1, t2], "H1": [t0]}))
    ss = F.nos_false_pair()
    assert check_injectivity(ss)


# ------------------------------------------------------------------ corpus


def _corpus_digest(corpus) -> str:
    text = json.dumps([strategy_system_to_obj(ss) for ss in corpus])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_the_bounded_retry_reuses_the_moves_of_the_exact_check(monkeypatch):
    """In ``strategy_corpus(120)`` each (family, joint state) has its
    moves computed once: a draw retried as ``bounded:3`` reads the memos
    its exact check filled."""
    moves = strategies._moves
    calls = []
    alive = []  # keeps each family's protocols, so no id is reused

    def counted(ps, pl, h, js):
        alive.append((ps, pl, h))
        calls.append((id(ps), id(pl), id(h), js))
        return moves(ps, pl, h, js)

    monkeypatch.setattr(strategies, "_moves", counted)
    corpus = strategy_corpus(120)
    assert any(not t.cycle for ss in corpus for _, fam in ss.families for t in fam)  # some draws retried
    assert len(calls) == len(set(calls))


def test_strategy_corpus_is_pinned(corpus120):
    # The bounded retry's cap must reject exactly the draws the size
    # filter rejects, and leave every later draw as it was.
    assert _corpus_digest(corpus120) == "20285a6f5b1c9af2"
    assert _corpus_digest(strategy_corpus(200, 1)) == "117395d127eea380"


def _reference_user(rng: random.Random) -> UserProtocol:
    states = tuple(f"u{i}" for i in range(rng.randint(1, 2)))
    emit = {s: ("0", "1") if rng.random() < 0.25 else (rng.choice("01"),) for s in states}
    update = {(s, i, o): rng.choice(states) for s in states for i in "01" for o in "01"}
    return UserProtocol(states, states[0], emit, update)


def _reference_machine(rng: random.Random) -> SystemProtocol:
    states = tuple(f"m{i}" for i in range(rng.randint(1, 2)))
    pairs = [(a, b) for a in "01" for b in "01"]
    output = {}
    for s in states:
        for hi in "01":
            for li in "01":
                output[(s, hi, li)] = tuple(rng.sample(pairs, 2)) if rng.random() < 0.2 else (rng.choice(pairs),)
    update = {
        (s, hi, li, ho, lo): rng.choice(states) for s in states for hi in "01" for li in "01" for ho in "01" for lo in "01"
    }
    return SystemProtocol(states, states[0], output, update)


def _reference_corpus(count: int, seed: int) -> list[StrategySystem]:
    """``strategy_corpus`` through the public builders: draws from the
    library's ``random.Random``, every system built in exact mode, then
    ``bounded:3`` when a cycle carries a choice, then the size filter
    and ``check_injectivity``."""
    rng = random.Random(seed)
    out = designed_strategy_systems()
    while len(out) < count:
        hs = {f"H{i}": _reference_user(rng) for i in range(rng.randint(1, MAX_PROTOCOLS))}
        pl = _reference_user(rng)
        ps = _reference_machine(rng)
        try:
            try:
                ss = build_strategy_system(ps, pl, hs, GenerationMode.exact())
            except RunExplosion:
                ss = build_strategy_system(ps, pl, hs, GenerationMode.bounded(3))
        except ProtocolError:
            continue
        if any(len(fam) > MAX_FAMILY_SIZE for _, fam in ss.families):
            continue
        if check_injectivity(ss):
            out.append(ss)
    return out


@pytest.mark.parametrize("seed", [3, 5, 11])
def test_strategy_corpus_matches_a_rebuild_through_the_public_builders(seed):
    # Seeds the pin does not cover; each holds exact and bounded systems,
    # and a family of exactly MAX_FAMILY_SIZE traces.
    got = strategy_corpus(60, seed)
    want = _reference_corpus(60, seed)
    assert got == want
    assert [strategy_system_to_obj(ss) for ss in got] == [strategy_system_to_obj(ss) for ss in want]
