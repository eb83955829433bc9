"""Protocol composition and trace-set generation."""

from __future__ import annotations

import json
import random

import pytest

from oracles import unroll
from siflab import (
    FormatError,
    GenerationMode,
    ProtocolError,
    RunExplosion,
    StrategySystem,
    SystemProtocol,
    UserProtocol,
    build_strategy_system,
    generate_sigma_h,
    load_protocols,
)
from siflab import canonicalize
from siflab import fixtures as F
from siflab.corpus import _random_machine, _random_user, constant_user
from siflab.properties import check_injectivity, injectivity_offenders
from siflab.strategies import derive_space, family_h_view_determined, protocols_from_obj


def _echo():
    return protocols_from_obj(F.echo_protocols())


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
    got = generate_sigma_h(ps, pl, hs["H"], GenerationMode.exact())
    want = dict(F.nos_two_trace().families)["H"]
    assert got.traces == want.traces


def test_exact_mode_on_deterministic_protocols_gives_one_lasso():
    ps, pl, hs = _echo()
    # lock the low user to a single first choice: fully deterministic
    left = UserProtocol(pl.states, "lock0", pl.emit, pl.update)
    got = generate_sigma_h(ps, left, hs["H"], GenerationMode.exact())
    assert len(got.members) == 1


def test_bounded_traces_are_prefixes_of_exact_unrollings():
    ps, pl, hs = _echo()
    exact = generate_sigma_h(ps, pl, hs["H"], GenerationMode.exact())
    for n in (1, 2, 3, 4):
        bounded = generate_sigma_h(ps, pl, hs["H"], GenerationMode.bounded(n))
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
        generate_sigma_h(ps, free, hs["H"], GenerationMode.exact())
    # the bounded mode still works there
    got = generate_sigma_h(ps, free, hs["H"], GenerationMode.bounded(3))
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
    exact = generate_sigma_h(ps, user, user, GenerationMode.exact())
    assert exact.members == (canonicalize(tuples[:-1], tuples[-1:]),)
    assert len(exact.members[0].prefix) == n - 1
    bounded = generate_sigma_h(ps, user, user, GenerationMode.bounded(n))
    assert bounded.members == (canonicalize(tuples, ()),)


def test_exact_lassos_unroll_to_the_bounded_runs():
    rng = random.Random(2024)
    accepted = 0
    while accepted < 100:
        ps, pl, h = _random_machine(rng), _random_user(rng), _random_user(rng)
        try:
            exact = generate_sigma_h(ps, pl, h, GenerationMode.exact())
        except (RunExplosion, ProtocolError):
            continue
        accepted += 1
        for n in range(1, 7):
            bounded = generate_sigma_h(ps, pl, h, GenerationMode.bounded(n))
            assert {unroll(t.prefix, t.cycle, n) for t in exact.members} == {t.prefix for t in bounded.members}


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


def test_system_protocol_validation():
    with pytest.raises(ProtocolError):
        SystemProtocol(("s",), "other", {}, {})
    ps = SystemProtocol(("s",), "s", {("s", "0", "0"): ()}, {})
    with pytest.raises(ProtocolError):
        ps.choices("s", "0", "0")
    with pytest.raises(ProtocolError):
        ps.choices("s", "1", "1")


def test_missing_update_surfaces_as_protocol_error():
    ps, pl, hs = _echo()
    broken = UserProtocol(pl.states, pl.initial, pl.emit, {})
    with pytest.raises(ProtocolError):
        generate_sigma_h(ps, broken, hs["H"], GenerationMode.bounded(2))


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


def test_load_protocols_roundtrip(tmp_path):
    path = tmp_path / "protocols.json"
    path.write_text(json.dumps(F.echo_protocols()))
    ps, pl, hs = load_protocols(path)
    got = generate_sigma_h(ps, pl, hs["H"], GenerationMode.exact())
    assert len(got.members) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(FormatError):
        load_protocols(bad)


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
    ss = strategy_system_from_mapping(binary_space(), {"H0": [t0, t1], "H1": [t0]})
    assert not check_injectivity(ss) and injectivity_offenders(ss) == ["H1"]
    ss = F.nos_false_pair()
    assert check_injectivity(ss) and injectivity_offenders(ss) == []
