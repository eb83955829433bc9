"""Pair-quantified properties, strategy systems, and NOS."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_injective, brute_nos, brute_property
from test_siftypes import _multi_period_system
from siflab import (
    FormatError,
    InjectivityError,
    PropertyKind,
    StrategySystem,
    System,
    TraceSpace,
    binary_space,
    check_injectivity,
    check_nos,
    check_property,
    standard_universe,
    strategy_system_from_mapping,
    uniform_alphabets,
    union_system,
)
from siflab import fixtures as F
from siflab import properties
from siflab.properties import (
    save_strategy_system,
    strategy_system_from_obj,
    strategy_system_to_obj,
)
from siflab.traces import load_json

SPACE, UNIVERSE = standard_universe()
KINDS = tuple(PropertyKind)


def _system(mask: int) -> System:
    return System(SPACE, (UNIVERSE[i] for i in range(16) if mask >> i & 1))


def test_fixture_verdicts():
    expected = {
        # fixture -> (sep, gni, rgni, dgni)
        "dgni_not_sep_15": (False, True, True, True),
        "gni_not_dgni_4": (False, True, False, False),
        "li_equals_hi_8": (False, False, False, False),
        "ho_equals_li_8": (False, True, False, False),
        "lo_equals_hi_8": (False, False, True, False),
        "lo_equals_li_8": (True, True, True, True),
        "ho_equals_hi_xor_li_16": (False, True, False, False),
        "high_echo_pair_2": (True, True, True, True),
    }
    for name, verdicts in expected.items():
        s = F.SYSTEM_FIXTURES[name]()
        got = tuple(check_property(k, s) for k in (PropertyKind.SEP, PropertyKind.GNI, PropertyKind.RGNI, PropertyKind.DGNI))
        assert got == verdicts, f"{name}: expected {verdicts}, got {got}"


def test_empty_and_singleton_systems_satisfy_everything():
    empty = System(SPACE, [])
    single = _system(0b1)
    for kind in KINDS:
        assert check_property(kind, empty)
        assert check_property(kind, single)


def test_exhaustive_oracle_agreement_on_a_five_trace_subuniverse():
    base = [UNIVERSE[i] for i in (0, 3, 5, 10, 12)]
    for mask in range(1, 1 << 5):
        s = System(SPACE, (base[i] for i in range(5) if mask >> i & 1))
        for kind in KINDS:
            assert check_property(kind, s) == brute_property(kind.value, s.members), (
                f"mask {mask} kind {kind}"
            )


@given(st.integers(min_value=1, max_value=(1 << 16) - 1))
@settings(max_examples=60, deadline=None)
def test_oracle_agreement_on_random_systems(mask):
    s = _system(mask)
    for kind in KINDS:
        assert check_property(kind, s) == brute_property(kind.value, s.members)


def test_each_verdict_is_the_oracles_in_either_order_of_asking():
    """Verdicts are kept per system: asking DGNI first, or last, and
    asking again, gives the oracle's verdict on every system."""
    rng = random.Random(11)
    seen = set()
    for _ in range(100):
        drawn = _multi_period_system(rng)
        expected = {kind: brute_property(kind.value, drawn.members) for kind in KINDS}
        for order in (KINDS, KINDS[::-1]):
            s = System(drawn.space, drawn.members)
            for _ in range(2):
                assert {kind: check_property(kind, s) for kind in order} == expected, (drawn.members, order)
        seen.add((expected[PropertyKind.GNI], expected[PropertyKind.RGNI]))
    # DGNI was asked first on systems where each of its halves fails alone
    assert {(True, True), (True, False), (False, True)} <= seen


def test_a_reloaded_system_decides_afresh():
    rng = random.Random(12)
    for _ in range(30):
        s = _multi_period_system(rng)
        verdicts = {kind: check_property(kind, s) for kind in KINDS}
        loaded = pickle.loads(pickle.dumps(s))
        assert loaded == s and loaded._verdicts is None
        assert {kind: check_property(kind, loaded) for kind in KINDS[::-1]} == verdicts
        assert verdicts == {kind: brute_property(kind.value, s.members) for kind in KINDS}


def test_check_property_accepts_string_kinds():
    """A kind's value gives the kind's verdict; another spelling, NOS, or
    a value of another type is refused with ``ValueError``, before and
    after the system has verdicts."""
    seen = set()
    for s in (F.lo_equals_li_8(), _system(0b1011)):
        for kind in KINDS:
            verdict = check_property(kind, s)
            assert check_property(kind.value, s) == verdict
            assert check_property(kind.value, System(s.space, s.traces)) == verdict
            seen.add(verdict)
        for bad in ("SEP", "nos", [], None, 3):
            with pytest.raises(ValueError):
                check_property(bad, s)
            with pytest.raises(ValueError):
                check_property(bad, System(s.space, s.traces))
    assert check_property("sep", F.lo_equals_li_8()) is True and seen == {True, False}


# ------------------------------------------------------- strategy systems


def test_strategy_system_validation():
    sp = binary_space()
    with pytest.raises(FormatError):
        strategy_system_from_mapping(sp, {})
    t = F.zl_pair_traces()[0]
    with pytest.raises(FormatError):
        strategy_system_from_mapping(sp, {"H0": [t], "H1": []})
    fam = System(sp, [t])
    with pytest.raises(FormatError, match="^family names must be unique$"):
        StrategySystem((("H0", fam), ("H0", fam)))
    wider = System(TraceSpace(uniform_alphabets(3)), [t])
    with pytest.raises(FormatError, match="^all families must share one trace space$"):
        StrategySystem((("H0", fam), ("H1", wider)))


def test_union_and_injectivity():
    ss = F.nos_two_trace()
    assert len(union_system(ss)) == 2
    assert check_injectivity(ss)
    assert brute_injective({name: fam.members for name, fam in ss.families})

    t0, t1 = F.zl_pair_traces()
    sp = binary_space()
    shared = strategy_system_from_mapping(sp, {"H0": [t0, t1], "H1": [t0]})
    # H1's only trace also belongs to H0, so H1 owns nothing
    assert not check_injectivity(shared)
    assert not brute_injective({"H0": (t0, t1), "H1": (t0,)})
    with pytest.raises(InjectivityError):
        check_nos(shared)


def test_check_nos_refuses_a_non_injective_system_on_every_call():
    t0, t1 = F.zl_pair_traces()
    shared = strategy_system_from_mapping(binary_space(), {"H0": [t0, t1], "H1": [t0]})
    for _ in range(3):
        with pytest.raises(InjectivityError):
            check_nos(shared)


def test_check_nos_decides_each_system_once(monkeypatch):
    decided = []
    decide = properties._nos_holds
    monkeypatch.setattr(properties, "_nos_holds", lambda ss: decided.append(ss) or decide(ss))
    for ss in (F.nos_two_trace(), F.nos_false_pair()):
        expected = brute_nos({name: fam.members for name, fam in ss.families})
        assert [check_nos(ss) for _ in range(3)] == [expected] * 3
    assert len(decided) == 2


def test_nos_fixture_verdicts():
    assert check_nos(F.nos_two_trace()) is True
    assert check_nos(F.nos_false_pair()) is False
    assert check_nos(F.sep_echo_strategy()) is True


def test_nos_agrees_with_the_literal_oracle(corpus120):
    for ss in corpus120[:40]:
        families = {name: fam.members for name, fam in ss.families}
        assert brute_injective(families)
        assert check_nos(ss) == brute_nos(families)


def test_strategy_system_json_roundtrip(tmp_path):
    ss = F.nos_two_trace()
    path = tmp_path / "ss.json"
    save_strategy_system(ss, path)
    loaded = load_json(path, strategy_system_from_obj)
    assert dict(loaded.families) == dict(ss.families)


def test_strategy_system_format_errors():
    with pytest.raises(FormatError):
        strategy_system_from_obj({"alphabets": {}})
    with pytest.raises(FormatError):
        strategy_system_from_obj({"alphabets": strategy_system_to_obj(F.nos_two_trace())["alphabets"], "families": {}})
    obj = strategy_system_to_obj(F.nos_two_trace())
    obj["families"]["H"] = "nonsense"
    with pytest.raises(FormatError):
        strategy_system_from_obj(obj)
