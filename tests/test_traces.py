"""Canonical lasso form, views, and trace-set containers."""

from __future__ import annotations

import copy
import gc
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lasso_equal, proj_raw, unroll, words_equal
from test_siftypes import _multi_period_system
from siflab import (
    AlphabetError,
    AsyncSystem,
    Component,
    DuplicateTraceError,
    EventDecl,
    FormatError,
    FULL_VIEW,
    GenerationMode,
    H_VIEW,
    HI_VIEW,
    L_VIEW,
    LO_VIEW,
    LassoTrace,
    System,
    TraceSpace,
    binary_space,
    build_strategy_system,
    canonicalize,
    format_trace,
    project,
    standard_universe,
    view,
)
from siflab import fixtures as F
from siflab import traces
from siflab.cli import main
from siflab.strategies import protocols_from_obj
from siflab.traces import (
    COMPONENT_ORDER,
    load_json,
    system_from_obj,
    system_from_objs,
    system_to_obj,
    trace_from_obj,
    trace_to_obj,
)

SRC = Path(__file__).resolve().parents[1] / "src"

BIT = st.sampled_from(("0", "1"))
TUPLE4 = st.tuples(BIT, BIT, BIT, BIT)
RAW_LASSO = st.tuples(
    st.lists(TUPLE4, max_size=3),
    st.lists(TUPLE4, max_size=3),
)
RAW_INFINITE = st.tuples(
    st.lists(TUPLE4, max_size=3),
    st.lists(TUPLE4, min_size=1, max_size=3),
)


def test_constructor_rejects_non_canonical_input():
    with pytest.raises(ValueError):
        LassoTrace((), (("0", "0", "0", "0"), ("0", "0", "0", "0")))
    with pytest.raises(ValueError):
        LassoTrace((("0", "0", "0", "0"),), (("0", "0", "0", "0"),))
    with pytest.raises(ValueError):
        LassoTrace((("0", "0", "0", "0"),), (("0", "0"),))


@given(RAW_LASSO)
def test_canonicalize_preserves_the_denoted_word(raw):
    prefix, cycle = raw
    t = canonicalize(prefix, cycle)
    n = len(prefix) + 3 * max(1, len(cycle)) + 3
    assert unroll(t.prefix, t.cycle, n) == unroll(prefix, cycle, n)
    assert (not t.cycle) == (not cycle)


@given(RAW_LASSO)
def test_canonicalize_is_idempotent(raw):
    t = canonicalize(*raw)
    assert canonicalize(t.prefix, t.cycle) == t


@given(RAW_INFINITE, st.integers(min_value=0, max_value=5))
def test_cycle_rotation_absorbs_into_the_same_canonical_form(raw, k):
    prefix, cycle = raw
    k %= len(cycle)
    rotated = canonicalize(list(prefix) + list(cycle[:k]), list(cycle[k:]) + list(cycle[:k]))
    assert rotated == canonicalize(prefix, cycle)


@given(RAW_INFINITE, st.integers(min_value=1, max_value=3))
def test_cycle_powers_collapse(raw, power):
    prefix, cycle = raw
    assert canonicalize(prefix, tuple(cycle) * power) == canonicalize(prefix, cycle)


@given(RAW_LASSO, RAW_LASSO)
def test_structural_equality_matches_word_equality(raw1, raw2):
    t1 = canonicalize(*raw1)
    t2 = canonicalize(*raw2)
    assert (t1 == t2) == words_equal(raw1[0], raw1[1], raw2[0], raw2[1])


@given(RAW_LASSO)
def test_views_are_pointwise_projections(raw):
    t = canonicalize(*raw)
    masks = {
        L_VIEW: (1, 3),
        H_VIEW: (0, 2),
        HI_VIEW: (0,),
        Component.LO: (3,),
    }
    n = len(t.prefix) + 3 * max(1, len(t.cycle)) + 3
    for mask, idxs in masks.items():
        v = view(t, mask)
        p, c = proj_raw(t.prefix, t.cycle, idxs)
        assert unroll(v.prefix, v.cycle, n) == unroll(p, c, n)
        assert project(t, mask) == v


def test_full_view_is_identity_and_empty_mask_rejected():
    t = canonicalize((), (("0", "1", "0", "1"),))
    assert project(t, FULL_VIEW) is t
    with pytest.raises(ValueError):
        project(t, Component(0))


def test_view_can_shrink_the_period():
    t = canonicalize((), (("0", "0", "0", "0"), ("1", "0", "1", "0")))
    lv = view(t, L_VIEW)
    assert lv.prefix == () and lv.cycle == (("0", "0"),)


def test_format_trace_examples():
    t = canonicalize((("0", "1", "1", "1"),), (("1", "1", "1", "1"),))
    assert format_trace(t) == "(0,1,1,1)[(1,1,1,1)]^w"
    assert format_trace(canonicalize((), ())) == "()"


@given(RAW_LASSO)
def test_trace_json_roundtrip(raw):
    t = canonicalize(*raw)
    assert trace_from_obj(trace_to_obj(t)) == t


def test_trace_from_obj_rejects_bad_shapes():
    with pytest.raises(FormatError):
        trace_from_obj(["not", "a", "dict"])
    with pytest.raises(FormatError):
        trace_from_obj({"prefix": [], "cycle": [], "extra": 1})
    with pytest.raises(FormatError):
        trace_from_obj({"cycle": [["0", "0", "0"]]})
    with pytest.raises(FormatError):
        trace_from_obj({"cycle": [[True, "0", "0", "0"]]})


def test_trace_from_obj_coerces_integer_symbols():
    t = trace_from_obj({"cycle": [[0, 1, 0, 1]]})
    assert t.cycle == (("0", "1", "0", "1"),)


class _Loud(int):
    """An int whose decimal text is not its value's."""

    def __str__(self) -> str:
        return "loud"


def _one_letter_system(letter) -> dict:
    return {"alphabets": {k: ["0", "1"] for k in ("hi", "li", "ho", "lo")}, "traces": [{"cycle": [letter]}]}


def test_the_letter_memo_rejects_what_the_parser_rejects(tmp_path, capsys):
    """Letters equal to a memoized one but of another type (``True == 1``,
    ``1.0 == 1``) reach the symbol check, in the library and the CLI; an
    int subclass is coerced by its own ``str`` as before."""
    system_from_obj(_one_letter_system([1, 0, 0, 0]))
    (cached,) = traces._word_from_obj([[1, 0, 0, 0]])
    for bad in ([True, 0, 0, 0], [1.0, 0, 0, 0], [None, 0, 0, 0], [[1], 0, 0, 0], [1, 0, 0, False]):
        with pytest.raises(FormatError, match="symbols must be strings or integers"):
            system_from_obj(_one_letter_system(bad))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_one_letter_system(bad)))
        assert main(["check", "--property", "sep", "--system", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "symbols must be strings or integers" in err
    assert traces._word_from_obj([[_Loud(True), 0, 0, 0]]) == (("loud", "0", "0", "0"),)
    again, spelled = traces._word_from_obj([[1, 0, 0, 0], ["1", "0", "0", "0"]])
    assert again is cached is spelled


def test_the_letter_memo_stays_within_its_bound():
    first = trace_from_obj({"prefix": [[1, 1, 0, 0]], "cycle": [[1, 0, 0, 0]]})
    for i in range(traces._CACHE_BOUND + 10):
        assert traces._word_from_obj([[10**30 + i, 0, 0, 0]])[0][0] == str(10**30 + i)
    assert len(traces._LETTERS) <= traces._CACHE_BOUND
    assert trace_from_obj({"prefix": [[1, 1, 0, 0]], "cycle": [[1, 0, 0, 0]]}) is first


def test_space_validation():
    with pytest.raises(FormatError):
        TraceSpace({"hi": ("0",), "li": ("0",), "ho": ("0",)})
    with pytest.raises(FormatError):
        TraceSpace({"hi": (), "li": ("0",), "ho": ("0",), "lo": ("0",)})
    sp = binary_space()
    inside = canonicalize((), (("0", "1", "0", "1"),))
    outside = canonicalize((), (("0", "2", "0", "1"),))
    assert sp.contains(inside) and not sp.contains(outside)


def test_a_space_holds_the_empty_trace_and_no_other_arity():
    sp = binary_space()
    assert sp.contains(canonicalize((), ()))
    assert not sp.contains(canonicalize((("0", "1", "0"),), ()))
    assert not sp.contains(canonicalize((), (("0", "1", "0", "1", "0"),)))


def test_a_foreign_trace_error_names_the_least_rendering():
    foreign = [canonicalize((), ((str(i), "0", "0", "0"),)) for i in range(2, 10)]
    for order in (foreign, foreign[::-1]):
        with pytest.raises(AlphabetError) as err:
            System(binary_space(), order)
        assert str(err.value) == "trace [(2,0,0,0)]^w does not conform to the system's space"


def test_system_rejects_foreign_traces_and_dedupes():
    sp = binary_space()
    good = canonicalize((), (("0", "0", "0", "0"),))
    with pytest.raises(AlphabetError):
        System(sp, [canonicalize((), (("2", "0", "0", "0"),))])
    s = System(sp, [good, good])
    assert len(s) == 1 and good in s


def test_members_follow_the_canonical_order_for_mixed_lengths():
    """Members come out by prefix length, cycle length, prefix, then
    cycle, in whatever order the traces are given; a trace outside the
    space among them is still refused."""
    rng = random.Random(5)
    letters = [tuple(str(i >> j & 1) for j in range(4)) for i in range(16)]

    def word():
        return [rng.choice(letters) for _ in range(rng.randint(0, 3))]

    given = list({canonicalize(word(), word()) for _ in range(80)})
    assert len({(len(t.prefix), len(t.cycle)) for t in given}) >= 12
    expected = tuple(sorted(given, key=lambda t: (len(t.prefix), len(t.cycle), t.prefix, t.cycle)))
    for _ in range(3):
        rng.shuffle(given)
        assert System(binary_space(), given).members == expected
    foreign = canonicalize([], [("0", "2", "0", "0")])
    with pytest.raises(AlphabetError, match=r"^trace \[\(0,2,0,0\)\]\^w does not conform"):
        System(binary_space(), given + [foreign])


PACKING_WIDTHS = [1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 256, 257]


def _packing_width_systems(n: int) -> list[System]:
    """Systems of ``n`` finite binary words whose LI column has ``n``
    distinct views (ids 0 .. n-1), with the other columns distinct,
    constant or paired, so the masked counts are n, about n/2 or 1."""
    length = max(1, (n - 1).bit_length())
    words = [format(i, f"0{length}b") for i in range(n)]
    zeros = ["0" * length] * n
    pairs = [words[i // 2] for i in range(n)]
    return [
        System(binary_space(), [canonicalize(list(zip(*(col[i] for col in columns))), ()) for i in range(n)])
        for columns in ((words, words, words, words), (zeros, words, words, words), (words, words, pairs, zeros))
    ]


@pytest.mark.parametrize("n", PACKING_WIDTHS)
def test_view_counts_count_each_mask_at_every_packing_width(n):
    """The systems of :func:`_packing_width_systems`."""
    for s in _packing_width_systems(n):
        assert len(s) == n and {row[1] for row in s.view_ids} == set(range(n))
        direct = tuple(len({tuple(row[i] for i in range(4) if mask >> i & 1) for row in s.view_ids}) for mask in range(16))
        assert s.view_counts == direct


def test_the_counts_taken_without_a_set_are_direct_set_counts():
    """The five entries ``view_counts`` reads off ``view_ids``, each
    one-component count and ``view_counts[15] == len(s)``, equal set
    counts of the members' projections: over the column-word cache test's
    draws, the packing-width systems and finite traces of several lengths.
    The full-mask entry rests on distinct members having distinct
    four-component views, which is checked too."""
    rng = random.Random(9)
    systems = [_multi_period_system(rng) for _ in range(100)]
    systems += [s for n in PACKING_WIDTHS for s in _packing_width_systems(n)]
    z, lo, hi = ("0", "0", "0", "0"), ("0", "0", "0", "1"), ("1", "0", "0", "0")
    finite = [canonicalize(w, ()) for w in ([], [z], [z, z], [z, lo], [lo, z], [hi, z, z])]
    systems += [System(binary_space(), finite), System(binary_space(), finite + [canonicalize([], [z]), canonicalize([lo], [z])])]
    for s in systems:
        counts = s.view_counts
        for i, comp in enumerate(COMPONENT_ORDER):
            assert counts[1 << i] == len({project(t, comp) for t in s.members}), (s.members, comp)
        assert counts[FULL_VIEW] == len({tuple(project(t, comp) for comp in COMPONENT_ORDER) for t in s.members}) == len(s)
    counts = System(binary_space(), finite).view_counts
    # HI words "", "0", "00", "100"; LO words "", "0", "00", "01", "10", "000"
    assert (counts[HI_VIEW], counts[LO_VIEW], counts[FULL_VIEW]) == (4, 6, 6)


def _alphabets(*symbols) -> dict:
    return {k: list(symbols) for k in ("hi", "li", "ho", "lo")}


def test_equal_alphabets_share_one_space():
    """Two systems read with alphabets of one spelling, after symbols are
    coerced, share one space; another alphabet, or another order of the
    same symbols, gets its own, and a symbol the parser refuses is
    refused after an equal one was read."""
    one = system_from_obj({"alphabets": _alphabets("0", "1"), "traces": []})
    two = system_from_obj({"alphabets": _alphabets(0, 1), "traces": [{"cycle": [[1, 0, 0, 1]]}]})
    assert two.space is one.space and one.space == binary_space()
    with pytest.raises(TypeError):
        one.space.alphabets["hi"] = ("7",)
    three = system_from_obj({"alphabets": _alphabets("0", "1", "2"), "traces": []})
    assert three.space is not one.space and three.space.alphabets["hi"] == ("0", "1", "2")
    assert system_from_obj({"alphabets": _alphabets("1", "0"), "traces": []}).space.alphabets["lo"] == ("1", "0")
    assert system_from_obj({"alphabets": _alphabets(1, 0), "traces": []}).space.alphabets["hi"] == ("1", "0")
    for bad in (True, 1.0, None):
        with pytest.raises(FormatError, match="symbols must be strings or integers"):
            system_from_obj({"alphabets": _alphabets(bad, 0), "traces": []})
    with pytest.raises(FormatError, match="alphabets must have keys"):
        traces.space_from_obj({"hi": [0], "li": [0], "ho": [0]})


def test_the_space_memo_stays_within_its_bound():
    first = traces.space_from_obj(_alphabets(1, 0))
    for i in range(traces._CACHE_BOUND + 4):
        assert traces.space_from_obj({"hi": [i], "li": [0], "ho": [0], "lo": [0]}).alphabets["hi"] == (str(i),)
    assert len(traces._SPACES) <= traces._CACHE_BOUND
    assert traces.space_from_obj(_alphabets(1, 0)) == first


def test_view_counts_of_the_empty_and_a_one_trace_system():
    assert System(binary_space(), []).view_counts == (0,) * 16
    assert System(binary_space(), [canonicalize([("0", "1", "1", "0")], [("1", "1", "0", "0")])]).view_counts == (1,) * 16


def test_system_json_roundtrip(tmp_path):
    sp = binary_space()
    s = System(
        sp,
        [
            canonicalize((), (("0", "0", "0", "0"),)),
            canonicalize((("1", "0", "1", "0"),), (("0", "1", "0", "1"),)),
        ],
    )
    path = tmp_path / "s.json"
    path.write_text(json.dumps(system_to_obj(s)))
    assert load_json(path, system_from_obj) == s


def test_system_file_rejects_duplicates_after_canonicalization():
    obj = system_to_obj(System(binary_space(), [canonicalize((), (("0", "0", "0", "0"),))]))
    # the same word written two ways: bare cycle and cycle preceded by one unrolled step
    obj["traces"] = [
        {"prefix": [], "cycle": [["0", "0", "0", "0"]]},
        {"prefix": [["0", "0", "0", "0"]], "cycle": [["0", "0", "0", "0"]]},
    ]
    with pytest.raises(DuplicateTraceError):
        system_from_obj(obj)


def test_system_from_objs_names_the_duplicate():
    sp = binary_space()
    objs = [{"cycle": [[str(i >> b & 1) for b in range(4)]]} for i in (9, 2, 14, 0)]
    assert system_from_objs(objs, sp).traces == {trace_from_obj(o) for o in objs}
    with pytest.raises(DuplicateTraceError) as err:
        system_from_objs(objs + [{"prefix": objs[2]["cycle"], "cycle": objs[2]["cycle"]}], sp, where="pool")
    assert str(err.value) == "duplicate trace [(0,1,1,1)]^w in pool after canonicalization"


def test_a_space_checks_symbols_the_same_after_pickling():
    sp = TraceSpace({"hi": ("0", "1"), "li": ("a",), "ho": ("0",), "lo": ("x", "y")})
    loaded = pickle.loads(pickle.dumps(sp))
    assert loaded == sp and hash(loaded) == hash(sp)
    inside = canonicalize((("1", "a", "0", "y"),), (("0", "a", "0", "x"),))
    outside = canonicalize((), (("0", "b", "0", "x"),))
    for space in (sp, loaded):
        assert space.contains(inside) and not space.contains(outside)


@given(RAW_LASSO, RAW_LASSO)
@settings(max_examples=40)
def test_oracle_helpers_are_sane(raw1, raw2):
    # the oracle itself must treat canonical and raw forms identically
    t1 = canonicalize(*raw1)
    t2 = canonicalize(*raw2)
    assert lasso_equal(t1, t2) == (t1 == t2)


# ------------------------------------------------------------------- hashing


@given(RAW_LASSO)
@settings(max_examples=60)
def test_equal_lassos_are_one_object(raw):
    t = canonicalize(*raw)
    assert canonicalize(*raw) is canonicalize(*raw)
    assert canonicalize(t.prefix, t.cycle) is t


def test_equality_is_structural_and_only_between_traces():
    raw = ([("0", "1", "0", "1")], [("1", "1", "0", "0"), ("0", "0", "1", "1")])
    t, u = canonicalize(*raw), canonicalize(*raw)
    assert t is u
    assert t == u and not t != u
    assert t != (t.prefix, t.cycle) and not t == (t.prefix, t.cycle)
    assert t != None  # noqa: E711 -- the operator itself is under test
    other_cycle = canonicalize(t.prefix, [("1", "1", "0", "0")])
    assert other_cycle.prefix == t.prefix and other_cycle.cycle != t.cycle
    assert t != other_cycle and not t == other_cycle


def test_unpickled_trace_hashes_under_the_loading_hash_seed():
    """A pickled trace, system or event system, loaded where strings hash
    differently, is equal to a freshly built copy and finds it as a dict
    key."""
    t = canonicalize([("0", "1", "0", "1")], [("1", "1", "0", "0"), ("0", "0", "1", "1")])
    s = System(binary_space(), [t, canonicalize([], [("0", "0", "0", "0")])])
    a = AsyncSystem(EventDecl((("l", "L"), ("h", "H"))), [("l",), ("h", "l"), ()])
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    script = (
        "import pickle, sys\n"
        "from siflab.traces import System, canonicalize\n"
        "from siflab.zl import AsyncSystem\n"
        "t, s, a = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = canonicalize(t.prefix, t.cycle)\n"
        "assert t == fresh and hash(t) == hash(fresh) and t is fresh\n"
        "assert {fresh: 'found'}[t] == 'found' and t in {fresh}\n"
        "for loaded, fresh in ((s, System(s.space, s.members)), (a, AsyncSystem(a.decl, a.members))):\n"
        "    assert loaded == fresh and hash(loaded) == hash(fresh)\n"
        "    assert {fresh: 'found'}.get(loaded) == 'found'\n"
        "print(hash('siflab'))\n"
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", script], input=pickle.dumps((t, s, a)), capture_output=True, env=env, check=False
    )
    assert done.returncode == 0, done.stderr.decode()
    assert int(done.stdout) != hash("siflab")  # the two processes hash differently


def test_an_unpickled_space_hashes_under_the_loading_hash_seed():
    """A pickled trace space, loaded where strings hash differently,
    hashes as a fresh copy does, though a space keeps the hash it took
    at construction."""
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    script = (
        "import pickle, sys\n"
        "from siflab.traces import binary_space\n"
        "space = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = binary_space()\n"
        "assert space == fresh and hash(space) == hash(fresh) and {fresh: 1}.get(space) == 1\n"
        "print(hash('siflab'))\n"
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
    payload = pickle.dumps(binary_space())
    done = subprocess.run([sys.executable, "-c", script], input=payload, capture_output=True, env=env, check=False)
    assert done.returncode == 0, done.stderr.decode()
    assert int(done.stdout) != hash("siflab")  # the two processes hash differently


# ------------------------------------------------------------------ interning


def test_every_construction_path_gives_the_one_object():
    """Each way a trace is built returns the trace already live for its
    lasso: the constructor looks every canonical form up before it makes
    an object."""
    c = ("1", "1", "0", "0")
    t = canonicalize([("0", "1", "0", "1")], [c, ("0", "0", "1", "1")])
    # non-canonical spellings: one unrolled step, a rotation, a power of the cycle
    assert canonicalize([], [c]) is canonicalize([c], [c]) is canonicalize([c, c], [c, c, c])
    assert canonicalize(list(t.prefix) + [c], [("0", "0", "1", "1"), c]) is t
    assert canonicalize(t.prefix, t.cycle * 2) is t
    assert trace_from_obj(trace_to_obj(t)) is t
    assert trace_from_obj({"prefix": [[0, 1, 0, 1], [1, 1, 0, 0]], "cycle": [[0, 0, 1, 1], [1, 1, 0, 0]]}) is t
    # two different traces with one low view share the view object
    u1 = canonicalize([], [("0", "0", "0", "0")])
    u2 = canonicalize([("1", "0", "1", "0")], [("0", "0", "1", "0")])
    assert u1 is not u2
    assert project(u1, L_VIEW) is project(u2, L_VIEW) is canonicalize([], [("0", "0")])
    assert view(u1, L_VIEW) is view(u2, L_VIEW) is project(u1, L_VIEW)
    # a generated run, against the same run spelled out by hand
    ss = build_strategy_system(*protocols_from_obj(F.echo_protocols()), GenerationMode.exact())
    members = [m for _, fam in ss.families for m in fam]
    assert members and all(canonicalize(m.prefix + m.cycle, m.cycle * 2) is m for m in members)
    first, second = standard_universe()[1], standard_universe()[1]
    assert len(first) == 16 and all(a is b for a, b in zip(first, second))
    assert pickle.loads(pickle.dumps(t)) is t
    assert copy.deepcopy(t) is t and copy.copy(t) is t
    assert repr(t) == f"LassoTrace(prefix={t.prefix!r}, cycle={t.cycle!r})"


def test_a_shared_trace_cannot_change():
    t = canonicalize([], [("0", "1", "0", "1")])
    with pytest.raises(AttributeError):
        t.prefix = (("1", "1", "1", "1"),)
    with pytest.raises(AttributeError):
        t.extra = 1
    with pytest.raises(AttributeError):
        del t.cycle
    assert t.prefix == () and t.cycle == (("0", "1", "0", "1"),)


def _fresh_lasso(tag: str) -> tuple[tuple, tuple]:
    """A canonical (prefix, cycle) whose symbols no other test builds."""
    return (), ((tag, "0", "0", "0"),)


def test_the_table_holds_its_traces_weakly():
    key = _fresh_lasso("weakly-held")
    t = canonicalize(*key)
    assert traces._TABLE[key]() is t
    del t
    gc.collect()
    assert key not in traces._TABLE
    rebuilt = canonicalize(*key)
    again = canonicalize(*key)
    assert rebuilt is again and rebuilt == again and {again: "found"}[rebuilt] == "found"
    assert traces._TABLE[key]() is rebuilt


def test_a_stale_callback_leaves_a_newer_trace_in_the_table():
    """An entry whose trace died before its callback ran is replaced by
    the next construction; the late callback then must not evict the
    newer trace."""

    class Dead:
        pass

    key = _fresh_lasso("stale-callback")
    gone = Dead()
    stale = traces._TableRef(gone)
    stale.key = key
    del gone
    assert stale() is None
    traces._TABLE[key] = stale
    t = canonicalize(*key)
    assert traces._TABLE[key]() is t
    traces._evict(stale)
    assert traces._TABLE[key]() is t and canonicalize(*key) is t
    del t
    gc.collect()
    assert key not in traces._TABLE


def test_view_keeps_a_bounded_number_of_traces_alive():
    """Traces that fall out of ``view``'s cache are freed, and leave the table."""
    made = [canonicalize(*_fresh_lasso(f"view-bound-{i}")) for i in range(traces._CACHE_BOUND + 100)]
    assert all(view(t, L_VIEW).cycle == (("0", "0"),) for t in made)
    during = len(traces._TABLE)
    del made
    gc.collect()
    assert view.cache_info().currsize <= traces._CACHE_BOUND
    assert len(traces._TABLE) <= during - 100
