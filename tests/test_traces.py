"""Canonical lasso form, views, and trace-set containers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lasso_equal, proj_raw, unroll, words_equal
from siflab import (
    AlphabetError,
    Component,
    DuplicateTraceError,
    FormatError,
    FULL_VIEW,
    H_VIEW,
    HI_VIEW,
    L_VIEW,
    LassoTrace,
    System,
    TraceSpace,
    binary_space,
    canonicalize,
    format_trace,
    prefix_of,
    project,
    view,
)
from siflab.traces import load_system, save_system, system_from_obj, system_to_obj, trace_from_obj, trace_to_obj

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
    assert t.is_finite == (not cycle)


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


@given(RAW_LASSO, st.integers(min_value=0, max_value=12))
def test_prefix_of_matches_unrolling(raw, n):
    t = canonicalize(*raw)
    expected = unroll(t.prefix, t.cycle, n)
    assert prefix_of(t, n) == expected


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


def test_space_validation():
    with pytest.raises(FormatError):
        TraceSpace({"hi": ("0",), "li": ("0",), "ho": ("0",)})
    with pytest.raises(FormatError):
        TraceSpace({"hi": (), "li": ("0",), "ho": ("0",), "lo": ("0",)})
    sp = binary_space()
    inside = canonicalize((), (("0", "1", "0", "1"),))
    outside = canonicalize((), (("0", "2", "0", "1"),))
    assert sp.contains(inside) and not sp.contains(outside)


def test_system_rejects_foreign_traces_and_dedupes():
    sp = binary_space()
    good = canonicalize((), (("0", "0", "0", "0"),))
    with pytest.raises(AlphabetError):
        System(sp, [canonicalize((), (("2", "0", "0", "0"),))])
    s = System(sp, [good, good])
    assert len(s) == 1 and good in s


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
    save_system(s, path)
    assert load_system(path) == s


def test_system_file_rejects_duplicates_after_canonicalization():
    obj = system_to_obj(System(binary_space(), [canonicalize((), (("0", "0", "0", "0"),))]))
    # the same word written two ways: bare cycle and cycle preceded by one unrolled step
    obj["traces"] = [
        {"prefix": [], "cycle": [["0", "0", "0", "0"]]},
        {"prefix": [["0", "0", "0", "0"]], "cycle": [["0", "0", "0", "0"]]},
    ]
    with pytest.raises(DuplicateTraceError):
        system_from_obj(obj)


@given(RAW_LASSO, RAW_LASSO)
@settings(max_examples=40)
def test_oracle_helpers_are_sane(raw1, raw2):
    # the oracle itself must treat canonical and raw forms identically
    t1 = canonicalize(*raw1)
    t2 = canonicalize(*raw2)
    assert lasso_equal(t1, t2) == (t1 == t2)
