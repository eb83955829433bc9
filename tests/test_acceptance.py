"""Acceptance criteria, one test per criterion.

Each test performs the full check with exact (boolean) tolerances,
enforces the stated wall-clock bound where one applies, and records a
single PASS/FAIL line that is echoed at the end of the run.
"""

from __future__ import annotations

import random
import time

import pytest
from conftest import record_criterion

from oracles import brute_psp, enumerate_async_systems
from siflab import (
    ALL_SYSTEMS_TYPES,
    GNI_TYPE,
    RGNI_TYPE,
    SEP_TYPE,
    BitUniverse,
    PropertyKind,
    SifType,
    check_injectivity,
    check_nos,
    check_property,
    closed_under_family,
    closed_under_insertion,
    closed_under_type,
    conj_family,
    nos_as_zl,
    nos_family,
    psp_check,
    refute_all_types,
    swap_type,
    union_system,
    verify_zigzag_collection,
    zl_check,
    zl_q_search,
)
from siflab import fixtures as F
from siflab.corpus import (
    async_corpus,
    conj_cases,
    zl_conj_cases,
)
from siflab.enumeration import implication_violations
from siflab.siftypes import enumerate_types, property_predicate
from siflab.zl import AndQ


def _record(number: int, ok: bool, detail: str, elapsed: float) -> None:
    tag = "PASS" if ok else "FAIL"
    record_criterion(f"criterion {number:2d}: {tag}  ({elapsed:6.2f}s)  {detail}")


def test_criterion_01_examples_reproduce():
    start = time.perf_counter()
    s1 = F.dgni_not_sep_15()
    ex1 = (
        len(s1) == 15
        and check_property(PropertyKind.DGNI, s1)
        and not check_property(PropertyKind.SEP, s1)
    )
    s2 = F.gni_not_dgni_4()
    ex2 = (
        len(s2) == 4
        and check_property(PropertyKind.GNI, s2)
        and not check_property(PropertyKind.DGNI, s2)
    )
    ss = F.nos_two_trace()
    ex3 = check_nos(ss) and not check_property(PropertyKind.SEP, union_system(ss))
    elapsed = time.perf_counter() - start
    ok = ex1 and ex2 and ex3 and elapsed < 1.0
    _record(1, ok, f"examples 1-3 exact (ex1={ex1}, ex2={ex2}, ex3={ex3})", elapsed)
    assert ex1 and ex2 and ex3
    assert elapsed < 1.0


def test_criterion_02_sep_and_gni_exhaustively_type_represented():
    start = time.perf_counter()
    bu = BitUniverse.standard()  # fresh: the timed work includes the sweeps
    sep_diff = (bu.property_ok(PropertyKind.SEP) ^ bu.type_ok(SEP_TYPE)).bit_count()
    gni_diff = (bu.property_ok(PropertyKind.GNI) ^ bu.type_ok(GNI_TYPE)).bit_count()
    n = (1 << bu.n) - 1  # the nonempty systems
    elapsed = time.perf_counter() - start
    ok = sep_diff == 0 and gni_diff == 0 and n == 65535 and elapsed < 60.0
    _record(2, ok, f"SEP and GNI match their copy types on all {n} systems", elapsed)
    assert (sep_diff, gni_diff, n) == (0, 0, 65535)
    assert elapsed < 60.0


def test_criterion_03_implication_chain_and_sep_implies_nos(bit_universe, corpus120):
    start = time.perf_counter()
    bu = bit_universe
    sep = bu.property_ok(PropertyKind.SEP)
    dgni = bu.property_ok(PropertyKind.DGNI)
    gni = bu.property_ok(PropertyKind.GNI)
    v1 = implication_violations(sep, dgni)
    v2 = implication_violations(dgni, gni)
    assert len(corpus120) >= 100
    nos_violations = 0
    sep_unions = 0
    for ss in corpus120:
        assert check_injectivity(ss)
        if check_property(PropertyKind.SEP, union_system(ss)):
            sep_unions += 1
            if not check_nos(ss):
                nos_violations += 1
    elapsed = time.perf_counter() - start
    ok = v1 == 0 and v2 == 0 and nos_violations == 0 and sep_unions > 0
    _record(
        3,
        ok,
        f"SEP=>DGNI=>GNI violations {v1}+{v2}/65535; "
        f"NOS violations {nos_violations} on {sep_unions} separable of {len(corpus120)} unions",
        elapsed,
    )
    assert (v1, v2, nos_violations) == (0, 0, 0)
    assert sep_unions > 0  # the implication is exercised, not vacuous


def test_criterion_04_three_refutation_pools(corpus120):
    # conjunction of two representable properties: no type represents it
    start = time.perf_counter()
    dgni_pool = [
        ("dgni_not_sep_15", F.dgni_not_sep_15()),
        ("li_equals_hi_8", F.li_equals_hi_8()),
        ("ho_equals_li_8", F.ho_equals_li_8()),
        ("lo_equals_hi_8", F.lo_equals_hi_8()),
    ]
    dgni_report = refute_all_types(property_predicate("dgni"), dgni_pool)
    t_dgni = time.perf_counter() - start

    # no type represents the family-membership property
    start = time.perf_counter()
    nos_pool = [
        ("nos_two_trace", F.nos_two_trace()),
        ("nos_false_pair", F.nos_false_pair()),
    ]
    extension = ((f"corpus[{i}]", ss) for i, ss in enumerate(corpus120))
    nos_report = refute_all_types(check_nos, nos_pool, extension)
    witnesses_named = all(e.witness for e in nos_report.entries if e.refuted)
    t_nos = time.perf_counter() - start

    # disjunction with a pinned type: no type represents it either
    start = time.perf_counter()
    pin = SifType(1, 2, 2, 2)
    predicate = lambda s: check_property(PropertyKind.SEP, s) or closed_under_type(s, pin)
    disj_pool = [
        ("lo_equals_li_8", F.lo_equals_li_8()),
        ("ho_equals_li_8", F.ho_equals_li_8()),
        ("li_equals_hi_8", F.li_equals_hi_8()),
        ("lo_equals_hi_8", F.lo_equals_hi_8()),
        ("ho_equals_hi_xor_li_16", F.ho_equals_hi_xor_li_16()),
        ("high_echo_pair_2", F.high_echo_pair_2()),
    ]
    disj_report = refute_all_types(predicate, disj_pool)
    t_disj = time.perf_counter() - start

    ok = (
        dgni_report.all_refuted
        and nos_report.all_refuted
        and witnesses_named
        and disj_report.all_refuted
        and max(t_dgni, t_nos, t_disj) < 10.0
    )
    _record(
        4,
        ok,
        f"all 81 types refuted for the conjunction ({t_dgni:.2f}s), "
        f"membership ({t_nos:.2f}s, witness per type) and disjunction ({t_disj:.2f}s) claims",
        t_dgni + t_nos + t_disj,
    )
    assert dgni_report.all_refuted
    assert nos_report.all_refuted and witnesses_named
    assert disj_report.all_refuted
    assert max(t_dgni, t_nos, t_disj) < 10.0


def test_criterion_05_swap_and_all_systems_lemmas(bit_universe):
    start = time.perf_counter()
    bu = bit_universe
    swap_mismatches = 0
    for t in enumerate_types():
        if bu.type_ok(t) != bu.type_ok(swap_type(t)):
            swap_mismatches += 1
    assert len(list(enumerate_types())) == 81
    not_closing = 0
    assert len(ALL_SYSTEMS_TYPES) == 16
    for t in ALL_SYSTEMS_TYPES:
        if bu.type_ok(t) != (1 << (1 << bu.n)) - 1:
            not_closing += 1
    elapsed = time.perf_counter() - start
    ok = swap_mismatches == 0 and not_closing == 0
    _record(
        5,
        ok,
        f"swap invariance on 81 types and universality of {len(ALL_SYSTEMS_TYPES)} "
        f"one-argument types over 65535 systems",
        elapsed,
    )
    assert swap_mismatches == 0
    assert not_closing == 0


def test_criterion_06_nos_equals_membership_family_closure(corpus120):
    start = time.perf_counter()
    assert len(corpus120) >= 100
    mismatches = 0
    nos_false_seen = 0
    for ss in corpus120:
        verdict = check_nos(ss)
        if not verdict:
            nos_false_seen += 1
        if verdict != closed_under_family(union_system(ss), nos_family(ss)):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and nos_false_seen > 0
    _record(
        6,
        ok,
        f"equivalence exact on {len(corpus120)} strategy systems "
        f"({nos_false_seen} with the property false)",
        elapsed,
    )
    assert mismatches == 0
    assert nos_false_seen > 0


def test_criterion_07_pinning_families(zigzag24):
    start = time.perf_counter()
    collections, _ = zigzag24
    assert len(collections) >= 20
    failures = 0
    for members in collections:
        assert 1 <= len(members) <= 8
        report = verify_zigzag_collection(members)
        if not (report.uniqueness_ok and report.representation_ok):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    _record(
        7,
        ok,
        f"uniqueness and all-subset representation on {len(collections)} collections",
        elapsed,
    )
    assert failures == 0


def test_criterion_08_conjunction_of_families(bit_universe):
    start = time.perf_counter()
    bu = bit_universe
    table_eq = bu.type_ok(GNI_TYPE) & bu.type_ok(RGNI_TYPE) == bu.property_ok(PropertyKind.DGNI)
    # tie the per-type closures to the tables on a random sample
    rng = random.Random(2024)
    sample_mismatches = 0
    dgni = bu.property_ok(PropertyKind.DGNI)
    for _ in range(200):
        mask = rng.randrange(1, 1 << 16)
        s = bu.system_from_mask(mask)
        if (closed_under_type(s, GNI_TYPE) and closed_under_type(s, RGNI_TYPE)) != bool(dgni >> mask & 1):
            sample_mismatches += 1
    ext_mismatches = 0
    n_cases = 0
    for s, f1, f2 in conj_cases(count=1000):
        n_cases += 1
        lhs = closed_under_family(s, conj_family(f1, f2))
        rhs = closed_under_family(s, f1) and closed_under_family(s, f2)
        if lhs != rhs:
            ext_mismatches += 1
    elapsed = time.perf_counter() - start
    ok = table_eq and sample_mismatches == 0 and ext_mismatches == 0 and n_cases >= 1000
    _record(
        8,
        ok,
        f"pair family matches the conjunction on all 65535 systems "
        f"(200 sampled symbolically) and on {n_cases} extensional cases",
        elapsed,
    )
    assert table_eq
    assert sample_mismatches == 0
    assert (ext_mismatches, n_cases) == (0, 1000)


def test_criterion_09_low_view_local_suite(corpus120):
    start = time.perf_counter()
    sync_universe = F.zl_universe_sync()
    none_result = zl_q_search(F.zl_target_disjunction(), sync_universe)
    singleton_q = zl_q_search(F.zl_target_singleton(), sync_universe)
    async_q = zl_q_search(F.zl_target_async(), F.zl_universe_async())
    nos_zl_mismatches = sum(
        1 for ss in corpus120 if nos_as_zl(ss) != check_nos(ss)
    )
    conj_mismatches = 0
    n_cases = 0
    for s, q1, q2 in zl_conj_cases(count=1000):
        n_cases += 1
        if zl_check(s, AndQ(q1, q2)) != (zl_check(s, q1) and zl_check(s, q2)):
            conj_mismatches += 1
    elapsed = time.perf_counter() - start
    ok = (
        none_result is None
        and singleton_q is not None
        and async_q is not None
        and nos_zl_mismatches == 0
        and conj_mismatches == 0
        and n_cases >= 1000
    )
    _record(
        9,
        ok,
        f"disjunction target NONE, singleton targets found, membership-as-local agreement "
        f"on {len(corpus120)} systems, conjunction identity on {n_cases} cases",
        elapsed,
    )
    assert none_result is None
    assert singleton_q is not None and async_q is not None
    assert nos_zl_mismatches == 0
    assert (conj_mismatches, n_cases) == (0, 1000)


def test_criterion_10_insertion_property_equals_closure():
    start = time.perf_counter()
    enum_mismatches = 0
    n_enum = 0
    for s in enumerate_async_systems(max_events=3, max_len=3, cap=12000):
        n_enum += 1
        if psp_check(s) != closed_under_insertion(s):
            enum_mismatches += 1
    rand_mismatches = 0
    n_rand = 0
    for s in async_corpus(count=500):
        n_rand += 1
        levels = {name: s.decl.level(name) for name in s.decl.names}
        oracle = brute_psp(s.members, levels)
        if not (psp_check(s) == closed_under_insertion(s) == oracle):
            rand_mismatches += 1
    elapsed = time.perf_counter() - start
    ok = (
        enum_mismatches == 0
        and rand_mismatches == 0
        and n_rand >= 500
        and n_enum > 1000
        and elapsed < 120.0
    )
    _record(
        10,
        ok,
        f"decomposition equals closure on {n_enum} enumerated and {n_rand} randomized "
        f"systems (oracle cross-checked)",
        elapsed,
    )
    assert (enum_mismatches, rand_mismatches) == (0, 0)
    assert n_enum > 1000 and n_rand >= 500
    assert elapsed < 120.0
