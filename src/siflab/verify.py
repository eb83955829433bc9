"""The bundled result catalogue and its reproduction suite.

Each identifier names one claim about trace-set security properties;
``verify_paper`` re-derives every requested claim from the public
operations (exhaustive sweeps, refutation searches, seeded corpora) and
reports PASS or FAIL with the evidence used.  The suite is a client of
the library: nothing here reaches into internals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import corpus as corpora
from . import fixtures
from .enumeration import BitUniverse, implication_violations
from .errors import UnknownResultError
from .families import (
    closed_under_family,
    conj_family,
    family_union,
    nos_family,
    verify_zigzag_collection,
    zigzag_sif,
)
from .properties import (
    PropertyKind,
    check_nos,
    check_property,
    union_system,
)
from .siftypes import (
    ALL_SYSTEMS_TYPES,
    GNI_TYPE,
    RGNI_TYPE,
    SEP_TYPE,
    SifType,
    closed_under_type,
    enumerate_types,
    refute_all_types,
    swap_type,
)
from .strategies import GenerationMode, build_strategy_system, family_h_view_determined, protocols_from_obj
from .zl import closed_under_insertion, nos_as_zl, psp_check, q_and, zl_check, zl_q_search

# Result id -> (description, procedure), in catalogue order: the order in
# which the procedures below are defined.
_REGISTRY: dict[str, tuple[str, Callable]] = {}


def _result(result_id: str, description: str):
    """Register the decorated procedure as the reproduction of ``result_id``."""

    def register(procedure):
        _REGISTRY[result_id] = (description, procedure)
        return procedure

    return register


class VerifyContext:
    """Shared, lazily built inputs for the reproduction procedures.

    The defaults keep a full run at desk scale; the corpora are seeded,
    so two runs with the same context see identical inputs.
    """

    def __init__(
        self,
        corpus_count: int = 120,
        zigzag_count: int = 24,
        case_count: int = 1000,
        psp_cap: int = 12000,
        async_count: int = 500,
        seed: int = corpora.DEFAULT_SEED,
    ):
        self.corpus_count = corpus_count
        self.zigzag_count = zigzag_count
        self.case_count = case_count
        self.psp_cap = psp_cap
        self.async_count = async_count
        self.seed = seed

    @cached_property
    def universe(self) -> BitUniverse:
        return BitUniverse.standard()

    @cached_property
    def corpus(self):
        return corpora.strategy_corpus(self.corpus_count, self.seed)

    @cached_property
    def zigzag(self):
        return corpora.zigzag_corpus(self.zigzag_count, self.seed)


@dataclass(frozen=True)
class ResultOutcome:
    result_id: str
    passed: bool
    detail: str
    runtime: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  {self.result_id:<13} {self.runtime:7.2f}s  {self.detail}"


@dataclass(frozen=True)
class VerificationReport:
    outcomes: tuple[ResultOutcome, ...]

    @property
    def all_passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def outcome(self, result_id: str) -> ResultOutcome:
        for o in self.outcomes:
            if o.result_id == result_id:
                return o
        raise KeyError(result_id)

    def lines(self) -> list[str]:
        out = [o.line() for o in self.outcomes]
        n_fail = sum(not o.passed for o in self.outcomes)
        out.append(
            f"{len(self.outcomes)} results: "
            + ("all PASS" if n_fail == 0 else f"{n_fail} FAIL")
        )
        return out

    def to_obj(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "results": [
                {
                    "id": o.result_id,
                    "passed": o.passed,
                    "detail": o.detail,
                    "runtime_seconds": round(o.runtime, 4),
                    "description": _REGISTRY[o.result_id][0],
                }
                for o in self.outcomes
            ],
        }


@_result("EX1", "15-trace system: both noninference directions hold, separability fails")
def _ex1(ctx) -> tuple[bool, str]:
    s = fixtures.dgni_not_sep_15()
    dgni = check_property(PropertyKind.DGNI, s)
    sep = check_property(PropertyKind.SEP, s)
    ok = len(s) == 15 and dgni and not sep
    return ok, f"|S|={len(s)}, DGNI={dgni}, SEP={sep}"


@_result("EX2", "4-trace system: forward noninference holds, the conjunction fails")
def _ex2(ctx) -> tuple[bool, str]:
    s = fixtures.gni_not_dgni_4()
    gni = check_property(PropertyKind.GNI, s)
    dgni = check_property(PropertyKind.DGNI, s)
    ok = len(s) == 4 and gni and not dgni
    return ok, f"|S|={len(s)}, GNI={gni}, DGNI={dgni}"


@_result("EX3", "protocol composition generates the expected two-trace family")
def _ex3(ctx) -> tuple[bool, str]:
    ps, pl, hs = protocols_from_obj(fixtures.echo_protocols())
    ss = build_strategy_system(ps, pl, hs, GenerationMode.exact())
    expected = fixtures.nos_two_trace()
    same = dict(ss.families) == dict(expected.families)
    nos = check_nos(ss)
    sep = check_property(PropertyKind.SEP, union_system(ss))
    ok = same and nos and not sep
    return ok, f"generated family matches fixture={same}, NOS={nos}, SEP={sep}"


@_result("PROP1", "SEP implies DGNI implies GNI; separable unions satisfy NOS")
def _prop1(ctx) -> tuple[bool, str]:
    bu = ctx.universe
    v1 = implication_violations(bu.property_ok(PropertyKind.SEP), bu.property_ok(PropertyKind.DGNI))
    v2 = implication_violations(bu.property_ok(PropertyKind.DGNI), bu.property_ok(PropertyKind.GNI))
    n = int(bu.property_ok(PropertyKind.SEP).size)
    sep_cases = 0
    nos_bad = 0
    step_bad = 0
    for ss in ctx.corpus:
        if check_property(PropertyKind.SEP, union_system(ss)):
            sep_cases += 1
            if not check_nos(ss):
                nos_bad += 1
        if not family_h_view_determined(ss):
            step_bad += 1
    ok = v1 == 0 and v2 == 0 and nos_bad == 0 and step_bad == 0 and len(ctx.corpus) >= 100
    return ok, (
        f"0 violations of SEP=>DGNI=>GNI over {n} systems; "
        f"{sep_cases}/{len(ctx.corpus)} separable unions all satisfy NOS; "
        f"high-view membership step holds on every generated system"
    )


@_result("PROP2", "SEP and GNI coincide with closure under their copy types")
def _prop2(ctx) -> tuple[bool, str]:
    bu = ctx.universe
    n = int(bu.property_ok(PropertyKind.SEP).size)
    sep_eq = bool(np.array_equal(bu.property_ok(PropertyKind.SEP), bu.type_ok(SEP_TYPE)))
    gni_eq = bool(np.array_equal(bu.property_ok(PropertyKind.GNI), bu.type_ok(GNI_TYPE)))
    rgni_eq = bool(np.array_equal(bu.property_ok(PropertyKind.RGNI), bu.type_ok(RGNI_TYPE)))
    ok = sep_eq and gni_eq and rgni_eq
    return ok, (
        f"over {n} systems: SEP<=>{SEP_TYPE}: {sep_eq}, GNI<=>{GNI_TYPE}: {gni_eq}, "
        f"RGNI<=>{RGNI_TYPE} (chosen by symmetry): {rgni_eq}"
    )


def _witness_summary(report) -> str:
    used = sorted({e.witness for e in report.entries if e.witness})
    return ", ".join(used)


@_result("THM1", "no copy type represents NOS over strategy systems")
def _thm1(ctx) -> tuple[bool, str]:
    pool = {
        "nos_two_trace": fixtures.nos_two_trace(),
        "nos_false_pair": fixtures.nos_false_pair(),
    }
    extension = ((f"corpus[{i}]", ss) for i, ss in enumerate(ctx.corpus))
    report = refute_all_types(check_nos, pool, extension)
    ok = report.all_refuted
    return ok, f"all 81 types refuted for NOS; witnesses: {_witness_summary(report)}"


@_result("THM2", "no copy type represents DGNI")
def _thm2(ctx) -> tuple[bool, str]:
    report = _thm2_report()
    ok = report.all_refuted
    return ok, f"all 81 types refuted for DGNI; witnesses: {_witness_summary(report)}"


def _thm2_report():
    pool = {
        "dgni_not_sep_15": fixtures.dgni_not_sep_15(),
        "li_equals_hi_8": fixtures.li_equals_hi_8(),
        "ho_equals_li_8": fixtures.ho_equals_li_8(),
        "lo_equals_hi_8": fixtures.lo_equals_hi_8(),
    }
    predicate = lambda s: check_property(PropertyKind.DGNI, s)
    return refute_all_types(predicate, pool)


@_result("COR-CONJ", "type-representable properties are not closed under conjunction")
def _cor_conj(ctx) -> tuple[bool, str]:
    bu = ctx.universe
    gni_rep = bool(np.array_equal(bu.property_ok(PropertyKind.GNI), bu.type_ok(GNI_TYPE)))
    rgni_rep = bool(np.array_equal(bu.property_ok(PropertyKind.RGNI), bu.type_ok(RGNI_TYPE)))
    dgni_unrep = _thm2_report().all_refuted
    ok = gni_rep and rgni_rep and dgni_unrep
    return ok, (
        f"GNI and RGNI are each type-represented ({gni_rep}, {rgni_rep}) "
        f"but their conjunction DGNI is refuted for all 81 types ({dgni_unrep})"
    )


@_result("THM3", "type-representable properties are not closed under disjunction")
def _thm3(ctx) -> tuple[bool, str]:
    pin = SifType(1, 2, 2, 2)
    predicate = lambda s: check_property(PropertyKind.SEP, s) or closed_under_type(s, pin)
    base_pool = {
        "lo_equals_li_8": fixtures.lo_equals_li_8(),
        "ho_equals_li_8": fixtures.ho_equals_li_8(),
        "li_equals_hi_8": fixtures.li_equals_hi_8(),
        "lo_equals_hi_8": fixtures.lo_equals_hi_8(),
        "ho_equals_hi_xor_li_16": fixtures.ho_equals_hi_xor_li_16(),
    }
    base = refute_all_types(predicate, base_pool)
    full = refute_all_types(
        predicate, {**base_pool, "high_echo_pair_2": fixtures.high_echo_pair_2()}
    )
    ok = full.all_refuted
    gap = len(base.unrefuted)
    return ok, (
        f"disjunction of SEP with closure under {pin}: all 81 types refuted; "
        f"the five-system pool alone leaves {gap} (the pinned type and its swap), "
        f"settled by the separable echo pair"
    )


@_result("THM4", "NOS coincides with closure under the membership family")
def _thm4(ctx) -> tuple[bool, str]:
    mismatches = 0
    nos_false = 0
    for ss in ctx.corpus:
        u = union_system(ss)
        nos = check_nos(ss)
        closed = closed_under_family(u, nos_family(ss))
        if nos != closed:
            mismatches += 1
        nos_false += not nos
    ok = mismatches == 0 and nos_false > 0 and len(ctx.corpus) >= 100
    return ok, (
        f"NOS <=> family closure on {len(ctx.corpus)} generated systems "
        f"({nos_false} NOS-false), {mismatches} mismatches"
    )


@_result("PROP-DISJ", "unions of representing families represent unions of properties")
def _prop_disj(ctx) -> tuple[bool, str]:
    universe = corpora.disjoint_ten()
    s1 = universe[:3]
    s2 = universe[4:8]
    f1 = [zigzag_sif(s) for s in s1]
    f2 = [zigzag_sif(s) for s in s2]
    union = family_union(f1, f2)
    ok = True
    for s in universe:
        in_union = s in s1 or s in s2
        if closed_under_family(s, union) != in_union:
            ok = False
        if closed_under_family(s, f1) != (s in s1):
            ok = False
        if closed_under_family(s, f2) != (s in s2):
            ok = False
    return ok, (
        f"over a {len(universe)}-system collection, the union family represents "
        f"the union of a {len(s1)}-member and a {len(s2)}-member property"
    )


@_result("THM5", "pinning families: uniqueness and subset representation")
def _thm5(ctx) -> tuple[bool, str]:
    collections, rejected = ctx.zigzag
    bad = 0
    for members in collections:
        report = verify_zigzag_collection(members)
        if not (report.uniqueness_ok and report.representation_ok):
            bad += 1
    ok = bad == 0 and len(collections) >= 20
    return ok, (
        f"{len(collections)} collections pass uniqueness and all-subset representation "
        f"({bad} failures); {rejected} random draws were rejected by the checker up front "
        f"(overlapping members can defeat subset representation)"
    )


@_result("PROP-GENCONJ", "pair-family closure equals the conjunction of closures")
def _prop_genconj(ctx) -> tuple[bool, str]:
    mismatches = 0
    n = 0
    for s, f1, f2 in corpora.conj_cases(ctx.case_count, ctx.seed):
        n += 1
        lhs = closed_under_family(s, conj_family(f1, f2))
        rhs = closed_under_family(s, f1) and closed_under_family(s, f2)
        if lhs != rhs:
            mismatches += 1
    ok = mismatches == 0 and n >= 1000
    return ok, f"pairing identity holds on {n} randomized (system, family, family) cases"


@_result("COR-DGNI", "DGNI is represented by the generalized pair family")
def _cor_dgni(ctx) -> tuple[bool, str]:
    bu = ctx.universe
    n = int(bu.property_ok(PropertyKind.DGNI).size)
    table_eq = bool(
        np.array_equal(
            bu.type_ok(GNI_TYPE) & bu.type_ok(RGNI_TYPE),
            bu.property_ok(PropertyKind.DGNI),
        )
    )
    fam = conj_family(GNI_TYPE, RGNI_TYPE)
    spot = closed_under_family(fixtures.dgni_not_sep_15(), fam) and not closed_under_family(
        fixtures.gni_not_dgni_4(), fam
    )
    ok = table_eq and spot
    return ok, (
        f"closure under the paired ({GNI_TYPE}, {RGNI_TYPE}) family coincides with DGNI "
        f"on all {n} systems; fixture spot checks agree"
    )


@_result("PROP-ZL-DISJ", "low-view-local properties are not closed under disjunction")
def _prop_zl_disj(ctx) -> tuple[bool, str]:
    sync_u = fixtures.zl_universe_sync()
    singles_sync = [zl_q_search([s], sync_u) is not None for s in sync_u[:2]]
    none_sync = zl_q_search(fixtures.zl_target_disjunction(), sync_u) is None
    async_u = fixtures.zl_universe_async()
    singles_async = [zl_q_search([s], async_u) is not None for s in async_u[:2]]
    none_async = zl_q_search(async_u[:2], async_u) is None
    ok = all(singles_sync) and none_sync and all(singles_async) and none_async
    return ok, (
        "each singleton target admits a predicate, the two-singleton union admits none "
        "(synchronous and asynchronous)"
    )


@_result("PROP-NOS-ZL", "NOS is a low-view-local property")
def _prop_nos_zl(ctx) -> tuple[bool, str]:
    mismatches = sum(1 for ss in ctx.corpus if nos_as_zl(ss) != check_nos(ss))
    ps, pl, hs = protocols_from_obj(fixtures.echo_protocols())
    ss = build_strategy_system(ps, pl, hs, GenerationMode.exact())
    example = nos_as_zl(ss) and check_nos(ss)
    ok = mismatches == 0 and example
    return ok, (
        f"low-view-local reformulation agrees with NOS on {len(ctx.corpus)} "
        f"generated systems and on the two-trace example"
    )


@_result("THM-ZL-CONJ", "low-view-local properties are closed under conjunction")
def _thm_zl_conj(ctx) -> tuple[bool, str]:
    mismatches = 0
    n = 0
    for s, q1, q2 in corpora.zl_conj_cases(ctx.case_count, ctx.seed):
        n += 1
        if zl_check(s, q_and(q1, q2)) != (zl_check(s, q1) and zl_check(s, q2)):
            mismatches += 1
    ok = mismatches == 0 and n >= 1000
    return ok, f"conjunction identity holds on {n} randomized (system, Q, Q') cases"


@_result("PROP-PSP-SIF", "the insertion property equals closure under the insertion function")
def _prop_psp_sif(ctx) -> tuple[bool, str]:
    mismatches = 0
    n_enum = 0
    for s in corpora.enumerate_async_systems(cap=ctx.psp_cap):
        n_enum += 1
        if psp_check(s) != closed_under_insertion(s):
            mismatches += 1
    n_rand = 0
    for s in corpora.async_corpus(ctx.async_count, ctx.seed):
        n_rand += 1
        if psp_check(s) != closed_under_insertion(s):
            mismatches += 1
    ok = mismatches == 0
    return ok, (
        f"insertion property <=> closure under the insertion function on "
        f"{n_enum} enumerated and {n_rand} randomized event systems"
    )


@_result("LEM-SWAP", "closure is invariant under swapping argument roles")
def _lem_swap(ctx) -> tuple[bool, str]:
    bu = ctx.universe
    n = int(bu.property_ok(PropertyKind.SEP).size)
    bad = [t for t in enumerate_types() if not np.array_equal(bu.type_ok(t), bu.type_ok(swap_type(t)))]
    ok = not bad
    return ok, f"closure tables equal under role swap for all 81 types over {n} systems"


@_result("LEM-ALLSYS", "the sixteen one-argument copy types close every system")
def _lem_allsys(ctx) -> tuple[bool, str]:
    bu = ctx.universe
    n = int(bu.property_ok(PropertyKind.SEP).size)
    candidates = list(ALL_SYSTEMS_TYPES) + [swap_type(t) for t in ALL_SYSTEMS_TYPES]
    bad = [t for t in candidates if int(bu.type_ok(t).sum()) != n]
    ok = not bad
    return ok, (
        f"{len(set(candidates))} one-argument types (the sixteen and their swaps) "
        f"close every one of the {n} systems"
    )


RESULT_IDS = tuple(_REGISTRY)


def verify_paper(ids=None, context: VerifyContext | None = None) -> VerificationReport:
    """Reproduce the requested results (all of them by default)."""
    if ids is None:
        requested = list(RESULT_IDS)
    else:
        requested = [str(i) for i in ids]
        unknown = [i for i in requested if i not in _REGISTRY]
        if unknown:
            raise UnknownResultError(f"unknown result id(s): {', '.join(sorted(unknown))}")
        # canonical order, duplicates collapsed
        requested = [i for i in RESULT_IDS if i in set(requested)]
    ctx = context if context is not None else VerifyContext()
    outcomes = []
    for result_id in requested:
        _, procedure = _REGISTRY[result_id]
        start = time.perf_counter()
        passed, detail = procedure(ctx)
        outcomes.append(ResultOutcome(result_id, passed, detail, time.perf_counter() - start))
    return VerificationReport(tuple(outcomes))
