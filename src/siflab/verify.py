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

from . import corpus as corpora
from . import fixtures
from .enumeration import BitUniverse, implication_violations
from .errors import SiflabError, UnknownResultError
from .families import (
    closed_over_pool,
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
from .zl import (
    AndQ,
    InsertionSif,
    closed_under_insertion,
    nos_as_zl,
    psp_check,
    psp_over_pool,
    zl_check,
    zl_q_search,
)

# Result id -> (description, detail template, procedure), in catalogue order.
# A procedure returns (ok, record), the record naming every count, flag and
# witness string ``ok`` reads; ``verify_paper`` renders ``template.format_map(record)``.
_REGISTRY: dict[str, tuple[str, str, Callable]] = {}

# The size floors of the seeded claims: a run on fewer inputs fails.
_MIN_CORPUS = 100
_MIN_COLLECTIONS = 20
_MIN_CASES = 1000


def _result(result_id: str, description: str, template: str):
    """Register the decorated procedure as the reproduction of ``result_id``."""

    def register(procedure):
        _REGISTRY[result_id] = (description, template, procedure)
        return procedure

    return register


def _setup_input(build):
    """A lazily built, cached context input whose build time is recorded
    in ``VerifyContext.setup_seconds`` under the input's name.  An input
    built inside this one records its own time, which this one's leaves
    out, so no second is counted twice."""

    def timed(ctx):
        nested_before = sum(ctx.setup_seconds.values())
        start = time.perf_counter()
        value = build(ctx)
        nested = sum(ctx.setup_seconds.values()) - nested_before
        ctx.setup_seconds[build.__name__] = time.perf_counter() - start - nested
        return value

    timed.__name__ = build.__name__
    return cached_property(timed)


class VerifyContext:
    """Shared, lazily built inputs for the reproduction procedures.

    The defaults keep a full run at desk scale; the corpora are seeded,
    so two runs with the same context see identical inputs.  Each input
    records its build time in ``setup_seconds`` (input name -> seconds,
    in the order the builds finish), and :func:`verify_paper` charges it
    to the run's setup, not to the result that first used the input.
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
        self.setup_seconds: dict[str, float] = {}

    @_setup_input
    def universe(self) -> BitUniverse:
        return BitUniverse.standard()

    @property
    def systems(self) -> int:
        """The number of nonempty systems over the universe."""
        return (1 << self.universe.n) - 1

    @_setup_input
    def sweeps(self) -> dict[PropertyKind, int]:
        """The universe's property verdicts (:meth:`BitUniverse.property_ok`)
        for every kind, from one pair sweep per mask pair."""
        return {kind: self.universe.property_ok(kind) for kind in PropertyKind}

    @_setup_input
    def corpus(self):
        return corpora.strategy_corpus(self.corpus_count, self.seed)

    @_setup_input
    def zigzag(self):
        return corpora.zigzag_corpus(self.zigzag_count, self.seed)

    @cached_property
    def dgni_refutation(self):
        """THM2's refutation of the 81 types for DGNI, which COR-CONJ
        reads too; charged to whichever of the two runs first."""
        pool = {
            "dgni_not_sep_15": fixtures.dgni_not_sep_15(),
            "li_equals_hi_8": fixtures.li_equals_hi_8(),
            "ho_equals_li_8": fixtures.ho_equals_li_8(),
            "lo_equals_hi_8": fixtures.lo_equals_hi_8(),
        }
        predicate = lambda s: check_property(PropertyKind.DGNI, s)
        return refute_all_types(predicate, pool)

    @cached_property
    def echo(self):
        """The echo protocols' exact strategy system, which EX3 and PROP-NOS-ZL read."""
        ps, pl, hs = protocols_from_obj(fixtures.echo_protocols())
        return build_strategy_system(ps, pl, hs, GenerationMode.exact())

    def represents(self, kind: PropertyKind, t: SifType) -> bool:
        """Whether closure under ``t`` is ``kind`` on every system of the universe."""
        return self.sweeps[kind] == self.universe.type_ok(t)


@dataclass(frozen=True)
class ResultOutcome:
    """One result's verdict, and ``record``, the evidence ``detail`` renders.
    ``error`` marks a procedure that raised: empty record, detail ``ERROR: <type>: <message>``."""

    result_id: str
    passed: bool
    detail: str
    runtime: float
    record: dict
    error: bool = False

    def line(self) -> str:
        tag = "ERROR" if self.error else "PASS" if self.passed else "FAIL"
        return f"{tag}  {self.result_id:<13} {self.runtime:7.2f}s  {self.detail}"


@dataclass(frozen=True)
class VerificationReport:
    """The outcomes, and ``setup``: the context inputs built during the
    run, as (input name, seconds) pairs in build order.  A result's
    runtime leaves out the inputs it triggered."""

    outcomes: tuple[ResultOutcome, ...]
    setup: tuple[tuple[str, float], ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    @property
    def errors(self) -> tuple[ResultOutcome, ...]:
        """The outcomes whose procedure raised."""
        return tuple(o for o in self.outcomes if o.error)

    def outcome(self, result_id: str) -> ResultOutcome:
        for o in self.outcomes:
            if o.result_id == result_id:
                return o
        raise KeyError(result_id)

    def lines(self) -> list[str]:
        out = [o.line() for o in self.outcomes]
        n_error = len(self.errors)
        n_fail = sum(not o.passed for o in self.outcomes) - n_error
        counts = [f"{n} {tag}" for n, tag in ((n_error, "ERROR"), (n_fail, "FAIL")) if n]
        out.append(f"{len(self.outcomes)} results: " + (", ".join(counts) or "all PASS"))
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
            "setup": [{"input": name, "runtime_seconds": round(seconds, 4)} for name, seconds in self.setup],
        }


@_result("EX1", "15-trace system: both noninference directions hold, separability fails",
         "|S|={size}, DGNI={dgni}, SEP={sep}")
def _ex1(ctx) -> tuple[bool, dict]:
    s = fixtures.dgni_not_sep_15()
    dgni = check_property(PropertyKind.DGNI, s)
    sep = check_property(PropertyKind.SEP, s)
    ok = len(s) == 15 and dgni and not sep
    return ok, {"size": len(s), "expected_size": 15, "dgni": dgni, "sep": sep}


@_result("EX2", "4-trace system: forward noninference holds, the conjunction fails",
         "|S|={size}, GNI={gni}, DGNI={dgni}")
def _ex2(ctx) -> tuple[bool, dict]:
    s = fixtures.gni_not_dgni_4()
    gni = check_property(PropertyKind.GNI, s)
    dgni = check_property(PropertyKind.DGNI, s)
    ok = len(s) == 4 and gni and not dgni
    return ok, {"size": len(s), "expected_size": 4, "gni": gni, "dgni": dgni}


@_result("EX3", "protocol composition generates the expected two-trace family",
         "generated family matches fixture={same}, NOS={nos}, SEP={sep}")
def _ex3(ctx) -> tuple[bool, dict]:
    ss = ctx.echo
    expected = fixtures.nos_two_trace()
    same = dict(ss.families) == dict(expected.families)
    nos = check_nos(ss)
    sep = check_property(PropertyKind.SEP, union_system(ss))
    ok = same and nos and not sep
    return ok, {"same": same, "nos": nos, "sep": sep}


@_result("PROP1", "SEP implies DGNI implies GNI; separable unions satisfy NOS",
         "{violations} violations of SEP=>DGNI=>GNI over {systems} systems; {sep_unions}/{corpus} separable unions "
         "all satisfy NOS; high-view membership step holds on every generated system")
def _prop1(ctx) -> tuple[bool, dict]:
    swept = ctx.sweeps
    violations = implication_violations(swept[PropertyKind.SEP], swept[PropertyKind.DGNI])
    violations += implication_violations(swept[PropertyKind.DGNI], swept[PropertyKind.GNI])
    sep_unions = 0
    nos_bad = 0
    step_bad = 0
    for ss in ctx.corpus:
        if check_property(PropertyKind.SEP, union_system(ss)):
            sep_unions += 1
            if not check_nos(ss):
                nos_bad += 1
        if not family_h_view_determined(ss):
            step_bad += 1
    ok = violations == 0 and nos_bad == 0 and step_bad == 0 and len(ctx.corpus) >= _MIN_CORPUS
    return ok, dict(
        violations=violations, systems=ctx.systems, sep_unions=sep_unions, corpus=len(ctx.corpus),
        min_corpus=_MIN_CORPUS, nos_bad=nos_bad, step_bad=step_bad,
    )


@_result("PROP2", "SEP and GNI coincide with closure under their copy types",
         "over {systems} systems: SEP<=>{sep_type}: {sep}, GNI<=>{gni_type}: {gni}, "
         "RGNI<=>{rgni_type} (chosen by symmetry): {rgni}")
def _prop2(ctx) -> tuple[bool, dict]:
    sep = ctx.represents(PropertyKind.SEP, SEP_TYPE)
    gni = ctx.represents(PropertyKind.GNI, GNI_TYPE)
    rgni = ctx.represents(PropertyKind.RGNI, RGNI_TYPE)
    ok = sep and gni and rgni
    return ok, dict(
        systems=ctx.systems, sep_type=str(SEP_TYPE), sep=sep, gni_type=str(GNI_TYPE), gni=gni,
        rgni_type=str(RGNI_TYPE), rgni=rgni,
    )


def _refutation_record(report) -> dict:
    """The number of types ``report`` leaves unrefuted, and its witnesses."""
    used = sorted({e.witness for e in report.entries if e.witness})
    return {"unrefuted": len(report.unrefuted), "witnesses": ", ".join(used)}


@_result("THM1", "no copy type represents NOS over strategy systems",
         "all 81 types refuted for NOS; witnesses: {witnesses}")
def _thm1(ctx) -> tuple[bool, dict]:
    pool = {
        "nos_two_trace": fixtures.nos_two_trace(),
        "nos_false_pair": fixtures.nos_false_pair(),
    }
    extension = ((f"corpus[{i}]", ss) for i, ss in enumerate(ctx.corpus))
    report = refute_all_types(check_nos, pool, extension)
    return report.all_refuted, _refutation_record(report)


@_result("THM2", "no copy type represents DGNI", "all 81 types refuted for DGNI; witnesses: {witnesses}")
def _thm2(ctx) -> tuple[bool, dict]:
    report = ctx.dgni_refutation
    return report.all_refuted, _refutation_record(report)


@_result("COR-CONJ", "type-representable properties are not closed under conjunction",
         "GNI and RGNI are each type-represented ({gni}, {rgni}) "
         "but their conjunction DGNI is refuted for all 81 types ({dgni_refuted})")
def _cor_conj(ctx) -> tuple[bool, dict]:
    gni = ctx.represents(PropertyKind.GNI, GNI_TYPE)
    rgni = ctx.represents(PropertyKind.RGNI, RGNI_TYPE)
    dgni_refuted = ctx.dgni_refutation.all_refuted
    ok = gni and rgni and dgni_refuted
    return ok, {"gni": gni, "rgni": rgni, "dgni_refuted": dgni_refuted}


@_result("THM3", "type-representable properties are not closed under disjunction",
         "disjunction of SEP with closure under {pin}: all 81 types refuted; the five-system pool alone leaves "
         "{gap} (the pinned type and its swap), settled by the separable echo pair")
def _thm3(ctx) -> tuple[bool, dict]:
    pin = SifType(1, 2, 2, 2)
    predicate = lambda s: check_property(PropertyKind.SEP, s) or closed_under_type(s, pin)
    base_pool = {
        "lo_equals_li_8": fixtures.lo_equals_li_8(),
        "ho_equals_li_8": fixtures.ho_equals_li_8(),
        "li_equals_hi_8": fixtures.li_equals_hi_8(),
        "lo_equals_hi_8": fixtures.lo_equals_hi_8(),
        "ho_equals_hi_xor_li_16": fixtures.ho_equals_hi_xor_li_16(),
    }
    report = refute_all_types(predicate, base_pool, [("high_echo_pair_2", fixtures.high_echo_pair_2())])
    # the types the five-system pool alone leaves unrefuted: the pin and its swap
    gap = [e.type for e in report.entries if e.witness not in base_pool]
    pin_and_swap = {pin, swap_type(pin)}
    ok = report.all_refuted and set(gap) == pin_and_swap
    return ok, dict(
        pin=str(pin), unrefuted=len(report.unrefuted), gap=len(gap), gap_types=", ".join(map(str, gap)),
        pin_and_swap=", ".join(sorted(map(str, pin_and_swap))),
    )


@_result("THM4", "NOS coincides with closure under the membership family",
         "NOS <=> family closure on {systems} generated systems ({nos_false} NOS-false), {mismatches} mismatches")
def _thm4(ctx) -> tuple[bool, dict]:
    mismatches = 0
    nos_false = 0
    for ss in ctx.corpus:
        u = union_system(ss)
        nos = check_nos(ss)
        closed = closed_under_family(u, nos_family(ss))
        if nos != closed:
            mismatches += 1
        nos_false += not nos
    ok = mismatches == 0 and nos_false > 0 and len(ctx.corpus) >= _MIN_CORPUS
    return ok, {"systems": len(ctx.corpus), "min_corpus": _MIN_CORPUS, "nos_false": nos_false, "mismatches": mismatches}


@_result("PROP-DISJ", "unions of representing families represent unions of properties",
         "over a {systems}-system collection, the union family represents "
         "the union of a {first}-member and a {second}-member property")
def _prop_disj(ctx) -> tuple[bool, dict]:
    universe = corpora.disjoint_ten()
    s1 = universe[:3]
    s2 = universe[4:8]
    f1 = [zigzag_sif(s) for s in s1]
    f2 = [zigzag_sif(s) for s in s2]
    union = family_union(f1, f2)
    misjudged = 0
    for s in universe:
        misjudged += closed_under_family(s, union) != (s in s1 or s in s2)
        misjudged += closed_under_family(s, f1) != (s in s1)
        misjudged += closed_under_family(s, f2) != (s in s2)
    return misjudged == 0, {"systems": len(universe), "first": len(s1), "second": len(s2), "misjudged": misjudged}


@_result("THM5", "pinning families: uniqueness and subset representation",
         "{collections} collections pass uniqueness and all-subset representation ({bad} failures); {rejected} "
         "random draws were rejected by the checker up front (overlapping members can defeat subset representation)")
def _thm5(ctx) -> tuple[bool, dict]:
    collections, rejected = ctx.zigzag
    bad = 0
    for members in collections:
        report = verify_zigzag_collection(members)
        if not (report.uniqueness_ok and report.representation_ok):
            bad += 1
    ok = bad == 0 and len(collections) >= _MIN_COLLECTIONS
    return ok, dict(collections=len(collections), min_collections=_MIN_COLLECTIONS, bad=bad, rejected=rejected)


@_result("PROP-GENCONJ", "pair-family closure equals the conjunction of closures",
         "pairing identity holds on {cases} randomized (system, family, family) cases")
def _prop_genconj(ctx) -> tuple[bool, dict]:
    mismatches = 0
    n = 0
    for s, f1, f2 in corpora.conj_cases(ctx.case_count, ctx.seed):
        n += 1
        lhs = closed_under_family(s, conj_family(f1, f2))
        rhs = closed_under_family(s, f1) and closed_under_family(s, f2)
        if lhs != rhs:
            mismatches += 1
    ok = mismatches == 0 and n >= _MIN_CASES
    return ok, {"cases": n, "min_cases": _MIN_CASES, "mismatches": mismatches}


@_result("COR-DGNI", "DGNI is represented by the generalized pair family",
         "closure under the paired ({gni_type}, {rgni_type}) family coincides with DGNI "
         "on all {systems} systems; fixture spot checks agree")
def _cor_dgni(ctx) -> tuple[bool, dict]:
    bu = ctx.universe
    table_eq = bu.type_ok(GNI_TYPE) & bu.type_ok(RGNI_TYPE) == ctx.sweeps[PropertyKind.DGNI]
    fixture_pair = (fixtures.dgni_not_sep_15(), fixtures.gni_not_dgni_4())
    paired = [closed_under_type(s, GNI_TYPE) and closed_under_type(s, RGNI_TYPE) for s in fixture_pair]
    spot = paired == [True, False]
    ok = table_eq and spot
    return ok, dict(gni_type=str(GNI_TYPE), rgni_type=str(RGNI_TYPE), systems=ctx.systems, table_eq=table_eq, spot=spot)


@_result("PROP-ZL-DISJ", "low-view-local properties are not closed under disjunction",
         "each singleton target admits a predicate, the two-singleton union admits none "
         "(synchronous and asynchronous)")
def _prop_zl_disj(ctx) -> tuple[bool, dict]:
    sync_u = fixtures.zl_universe_sync()
    singles_sync = sum(zl_q_search([s], sync_u) is not None for s in sync_u[:2])
    none_sync = zl_q_search(fixtures.zl_target_disjunction(), sync_u) is None
    async_u = fixtures.zl_universe_async()
    singles_async = sum(zl_q_search([s], async_u) is not None for s in async_u[:2])
    none_async = zl_q_search(async_u[:2], async_u) is None
    ok = singles_sync == 2 and none_sync and singles_async == 2 and none_async
    return ok, dict(singles_sync=singles_sync, none_sync=none_sync, singles_async=singles_async, none_async=none_async)


@_result("PROP-NOS-ZL", "NOS is a low-view-local property",
         "low-view-local reformulation agrees with NOS on {systems} generated systems and on the two-trace example")
def _prop_nos_zl(ctx) -> tuple[bool, dict]:
    mismatches = sum(1 for ss in ctx.corpus if nos_as_zl(ss) != check_nos(ss))
    ss = ctx.echo
    example = nos_as_zl(ss) and check_nos(ss)
    ok = mismatches == 0 and example and len(ctx.corpus) >= _MIN_CORPUS
    return ok, {"systems": len(ctx.corpus), "min_corpus": _MIN_CORPUS, "mismatches": mismatches, "example": example}


@_result("THM-ZL-CONJ", "low-view-local properties are closed under conjunction",
         "conjunction identity holds on {cases} randomized (system, Q, Q') cases")
def _thm_zl_conj(ctx) -> tuple[bool, dict]:
    mismatches = 0
    n = 0
    for s, q1, q2 in corpora.zl_conj_cases(ctx.case_count, ctx.seed):
        n += 1
        if zl_check(s, AndQ(q1, q2)) != (zl_check(s, q1) and zl_check(s, q2)):
            mismatches += 1
    ok = mismatches == 0 and n >= _MIN_CASES
    return ok, {"cases": n, "min_cases": _MIN_CASES, "mismatches": mismatches}


@_result("PROP-PSP-SIF", "the insertion property equals closure under the insertion function",
         "insertion property <=> closure under the insertion function on "
         "{enumerated} enumerated and {randomized} randomized event systems")
def _prop_psp_sif(ctx) -> tuple[bool, dict]:
    # A declaration's enumerated systems are the first subsets of one
    # trace pool, so each side decides all of them at once: one sweep of
    # the insertion function's table, and the decomposition's obligations
    # as masks over the pool (zl.psp_over_pool).  No system is built;
    # only the randomized systems are decided one by one.
    n_enum = bad_enum = 0
    for decl, pool, count in corpora.enumerate_async_pools(cap=ctx.psp_cap):
        n_enum += count
        bad_enum += (psp_over_pool(decl, pool, count) ^ closed_over_pool(InsertionSif(decl), pool, count)).bit_count()
    randomized = corpora.async_corpus(ctx.async_count, ctx.seed)
    bad_rand = sum(psp_check(s) != closed_under_insertion(s) for s in randomized)
    ok = bad_enum + bad_rand == 0
    return ok, dict(enumerated=n_enum, randomized=len(randomized), bad_enum=bad_enum, bad_rand=bad_rand)


@_result("LEM-SWAP", "closure is invariant under swapping argument roles",
         "closure tables equal under role swap for all 81 types over {systems} systems")
def _lem_swap(ctx) -> tuple[bool, dict]:
    bu = ctx.universe
    bad = [t for t in enumerate_types() if bu.type_ok(t) != bu.type_ok(swap_type(t))]
    # the certificate, for every subset of the universe: swapping the
    # roles transposes the witness table, and a system meets W[a][b] for
    # all its pairs exactly when it meets W[b][a] for all of them
    untransposed = [
        t
        for t in enumerate_types()
        if bu.witness_table(*swap_type(t).masks) != tuple(zip(*bu.witness_table(*t.masks)))
    ]
    ok = not bad and not untransposed
    return ok, {"systems": ctx.systems, "bad": len(bad), "untransposed": len(untransposed)}


@_result("LEM-ALLSYS", "the sixteen one-argument copy types close every system",
         "{types} one-argument types (the sixteen and their swaps) close every one of the {systems} systems")
def _lem_allsys(ctx) -> tuple[bool, dict]:
    bu = ctx.universe
    candidates = list(ALL_SYSTEMS_TYPES) + [swap_type(t) for t in ALL_SYSTEMS_TYPES]
    bad = [t for t in candidates if bu.type_ok(t) != bu.full]
    # the certificate, for every subset of the universe: W[a][b] holds a
    # (b for the swaps), so every system holding a and b meets it
    uncertified = [
        t
        for t in ALL_SYSTEMS_TYPES
        for table in (bu.witness_table(*t.masks), tuple(zip(*bu.witness_table(*swap_type(t).masks))))
        if not all(w >> a & 1 for a, row in enumerate(table) for w in row)
    ]
    ok = not bad and not uncertified
    return ok, dict(types=len(set(candidates)), systems=ctx.systems, bad=len(bad), uncertified=len(uncertified))


RESULT_IDS = tuple(_REGISTRY)


def verify_paper(ids=None, context: VerifyContext | None = None) -> VerificationReport:
    """Reproduce the results ``ids`` names: one id, several, or all by default.

    A procedure that raises gives an ERROR outcome, and the results after
    it still run.  A selection that names no result raises
    :class:`SiflabError`.
    """
    if isinstance(ids, str):
        ids = [ids]
    if ids is None:
        requested = list(RESULT_IDS)
    else:
        requested = [str(i) for i in ids]
        if not requested:
            raise SiflabError("no result id requested")
        unknown = [i for i in requested if i not in _REGISTRY]
        if unknown:
            raise UnknownResultError(f"unknown result id(s): {', '.join(sorted(unknown))}")
        # canonical order, duplicates collapsed
        requested = [i for i in RESULT_IDS if i in set(requested)]
    ctx = context if context is not None else VerifyContext()
    built_before = set(ctx.setup_seconds)
    outcomes = []
    for result_id in requested:
        _, template, procedure = _REGISTRY[result_id]
        setup_before = sum(ctx.setup_seconds.values())
        start = time.perf_counter()
        try:
            passed, record = procedure(ctx)
            detail = template.format_map(record)
            if not passed:
                detail += " [" + ", ".join(f"{k}={v!r}" for k, v in record.items()) + "]"
            error = False
        except Exception as exc:  # recorded as this result's outcome; the rest still run
            passed, record, detail, error = False, {}, f"ERROR: {type(exc).__name__}: {exc}", True
        runtime = time.perf_counter() - start - (sum(ctx.setup_seconds.values()) - setup_before)
        outcomes.append(ResultOutcome(result_id, passed, detail, runtime, record, error))
    setup = tuple((name, seconds) for name, seconds in ctx.setup_seconds.items() if name not in built_before)
    return VerificationReport(tuple(outcomes), setup)
