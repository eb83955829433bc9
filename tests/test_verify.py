"""Result catalogue plumbing (cheap results only; the full run is covered
by the CLI smoke test and the acceptance suite)."""

from __future__ import annotations

import json
import re
import string
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from siflab import AsyncSystem, PropertyKind, SiflabError, UnknownResultError, VerifyContext, verify_paper
from siflab import corpus as corpora
from siflab import verify
from siflab.enumeration import BitUniverse
from siflab.siftypes import RefutationReport, swap_type
from siflab.verify import _REGISTRY, RESULT_IDS

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_paper.json"


def test_catalogue_is_complete_and_stable():
    assert len(RESULT_IDS) == 20
    assert len(set(RESULT_IDS)) == 20
    assert tuple(_REGISTRY) == RESULT_IDS
    assert all(_REGISTRY[i][0] for i in RESULT_IDS)


def test_requested_ids_run_in_canonical_order_without_duplicates():
    # a string names one result; it is not read letter by letter
    for ids, expected in ((["EX2", "EX1", "EX2"], ["EX1", "EX2"]), ("EX1", ["EX1"])):
        report = verify_paper(ids)
        assert [o.result_id for o in report.outcomes] == expected
        assert report.all_passed


def test_an_empty_selection_is_rejected():
    with pytest.raises(SiflabError, match="no result id"):
        verify_paper([])


def test_unknown_ids_are_rejected():
    with pytest.raises(UnknownResultError) as exc:
        verify_paper(["EX1", "NOPE", "ALSO-NOPE"])
    assert "ALSO-NOPE" in str(exc.value) and "NOPE" in str(exc.value)


def test_single_results_pass_and_report_shape():
    report = verify_paper(["EX1", "EX2", "LEM-SWAP"])
    for o in report.outcomes:
        assert o.passed
        assert o.runtime >= 0
        assert re.match(r"^PASS  \S+ +\d+\.\d\ds  ", o.line())
    lines = report.lines()
    assert lines[-1] == "3 results: all PASS"
    obj = report.to_obj()
    assert obj["all_passed"] is True
    assert [e["id"] for e in obj["results"]] == ["EX1", "EX2", "LEM-SWAP"]
    for e in obj["results"]:
        assert set(e) == {"id", "passed", "detail", "runtime_seconds", "description"}


def _raise_in(monkeypatch, result_id):
    def boom(ctx):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setitem(_REGISTRY, result_id, (*_REGISTRY[result_id][:2], boom))


def test_a_raising_result_is_an_error_and_the_rest_still_run(monkeypatch):
    _raise_in(monkeypatch, "EX2")
    report = verify_paper(["EX1", "EX2", "EX3"])
    assert [o.result_id for o in report.outcomes] == ["EX1", "EX2", "EX3"]
    ex1, ex2, ex3 = report.outcomes
    assert ex1.passed and ex3.passed and not ex1.error and not ex3.error
    assert not ex2.passed and ex2.error
    assert ex2.detail == "ERROR: ZeroDivisionError: division by zero"
    assert ex2.line().startswith("ERROR  EX2 ")
    assert report.errors == (ex2,)
    assert not report.all_passed
    assert report.lines()[-1] == "3 results: 1 ERROR"
    assert report.to_obj()["results"][1]["detail"] == ex2.detail


def test_outcome_lookup():
    report = verify_paper(["EX3"])
    assert report.outcome("EX3").passed
    with pytest.raises(KeyError):
        report.outcome("EX1")


def test_determinism_of_seeded_results():
    ctx1 = VerifyContext(corpus_count=20, case_count=50, async_count=20)
    ctx2 = VerifyContext(corpus_count=20, case_count=50, async_count=20)
    r1 = verify_paper(["THM4", "PROP-GENCONJ", "THM-ZL-CONJ"], ctx1)
    r2 = verify_paper(["THM4", "PROP-GENCONJ", "THM-ZL-CONJ"], ctx2)
    assert [o.detail for o in r1.outcomes] == [o.detail for o in r2.outcomes]
    # smaller corpora than the published claim are reported as failures,
    # not silently accepted, and the FAIL line ends with the whole record,
    # the count and the floor it missed included
    assert not r1.all_passed
    floors = {"THM4": ("systems=20", "min_corpus=100"), "PROP-GENCONJ": ("cases=50", "min_cases=1000")}
    for result_id, (count, floor) in floors.items():
        outcome = r1.outcome(result_id)
        assert not outcome.passed and not outcome.error
        fields = [f"{k}={v!r}" for k, v in outcome.record.items()]
        assert outcome.line().startswith("FAIL  ")
        assert outcome.line().endswith(" [" + ", ".join(fields) + "]")
        assert count in fields and floor in fields


def test_psp_sif_builds_only_the_randomized_systems(monkeypatch):
    """The enumerated phase decides whole pools: of the 50 randomized and
    536 enumerated event systems, only the randomized ones are built."""
    built = []
    init = AsyncSystem.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AsyncSystem, "__init__", counting_init)
    report = verify_paper(["PROP-PSP-SIF"], context=VerifyContext(psp_cap=600, async_count=50))
    assert report.outcome("PROP-PSP-SIF").detail.endswith("on 536 enumerated and 50 randomized event systems")
    assert len(built) == 50


class _Clock:
    """Stands in for :mod:`time` in :mod:`siflab.verify`: ``perf_counter``
    moves only when a slowed stand-in calls ``sleep``.  It counts in exact
    fractions, so no rounding moves a reading across a threshold."""

    def __init__(self):
        self.now = Fraction(0)

    def perf_counter(self) -> Fraction:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += Fraction(seconds)


def test_shared_inputs_are_timed_apart_from_the_result_that_builds_them(monkeypatch):
    build = corpora.strategy_corpus
    clock = _Clock()

    def slow_corpus(count, seed):
        clock.sleep(0.3)
        return build(count, seed)

    monkeypatch.setattr(verify, "time", clock)
    monkeypatch.setattr(corpora, "strategy_corpus", slow_corpus)
    ctx = VerifyContext()
    report = verify_paper(["EX1", "PROP1", "THM4"], ctx)
    assert report.all_passed
    assert [name for name, _ in report.setup] == ["universe", "sweeps", "corpus"]
    assert dict(report.setup)["corpus"] >= 0.3
    assert report.outcome("PROP1").runtime < 0.3
    obj = report.to_obj()["setup"]
    assert [entry["input"] for entry in obj] == ["universe", "sweeps", "corpus"]
    assert all(set(entry) == {"input", "runtime_seconds"} for entry in obj)
    # a context builds each input once, so a second run reports only the one it adds
    again = verify_paper(["PROP1", "THM5"], ctx)
    assert [name for name, _ in again.setup] == ["zigzag"]
    assert list(ctx.setup_seconds) == ["universe", "sweeps", "corpus", "zigzag"]


def test_the_sweeps_are_timed_apart_from_prop1_and_from_the_universe(monkeypatch):
    """A slowed sweep is charged to the ``sweeps`` input, not to PROP1; the
    universe it builds inside is charged once, to ``universe``."""
    standard, property_ok = BitUniverse.standard.__func__, BitUniverse.property_ok
    clock = _Clock()

    def slow_standard(cls):
        clock.sleep(0.6)
        return standard(cls)

    def slow_property_ok(bu, kind):
        clock.sleep(0.1)
        return property_ok(bu, kind)

    monkeypatch.setattr(verify, "time", clock)
    monkeypatch.setattr(BitUniverse, "standard", classmethod(slow_standard))
    monkeypatch.setattr(BitUniverse, "property_ok", slow_property_ok)
    report = verify_paper(["PROP1"])
    assert report.all_passed
    setup = dict(report.setup)
    assert list(setup) == ["universe", "sweeps", "corpus"]
    assert setup["universe"] >= 0.6
    assert 0.1 * len(PropertyKind) <= setup["sweeps"] < 0.6
    assert 0 <= report.outcome("PROP1").runtime < 0.1


def test_context_defaults_meet_the_claim_sizes():
    ctx = VerifyContext()
    assert ctx.corpus_count == 120
    assert ctx.zigzag_count == 24
    assert ctx.case_count == 1000
    assert ctx.async_count == 500


def test_full_catalogue_reproduces():
    """Every result passes with the detail recorded in
    ``golden/verify_paper.json``, so a change to what a result counts or
    enumerates shows here too."""
    report = verify_paper()
    assert [o.result_id for o in report.outcomes] == list(RESULT_IDS)
    assert report.all_passed
    assert report.lines()[-1] == "20 results: all PASS"
    golden = json.loads(GOLDEN.read_text())
    got = [{"id": o.result_id, "passed": o.passed, "detail": o.detail} for o in report.outcomes]
    assert got == golden
    # every field a template names is in its result's record
    for o in report.outcomes:
        fields = {name for _, name, _, _ in string.Formatter().parse(_REGISTRY[o.result_id][1]) if name}
        assert fields <= set(o.record), o.result_id


def test_a_full_run_refutes_the_types_for_dgni_once(monkeypatch):
    """THM2 and COR-CONJ both read the refutation of the 81 types for
    DGNI; a full run makes it once."""
    pools = []
    refute = verify.refute_all_types

    def counting(predicate, pool, *extension):
        pools.append(sorted(pool))
        return refute(predicate, pool, *extension)

    monkeypatch.setattr(verify, "refute_all_types", counting)
    report = verify_paper()
    assert report.all_passed
    dgni_pool = ["dgni_not_sep_15", "ho_equals_li_8", "li_equals_hi_8", "lo_equals_hi_8"]
    assert pools.count(dgni_pool) == 1
    assert len(pools) == 3  # THM1, THM2 and THM3


def test_thm3_fails_when_the_echo_pair_settles_other_types(monkeypatch):
    """THM3's pool leaves exactly the pinned type and its swap to the
    separable echo pair.  A stand-in that moves the echo pair's witness
    onto another mirror pair makes THM3 FAIL, naming that pair."""
    assert verify_paper(["THM3"]).outcome("THM3").record["gap_types"] == "1:2/2:2, 2:1/1:1"
    refute = verify.refute_all_types
    moved = set()

    def moving(predicate, pool, *extension):
        report = refute(predicate, pool, *extension)
        echo = {e.type for e in report.entries if e.witness == "high_echo_pair_2"}
        other = next(e for e in report.entries if e.witness in pool and swap_type(e.type) != e.type)
        moved.update({other.type, swap_type(other.type)})
        entries = [
            replace(e, witness="high_echo_pair_2") if e.type in moved
            else replace(e, witness=other.witness) if e.type in echo
            else e
            for e in report.entries
        ]
        return RefutationReport(tuple(entries))

    monkeypatch.setattr(verify, "refute_all_types", moving)
    outcome = verify_paper(["THM3"]).outcome("THM3")
    assert not outcome.passed and not outcome.error
    assert outcome.record["unrefuted"] == 0 and outcome.record["gap"] == 2
    assert set(outcome.record["gap_types"].split(", ")) == {str(t) for t in moved}
    assert outcome.record["pin_and_swap"] == "1:2/2:2, 2:1/1:1"
    assert f"gap_types={outcome.record['gap_types']!r}" in outcome.line()
