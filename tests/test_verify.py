"""Result catalogue plumbing (cheap results only; the full run is covered
by the CLI smoke test and the acceptance suite)."""

from __future__ import annotations

import re

import pytest

from siflab import UnknownResultError, VerifyContext, verify_paper
from siflab.verify import _REGISTRY, RESULT_IDS


def test_catalogue_is_complete_and_stable():
    assert len(RESULT_IDS) == 20
    assert len(set(RESULT_IDS)) == 20
    assert tuple(_REGISTRY) == RESULT_IDS
    assert all(_REGISTRY[i][0] for i in RESULT_IDS)


def test_requested_ids_run_in_canonical_order_without_duplicates():
    report = verify_paper(["EX2", "EX1", "EX2"])
    assert [o.result_id for o in report.outcomes] == ["EX1", "EX2"]
    assert report.all_passed


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


def test_outcome_lookup():
    report = verify_paper(["EX3"])
    assert report.outcome("EX3").passed
    with pytest.raises(KeyError):
        report.outcome("EX1")


def test_determinism_of_seeded_results():
    ctx1 = VerifyContext(corpus_count=20, case_count=50, async_count=20)
    ctx2 = VerifyContext(corpus_count=20, case_count=50, async_count=20)
    r1 = verify_paper(["PROP-GENCONJ", "THM-ZL-CONJ"], ctx1)
    r2 = verify_paper(["PROP-GENCONJ", "THM-ZL-CONJ"], ctx2)
    assert [o.detail for o in r1.outcomes] == [o.detail for o in r2.outcomes]
    # smaller corpora than the published claim are reported as failures,
    # not silently accepted
    assert not r1.all_passed


def test_context_defaults_meet_the_claim_sizes():
    ctx = VerifyContext()
    assert ctx.corpus_count == 120
    assert ctx.zigzag_count == 24
    assert ctx.case_count == 1000
    assert ctx.async_count == 500


def test_full_catalogue_reproduces():
    report = verify_paper()
    assert [o.result_id for o in report.outcomes] == list(RESULT_IDS)
    assert report.all_passed
    assert report.lines()[-1] == "20 results: all PASS"
