"""The benchmark's three seeded workloads.

Each workload turns ``--seed`` into inputs, sets up one iteration
(``setup``, untimed, charged to ``setup_s``), runs the timed part
(``run``), and judges the verdicts it got (``check``).  The library only
ever sees the generated inputs.  See README.md for why these three.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from contextlib import nullcontext

from siflab import (
    ALL_SYSTEMS_TYPES,
    GNI_TYPE,
    RGNI_TYPE,
    SEP_TYPE,
    DuplicateTraceError,
    RESULT_IDS,
    PropertyKind,
    VerifyContext,
    check_property,
    closed_under_type,
    enumerate_types,
    refute_all_types,
    swap_type,
    verify_paper,
)
from siflab.traces import system_from_obj

# The results whose procedures never touch ``VerifyContext.universe``, so
# they run no pair sweep.  COR-CONJ is left out because it sweeps.
SEEDED_IDS = (
    "EX1",
    "EX2",
    "EX3",
    "THM1",
    "THM2",
    "THM3",
    "THM4",
    "PROP-DISJ",
    "THM5",
    "PROP-GENCONJ",
    "PROP-ZL-DISJ",
    "PROP-NOS-ZL",
    "THM-ZL-CONJ",
    "PROP-PSP-SIF",
)

KINDS = (PropertyKind.SEP, PropertyKind.GNI, PropertyKind.RGNI, PropertyKind.DGNI)
TYPES = enumerate_types()
REPRESENTING = {PropertyKind.SEP: SEP_TYPE, PropertyKind.GNI: GNI_TYPE, PropertyKind.RGNI: RGNI_TYPE}
ONE_ARGUMENT_TYPES = frozenset(ALL_SYSTEMS_TYPES) | {swap_type(t) for t in ALL_SYSTEMS_TYPES}


def _no_span(name):
    return nullcontext()


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class Catalogue:
    """The whole ``verify-paper`` catalogue on one seeded context."""

    name = "catalogue"
    sweeps_expected = True
    sizes = {"ids": None, "context": {}}

    def __init__(self, seed: int, sizes: dict | None = None):
        self.seed = seed
        if sizes is not None:
            self.sizes = sizes

    def setup(self, tracer=None):
        """A fresh context with its lazy inputs built, so no result is charged for them."""
        span = tracer.span if tracer else _no_span
        ctx = VerifyContext(seed=self.seed, **self.sizes["context"])
        with span("verify.setup"):
            ctx.universe
            ctx.corpus
            ctx.zigzag
        return ctx

    def run(self, ctx, tracer=None):
        """Returns (outcomes, per-result latencies in ms)."""
        ids = self.sizes["ids"]
        if tracer is None:
            outcomes = verify_paper(ids, context=ctx).outcomes
        else:
            outcomes = []
            for rid in ids if ids is not None else RESULT_IDS:
                with tracer.span(f"verify.{rid}"):
                    outcomes.extend(verify_paper([rid], context=ctx).outcomes)
        return outcomes, [o.runtime * 1e3 for o in outcomes]

    def check(self, outcomes) -> tuple[int, int, str]:
        """(checks attempted, checks failed, verdict digest): every result must PASS."""
        failed = sum(not o.passed for o in outcomes)
        return len(outcomes), failed, _digest([(o.result_id, o.passed, o.detail) for o in outcomes])

    def layer_counts(self, ctx, outcome) -> dict:
        return {
            "corpus.strategy_corpus_size": len(ctx.corpus),
            "corpus.zigzag_rejected": ctx.zigzag[1],
            "traces.parse_rejected": 0,
        }


class Seeded(Catalogue):
    """The corpus-driven results only, with the corpora well above default size."""

    name = "seeded"
    sweeps_expected = False
    sizes = {
        "ids": SEEDED_IDS,
        "context": {
            "corpus_count": 200,
            "zigzag_count": 30,
            "case_count": 2000,
            "psp_cap": 20000,
            "async_count": 1000,
        },
    }


def system_objects(seed: int, sizes: dict) -> list[dict]:
    """Seeded JSON system objects with binary alphabets and random lassos.

    The lassos are written as drawn, not canonicalized, so parsing and
    every projection does real canonicalization work.  Two draws can
    denote the same trace; the library rejects such a system as a
    duplicate, which the workload counts rather than fails.  System sizes
    cycle through 2..max_traces and lasso shapes through every (prefix,
    cycle) length pair, so a batch's cost depends on the seed only through
    the symbols drawn.
    """
    rng = random.Random(seed)
    alphabets = {k: ["0", "1"] for k in ("hi", "li", "ho", "lo")}
    shapes = itertools.cycle(
        [(p, c) for p in range(sizes["max_prefix"] + 1) for c in range(1, sizes["max_cycle"] + 1)]
    )

    def lasso():
        prefix, cycle = next(shapes)
        return {
            "prefix": [[rng.randint(0, 1) for _ in range(4)] for _ in range(prefix)],
            "cycle": [[rng.randint(0, 1) for _ in range(4)] for _ in range(cycle)],
        }

    span = sizes["max_traces"] - 1
    return [
        {"alphabets": alphabets, "traces": [lasso() for _ in range(2 + i % span)]}
        for i in range(sizes["systems"])
    ]


class Pointwise:
    """Per-system deciders (``check``/``closure``/``refute``) over a seeded batch."""

    name = "pointwise"
    sweeps_expected = False
    sizes = {"systems": 528, "max_traces": 12, "max_prefix": 2, "max_cycle": 3}

    def __init__(self, seed: int, sizes: dict | None = None):
        self.seed = seed
        if sizes is not None:
            self.sizes = sizes

    def setup(self, tracer=None):
        return system_objects(self.seed, self.sizes)

    def run(self, objs, tracer=None):
        """Returns ((rejected, per-system verdicts, refutation reports), latencies in ms)."""
        span = tracer.span if tracer else _no_span
        rejected = 0
        systems = []
        verdicts = []
        item_ms = []
        for obj in objs:
            start = time.perf_counter()
            with span("bench.item"):
                try:
                    s = system_from_obj(obj)
                except DuplicateTraceError:
                    rejected += 1
                    continue
                props = tuple(check_property(kind, s) for kind in KINDS)
                closed = tuple(closed_under_type(s, t) for t in TYPES)
            item_ms.append((time.perf_counter() - start) * 1e3)
            systems.append(s)
            verdicts.append((props, closed))
        pool = {f"system[{i}]": s for i, s in enumerate(systems)}
        reports = {}
        with span("bench.refute"):
            for kind in KINDS:
                reports[kind] = refute_all_types(lambda m, kind=kind: check_property(kind, m), pool)
        return (rejected, verdicts, reports), item_ms

    def check(self, outcome) -> tuple[int, int, str]:
        """(checks attempted, checks failed, verdict digest) from the paper's identities."""
        rejected, verdicts, reports = outcome
        at = {t: i for i, t in enumerate(TYPES)}
        attempted = failed = 0

        def gate(ok: bool) -> None:
            nonlocal attempted, failed
            attempted += 1
            failed += not ok

        for (sep, gni, rgni, dgni), closed in verdicts:
            gate(sep == closed[at[SEP_TYPE]])
            gate(gni == closed[at[GNI_TYPE]])
            gate(rgni == closed[at[RGNI_TYPE]])
            gate(dgni == (gni and rgni))
            gate(all(closed[at[t]] == closed[at[swap_type(t)]] for t in TYPES))
            gate(all(closed[at[t]] for t in ONE_ARGUMENT_TYPES))
        for kind, t in REPRESENTING.items():
            gate(not reports[kind].entry(t).refuted)
        # Each refutation verdict must agree with the per-system deciders.
        for k, kind in enumerate(KINDS):
            for entry in reports[kind].entries:
                i = at[entry.type]
                disagree = any(props[k] != closed[i] for props, closed in verdicts)
                gate(entry.refuted == disagree)
        digest = _digest(
            (
                rejected,
                verdicts,
                [(str(e.type), e.status, e.witness) for kind in KINDS for e in reports[kind].entries],
            )
        )
        return attempted, failed, digest

    def layer_counts(self, objs, outcome) -> dict:
        return {
            "corpus.strategy_corpus_size": 0,
            "corpus.zigzag_rejected": 0,
            "traces.parse_rejected": outcome[0],
        }


WORKLOADS = {w.name: w for w in (Catalogue, Pointwise, Seeded)}
