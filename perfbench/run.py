"""Seeded end-to-end and per-layer benchmark for siflab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 35 --trace 0

It imports ``siflab`` from the checkout's ``src/``, repeats one workload
single-threaded while another iteration fits in ``--seconds``, checks every verdict,
and prints an environment line, a readable summary and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from a traced run, whose spans
are also written to ``perfbench/out/trace-<workload>.json``.  See
README.md for the workloads and what each metric should predict.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

IMPORT_PROBE = "import time; t = time.perf_counter(); import numpy, siflab; print(time.perf_counter() - t)"
IMPORT_REPEATS = 3


def _import_library():
    """Put the checkout's ``src/`` first on the path and import siflab from it."""
    if not (SRC / "siflab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no siflab sources under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import siflab  # noqa: F401


def import_seconds(repeats: int = IMPORT_REPEATS) -> float:
    """Best time to import NumPy and siflab in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return min(times)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(workload, seconds: float, trace: int) -> dict:
    import numpy
    import siflab._accel

    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "kernel_backend": siflab._accel.BACKEND,
        "workload": workload.name,
        "seed": workload.seed,
        "sizes": workload.sizes,
        "seconds": seconds,
        "trace": trace,
    }


# Time of one probe (``_probe``) on the machine the bounds were set on, a
# 2-core "Intel(R) Xeon(R) Processor" host, when no neighbour slowed it.
PROBE_NOMINAL_S = 0.0021


def _probe() -> float:
    """Time of a few milliseconds of fixed interpreter work."""
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    return time.perf_counter() - start


def slowdown() -> float:
    """How many times slower than nominal this core runs right now.

    The best of 9 probes, so that a stall of a few milliseconds does not
    read as a slow core.
    """
    return min(_probe() for _ in range(9)) / PROBE_NOMINAL_S


def pin_to_quietest_cpu(cpus) -> None:
    """Pin this process to whichever of ``cpus`` runs the probe fastest now.

    On a shared host each core slows down for seconds at a time when a
    neighbour is busy, independently of the other cores.  Starting each
    iteration on the quietest core cuts that noise.
    """
    speeds = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = min(_probe() for _ in range(3))
    os.sched_setaffinity(0, {min(speeds, key=speeds.get)})


def _clear_library_caches() -> None:
    """Start each iteration as a fresh process would: empty view and union caches."""
    from siflab import properties, traces

    for fn in (traces.view, properties.union_system):
        clear = getattr(fn, "cache_clear", None)
        if clear is not None:
            clear()


def _cache_counts() -> dict:
    """Hits, misses and entries of the library's memo caches; 0 where a cache is gone."""
    from siflab import properties, traces

    def info(fn):
        cache_info = getattr(fn, "cache_info", None)
        return cache_info() if cache_info else None

    view = info(traces.view)
    union = info(properties.union_system)
    return {
        "traces.view_hits": view.hits if view else 0,
        "traces.view_misses": view.misses if view else 0,
        "traces.view_entries": view.currsize if view else 0,
        "properties.union_system_hits": union.hits if union else 0,
        "properties.union_system_misses": union.misses if union else 0,
    }


def layer_metrics(tracer, workload, state, outcome) -> dict:
    """The per-layer numbers of one traced iteration."""
    from siflab import RESULT_IDS

    counts = tracer.counts
    sweeps = counts["enumeration.sweeps"]
    requests = counts["enumeration.verdict_requests"]
    m = {"verify.setup_s": tracer.total("verify.setup")}
    for rid in RESULT_IDS:
        m[f"verify.{rid}_s"] = tracer.total(f"verify.{rid}")
    m.update(
        {
            "enumeration.sweeps": sweeps,
            "enumeration.systems_swept": counts["enumeration.systems_swept"],
            "enumeration.sweep_s": tracer.total("enumeration.sweep_pairs"),
            "enumeration.verdict_requests": requests,
            "enumeration.sweep_reuse": 1.0 - sweeps / requests if requests else 0.0,
            "traces.parse_s": tracer.total("traces.system_from_obj"),
            "traces.parse_calls": tracer.calls("traces.system_from_obj"),
            "properties.check_property_s": tracer.total("properties.check_property"),
            "properties.check_property_calls": tracer.calls("properties.check_property"),
            "siftypes.closed_under_type_s": tracer.total("siftypes.closed_under_type"),
            "siftypes.closed_under_type_calls": tracer.calls("siftypes.closed_under_type"),
            "siftypes.refute_all_types_s": tracer.total("siftypes.refute_all_types"),
            "corpus.strategy_corpus_s": tracer.total("corpus.strategy_corpus"),
            "corpus.zigzag_corpus_s": tracer.total("corpus.zigzag_corpus"),
        }
    )
    m.update(workload.layer_counts(state, outcome))
    m.update(_cache_counts())
    for layer, self_s in tracer.layer_self().items():
        m[f"{layer}.self_s"] = self_s
    m["trace.spans"] = tracer.span_count
    return m


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_iteration(workload, tracer=None, cpus=()) -> dict:
    """One set-up plus one timed run of ``workload``, optionally traced."""
    from tracing import instrumented

    import siflab.corpus
    import siflab.enumeration
    import siflab.verify
    import workloads

    namespaces = (workloads, siflab.verify, siflab.corpus, siflab.enumeration)
    _clear_library_caches()
    if len(cpus) > 1:
        pin_to_quietest_cpu(cpus)
    slow_before = slowdown()
    with instrumented(tracer, namespaces) if tracer else nullcontext():
        start = time.perf_counter()
        if tracer:
            with tracer.span("bench.setup"):
                state = workload.setup(tracer)
        else:
            state = workload.setup()
        setup_s = time.perf_counter() - start
        gc.collect()
        slow_between = slowdown()
        start = time.perf_counter()
        outcome, item_ms = workload.run(state, tracer)
        wall_s = time.perf_counter() - start
    slow_after = slowdown()
    attempted, failed, digest = workload.check(outcome)
    # Times at nominal speed: measured time over the slowdown around it.
    # The lesser of the two slowdowns, because overstating one would make
    # that iteration read too fast and win the best-of.
    run_slowdown = min(slow_between, slow_after)
    result = {
        "raw_wall_s": wall_s,
        "slowdown": run_slowdown,
        "setup_s": setup_s / min(slow_before, slow_between),
        "wall_s": wall_s / run_slowdown,
        "item_ms": [ms / run_slowdown for ms in item_ms],
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
    }
    if tracer:
        result["tracer"] = tracer
        result["layers"] = layer_metrics(tracer, workload, state, outcome)
        # The sweep kernel is only expected where the workload enumerates a universe.
        sweeps = result["layers"]["enumeration.sweeps"]
        result["attempted"] += 1
        result["failed"] += (sweeps > 0) != workload.sweeps_expected
    return result


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: int, sizes: dict | None = None) -> dict:
    """Repeat one workload for ``seconds`` and return its metrics and checks.

    Untraced, every iteration is timed.  Traced, untraced and traced
    iterations alternate: the untraced ones give the overhead baseline
    and the verdicts the traced ones must reproduce.
    """
    _import_library()
    from tracing import Tracer

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, sizes)
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        pin_to_quietest_cpu(cpus)
    slow_before = slowdown()
    import_s = import_seconds()
    import_s /= min(slow_before, slowdown())
    plain, traced, laps = [], [], []
    began = time.perf_counter()
    # Start another iteration only if one more typical lap still fits in ``seconds``.
    while not laps or time.perf_counter() - began + statistics.median(laps) <= seconds:
        lap = time.perf_counter()
        plain.append(run_iteration(workload, cpus=cpus))
        if trace:
            # Only the first traced iteration keeps its raw spans.
            traced.append(run_iteration(workload, Tracer(keep=0 if traced else 100_000), cpus))
        laps.append(time.perf_counter() - lap)
    os.sched_setaffinity(0, cpus)
    iterations = plain + traced
    attempted = sum(r["attempted"] for r in iterations)
    failed = sum(r["failed"] for r in iterations)
    # Same seed, same verdicts: every iteration must agree with the first.
    digests = [r["digest"] for r in iterations]
    attempted += len(digests) - 1
    failed += sum(d != digests[0] for d in digests[1:])

    # Interference from other tenants only ever adds time, so every time
    # is the best over the run's iterations (see README.md, "Noise").
    best = min(plain, key=lambda r: r["wall_s"])
    wall = best["wall_s"]
    result = {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "digests": {"untraced": [r["digest"] for r in plain], "traced": [r["digest"] for r in traced]},
        "iterations": {"untraced": len(plain), "traced": len(traced)},
        "iteration_walls": [r["raw_wall_s"] for r in plain],
        "iteration_slowdowns": [r["slowdown"] for r in plain],
        "best_raw_wall_s": best["raw_wall_s"],
    }
    # Every iteration answers the same items in the same order: take each
    # item's best latency, then the distribution over the distinct items.
    items = [min(samples) for samples in zip(*(r["item_ms"] for r in plain), strict=True)]
    result["item_samples"] = len(items)
    result["item_metrics"] = {
        "item_p50_ms": (statistics.median(items), "ms"),
        "item_p99_ms": (percentile(items, 0.99), "ms"),
    }
    if not trace:
        result["metrics"] = {
            "wall_s": (wall, "s"),
            "setup_s": (import_s + min(r["setup_s"] for r in plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        traced_wall = min(r["wall_s"] for r in traced)
        layers = {
            name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
        }
        layers["trace.wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = wall
        layers["trace.overhead_s"] = traced_wall - wall
        layers["trace.overhead_share"] = (traced_wall - wall) / wall
        result["metrics"] = {name: (value, _unit(name)) for name, value in layers.items()}
        result["metrics"].update(result["item_metrics"])
        result["spans"] = traced[0]["tracer"].dump()
    return result


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_reuse")):
        return "share"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="siflab seeded benchmark")
    parser.add_argument("--workload", required=True, choices=("catalogue", "pointwise", "seeded"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_library()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot import siflab from the checkout: {exc}", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    workload = result["workload"]
    env = environment(workload, args.seconds, args.trace)
    print("# env " + json.dumps(env, sort_keys=True))
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload.name}.json"
        path.write_text(json.dumps({"env": env, **result["spans"]}) + "\n")
        print(f"# spans written to {path.relative_to(ROOT)}")
    runs = result["iterations"]
    print(f"{workload.name} seed={workload.seed} iterations: {runs['untraced']} untraced, {runs['traced']} traced")
    print(f"# items: {result['item_samples']} distinct, each timed {runs['untraced']} times untraced")
    print("# measured wall_s per iteration: " + " ".join(f"{w:.3f}" for w in result["iteration_walls"]))
    print("# slowdown per iteration:        " + " ".join(f"{x:.3f}" for x in result["iteration_slowdowns"]))
    print(f"# best iteration: {result['best_raw_wall_s']:.4f} s measured; times below are at nominal speed")
    shown = dict(result["item_metrics"], **result["metrics"])
    for name, (value, unit) in shown.items():
        print(f"  {name:<34} {value:14.6g} {unit}")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':<34} {share:14.6g} share  ({result['failed']} of {result['attempted']} checks)")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
