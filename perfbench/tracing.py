"""In-memory spans and counts around calls into siflab's layers.

Tracing is done from the benchmark's side only: ``instrumented`` swaps
the public siflab functions bound in a few orchestrating namespaces (the
benchmark's own workload module, ``siflab.verify``, ``siflab.corpus`` and
``siflab.enumeration``) for wrappers that open a span named
``<layer>.<function>``, and restores them afterwards.  A call that one
layer makes into another through those namespaces is therefore a span;
calls inside a layer are not.  The hot ``traces.view`` cache is left
unwrapped on purpose (tens of millions of calls on ``pointwise``) and is
observed through its ``cache_info()`` counters instead.

A span is (id, parent id, name, start, end).  Self time is computed on
the fly with a stack: a span's duration minus the time its child spans
cover.  Aggregates cover every span; raw spans are kept up to a cap and
written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager

# The modules whose functions are timed as layers; ``cli`` and
# ``fixtures`` are thin and not timed on their own, and the ``_accel``
# kernel is timed as ``enumeration.sweep_pairs``, where enumeration calls it.
LAYERS = (
    "traces",
    "properties",
    "siftypes",
    "enumeration",
    "families",
    "gensifs",
    "zl",
    "strategies",
    "corpus",
    "verify",
)

# Root spans opened by the benchmark itself belong to this pseudo-layer.
BENCH_LAYER = "bench"


class Tracer:
    def __init__(self, keep: int = 100_000):
        self.keep = keep
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [id, name, start, child_s]
        self._next_id = 0
        self.origin = time.perf_counter()

    def enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order (open: {popped[1]})")
        span_id, name, start, child = frame
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        else:
            parent = -1
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent, name, start - self.origin, end - self.origin))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    @property
    def span_count(self) -> int:
        return self._next_id

    def dump(self) -> dict:
        """Raw spans plus per-name and per-layer aggregates, ready for JSON."""
        return {
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
            "dropped_spans": self.dropped,
            "by_name": {
                name: {"calls": calls, "total_s": total, "self_s": self_s}
                for name, (calls, total, self_s) in sorted(self.stats.items())
            },
            "layer_self_s": self.layer_self(),
            "counts": dict(self.counts),
        }

    def layer_self(self) -> dict[str, float]:
        """Self time per layer; every span name starts with its layer."""
        out = {layer: 0.0 for layer in LAYERS + (BENCH_LAYER,)}
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def traced(self, name: str, fn):
        """``fn`` wrapped in a span; a returned generator is timed per item."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if inspect.isgenerator(result):
                return self._generator(name, result)
            return result

        return wrapper

    def _generator(self, name: str, gen):
        while True:
            frame = self.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.exit(frame)
            yield item


def _layer_of(value) -> str | None:
    """The siflab layer a public function belongs to, or None."""
    if isinstance(value, type) or not callable(value):
        return None
    parts = str(getattr(value, "__module__", "")).split(".")
    if len(parts) == 2 and parts[0] == "siflab" and parts[1] in LAYERS:
        return parts[1]
    return None


@contextmanager
def instrumented(tracer: Tracer, namespaces):
    """Wrap the layer functions bound in ``namespaces`` for the duration."""
    import siflab.enumeration as enumeration

    patches = []
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            layer = _layer_of(value)
            if layer is not None:
                patches.append((module, attr, value, tracer.traced(f"{layer}.{attr}", value)))

    kernel = enumeration.sweep_pairs

    def sweep_pairs(table, systems, n):
        tracer.counts["enumeration.sweeps"] += 1
        tracer.counts["enumeration.systems_swept"] += len(systems)
        with tracer.span("enumeration.sweep_pairs"):
            return kernel(table, systems, n)

    patches.append((enumeration, "sweep_pairs", kernel, sweep_pairs))

    bit_universe = enumeration.BitUniverse
    for method in ("type_ok", "property_ok"):
        original = vars(bit_universe)[method]

        def counted(self, *args, _original=original, _method=method, **kwargs):
            tracer.counts["enumeration.verdict_requests"] += 1
            with tracer.span(f"enumeration.BitUniverse.{_method}"):
                return _original(self, *args, **kwargs)

        patches.append((bit_universe, method, original, functools.wraps(original)(counted)))

    for target, attr, _, wrapper in patches:
        setattr(target, attr, wrapper)
    try:
        yield tracer
    finally:
        for target, attr, original, _ in reversed(patches):
            setattr(target, attr, original)
