"""Spans and counts around lwerng's layer boundaries, recorded from the
benchmark's own code.

`instrument()` replaces each listed public function, in every lwerng module
that binds it, by a wrapper that records a span (name, start, end, parent)
or bumps a count on the innermost open span; counts roll up into the
enclosing spans when they close.  Spans stay in memory and are reduced to
per-layer metrics when the run ends.  The originals are restored on exit.
"""

import contextlib
import functools
import statistics
import sys
import time
from collections import defaultdict

from common import BATTERY_BYTES, PROBE_LABEL, TRIALS, HarnessError, entropy, experiment_seed

# (home module, function, span name)
SPANS = (
    ("lwerng.sampling", "expand_matrix", "sampling.expand_matrix"),
    ("lwerng.sampling", "sample_secret", "sampling.sample_secret"),
    ("lwerng.sampling", "sample_error", "sampling.sample_error"),
    ("lwerng.sampling", "seed_payload", "sampling.seed_payload"),
    ("lwerng.sampling", "derive_reseed_entropy", "sampling.derive_reseed_entropy"),
    ("lwerng.polyring", "mat_vec_mul", "polyring.mat_vec_mul"),
    ("lwerng.lwe_hiding", "hide", "lwe_hiding.hide"),
    ("lwerng.lwe_hiding", "distinguishing_experiment", "lwe_hiding.experiment"),
    ("lwerng.lfsr", "initialize", "lfsr.initialize"),
    ("lwerng.vecring", "ntt_batch", "vecring.ntt_batch"),
    ("lwerng.vecring", "intt_batch", "vecring.intt_batch"),
    ("lwerng.vecring", "reduce_mod", "vecring.reduce_mod"),
    ("lwerng.stats", "run_battery", "stats.run_battery"),
)
# (home module, class, method, span name)
METHOD_SPANS = (
    ("lwerng.lfsr", "LfsrBank", "emit_bits", "lfsr.emit_bits"),
    ("lwerng.stream", "Generator", "next_bytes", "stream.next_bytes"),
)
# (home module, function, count name)
COUNTS = (
    ("lwerng.polyring", "ntt", "polyring.ntt"),
    ("lwerng.polyring", "inv_ntt", "polyring.inv_ntt"),
)

PROBE_STEPS = 2048


class Span:
    __slots__ = ("name", "parent", "phase", "start", "end", "counts")

    def __init__(self, name, parent, phase):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Spans of one single-threaded run; `phase` tags the spans opened next."""

    def __init__(self):
        self.spans = []
        self.phase = "workload"
        self._stack = []

    @contextlib.contextmanager
    def between(self):
        """Tag spans opened inside as harness work, not the workload's."""
        phase, self.phase = self.phase, "harness"
        try:
            yield
        finally:
            self.phase = phase

    def span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent, self.phase)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    for key, n in span.counts.items():
                        parent.counts[key] = parent.counts.get(key, 0) + n
        return traced

    def counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                counts = self._stack[-1].counts
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Wrap every listed boundary; names missing from the library are skipped."""
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "lwerng" or k.startswith("lwerng."))]
    undo = []
    try:
        for table, make in ((SPANS, rec.span), (COUNTS, rec.counter)):
            for home, attr, name in table:
                orig = getattr(sys.modules.get(home), attr, None)
                if orig is None:
                    continue
                wrapped = make(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, orig))
        for home, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(sys.modules.get(home), cls_name, None)
            orig = vars(cls).get(attr) if cls is not None else None
            if orig is None:
                continue
            setattr(cls, attr, rec.span(name, orig))
            undo.append((cls, attr, orig))
        yield rec
    finally:
        for target, key, orig in reversed(undo):
            setattr(target, key, orig)


class Probe:
    """Fixed inputs for the layer probe, built before tracing starts.

    The probe times layers a workload's own loop does not reach, so every
    per-call time is measured on every workload (shares are not: they come
    from the workload alone), and it drives the register machine through the
    public LfsrBank.step from a fixed state.
    """

    def __init__(self, lw):
        self.lw = lw
        self.params = lw.default_params()
        self.ent = entropy(lw, PROBE_LABEL, 0)
        self.hidden = lw.hide(self.ent, self.params)
        self.bank = lw.initialize(self.hidden)
        self.buffer = lw.Generator(self.ent, self.params).next_bytes(BATTERY_BYTES)

    def steps(self):
        """(median step time in s, raw bits per step) over two identical passes."""
        times = []
        totals = []
        b = self.bank
        for _ in range(2):
            bank = self.lw.LfsrBank.from_state(b.params, b.regs, b.mask,
                                               b.coeff_cursor, b.mask_cursor)
            bits = 0
            for _ in range(PROBE_STEPS):
                t0 = time.perf_counter()
                _, nbits = bank.step()
                times.append(time.perf_counter() - t0)
                bits += nbits
            totals.append(bits)
        if totals[0] != totals[1]:
            raise HarnessError(f"raw bits from one fixed state differ: {totals}")
        return statistics.median(times), totals[0] / PROBE_STEPS

    def run_layers(self):
        """One pass over every traced layer through the public API."""
        lw, p = self.lw, self.params
        for _ in range(3):
            lw.initialize(lw.hide(self.ent, p))
        for generation in range(1, 33):
            lw.sampling.derive_reseed_entropy(self.ent, generation)
        lw.distinguishing_experiment(TRIALS, p, mode="hiding_vs_uniform",
                                     seed=experiment_seed(0))
        lw.run_battery(self.buffer, 8 * BATTERY_BYTES)


def layer_metrics(rec: Recorder, window_s: float, scales: dict) -> dict:
    """Per-layer numbers from the spans.

    Per-call times use the workload's own calls and fall back to the probe's
    when the workload made none; `scales[phase]` turns that phase's times
    into reference seconds.  Shares are of `window_s`, the time spent inside
    the traced operations, so they are 0 for a layer the workload does not
    reach.
    """
    by_phase = defaultdict(lambda: defaultdict(list))
    child_time = defaultdict(float)
    for s in rec.spans:
        by_phase[s.phase][s.name].append(s)
        if s.parent is not None:
            child_time[id(s.parent)] += s.duration
    workload = by_phase["workload"]

    def per_call(name, unit, own=False):
        phase = "workload" if name in workload else "probe"
        xs = [s.duration - (child_time[id(s)] if own else 0.0)
              for s in by_phase[phase].get(name, ())]
        return statistics.median(xs) * unit * scales[phase] if xs else 0.0

    def share(name, own=False):
        return sum(s.duration - (child_time[id(s)] if own else 0.0)
                   for s in workload.get(name, ())) / window_s

    def per_hide(count):
        seen = {s.counts.get(count, 0) for phase in by_phase.values()
                for s in phase.get("lwe_hiding.hide", ())}
        if len(seen) > 1:
            raise HarnessError(f"{count} calls per hide drifted: {sorted(seen)}")
        return float(seen.pop()) if seen else 0.0

    roots = sum(s.duration for spans in workload.values() for s in spans
                if s.parent is None)
    return {
        "sampling.expand_matrix_ms": per_call("sampling.expand_matrix", 1e3),
        "sampling.sample_secret_ms": per_call("sampling.sample_secret", 1e3),
        "sampling.sample_error_ms": per_call("sampling.sample_error", 1e3),
        "sampling.seed_payload_ms": per_call("sampling.seed_payload", 1e3),
        "sampling.derive_reseed_entropy_us": per_call("sampling.derive_reseed_entropy", 1e6),
        "polyring.mat_vec_mul_ms": per_call("polyring.mat_vec_mul", 1e3),
        "polyring.ntt_calls_per_hide": per_hide("polyring.ntt"),
        "polyring.inv_ntt_calls_per_hide": per_hide("polyring.inv_ntt"),
        "lwe_hiding.hide_ms": per_call("lwe_hiding.hide", 1e3),
        "lwe_hiding.hide_self_ms": per_call("lwe_hiding.hide", 1e3, own=True),
        "lwe_hiding.experiment_self_share": share("lwe_hiding.experiment", own=True),
        "lfsr.initialize_us": per_call("lfsr.initialize", 1e6),
        "lfsr.emit_bits_share": share("lfsr.emit_bits"),
        "stream.next_bytes_self_share": share("stream.next_bytes", own=True),
        "vecring.ntt_batch_ms": per_call("vecring.ntt_batch", 1e3),
        "vecring.intt_batch_ms": per_call("vecring.intt_batch", 1e3),
        "vecring.reduce_mod_share": share("vecring.reduce_mod"),
        "stats.run_battery_ms": per_call("stats.run_battery", 1e3),
        "trace.uncovered_share": 1.0 - roots / window_s,
    }
