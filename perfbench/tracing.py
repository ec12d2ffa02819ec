"""Spans recorded from outside the program, by rebinding the public functions
of each cartaninv module where their callers look them up.

A span is ``[name, start, end, parent, attrs]``.  Span names are the ones an
in-program stage trace can take over: ``<module>.<stage>``.  Nothing here edits
a source file; ``instrument`` restores every rebound name on exit.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# a traced run whose numbers fall outside these is flagged, not silently used
MAX_OVERHEAD_FRAC = 0.10
MIN_COVERAGE_FRAC = 0.50


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.hook_s = 0.0  # time spent computing span attributes
        self._stack = []

    def count(self, name, fn):
        """Return ``fn`` counting its calls; for calls too many to span cheaply."""

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def wrap(self, name, fn, after=None):
        """Return ``fn`` recording a span per call; ``after(attrs, args, out)``
        adds attributes from the arguments and the result."""

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                h0 = time.perf_counter()
                after(rec[4], args, out)
                self.hook_s += time.perf_counter() - h0
            return out

        traced.__wrapped__ = fn
        return traced


def unit_costs(calls=20000, repeats=5):
    """Seconds one span and one counted call add to a call, from wrapping a
    no-op; the median of a few repeats."""
    probe = Tracer()

    def noop():
        return None

    def per_call(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append((time.perf_counter() - t0) / calls)
        return sorted(times)[repeats // 2]

    bare = per_call(noop)
    return (per_call(probe.wrap("probe", noop)) - bare,
            per_call(probe.count("probe", noop)) - bare)


# -- attribute hooks ---------------------------------------------------------

def _terms(attrs, args, out):
    attrs["terms_in"] = len(args[0].terms)
    attrs["terms_out"] = len(out.terms)


def _invariance(attrs, args, out):
    # basis elements tried: all of them when invariant, up to the witness otherwise
    F = args[0]
    attrs["terms_in"] = len(F.terms)
    attrs["ad_passes"] = F.algebra.dim if out.is_invariant else out.witness[0] + 1


def _delta(attrs, args, out):
    attrs["power"] = args[0]
    attrs["p"] = args[1].params.p
    attrs["terms_out"] = len(out.terms)
    attrs["coeff_bits"] = max((abs(c).bit_length() for c in out.terms.values()),
                              default=0)


def _power(attrs, args, out):
    attrs["power"] = args[0]
    attrs["p"] = args[1].params.p


def _written(attrs, args, out):
    attrs["bytes"] = out.stat().st_size


def exit_code(attrs, args, out):
    attrs["exit"] = out


def instrumented_names(tracer):
    """(owner, attribute, wrapper factory) for every rebound name."""
    from cartaninv import algebras, cli, gflinalg, pipeline, serialize

    def record_read(attrs, args, out):
        store, hbar, label = args
        pr = hbar.params
        path = serialize.record_path(store, pr.p, pr.n, pr.m, label)
        attrs["bytes"] = path.stat().st_size if out is not None else 0

    def sc_read(attrs, args, out):
        store, kind, pr = args[:3]
        attrs["hit"] = out is not None
        path = serialize.sc_path(store, kind, pr.p, pr.n, pr.m)
        attrs["bytes"] = path.stat().st_size if out is not None else 0

    names = [
        (pipeline, "d_delta", "symalg.d_delta", _terms),
        (pipeline, "is_invariant", "symalg.is_invariant", _invariance),
        (cli, "check_generator_sh", "symalg.check_generator", None),
        (cli, "check_generator_w", "symalg.check_generator", None),
        (pipeline, "compute_delta", "pipeline.compute_delta", _delta),
        (pipeline, "restrict_u_zero", "pipeline.restrict_phi", None),
        (pipeline, "phi_normalize", "pipeline.restrict_phi", None),
        (pipeline, "delta_star", "pipeline.delta_star", _power),
        (cli, "delta_star", "pipeline.delta_star", _power),
        (pipeline.InvariantRecord, "verify", "pipeline.record_verify", None),
        (pipeline, "independence_report", "pipeline.independence", None),
        (cli, "independence_report", "pipeline.independence", None),
        (cli, "conjecture_sweep", "pipeline.conjecture_sweep", None),
        (cli, "build", "algebras.build", None),
        (serialize, "build", "algebras.build", None),
        (pipeline, "build_hbar", "algebras.build.Hbar", None),
        (algebras, "build_h", "algebras.build.H", None),
        (algebras.CartanAlgebra, "_verify_closure", "algebras.closure_verify", None),
        (gflinalg.SpanSolver, "insert", "gflinalg.insert", None),
        (gflinalg.SpanSolver, "solve", "gflinalg.solve", None),
        (serialize, "save_record", "serialize.write", _written),
        (serialize, "save_structure_constants", "serialize.write", _written),
        (serialize, "load_record", "serialize.read", record_read),
        (serialize, "load_algebra", "serialize.read", sc_read),
        (serialize, "document_to_record", "serialize.parse", None),
        (serialize, "render_text", "serialize.render_text", None),
        (serialize, "dumps_canonical", "serialize.dumps", None),
        (serialize, "sc_document", "serialize.to_document", None),
        (serialize, "record_to_document", "serialize.to_document", None),
    ]
    # build() dispatches through this table, so its entries are rebound too
    for kind in algebras._BUILDERS:
        names.append((algebras._BUILDERS, kind, f"algebras.build.{kind}", None))
    out = [(owner, attr, lambda fn, n=name, h=hook: tracer.wrap(n, fn, h))
           for owner, attr, name, hook in names]
    # one call per basis pair in closure verification: counted, not spanned
    out.append((algebras, "bracket", lambda fn: tracer.count("algebras.bracket", fn)))
    return out


@contextlib.contextmanager
def instrument(tracer):
    """Rebind every instrumented name to a tracing wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, make in instrumented_names(tracer):
            if isinstance(owner, dict):
                original = owner[attr]
                owner[attr] = make(original)
            else:
                original = vars(owner)[attr]
                setattr(owner, attr, make(original))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# -- summary -----------------------------------------------------------------

def self_times(spans):
    """Seconds per span name, each span minus the time of its children."""
    child = defaultdict(float)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(float)
    for i, (name, t0, t1, _, _) in enumerate(spans):
        out[name] += t1 - t0 - child[i]
    return dict(out)


def layer_metrics(tracer, rounds):
    """Per-layer metrics per round of the workload, from one traced run."""
    spans = tracer.spans
    names = [s[0] for s in spans]

    def outermost(match):
        # time of the matching spans not nested in another matching span
        total = 0.0
        for name, t0, t1, parent, _ in spans:
            if not match(name):
                continue
            while parent >= 0 and not match(names[parent]):
                parent = spans[parent][3]
            if parent < 0:
                total += t1 - t0
        return total

    def named(*wanted):
        return [s for s in spans if s[0] in wanted]

    def secs(*wanted):
        return outermost(lambda n: n in wanted) / rounds

    def attr_sum(key, *wanted):
        return sum(s[4].get(key, 0) for s in named(*wanted)) / rounds

    invariance = named("symalg.is_invariant")
    deltas = named("pipeline.delta_star")
    sc_reads = [s for s in named("serialize.read") if "hit" in s[4]]
    ops = named("cli.main")
    op_time = sum(t1 - t0 for _, t0, t1, _, _ in ops)
    selfs = self_times(spans)
    delta_total = sum(t1 - t0 for _, t0, t1, _, _ in deltas)
    verify_total = outermost(lambda n: n == "pipeline.record_verify")
    # the re-verification delta_star runs after its own invariance check
    verify_in_delta = sum(
        t1 - t0 for name, t0, t1, parent, _ in spans
        if name == "pipeline.record_verify" and parent >= 0
        and names[parent] == "pipeline.delta_star")

    m = {
        "symalg.is_invariant_s": secs("symalg.is_invariant"),
        "symalg.is_invariant_calls": len(invariance) / rounds,
        "symalg.ad_passes": attr_sum("ad_passes", "symalg.is_invariant"),
        "symalg.ad_term_ops": sum(s[4].get("ad_passes", 0) * s[4].get("terms_in", 0)
                                  for s in invariance) / rounds,
        "symalg.d_delta_s": secs("symalg.d_delta"),
        "symalg.d_delta_terms_out": attr_sum("terms_out", "symalg.d_delta"),
        "symalg.max_coeff_bits": max(
            (s[4].get("coeff_bits", 0) for s in named("pipeline.compute_delta")),
            default=0),
        "pipeline.compute_delta_s": secs("pipeline.compute_delta"),
        "pipeline.restrict_phi_s": secs("pipeline.restrict_phi"),
    }
    for p, powers in ((5, (2, 4, 6)), (7, (2, 4, 6, 8, 10))):
        for i in powers:
            m[f"pipeline.delta_star_s.p{p}.i{i}"] = sum(
                t1 - t0 for _, t0, t1, _, a in deltas
                if a.get("p") == p and a.get("power") == i) / rounds
    m.update({
        "pipeline.record_verify_s": verify_total / rounds,
        "pipeline.verify_share": verify_in_delta / delta_total if delta_total else 0.0,
        "pipeline.independence_s": secs("pipeline.independence"),
        "algebras.build_s": outermost(lambda n: n.startswith("algebras.build")) / rounds,
        "algebras.builds": len([n for n in names if n.startswith("algebras.build.")])
        / rounds,
        "algebras.closure_verify_s": secs("algebras.closure_verify"),
        "algebras.bracket_calls": tracer.counts["algebras.bracket"] / rounds,
        "gflinalg.solver_inserts": len(named("gflinalg.insert")) / rounds,
        "gflinalg.solve_s": secs("gflinalg.solve"),
        "serialize.write_s": secs("serialize.write"),
        "serialize.bytes_written": attr_sum("bytes", "serialize.write"),
        "serialize.read_s": secs("serialize.read", "serialize.parse"),
        "serialize.bytes_read": attr_sum("bytes", "serialize.read"),
        "serialize.sc_cache_hits": sum(1 for s in sc_reads if s[4]["hit"]) / rounds,
        "serialize.sc_cache_misses": sum(1 for s in sc_reads if not s[4]["hit"])
        / rounds,
        "serialize.render_text_s": secs("serialize.render_text"),
        "cli.self_s": selfs.get("cli.main", 0.0) / rounds,
    })
    for code in range(4):
        m[f"cli.exit_code.{code}"] = sum(
            1 for s in ops if s[4].get("exit") == code) / rounds
    # the instrumentation's own cost, measured per span and per counted call
    span_cost, count_cost = unit_costs()
    cost = (len(spans) * span_cost + sum(tracer.counts.values()) * count_cost
            + tracer.hook_s)
    m["trace.overhead_frac"] = cost / (op_time - cost) if op_time > cost else 0.0
    m["trace.coverage_frac"] = (
        1.0 - selfs.get("cli.main", 0.0) / op_time if op_time else 0.0)
    return m


def trace_flags(metrics):
    """Reasons the per-layer numbers of this run should not be used."""
    flags = []
    if metrics["trace.overhead_frac"] > MAX_OVERHEAD_FRAC:
        flags.append(f"tracing overhead {metrics['trace.overhead_frac']:.3f} "
                     f"exceeds {MAX_OVERHEAD_FRAC}")
    if metrics["trace.coverage_frac"] < MIN_COVERAGE_FRAC:
        flags.append(f"span coverage {metrics['trace.coverage_frac']:.3f} "
                     f"is below {MIN_COVERAGE_FRAC}")
    return flags
