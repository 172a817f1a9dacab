"""In-memory spans around fmlab's layer boundaries, and per-layer self times.

The tracer wraps public functions where the *calling* module binds them
(``fmlab.estimators.hermitian_eig``, ``fmlab.inequalities.integrate``, ...),
so fmlab itself is not modified.  Every name is looked up at install time; a
module or attribute that no longer exists is skipped and its metrics read 0,
which keeps one tracer usable across refactors of the program.

Spans are kept in memory as (name, start, end, parent) records and written
out once at the end.  A span's self time is its duration minus the union of
its children's intervals, so the self times of all spans under a root add up
to the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

RUN_SPAN = "run"  # one root span per fmlab run (one kind)
ENGINE_SPAN = "engine.run_indexed"


def _solve_gflop(args, _kwargs):
    """Computed flop count of one shifted dense solve: complex LU + k-column solve."""
    h = args[0]
    n = h.matrix.shape[0]
    k = h.k
    return (8.0 / 3.0 * n**3 + 8.0 * n * n * k) / 1e9


def _eig_gflop(args, _kwargs):
    """Computed flop count of one complex Hermitian eigendecomposition with vectors:
    Householder reduction 16/3 n^3, accumulating Q 16/3 n^3, QL rotations 12 n^3."""
    n = args[0].matrix.shape[0]
    return (16.0 / 3.0 + 16.0 / 3.0 + 12.0) * n**3 / 1e9


def _blocks(args, _kwargs):
    shape = getattr(args[0], "shape", ())
    return float(shape[0]) if len(shape) == 3 else 1.0


# (module, attribute, span name, work measure).  Bindings are listed per
# calling module, because `from x import f` copies the reference.
BINDINGS = [
    ("fmlab.cli", "load_config", "runner.config", None),
    ("fmlab.runner", "build_model", "runner.config", None),
    ("fmlab.runner", "build_topology", "runner.config", None),
    ("fmlab.runner", "build_disorder", "runner.config", None),
    ("fmlab.cli", "emit_csv", "runner.emit", None),
    ("fmlab.runner", "_atomic_write", "runner.emit", None),
    ("fmlab.estimators", "fractional_moment_profile", "estimators.aggregate", None),
    ("fmlab.estimators", "wegner_exponent", "estimators.aggregate", None),
    ("fmlab.estimators", "ids_histogram", "estimators.aggregate", None),
    ("fmlab.estimators", "correlator_decay_profile", "estimators.aggregate", None),
    ("fmlab.estimators", "dynamical_profile", "estimators.aggregate", None),
    ("fmlab.estimators", "decay_rate_fit", "estimators.aggregate", None),
    ("fmlab.estimators", "moment_max_check", "estimators.aggregate", None),
    ("fmlab.estimators", "default_eps", "estimators.aggregate", None),
    ("fmlab.estimators", "sample_vector", "disorder.draw", None),
    ("fmlab.inequalities", "sample_vector", "disorder.draw", None),
    ("fmlab.estimators", "assemble", "model.assemble", None),
    ("fmlab.inequalities", "assemble", "model.assemble", None),
    ("fmlab.estimators", "assembly_plan", "model.plan", None),
    ("fmlab.inequalities", "assembly_plan", "model.plan", None),
    ("fmlab.estimators", "resolvent_profile", "numerics.solve", _solve_gflop),
    ("fmlab.inequalities", "resolvent_profile", "numerics.solve", _solve_gflop),
    ("fmlab.inequalities", "resolvent_block", "numerics.solve", _solve_gflop),
    ("fmlab.estimators", "hermitian_eig", "numerics.eig", _eig_gflop),
    ("fmlab.estimators", "opnorm", "kernels.opnorm", _blocks),
    ("fmlab.estimators", "opnorm_batch", "kernels.opnorm", _blocks),
    ("fmlab.inequalities", "opnorm", "kernels.opnorm", _blocks),
    ("fmlab.kernels", "jacobi_eigvals", "kernels.jacobi", None),
    ("fmlab.inequalities", "jacobi_eigvals", "kernels.jacobi", None),
    ("fmlab.inequalities", "integrate", "quadrature.integrate", None),
    ("fmlab.inequalities", "one_step_bound_check", "inequalities.one_step", None),
    ("fmlab.inequalities", "decoupling_ratio", "inequalities.decoupling", None),
    ("fmlab.inequalities", "comparability_scan", "inequalities.scan", None),
    ("fmlab.inequalities", "reverse_holder_check", "inequalities.rh", None),
    ("fmlab.inequalities", "vinv_moment", "inequalities.vinv", None),
]
ENGINE_BINDINGS = [("fmlab.estimators", "run_indexed"), ("fmlab.inequalities", "run_indexed")]

# Layer whose time a span's self time counts toward.  Sample spans count
# toward the scan that started them (an inequalities.* span) or, for the
# estimators' per-sample functions, toward estimators.reduce.
SELF_TIME_LAYER = {
    "runner.config": "runner.config_s",
    "runner.emit": "runner.emit_s",
    "estimators.aggregate": "estimators.aggregate_s",
    "disorder.draw": "disorder.draw_s",
    "model.assemble": "model.assemble_s",
    "model.plan": "model.plan_s",
    "numerics.solve": "numerics.solve_s",
    "numerics.eig": "numerics.eig_s",
    "kernels.opnorm": "kernels.opnorm_s",
    "kernels.jacobi": "kernels.opnorm_s",
    "quadrature.integrate": "quadrature.integrate_s",
    "inequalities.one_step": "inequalities.one_step_s",
    "inequalities.decoupling": "inequalities.decoupling_s",
    "inequalities.scan": "inequalities.scan_s",
    "inequalities.rh": "inequalities.rh_s",
    "inequalities.vinv": "inequalities.vinv_s",
    ENGINE_SPAN: "engine.overhead_s",
    "estimators.reduce": "estimators.reduce_s",
    RUN_SPAN: "trace.unattributed_s",
}


class Tracer:
    """Records nested spans of one thread in memory."""

    def __init__(self):
        self.spans = []  # dicts: name, start, end, parent, run, work, error, sample
        self._stack = []
        self.run_id = None
        self.installed = []
        self.missing = []

    def open(self, name, sample=False):
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "work": 0.0,
            "error": None,
            "sample": sample,
        }
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, args, kwargs, measure=None, sample=False):
        span = self.open(name, sample)
        try:
            if measure is not None:
                try:
                    span["work"] = measure(args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    pass  # an argument changed shape in the program: count no work
            return fn(*args, **kwargs)
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            self.close(span)

    def wrap(self, fn, name, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, measure)

        return traced

    def _sample_layer(self):
        """Name for sample spans opened under the current stack."""
        for idx in reversed(self._stack):
            name = self.spans[idx]["name"]
            if name.startswith("inequalities."):
                return name
        return "estimators.reduce"

    def wrap_engine(self, run_indexed):
        tracer = self

        @functools.wraps(run_indexed)
        def traced(task_fn, *args, **kwargs):
            layer = tracer._sample_layer()

            def task(*targs, **tkwargs):
                return tracer.call(layer, task_fn, targs, tkwargs, sample=True)

            return tracer.call(ENGINE_SPAN, run_indexed, (task,) + args, kwargs)

        return traced

    def install(self):
        """Patch every binding that exists; record the ones that do not."""
        targets = [(m, a, lambda f, n=n, w=w: self.wrap(f, n, w)) for m, a, n, w in BINDINGS]
        targets += [(m, a, self.wrap_engine) for m, a in ENGINE_BINDINGS]
        for modname, attr, make in targets:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing.append(f"{modname}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{modname}.{attr}")
                continue
            setattr(module, attr, make(fn))
            self.installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self.installed):
            setattr(module, attr, fn)
        self.installed = []

    def run(self, run_id, fn, *args):
        """Call fn(*args) under a root span tagged with run_id."""
        self.run_id = run_id
        try:
            return self.call(RUN_SPAN, fn, args, {})
        finally:
            self.run_id = None


def self_times(spans):
    """Per span: duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = []
    for span, kids in zip(spans, children):
        lo, hi = span["start"], span["end"]
        covered = 0.0
        cur_lo = cur_hi = None
        for kid in sorted(kids, key=lambda s: s["start"]):
            a, b = max(kid["start"], lo), min(kid["end"], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def _percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]


def layer_metrics(spans, kinds):
    """Per-layer metrics from a finished span list.

    kinds maps each root span's run id to its fmlab kind.  Every span's self
    time lands in exactly one *_s layer metric, so the layer self times plus
    trace.unattributed_s equal trace.wall_s.
    """
    selfs = self_times(spans)
    m = {name: 0.0 for name in set(SELF_TIME_LAYER.values())}
    counts = {}
    work = {}
    errors = {}
    sample_ms = []
    wall = 0.0
    kind_s = {}
    for span, own in zip(spans, selfs):
        name = span["name"]
        m[SELF_TIME_LAYER[name]] += own
        if span["sample"]:
            sample_ms.append(1e3 * (span["end"] - span["start"]))
        else:
            counts[name] = counts.get(name, 0) + 1
            work[name] = work.get(name, 0.0) + span["work"]
        if span["error"] == "ResampleSignal":
            errors[name] = errors.get(name, 0) + 1
        if span["parent"] is None:
            dur = span["end"] - span["start"]
            wall += dur
            kind = kinds.get(span["run"], "unknown")
            kind_s[kind] = kind_s.get(kind, 0.0) + dur
    solves = counts.get("numerics.solve", 0)
    m.update({
        "disorder.draw_calls": counts.get("disorder.draw", 0),
        "model.assemble_calls": counts.get("model.assemble", 0),
        "numerics.solve_calls": solves,
        "numerics.solve_gflop_computed": work.get("numerics.solve", 0.0),
        "numerics.solve_gflops": _rate(work.get("numerics.solve", 0.0), m["numerics.solve_s"]),
        "numerics.resample_frac": errors.get("numerics.solve", 0) / solves if solves else 0.0,
        "numerics.eig_calls": counts.get("numerics.eig", 0),
        "numerics.eig_gflop_computed": work.get("numerics.eig", 0.0),
        "numerics.eig_gflops": _rate(work.get("numerics.eig", 0.0), m["numerics.eig_s"]),
        "kernels.opnorm_blocks": work.get("kernels.opnorm", 0.0),
        "kernels.jacobi_calls": counts.get("kernels.jacobi", 0),
        "quadrature.integrate_calls": counts.get("quadrature.integrate", 0),
        "engine.sample_ms_p50": _percentile(sample_ms, 50) if sample_ms else 0.0,
        "engine.sample_ms_p99": _percentile(sample_ms, 99) if sample_ms else 0.0,
        "trace.wall_s": wall,
    })
    for kind, seconds in kind_s.items():
        m[f"runner.kind_s.{kind}"] = seconds
    return m


def _rate(gflop, seconds):
    return gflop / seconds if seconds > 0 else 0.0
