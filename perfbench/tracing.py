"""In-memory tracing of the calls between lsufdr's modules.

`Tracer.install` replaces a module attribute with a wrapper at the place
where the calling module binds it (for example `lsufdr.asymptotics.integrate`
rather than `lsufdr.quadrature.integrate`), and `Tracer.uninstall` puts the
originals back.  Wrappers either record a span or only count: scalar special
functions are counted and never timed, because a timing wrapper on them
doubles the cost of the quadrature-heavy grid points.

A span is the list [name, start, end, parent]; self time is the span's
duration minus the durations of its direct children.  A wrap target that a
later version of the package no longer has is listed in `absent` instead of
raising, so the traced run still completes.
"""

from __future__ import annotations

import types
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Scalar special functions whose calls are counted, one metric each.
SCALAR_FUNCS = ("Phi", "Phi_inv", "norm_sf", "norm_isf", "norm_logsf",
                "norm_isf_log", "t_sf", "t_isf", "t_logsf", "t_logpdf",
                "chi_cdf", "chi_quantile", "erfcx")

# Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "quadrature": "quadrature.self_s",
    "models.sample": "models.sample.self_s",
    "crossing.report": "crossing.report.self_s",
    "specfun.vector": "specfun.vector_self_s",
    "stepup": "stepup.self_s",
    "montecarlo": "montecarlo.self_s",
    "exact.bnp": "exact.bnp.self_s",
    "exact.restricted": "exact.restricted.self_s",
    "asymptotics": "asymptotics.self_s",
    "asymptotics.tz": "asymptotics.tz.self_s",
}

COUNT_METRICS = (
    "quadrature.calls", "quadrature.evals", "quadrature.evals_max_point",
    "models.z_of_t.calls", "models.z_of_t.errors",
    "models.disturbance_cdf.calls",
    "models.sample.calls", "models.sample.pvalues",
    "crossing.report.calls",
    "specfun.vector_calls", "specfun.vector_elems",
    "stepup.calls", "stepup.sorted_elems",
    "montecarlo.rng_streams",
    "exact.restricted.sorted_elems",
) + tuple(f"specfun.scalar_calls.{fn}" for fn in SCALAR_FUNCS)


class Tracer:
    """Spans and work counts for one traced pass of a workload."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._le_alpha = 0
        self._op_evals = 0
        self._max_op_evals = 0

    # -- recording ---------------------------------------------------------

    @contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def spanned(self, name: str, fn, count: str | None = None):
        """Wrap fn so each call records a span (and bumps a call count)."""

        def wrapper(*args, **kwargs):
            if count is not None:
                self.counts[count] += 1
            with self._span(name):
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, name: str, fn, errors: str | None = None):
        """Wrap fn so each call bumps a count; ValueErrors are counted too."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if errors is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            except ValueError:
                counts[errors] += 1
                raise

        return wrapper

    def begin_op(self):
        """Mark the start of one benchmark operation (grid point, run...)."""
        self._op_evals = self.counts["quadrature.evals"]

    def end_op(self):
        used = self.counts["quadrature.evals"] - self._op_evals
        self._max_op_evals = max(self._max_op_evals, used)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if not hasattr(owner, attr):
            self.absent.append(label)
            return
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, pkg):
        """Wrap the module boundaries of the imported package `pkg`."""
        asym, mc, ex = pkg.asymptotics, pkg.montecarlo, pkg.exact

        self._patch(asym, "eer_fdr_normal",
                    lambda f: self.spanned("asymptotics", f))
        self._patch(asym, "eer_fdr_t",
                    lambda f: self.spanned("asymptotics", f))
        self._patch(asym, "t_of_z_normal",
                    lambda f: self.spanned("asymptotics.tz", f))
        self._patch(asym, "integrate", self._wrap_integrate)
        self._patch(asym, "crossing_report",
                    lambda f: self.spanned("crossing.report", f,
                                           "crossing.report.calls"))
        self._patch(asym, "z_of_t",
                    lambda f: self.counted("models.z_of_t.calls", f,
                                           errors="models.z_of_t.errors"))
        self._patch(asym, "disturbance_cdf",
                    lambda f: self.counted("models.disturbance_cdf.calls", f))

        self._patch(mc, "run", lambda f: self.spanned("montecarlo", f))
        self._patch(mc, "make_rng",
                    lambda f: self.counted("montecarlo.rng_streams", f))
        self._patch(mc, "_assemble", self._wrap_assemble)
        self._patch(mc, "lsu", self._wrap_stepup)
        self._patch(mc, "lsd", self._wrap_stepup)

        self._patch(ex, "restricted_fdr_check", self._wrap_restricted)
        self._patch(ex, "boundary_noncrossing_prob",
                    lambda f: self.spanned("exact.bnp", f))

        for caller in (pkg.models, pkg.crossing, asym):
            self._patch(caller, "sf", self._wrap_specfun)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_integrate(self, integrate):
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            def counted_f(x):
                counts["quadrature.evals"] += 1
                return f(x)

            counts["quadrature.calls"] += 1
            with self._span("quadrature"):
                return integrate(counted_f, *args, **kwargs)

        return wrapper

    def _wrap_assemble(self, assemble):
        def wrapper(model, config, *args, **kwargs):
            self.counts["models.sample.calls"] += 1
            self.counts["models.sample.pvalues"] += int(config.n)
            with self._span("models.sample"):
                return assemble(model, config, *args, **kwargs)

        return wrapper

    def _wrap_stepup(self, proc):
        def wrapper(sample, alpha, *args, **kwargs):
            with self._span("stepup"):
                result = proc(sample, alpha, *args, **kwargs)
            # the tail count is bookkeeping, kept out of the caller's self time
            with self._span("trace.bookkeeping"):
                pv = np.asarray(sample.pvalues)
                self.counts["stepup.calls"] += 1
                self.counts["stepup.sorted_elems"] += int(pv.size)
                self._le_alpha += int(np.count_nonzero(pv <= alpha))
            return result

        return wrapper

    def _wrap_restricted(self, check):
        def wrapper(spec, alpha, replicates=10 ** 6, *args, **kwargs):
            self.counts["exact.restricted.sorted_elems"] += \
                int(replicates) * int(spec.n)
            with self._span("exact.restricted"):
                return check(spec, alpha, replicates, *args, **kwargs)

        return wrapper

    def _wrap_specfun(self, sf):
        """A stand-in for the specfun module as one caller sees it."""
        counts = self.counts
        proxy = types.ModuleType(sf.__name__)
        proxy.__dict__.update(sf.__dict__)

        def wrap(name, fn):
            key = f"specfun.scalar_calls.{name}"

            def wrapper(x, *args, **kwargs):
                if isinstance(x, np.ndarray) and x.ndim:
                    counts["specfun.vector_calls"] += 1
                    counts["specfun.vector_elems"] += int(x.size)
                    with self._span("specfun.vector"):
                        return fn(x, *args, **kwargs)
                counts[key] += 1
                return fn(x, *args, **kwargs)

            return wrapper

        for name in (*getattr(sf, "__all__", ()), "_ppf_raw"):
            fn = getattr(sf, name, None)
            if callable(fn):
                setattr(proxy, name, wrap(name, fn))
        return proxy

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return dict(out)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of this tracer, zero where unreached."""
        out = {name: 0 for name in COUNT_METRICS}
        out.update((k, v) for k, v in self.counts.items() if k in out)
        out["quadrature.evals_max_point"] = self._max_op_evals
        selfs = self.self_times()
        for span, metric in SELF_TIME_METRICS.items():
            out[metric] = selfs.get(span, 0.0)
        elems = self.counts["stepup.sorted_elems"]
        out["stepup.le_alpha_frac"] = self._le_alpha / elems if elems else 0.0
        return out
