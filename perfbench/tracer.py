"""Span tracing of corrdyn's public functions, patched in from outside.

``Tracer.installed()`` replaces each traced function at every place it is
looked up (module globals of every ``corrdyn`` module, or the class
attribute for methods) and restores the originals on exit.  Every call
records a span (name, start, end, parent) into flat arrays; counters
record work items (points, paths, edges, cells), not calls, so a batched
API can later join the wrapper list without changing what a counter means.

A wrapper costs about a microsecond per call, partly inside the span it
records and partly outside it, in the caller's time.  ``calibrate()``
measures both parts on a wrapped no-op, and self times are reported with
them taken out, so a layer called millions of times keeps its real share.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Counters run after the wrapped call returns.  Each gets the tracer, the
# call arguments and the result.

def _count_roots(tr, args, kwargs, result):
    tr.counts["sphere.roots"] += 1
    tr.counts["sphere.roots.multiple"] += any(m > 1 for _, m in result)


def _count_sph_dist(tr, args, kwargs, result):
    tr.counts["sphere.sph_dist"] += 1


def _count_fiber(tr, args, kwargs, result):
    tr.counts["correspondence.fibers"] += 1
    tr.counts["correspondence.degenerate"] += bool(result.degenerate)
    if tr.depth["pullback.iterate"]:
        tr.counts["pullback.particles"] += 1


def _count_cell_index(tr, args, kwargs, result):
    tr.counts["grid.cell_index"] += 1


def _count_enumerate(tr, args, kwargs, result):
    tr.counts["paths.enumerated"] += len(result.paths)
    tr.counts["paths.truncated"] += bool(result.truncated)


def _count_subset(kind):
    def count(tr, args, kwargs, result):
        tr.counts[f"paths.{kind}.offered"] += len(args[0])
        tr.counts[f"paths.{kind}.admitted"] += len(result)
    return count


def _count_kernel(tr, args, kwargs, result):
    tr.counts["transfer.kernel_edges"] += len(args[0].src)


def _count_power(tr, args, kwargs, result):
    tr.counts["transfer.power.iterations"] += result.iterations


def _count_clamped(tr, args, kwargs, result):
    if tr.depth["transfer.kernel"]:
        tr.counts["transfer.clamped"] += 1


# (span name, module, attribute path, counter).  A span name of None only
# counts, without a span.  Module functions are patched wherever a corrdyn
# module holds them; methods are patched on their class.
TARGETS = (
    ("cli", "corrdyn.cli", "main", None),
    ("sphere.roots", "corrdyn.sphere", "roots", _count_roots),
    ("sphere.sph_dist", "corrdyn.sphere", "sph_dist", _count_sph_dist),
    ("correspondence.fiber", "corrdyn.correspondence",
     "Correspondence.backward_images", _count_fiber),
    ("correspondence.fiber", "corrdyn.correspondence",
     "Correspondence.forward_images", _count_fiber),
    ("correspondence.probe", "corrdyn.correspondence", "expansivity_probe", None),
    ("grid.cell_index", "corrdyn.grid", "SphereGrid.cell_index", _count_cell_index),
    ("grid.dilate", "corrdyn.grid", "SphereGrid.dilate", None),
    ("paths.enumerate", "corrdyn.paths", "enumerate_forward_paths", _count_enumerate),
    ("paths.enumerate", "corrdyn.paths", "enumerate_backward_paths", _count_enumerate),
    ("paths.separated", "corrdyn.paths", "separated_subset", _count_subset("separated")),
    ("paths.spanning", "corrdyn.paths", "spanning_subset", _count_subset("spanning")),
    ("pressure.estimate", "corrdyn.pressure", "pressure_estimate", None),
    ("pullback.iterate", "corrdyn.pullback", "pullback_iterate", None),
    ("pullback.support", "corrdyn.pullback", "ds_support", None),
    ("pullback.invariance", "corrdyn.pullback", "check_backward_invariance", None),
    ("transfer.kernel", "corrdyn.transfer", "TransferKernel.__init__", _count_kernel),
    (None, "corrdyn.transfer", "ActiveGrid.position_of_point", _count_clamped),
    ("transfer.power", "corrdyn.transfer", "power_iteration", _count_power),
    ("transfer.normalize", "corrdyn.transfer", "normalize", None),
    ("transfer.adjoint", "corrdyn.transfer", "adjoint_fixed_point", None),
    ("transfer.convergence", "corrdyn.transfer", "convergence_check", None),
    ("transfer.holder", "corrdyn.transfer", "holder_norm", None),
    ("measures.from_particles", "corrdyn.measures",
     "SphereMeasure.from_particles", None),
    ("measures.distance", "corrdyn.measures", "measure_distance", None),
    ("measures.empirical", "corrdyn.measures", "empirical_invariant_measure", None),
    ("measures.variational", "corrdyn.measures", "variational_check", None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS if t[0] is not None))


class Tracer:
    """In-memory span recorder with work-item counters."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.depth = dict.fromkeys(self.names, 0)
        self.counts: Counter = Counter()
        #: Calls of count-only wrappers, keyed by the enclosing span index.
        self.counted_under: Counter = Counter()
        #: Tracing cost per wrapped call inside its span, outside it, and
        #: of a count-only wrapper, in seconds (set by ``calibrate``).
        self.cost_in = self.cost_out = self.cost_count = 0.0

    def wrap(self, name, fn, count):
        if name is None:
            stack, counted_under = self.stack, self.counted_under

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counted_under[stack[-1] if stack else -1] += 1
                count(self, args, kwargs, result)
                return result
            return counted

        nid = self.name_id[name]
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, depth, clock = self.stack, self.depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            depth[name] += 1
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                depth[name] -= 1
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return traced

    def calibrate(self, calls: int = 5000, rounds: int = 20):
        """Measure the tracing cost of one call on a wrapped no-op, through
        a scratch tracer that runs the same code (span plus counter).

        Each cost is the least over short rounds, the cost on the host at
        its fastest.  A wrapped call seldom costs less, so the correction
        errs low; the rest of the tracing cost stays in
        the self times and shows as trace.overhead_s - trace.wrapper_s."""
        probe = Tracer()

        def noop(*args, **kwargs):
            return None

        spanned = probe.wrap(SPAN_NAMES[0], noop, _count_probe)
        counted = probe.wrap(None, noop, _count_probe)
        bare, total, inside, count_only = [], [], [], []
        for _ in range(rounds):
            bare.append(_seconds_per_call(noop, calls))
            first = len(probe.span_start)
            total.append(_seconds_per_call(spanned, calls))
            inside.append((sum(probe.span_end[first:])
                           - sum(probe.span_start[first:])) / calls)
            count_only.append(_seconds_per_call(counted, calls))
        base = min(bare)
        self.cost_in = max(min(inside) - base, 0.0)
        self.cost_out = max(min(total) - base - self.cost_in, 0.0)
        self.cost_count = max(min(count_only) - base, 0.0)

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        undo = []
        try:
            for name, module, attr, count in TARGETS:
                undo.extend(self._patch(name, module, attr, count))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _patch(self, name, module, attr, count):
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__, count))
            else:
                wrapped = self.wrap(name, original, count)
            setattr(cls, meth, wrapped)
            return [(cls, meth, original)]
        original = getattr(mod, attr)
        wrapped = self.wrap(name, original, count)
        undo = []
        for holder in _corrdyn_modules():
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
                    undo.append((holder, key, original))
        return undo

    # -- results ---------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.span_name, dtype=np.int32),
                np.frombuffer(self.span_parent, dtype=np.int32),
                np.frombuffer(self.span_start, dtype=np.float64),
                np.frombuffer(self.span_end, dtype=np.float64))

    def _span_self(self) -> np.ndarray:
        """Self time of every span: its time minus the time its child spans
        cover, minus the tracing cost inside it and that of the wrapped
        calls made under it."""
        _, parents, start, end = self.arrays()
        n = len(start)
        duration = end - start
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=duration[has_parent],
                            minlength=n)
        children = np.bincount(parents[has_parent], minlength=n)
        counted = np.zeros(n)
        for idx, calls in self.counted_under.items():
            if idx >= 0:
                counted[idx] += calls
        return (duration - child - self.cost_in - self.cost_out * children
                - self.cost_count * counted)

    def self_times(self) -> dict[str, float]:
        """Span self times summed per name."""
        own = np.bincount(self.arrays()[0], weights=self._span_self(),
                          minlength=len(self.names))
        return {n: float(own[i]) for i, n in enumerate(self.names)}

    def inclusive_time(self, name: str) -> float:
        """Self time of the spans of ``name`` and of all spans under them.
        No traced function calls itself, so spans of one name never nest."""
        names, parents, _, _ = self.arrays()
        under = names == self.name_id[name]
        has_parent = parents >= 0
        while True:  # a parent precedes its children, so this settles
            grown = under.copy()
            grown[has_parent] |= under[parents[has_parent]]
            if (grown == under).all():
                break
            under = grown
        return float(self._span_self()[under].sum())

    def wrapper_seconds(self) -> float:
        """Estimated tracing cost of the job, taken out of the self times."""
        return (len(self.span_start) * (self.cost_in + self.cost_out)
                + sum(self.counted_under.values()) * self.cost_count)

    def write(self, path: Path):
        """Write the spans as flat arrays, the name table and the
        calibrated costs (inside, outside, count-only)."""
        names, parents, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, name=names, parent=parents, start=start, end=end,
                 names=np.array(self.names),
                 cost=np.array([self.cost_in, self.cost_out, self.cost_count]))


def _count_probe(tr, args, kwargs, result):
    tr.counts["probe"] += 1


def _seconds_per_call(fn, calls: int) -> float:
    started = time.perf_counter()
    for _ in range(calls):
        fn(1.0, 2.0)
    return (time.perf_counter() - started) / calls


def _corrdyn_modules():
    import corrdyn
    yield corrdyn
    for info in pkgutil.iter_modules(corrdyn.__path__):
        yield importlib.import_module(f"corrdyn.{info.name}")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced job, keyed by metric name."""
    self_s = tracer.self_times()
    c = tracer.counts
    fiber_total = tracer.inclusive_time("correspondence.fiber")

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{name}.self_s": self_s[name] for name in SPAN_NAMES}
    out.update({
        "correspondence.fibers": c["correspondence.fibers"],
        "correspondence.fibers_per_s": ratio(c["correspondence.fibers"], fiber_total),
        "correspondence.degenerate_ratio": ratio(c["correspondence.degenerate"],
                                                 c["correspondence.fibers"]),
        "sphere.roots.calls": c["sphere.roots"],
        "sphere.roots.multiple_ratio": ratio(c["sphere.roots.multiple"],
                                             c["sphere.roots"]),
        "sphere.sph_dist.calls": c["sphere.sph_dist"],
        "grid.cell_index.calls": c["grid.cell_index"],
        "paths.enumerated": c["paths.enumerated"],
        "paths.truncated": c["paths.truncated"],
        "paths.separated_ratio": ratio(c["paths.separated.admitted"],
                                       c["paths.separated.offered"]),
        "paths.spanning_ratio": ratio(c["paths.spanning.admitted"],
                                      c["paths.spanning.offered"]),
        "pullback.particles": c["pullback.particles"],
        "transfer.kernel_edges": c["transfer.kernel_edges"],
        "transfer.clamped_ratio": ratio(c["transfer.clamped"],
                                        c["transfer.kernel_edges"]),
        "transfer.power.iterations": c["transfer.power.iterations"],
        "paths.families.inclusive_s": (tracer.inclusive_time("paths.separated")
                                       + tracer.inclusive_time("paths.spanning")),
        "trace.wrapper_s": tracer.wrapper_seconds(),
    })
    return out


def _units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in SPAN_NAMES}
    units.update({
        "correspondence.fibers": "count",
        "correspondence.fibers_per_s": "1/s",
        "correspondence.degenerate_ratio": "ratio",
        "sphere.roots.calls": "count",
        "sphere.roots.multiple_ratio": "ratio",
        "sphere.sph_dist.calls": "count",
        "grid.cell_index.calls": "count",
        "paths.enumerated": "count",
        "paths.truncated": "count",
        "paths.separated_ratio": "ratio",
        "paths.spanning_ratio": "ratio",
        "pullback.particles": "count",
        "transfer.kernel_edges": "count",
        "transfer.clamped_ratio": "ratio",
        "transfer.power.iterations": "count",
        "trace.job_s": "s",
        "trace.overhead_s": "s",
        "paths.families.inclusive_s": "s",
        "trace.wrapper_s": "s",
    })
    return units


#: Unit of every per-layer metric the traced run prints.
LAYER_UNITS = _units()

#: Metrics that are exact counts or ratios of counts; they must repeat
#: exactly for a fixed seed.
COUNT_METRICS = tuple(n for n, u in LAYER_UNITS.items() if u in ("count", "ratio"))
