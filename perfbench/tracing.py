"""Span tracing of speds' public functions, installed from outside the package.

``Tracer.installed()`` replaces each public function of the traced modules by
a wrapper that records a span (name, start, end, parent) and the counts the
benchmark reports.  Several modules import functions by value (``dipole``
imports ``stack_rt``, ``designer`` imports ``direct_collection_efficiency``,
``cli`` imports ``sweep_bottom_mirror`` and ``optimize_top_mirror``), so the
wrapper is installed under every name in the package that is bound to the
function.  Spans stay in memory; ``layer_metrics`` turns them into the
per-layer metrics.
"""

import inspect
import sys
import time
from contextlib import contextmanager

PACKAGE = "speds"
LAYERS = ("multilayer", "dipole", "designer", "qd", "hbt", "cli")

# kz_normal runs once per medium inside every stack_rt call; a span there
# would cost more than the work it measures.
UNTRACED = frozenset({"multilayer.kz_normal"})

# The result objects whose to_csv is the CLI's file-writing step.
WRITERS = (
    ("dipole", "AngularPowerSpectrum"),
    ("designer", "SweepResult"),
    ("hbt", "CorrelationHistogram"),
    ("hbt", "PeakAreas"),
)
WRITE_SPAN = "cli.write"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _on_result(count):
    """A probe that derives its counts from the arguments and the result."""

    def probe(args, kwargs):
        return args, kwargs, lambda result: count(args, kwargs, result)

    return probe


def _stack_rt(args, kwargs, result):
    stack = _arg(args, kwargs, 0, "stack")
    kpar = _arg(args, kwargs, 2, "kpar")
    # k-points times media: the finite layers plus the two half-spaces
    return {"kpoint_layers": getattr(kpar, "size", 1) * (len(stack.layers) + 2)}


def _adaptive_integral(args, kwargs):
    """Counts the nodes the integrand is evaluated at, and the final panel set's."""
    tally = {"nodes": 0, "final_nodes": 0}
    args = list(args)
    f = args[0] if args else kwargs["f"]

    def counted(x):
        tally["nodes"] += x.size
        tally["final_nodes"] = x.size
        return f(x)

    if args:
        args[0] = counted
    else:
        kwargs = dict(kwargs, f=counted)
    return tuple(args), kwargs, lambda result: tally


PROBES = {
    "multilayer.stack_rt": _on_result(_stack_rt),
    "dipole.adaptive_integral": _adaptive_integral,
    "qd.simulate": _on_result(lambda a, k, rec: {"photons": len(rec.events)}),
    "hbt.detect": _on_result(
        lambda a, k, clicks: {
            "photons": len(_arg(a, k, 0, "record").events),
            "clicks": len(clicks[0]) + len(clicks[1]),
        }
    ),
    "hbt.correlate": _on_result(
        lambda a, k, hist: {"starts": int(hist.n_a), "pairs": int(hist.counts.sum())}
    ),
}


def _traced_functions():
    """{id(function): (function, span name)} for every traced function."""
    targets = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in UNTRACED
            ):
                targets[id(obj)] = (obj, name)
    return targets


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, counts]
        self._open = []

    def wrap(self, name, fn, probe=None):
        spans, open_, clock = self.spans, self._open, self.clock

        def traced(*args, **kwargs):
            done = None
            if probe is not None:
                args, kwargs, done = probe(args, kwargs)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if done is not None:
                span[4] = done(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Install the wrappers in every module of the package; restore on exit."""
        wrappers = {
            key: (fn, self.wrap(name, fn, PROBES.get(name)))
            for key, (fn, name) in _traced_functions().items()
        }
        restore = []
        modules = [
            m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        methods = [("qd", "EmissionRecord", "times", "qd.EmissionRecord.times")]
        methods += [(layer, cls, "to_csv", WRITE_SPAN) for layer, cls in WRITERS]
        for layer, cls_name, attr, name in methods:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            original = vars(cls)[attr]
            restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def stats(self):
        """Per span name: calls, inclusive and self time, and summed counts.

        Inclusive time counts only the outermost span of a recursive call
        (``AngularPowerSpectrum.to_csv`` calls itself once).  ``calls:<name>``
        counts the direct calls a function made to ``<name>``.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent, counts) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            if parent < 0 or self.spans[parent][0] != name:
                s["time_s"] += end - start
            s["self_s"] += end - start - child_time[i]
            if parent >= 0:
                caller = out[self.spans[parent][0]]
                caller[f"calls:{name}"] = caller.get(f"calls:{name}", 0) + 1
            for key, value in (counts or {}).items():
                s[key] = s.get(key, 0) + value
        return out


class CoverageError(RuntimeError):
    """A traced pass did not exercise the layers its workload should."""


def check_coverage(stats, workload):
    """Raise unless every expected function ran and every idle layer stayed idle."""
    missing = [n for n in workload.active if stats.get(n, {}).get("calls", 0) == 0]
    busy = sorted(n for n in stats if n.split(".")[0] in workload.idle)
    if missing or busy:
        raise CoverageError(
            f"workload {workload.name}: expected calls missing for {missing}, "
            f"idle layers called by {busy}"
        )


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(stats, run_walls):
    """The per-layer metrics of one traced pass.

    ``stats`` comes from ``Tracer.stats``; ``run_walls`` maps each preset run
    in the pass to its wall time.  Functions a workload does not call read 0.
    """

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    m = {}
    m["multilayer.stack_rt.calls"] = get("multilayer.stack_rt", "calls")
    m["multilayer.stack_rt.time_s"] = get("multilayer.stack_rt", "time_s")
    m["multilayer.stack_rt.kpoint_layers_per_s"] = _ratio(
        get("multilayer.stack_rt", "kpoint_layers"), m["multilayer.stack_rt.time_s"]
    )
    m["dipole.emission_pattern.time_s"] = get("dipole.emission_pattern", "time_s")
    for key in ("calls", "time_s"):
        m[f"dipole.direct_collection_efficiency.{key}"] = get(
            "dipole.direct_collection_efficiency", key
        )
    m["dipole.adaptive_integral.calls"] = get("dipole.adaptive_integral", "calls")
    m["dipole.adaptive_integral.nodes"] = get("dipole.adaptive_integral", "nodes")
    m["dipole.adaptive_integral.useful_node_fraction"] = _ratio(
        get("dipole.adaptive_integral", "final_nodes"), m["dipole.adaptive_integral.nodes"]
    )
    sweeps = ("designer.sweep_bottom_mirror", "designer.optimize_top_mirror")
    for name in sweeps:
        m[f"{name}.time_s"] = get(name, "time_s")
    # the sweeps evaluate one design per direct_collection_efficiency call
    m["designer.designs_per_s"] = _ratio(
        sum(get(n, "calls:dipole.direct_collection_efficiency") for n in sweeps),
        sum(get(n, "time_s") for n in sweeps),
    )
    m["qd.simulate.time_s"] = get("qd.simulate", "time_s")
    m["qd.simulate.photons"] = get("qd.simulate", "photons")
    m["qd.simulate.photons_per_s"] = _ratio(m["qd.simulate.photons"], m["qd.simulate.time_s"])
    m["qd.EmissionRecord.times.time_s"] = get("qd.EmissionRecord.times", "time_s")
    m["hbt.detect.time_s"] = get("hbt.detect", "time_s")
    m["hbt.detect.photons_per_s"] = _ratio(get("hbt.detect", "photons"), m["hbt.detect.time_s"])
    m["hbt.detect.clicks"] = get("hbt.detect", "clicks")
    m["hbt.correlate.time_s"] = get("hbt.correlate", "time_s")
    m["hbt.correlate.starts_per_s"] = _ratio(
        get("hbt.correlate", "starts"), m["hbt.correlate.time_s"]
    )
    m["hbt.correlate.pairs"] = get("hbt.correlate", "pairs")
    m["hbt.correlate.pairs_per_s"] = _ratio(m["hbt.correlate.pairs"], m["hbt.correlate.time_s"])
    m["hbt.peak_area_analysis.time_s"] = get("hbt.peak_area_analysis", "time_s")
    for layer in LAYERS[:-1]:
        m[f"{layer}.self_s"] = sum(
            s["self_s"] for n, s in stats.items() if n.split(".")[0] == layer
        )
    m["cli.write_s"] = get(WRITE_SPAN, "self_s")
    m["cli.self_s"] = sum(
        s["self_s"] for n, s in stats.items() if n.startswith("cli.") and n != WRITE_SPAN
    )
    for preset, wall in run_walls.items():
        m[f"cli.run.{preset}.wall_s"] = wall
    return m
