"""Span tracing of duallab's public functions from outside the package.

:func:`install` wraps the public functions and methods listed in
:data:`TARGETS` and replaces every binding of each one in every loaded
``duallab`` module, so calls that go through a ``from .x import y``
binding are traced as well.  Each call records a span (name, start,
end, parent) on a per-thread stack; spans stay in memory and
are turned into per-layer metrics by :func:`layer_metrics` once the
pass ends.  Nothing is traced unless :func:`install` is called.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import duallab  # noqa: F401  (loads every module whose bindings get replaced)


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    attrs: dict = field(default_factory=dict)


class Recorder:
    """In-memory span store with one open-span stack per thread.

    A span opened on a thread whose stack is empty gets the recorder's
    root span as parent, so work on pool threads nests under the pass
    that started it and the root's self time is the time no traced call
    ran on any thread.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.root: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        span = Span(name, time.perf_counter(), parent=parent)
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()

    def open_root(self, name: str = "pass") -> None:
        self.root = self.begin(name)

    def close_root(self) -> None:
        self.end(self.root)


# -- attribute extractors: (args, kwargs, result) -> span attributes --------


def _compose_attrs(args, kwargs, out):
    this, other = args[0], args[1] if len(args) > 1 else kwargs["other"]
    return {"terms_in": len(this.terms) * len(other.terms), "terms_out": len(out.terms)}


def _to_dense_attrs(args, kwargs, out):
    return {"terms": len(args[0].terms), "bytes_computed": out.matrix.nbytes}


def _to_dense_l2_attrs(args, kwargs, out):
    return {"bytes_computed": out.nbytes}


def _span_closure_attrs(args, kwargs, out):
    basis, rounds = out
    return {"rounds": rounds, "basis_dim": len(basis)}


def _mc_attrs(args, kwargs, out):
    return {"samples": out.samples, "d": out.mean.matrix.shape[0]}


# (module, attribute path, attribute extractor); the span is named
# "<module>.<function>", e.g. "legops.compose" or "legops.add" for __add__
TARGETS = [
    ("legops", "StructuredOperator.compose", _compose_attrs),
    ("legops", "StructuredOperator.__add__", None),
    ("legops", "StructuredOperator.hs_norm", None),
    ("legops", "StructuredOperator.normalized_trace", None),
    ("legops", "StructuredOperator.adjoint", None),
    ("legops", "StructuredOperator.operator_norm", None),
    ("legops", "StructuredOperator.apply", None),
    ("legops", "StructuredOperator.to_dense", _to_dense_attrs),
    ("duality_core", "haar_average_mc", None),
    ("duality_core", "haar_unitary", None),
    ("duality_core", "t_mixed", None),
    ("duality_core", "limit_formula_check", None),
    ("duality_core", "sigma_average_exact", None),
    ("duality_core", "product_average_exact", None),
    ("duality_core", "haar_pair_average_exact", None),
    ("duality_core", "young_projection", None),
    ("symcomb", "character", None),
    ("algebra_tools", "span_closure", _span_closure_attrs),
    ("algebra_tools", "block_structure", None),
    ("algebra_tools", "commutant_basis", None),
    ("algebra_tools", "generated_algebra_dim", None),
    ("algebra_tools", "span_growth_check", None),
    ("algebra_tools", "relative_gap", None),
    ("algebra_tools", "orthonormalize", None),
    ("crossed", "theta_apply", None),
    ("crossed", "CrossedOperator.to_dense_l2", _to_dense_l2_attrs),
    ("crossed", "CrossedOperator.multiply", None),
    ("crossed", "compression_check", None),
    ("crossed", "center_basis", None),
    ("experiments", "run_experiment", None),
    ("reporting", "ExperimentReport.records", None),
    ("reporting", "write_jsonl", None),
]

# layer of each span-name prefix; the CLI's experiments and its report
# writer form one layer
LAYER_OF = {
    "legops": "legops",
    "duality_core": "duality_core",
    "symcomb": "symcomb",
    "algebra_tools": "algebra_tools",
    "crossed": "crossed",
    "experiments": "experiments",
    "reporting": "experiments",
}
LAYERS = ("legops", "duality_core", "symcomb", "algebra_tools", "crossed", "experiments")


def _wrap(rec: Recorder, name: str, fn, extract):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if extract is not None:
            rec.spans[idx].attrs.update(extract(args, kwargs, out))
        return out

    return wrapper


def _wrap_experiment(rec: Recorder, fn):
    """run_experiment: one span per experiment, with its thread CPU time."""

    @functools.wraps(fn)
    def wrapper(config, *args, **kwargs):
        idx = rec.begin(f"experiments.{config.experiment}")
        cpu0 = time.thread_time()
        try:
            return fn(config, *args, **kwargs)
        finally:
            rec.spans[idx].attrs["thread_cpu_s"] = time.thread_time() - cpu0
            rec.end(idx)

    return wrapper


def _wrap_mc(rec: Recorder, fn):
    """haar_average_mc: its integrand gets a span of its own."""
    inner = _wrap(rec, "duality_core.haar_average_mc", fn, _mc_attrs)

    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        return inner(_wrap(rec, "duality_core.integrand", f, None), *args, **kwargs)

    return wrapper


def _wrap_generated_dim(rec: Recorder, fn):
    """generated_algebra_dim: counts the draws of a sampler argument."""

    @functools.wraps(fn)
    def wrapper(generators, *args, **kwargs):
        draws = [0]
        if callable(generators):
            sampler = generators

            def generators(r):
                draws[0] += 1
                return sampler(r)

        idx = rec.begin("algebra_tools.generated_algebra_dim")
        try:
            return fn(generators, *args, **kwargs)
        finally:
            rec.end(idx)
            rec.spans[idx].attrs["sampler_draws"] = draws[0]

    return wrapper


class Installation:
    """The replaced bindings, so :meth:`remove` can put the originals back."""

    def __init__(self) -> None:
        self.replaced: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self.replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, old in reversed(self.replaced):
            setattr(owner, attr, old)
        self.replaced.clear()


def install(rec: Recorder) -> Installation:
    """Wrap every target and rebind it wherever duallab holds a reference."""
    inst = Installation()
    modules = [m for n, m in sys.modules.items() if n == "duallab" or n.startswith("duallab.")]
    for modname, path, extract in TARGETS:
        module = sys.modules[f"duallab.{modname}"]
        name = f"{modname}.{path.rpartition('.')[2].strip('_')}"
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            inst.replace(cls, attr, _wrap(rec, name, cls.__dict__[attr], extract))
            continue
        fn = getattr(module, path)
        if path == "run_experiment":
            new = _wrap_experiment(rec, fn)
        elif path == "haar_average_mc":
            new = _wrap_mc(rec, fn)
        elif path == "generated_algebra_dim":
            new = _wrap_generated_dim(rec, fn)
        else:
            new = _wrap(rec, name, fn, extract)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    inst.replace(mod, attr, new)
    return inst


# -- span arithmetic -------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children on other threads can overlap each other, so the covered
    part is the length of the union of the child intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def _has_ancestor(spans: list[Span], idx: int, name: str) -> bool:
    p = spans[idx].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


# -- per-layer metrics -------------------------------------------------------

EXPERIMENT_NAMES = (
    "young-check", "haar-relations", "sigma-decay", "limit-formula",
    "cond-expectation", "commutant-dims", "span-growth", "relative-gap",
    "crossed-center", "compression-check", "trace-table", "trace-inequality",
    "spectral-binning",
)
MC_DIMS = (81, 256)


def _metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric (name, unit), in reporting order."""
    s, n, r = "s", "count", "ratio"
    names = [
        ("legops.compose.calls", n), ("legops.compose.self_s", s),
        ("legops.compose.terms_in", n), ("legops.compose.terms_out", n),
        ("legops.compose.merge_ratio", r),
        ("legops.add.calls", n), ("legops.add.self_s", s),
        ("legops.hs_norm.calls", n), ("legops.hs_norm.total_s", s), ("legops.hs_norm.self_s", s),
        ("legops.normalized_trace.self_s", s), ("legops.adjoint.self_s", s),
        ("legops.operator_norm.calls", n), ("legops.operator_norm.total_s", s),
        ("legops.operator_norm.matvecs", n),
        ("legops.apply.calls", n), ("legops.apply.self_s", s),
        ("legops.to_dense.calls", n), ("legops.to_dense.self_s", s),
        ("legops.to_dense.terms", n), ("legops.to_dense.bytes_computed", "B"),
        ("duality_core.haar_average_mc.calls", n), ("duality_core.haar_average_mc.total_s", s),
        ("duality_core.haar_average_mc.self_s", s), ("duality_core.haar_average_mc.samples", n),
        ("duality_core.haar_average_mc.s_per_sample", s),
    ]
    names += [(f"duality_core.haar_average_mc.s_per_sample.d{d}", s) for d in MC_DIMS]
    names += [
        ("duality_core.haar_unitary.calls", n), ("duality_core.haar_unitary.self_s", s),
        ("duality_core.integrand.total_s", s),
        ("duality_core.t_mixed.calls", n), ("duality_core.t_mixed.self_s", s),
        ("duality_core.limit_formula_check.total_s", s),
        ("duality_core.limit_formula_check.self_s", s),
        ("duality_core.sigma_average_exact.total_s", s),
        ("duality_core.product_average_exact.total_s", s),
        ("duality_core.haar_pair_average_exact.calls", n),
        ("duality_core.haar_pair_average_exact.self_s", s),
        ("duality_core.young_projection.total_s", s),
        ("symcomb.character.calls", n), ("symcomb.character.self_s", s),
        ("algebra_tools.span_closure.calls", n), ("algebra_tools.span_closure.total_s", s),
        ("algebra_tools.span_closure.self_s", s), ("algebra_tools.span_closure.rounds", n),
        ("algebra_tools.span_closure.basis_dim", n),
        ("algebra_tools.block_structure.calls", n), ("algebra_tools.block_structure.self_s", s),
        ("algebra_tools.commutant_basis.calls", n), ("algebra_tools.commutant_basis.self_s", s),
        ("algebra_tools.generated_algebra_dim.calls", n),
        ("algebra_tools.generated_algebra_dim.total_s", s),
        ("algebra_tools.generated_algebra_dim.sampler_draws", n),
        ("algebra_tools.span_growth_check.total_s", s),
        ("algebra_tools.span_growth_check.self_s", s),
        ("algebra_tools.relative_gap.total_s", s),
        ("algebra_tools.orthonormalize.self_s", s),
        ("crossed.theta_apply.calls", n), ("crossed.theta_apply.self_s", s),
        ("crossed.to_dense_l2.calls", n), ("crossed.to_dense_l2.self_s", s),
        ("crossed.to_dense_l2.bytes_computed", "B"),
        ("crossed.multiply.calls", n), ("crossed.multiply.self_s", s),
        ("crossed.compression_check.total_s", s), ("crossed.compression_check.self_s", s),
        ("crossed.center_basis.total_s", s), ("crossed.center_basis.self_s", s),
    ]
    for e in EXPERIMENT_NAMES:
        names += [(f"experiments.{e}.wall_s", s), (f"experiments.{e}.wait_s", s)]
    names += [("reporting.records.self_s", s), ("reporting.write_jsonl.self_s", s)]
    names += [(f"share.{layer}", r) for layer in LAYERS] + [("share.other", r)]
    names += [("process.cpu_s", s), ("process.parallelism", r), ("trace.overhead_frac", r)]
    return names


METRICS: list[tuple[str, str]] = _metric_names()
UNITS: dict[str, str] = dict(METRICS)


# span attributes that per-layer metrics sum over all calls
ATTR_FIELDS = {"terms_in", "terms_out", "terms", "bytes_computed", "rounds", "basis_dim",
               "sampler_draws", "samples"}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values of one traced pass, keyed by metric name.

    Covers every name in :data:`METRICS` except ``process.*`` and
    ``trace.overhead_frac``, which need the untraced passes as well.
    """
    selfs = self_times(spans)
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    own: defaultdict = defaultdict(float)
    attrs: defaultdict = defaultdict(float)
    wait: defaultdict = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS + ("other",), 0.0)
    mc_by_dim = {d: [0.0, 0] for d in MC_DIMS}
    matvecs = 0
    for i, sp in enumerate(spans):
        dur = sp.end - sp.start
        calls[sp.name] += 1
        total[sp.name] += dur
        own[sp.name] += selfs[i]
        for k, v in sp.attrs.items():
            attrs[f"{sp.name}.{k}"] += v
        layer_self[LAYER_OF.get(sp.name.split(".")[0], "other")] += selfs[i]
        if sp.name == "legops.apply" and _has_ancestor(spans, i, "legops.operator_norm"):
            matvecs += 1
        elif sp.name == "duality_core.haar_average_mc" and sp.attrs["d"] in mc_by_dim:
            mc_by_dim[sp.attrs["d"]][0] += dur
            mc_by_dim[sp.attrs["d"]][1] += sp.attrs["samples"]
        elif sp.name.startswith("experiments."):
            # wall time the experiment's thread spent not running: waiting
            # for the interpreter lock, the CPU or BLAS
            wait[sp.name] += dur - sp.attrs["thread_cpu_s"]

    out: dict[str, float] = {}
    for metric, _ in METRICS:
        span, _, fld = metric.rpartition(".")
        if fld == "calls":
            out[metric] = calls[span]
        elif fld in ("total_s", "wall_s"):
            out[metric] = total[span]
        elif fld == "self_s":
            out[metric] = own[span]
        elif fld == "wait_s":
            out[metric] = wait[span]
        elif fld in ATTR_FIELDS:
            out[metric] = attrs[metric]
    terms_in = out["legops.compose.terms_in"]
    out["legops.compose.merge_ratio"] = out["legops.compose.terms_out"] / terms_in if terms_in else 0.0
    out["legops.operator_norm.matvecs"] = matvecs
    samples = out["duality_core.haar_average_mc.samples"]
    out["duality_core.haar_average_mc.s_per_sample"] = (
        total["duality_core.haar_average_mc"] / samples if samples else 0.0
    )
    for d, (secs, count) in mc_by_dim.items():
        out[f"duality_core.haar_average_mc.s_per_sample.d{d}"] = secs / count if count else 0.0
    grand = sum(layer_self.values())
    for layer, secs in layer_self.items():
        out[f"share.{layer}"] = secs / grand if grand else 0.0
    return out
