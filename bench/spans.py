"""Span tracing around the public functions of each `loravg` layer.

`Tracer.install()` wraps every function named in LAYERS, rebinding the
name in each `loravg` module that holds it, and patches the listed class
methods on their class; the returned callable restores the originals.
Spans (name, start, end, parent) stay in memory until written out.
"""

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

# layer -> (module, [functions], {class: [methods]}).  svgplot belongs to cli.
LAYERS = {
    "cli": [("cli", ["dispatch"], {}),
            ("svgplot", ["step_svg", "line_chart_svg", "write_atomic", "emit_step_svg"], {})],
    "space": [("space", ["validate_metric", "build_space", "ball", "doubling_constant",
                         "separated_points", "vitali_subfamily", "symm_diff_measure",
                         "min_ball_ratio", "boundedness_report"],
               {"MetricMeasureSpace": ["ball_mask", "ball_masks", "ball_measures",
                                       "from_matrix", "from_cloud", "lattice",
                                       "from_graph", "to_json"]})],
    "averaging": [("averaging", ["average", "pointwise_bound", "equicontinuity_modulus",
                                 "extremal_pair_function", "distribution_constant",
                                 "verify_distribution_inequality", "threshold_sweep",
                                 "verify_rearrangement_bound", "verify_operator_bound",
                                 "equicontinuity_bound_matrix"],
                   {"AveragingKernel": ["build", "apply"]})],
    "rearrange": [("rearrange", ["distribution_function", "rearrangement", "maximal_profile",
                                 "integrate_step_product", "hardy_littlewood_check"], {})],
    "norms": [("norms", ["lebesgue_norm", "lorentz_norm", "chi_norm_closed_form",
                         "holder_constants", "holder_check", "norm_equivalence_check"], {})],
    "compactness": [("compactness", ["norm_distance", "sample_unit_sphere",
                                     "covering_number", "witness_sequence",
                                     "simple_approximation", "compactness_probe",
                                     "_separated_count"], {})],
}

# Span names that differ from "<layer>.<function>".
_RENAME = {"AveragingKernel.build": "kernel_build", "AveragingKernel.apply": "kernel_apply"}


def _span_name(layer: str, owner: str | None, func: str) -> str:
    qual = f"{owner}.{func}" if owner else func
    return f"{layer}.{_RENAME.get(qual, func)}"


def _quad_path(spec) -> bool:
    """Double-star norm with finite p and finite non-integer q: the quad branch."""
    return (spec.variant == "double-star" and math.isfinite(spec.p)
            and math.isfinite(spec.q) and not float(spec.q).is_integer())


class Tracer:
    """In-memory span recorder with per-span counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)
        clock = time.perf_counter
        counter = _COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every layer function; return a callable that undoes it."""
        for entries in LAYERS.values():
            for module_name, _, _ in entries:
                importlib.import_module(f"loravg.{module_name}")
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "loravg" or key.startswith("loravg."))]
        undo = []
        for layer, entries in LAYERS.items():
            for module_name, functions, classes in entries:
                module = sys.modules[f"loravg.{module_name}"]
                for func in functions:
                    original = getattr(module, func)
                    wrapped = self._wrap(_span_name(layer, None, func), original)
                    for m in modules:
                        if getattr(m, func, None) is original:
                            setattr(m, func, wrapped)
                            undo.append((m, func, original))
                for cls_name, methods in classes.items():
                    cls = getattr(module, cls_name)
                    for meth in methods:
                        raw = cls.__dict__[meth]
                        name = _span_name(layer, cls_name, meth)
                        if isinstance(raw, classmethod):
                            patched = classmethod(self._wrap(name, raw.__func__))
                        else:
                            patched = self._wrap(name, raw)
                        setattr(cls, meth, patched)
                        undo.append((cls, meth, raw))

        def restore():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return restore

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Spans run on one thread and nest, so children never overlap and
        their union is their sum."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.names))]

    def summary(self, wall_s: float) -> dict:
        """Per-name calls, self and total time; per-layer self time; root coverage."""
        selfs = self.self_times()
        by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                                        "total_s": 0.0})
        by_layer: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        covered = 0.0
        for i, name in enumerate(self.names):
            entry = by_name[name]
            entry["calls"] += 1
            entry["self_s"] += selfs[i]
            entry["total_s"] += self.ends[i] - self.starts[i]
            layer = by_layer[name.split(".", 1)[0]]
            layer["calls"] += 1
            layer["self_s"] += selfs[i]
            if self.parents[i] < 0:
                covered += self.ends[i] - self.starts[i]
        return {"spans": dict(by_name), "layers": dict(by_layer), "wall_s": wall_s,
                "covered_s": covered, "self_sum_s": sum(selfs),
                "counts": dict(self.counts)}

    def write(self, path) -> None:
        """One JSON line per span: name, start, end (seconds), parent index."""
        with open(path, "w") as out:
            for i, name in enumerate(self.names):
                out.write(json.dumps([name, self.starts[i], self.ends[i], self.parents[i]]))
                out.write("\n")


def _count_norm(counts, args, kwargs, result):
    f = args[0]
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    counts["norms.atoms"] += f.space.natoms
    if _quad_path(spec):
        counts["norms.quad_path.calls"] += 1


def _count_validate(counts, args, kwargs, result):
    counts["space.validate_metric.atoms"] += args[0].shape[0]


def _count_thresholds(counts, args, kwargs, result):
    counts["averaging.thresholds"] += len(result)


_COUNTERS = {
    "norms.lorentz_norm": _count_norm,
    "space.validate_metric": _count_validate,
    "averaging.threshold_sweep": _count_thresholds,
}
