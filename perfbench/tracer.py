"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function at every module attribute
that holds it, because ``config_space`` and ``fold_models`` import
``closure_residual``, ``g60`` and ``self_intersects`` by name.
``Tracer.remove`` puts the originals back.  Spans stay in memory as
``[name, start, end, parent]`` lists until ``write`` dumps them.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

import rigidfold
from rigidfold import cli, config_space, core_geometry, fold_models
from rigidfold import second_order_rigidity, symmetry_enumeration

MODULES = (rigidfold, cli, config_space, core_geometry, fold_models,
           second_order_rigidity, symmetry_enumeration)

# (module, function) pairs that get a span.  The layer is the module name.
SPANNED = [
    (cli, "main"),
    (core_geometry, "self_intersects"),
    (core_geometry, "closure_residual"),
    (core_geometry, "g60"),
    (core_geometry, "folded_geometry"),
    (fold_models, "degree4_fold"),
    (fold_models, "trifold"),
    (fold_models, "bowtie"),
    (fold_models, "opposites_solve"),
    (fold_models, "igloo_rho1"),
    (fold_models, "igloo_rho4"),
    (fold_models, "igloo_1dof"),
    (fold_models, "two_pair_complete"),
    (fold_models, "general_fold"),
    (fold_models, "almost_general"),
    (fold_models, "resch_fold"),
    (config_space, "make_sample"),
    (config_space, "sweep_model"),
    (config_space, "trace_implicit_curve"),
    (config_space, "admissible_region"),
    (config_space, "export"),
    (config_space, "samples_to_csv"),
    (config_space, "samples_to_json"),
    (config_space, "samples_to_obj"),
    (config_space, "load_samples_json"),
    (symmetry_enumeration, "classify_g60"),
    (second_order_rigidity, "symmetric_mode_solve"),
]
# Called millions of times per trace at about 2 us each: counted, not spanned.
COUNTED = [(fold_models, "two_pair_curve_residual")]

SERIALIZE = ("export", "samples_to_csv", "samples_to_json", "samples_to_obj", "load_samples_json")


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # outcome counters, e.g. hits, valid, bytes
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _observe(self, name: str, args, result, failed: bool):
        c = self.counts
        if name == "fold_models.general_fold":
            c["general_fold.ok"] += not failed
        if failed:
            return
        if name == "core_geometry.self_intersects":
            c["self_intersects.hits"] += bool(result)
        elif name == "config_space.make_sample":
            c["make_sample.valid"] += bool(result.valid)
        elif name == "config_space.trace_implicit_curve":
            c["trace.points"] += len(result.samples)
        elif name in ("config_space.samples_to_csv", "config_space.samples_to_json"):
            c["serialize.bytes"] += len(result)
        elif name == "config_space.samples_to_obj":
            c["serialize.bytes"] += len(result[0])
            c["obj.skipped"] += result[1]
            c["obj.samples"] += len(args[0])
        elif name == "config_space.load_samples_json":
            c["serialize.bytes"] += os.path.getsize(args[0])

    def _spanned(self, name: str, fn):
        spans, stack, observe = self.spans, self.stack, self._observe
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            failed, result = True, None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                span[2] = clock()
                stack.pop()
                observe(name, args, result, failed)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for wrap, targets in ((self._spanned, SPANNED), (self._counted, COUNTED)):
            for module, attr in targets:
                original = getattr(module, attr)
                wrapped = wrap(f"{_short(module)}.{attr}", original)
                for m in MODULES:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._saved.append((m, key, original))
                            setattr(m, key, wrapped)

    def remove(self):
        for m, key, original in reversed(self._saved):
            setattr(m, key, original)
        self._saved.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # -- results ----------------------------------------------------------

    def per_name(self) -> dict[str, dict]:
        """Calls and self time (time not covered by child spans) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start - inner
        return out

    def layer_metrics(self, passes: int, time_scale: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per pass, keyed by their BENCHMARK.json names.

        Times are multiplied by ``time_scale``, the speed scaling the
        traced passes received.
        """
        rows = self.per_name()
        c = self.counts

        def calls(name):
            return rows[name]["calls"] if name in rows else 0

        def self_s(name):
            return rows[name]["self_s"] * time_scale if name in rows else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict[str, tuple[float, str]] = {}
        for name in ("core_geometry.self_intersects", "core_geometry.closure_residual"):
            m[f"{name}.calls"] = (calls(name) / passes, "count")
            m[f"{name}.self_s"] = (self_s(name) / passes, "s")
            m[f"{name}.us_per_call"] = (1e6 * ratio(self_s(name), calls(name)), "us")
        m["core_geometry.self_intersects.hit_ratio"] = (
            ratio(c["self_intersects.hits"], calls("core_geometry.self_intersects")), "ratio")
        m["core_geometry.g60.calls"] = (calls("core_geometry.g60") / passes, "count")
        m["core_geometry.folded_geometry.calls"] = (calls("core_geometry.folded_geometry") / passes, "count")
        m["core_geometry.folded_geometry.self_s"] = (self_s("core_geometry.folded_geometry") / passes, "s")
        m["fold_models.general_fold.calls"] = (calls("fold_models.general_fold") / passes, "count")
        m["fold_models.general_fold.self_s"] = (self_s("fold_models.general_fold") / passes, "s")
        m["fold_models.general_fold.success_ratio"] = (
            ratio(c["general_fold.ok"], calls("fold_models.general_fold")), "ratio")
        fold_names = [n for n in rows if n.startswith("fold_models.")]
        m["fold_models.calls"] = (sum(map(calls, fold_names)) / passes, "count")
        m["fold_models.self_s"] = (sum(map(self_s, fold_names)) / passes, "s")
        m["fold_models.two_pair_curve_residual.calls"] = (
            c["fold_models.two_pair_curve_residual"] / passes, "count")
        m["config_space.trace_implicit_curve.self_s"] = (
            self_s("config_space.trace_implicit_curve") / passes, "s")
        m["config_space.trace_implicit_curve.points"] = (c["trace.points"] / passes, "count")
        m["config_space.make_sample.calls"] = (calls("config_space.make_sample") / passes, "count")
        m["config_space.make_sample.self_s"] = (self_s("config_space.make_sample") / passes, "s")
        m["config_space.valid_ratio"] = (
            ratio(c["make_sample.valid"], calls("config_space.make_sample")), "ratio")
        m["config_space.sweep_model.self_s"] = (self_s("config_space.sweep_model") / passes, "s")
        m["config_space.admissible_region.self_s"] = (self_s("config_space.admissible_region") / passes, "s")
        m["config_space.serialize.self_s"] = (
            sum(self_s(f"config_space.{n}") for n in SERIALIZE) / passes, "s")
        m["config_space.serialize.bytes"] = (c["serialize.bytes"] / passes, "B")
        m["config_space.export.skip_ratio"] = (ratio(c["obj.skipped"], c["obj.samples"]), "ratio")
        for name in ("symmetry_enumeration.classify_g60", "second_order_rigidity.symmetric_mode_solve"):
            m[f"{name}.calls"] = (calls(name) / passes, "count")
            m[f"{name}.self_s"] = (self_s(name) / passes, "s")
        m["cli.self_s"] = (self_s("cli.main") / passes, "s")
        return m

    def write(self, path: str):
        """One JSON array per span: [name, start_s, end_s, parent_index]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
