"""Span tracing for the traced pass, installed from outside the package.

:func:`install` replaces the package's public functions and methods with
timing wrappers at the attributes their callers look them up by, and
:meth:`Tracer.restore` puts the originals back; nothing under ``src/`` is
edited.  A span has a name, start, end, parent and call id.  Spans with the
same name under the same parent are kept as one record with a count, so
that the millions of evaluator calls an oracle makes stay in memory as a
handful of records.  A record's self time is its summed duration minus the
summed duration of its child records; over a call the self times add up
to the call's own time exactly.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import defaultdict

#: Every span name; each becomes a ``<name>.self_s`` metric.
SPAN_NAMES = (
    "cli",
    "sampling.estimate",
    "sampling.draw_batch",
    "sampling.file_draw",
    "sampling.subprocess_draw",
    "compiler.build",
    "compiler.evaluator",
    "compiler.batch_evaluator",
    "estimators.power_series",
    "divergences.build",
    "divergences.eval",
    "verify.check_implements",
    "verify.poisson_oracle",
    "verify.enumerate",
    "verify.pmf",
    "continuous.load",
    "continuous.cramer",
    "continuous.crps",
    "continuous.energy",
    "continuous.projected",
)

# record fields
NAME, PARENT, CALL, START, END, COUNT, BUSY, SELF = range(8)


class Tracer:
    def __init__(self):
        self.records: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._index: dict[tuple, int] = {}
        self._stack: list[list] = []  # frames: [record id, summed child duration]
        self._patches: list[tuple] = []
        self._call = 0
        self._origin = time.perf_counter()

    def _record(self, name: str, parent) -> int:
        rid = len(self.records)
        self.records.append([name, parent, self._call, 0.0, 0.0, 0, 0.0, 0.0])
        if parent is not None:
            self._index[(parent, name)] = rid
        return rid

    def _close(self, rid: int, frame: list, t0: float, t1: float) -> float:
        rec = self.records[rid]
        dt = t1 - t0
        if rec[COUNT] == 0:
            rec[START] = t0 - self._origin
        rec[END] = t1 - self._origin
        rec[COUNT] += 1
        rec[BUSY] += dt
        rec[SELF] += dt - frame[1]
        return dt

    def call(self, fn, *args):
        """Run one top-level call as a root ``cli`` span with a fresh call id."""
        self._call += 1
        rid = self._record("cli", None)
        frame = [rid, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._close(rid, frame, t0, t1)

    def wrap(self, name: str, fn, after=None):
        """Time ``fn`` as span ``name``; ``after`` may count or replace its result."""
        stack, index, perf = self._stack, self._index, time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            rid = index.get((parent[0], name))
            if rid is None:
                rid = self._record(name, parent[0])
            frame = [rid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                parent[1] += self._close(rid, frame, t0, t1)
            return result if after is None else after(result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def patch_function(self, module: str, attr: str, wrapper_for, include_home: bool = True) -> None:
        """Point every package-module reference to ``module.attr`` at its wrapper.

        ``include_home=False`` leaves calls made inside the defining module
        alone, so that a constructor built from other constructors counts once.
        """
        home = sys.modules.get(module)
        fn = getattr(home, attr, None)
        if fn is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = wrapper_for(fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "properloss" or mod_name.startswith("properloss.")):
                continue
            if mod is home and not include_home:
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, key, wrapper)

    def patch_method(self, cls, attr: str, wrapper_for) -> None:
        fn = cls.__dict__.get(attr)
        if fn is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._set(cls, attr, wrapper_for(fn))

    def restore(self) -> None:
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def _has_ancestor(self, rid: int, name: str) -> bool:
        parent = self.records[rid][PARENT]
        while parent is not None:
            if self.records[parent][NAME] == name:
                return True
            parent = self.records[parent][PARENT]
        return False

    def self_s(self, name: str, calls=None) -> float:
        """Self time of ``name`` spans, optionally only within the given call ids."""
        return sum((r[SELF] for r in self.records if r[NAME] == name and (calls is None or r[CALL] in calls)), 0.0)

    def calls(self, name: str, under: str | None = None) -> int:
        return sum(
            r[COUNT] for rid, r in enumerate(self.records)
            if r[NAME] == name and (under is None or self._has_ancestor(rid, under))
        )

    def inclusive_s(self, name: str, calls=None) -> float:
        """Time inside ``name`` spans, counting nested ones once, optionally only within the given call ids."""
        return sum(
            r[BUSY] for rid, r in enumerate(self.records)
            if r[NAME] == name and (calls is None or r[CALL] in calls) and not self._has_ancestor(rid, name)
        )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for rid, r in enumerate(self.records):
                handle.write(json.dumps({
                    "id": rid, "name": r[NAME], "parent": r[PARENT], "call": r[CALL],
                    "start": r[START], "end": r[END], "count": r[COUNT],
                    "busy_s": r[BUSY], "self_s": r[SELF],
                }) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points; see README.md for the map."""
    import properloss.divergences as divergences
    import properloss.sampling as sampling

    counters = tracer.counters

    def timed(name, after=None):
        return lambda fn: tracer.wrap(name, fn, after)

    def count_total(key):
        def after(result):
            total = getattr(result, "total", None)  # a Histogram, or a count matrix
            counters[key] += int(result.sum() if total is None else total)
            return result
        return after

    def count_rows(result):
        counters["sampling.draw_batch.rows"] += result.shape[0]
        counters["sampling.draw_batch.matrix_mb"] = max(counters["sampling.draw_batch.matrix_mb"],
                                                        result.nbytes / 1e6)
        return result

    def count_batch_rows(result):
        counters["compiler.batch_evaluator.rows"] += len(result)
        return result

    def count_histograms(result):
        counters["verify.enumerate.histograms"] += len(result)
        return result

    def count_monomials(result):
        parts = result if isinstance(result, tuple) else (result,)
        counters["divergences.build.monomials"] += sum(len(part.monomials) for part in parts)
        return result

    def trace_loss(loss):
        changes = {"evaluator": tracer.wrap("compiler.evaluator", loss.evaluator)}
        if getattr(loss, "batch_evaluator", None) is not None:
            changes["batch_evaluator"] = tracer.wrap("compiler.batch_evaluator", loss.batch_evaluator,
                                                     count_batch_rows)
        return dataclasses.replace(loss, **changes)

    def counted_mvue(fn):
        def wrapper(*args, **kwargs):
            value = fn(*args, **kwargs)
            counters["estimators.mvue.calls"] += 1
            if value:
                counters["estimators.mvue.nonzero"] += 1
            return value
        return wrapper

    tracer.patch_function("properloss.sampling", "estimate_loss", timed("sampling.estimate"))
    tracer.patch_method(sampling.InternalSource, "draw_batch", timed("sampling.draw_batch", count_rows))
    for method in ("draw", "draw_batch"):
        if method in sampling.FileSource.__dict__:
            tracer.patch_method(sampling.FileSource, method,
                                timed("sampling.file_draw", count_total("sampling.file_draw.tokens")))
        if method in sampling.SubprocessSource.__dict__:
            tracer.patch_method(sampling.SubprocessSource, method,
                                timed("sampling.subprocess_draw", count_total("sampling.subprocess_draw.tokens")))

    for ctor in ("compile_known_target", "compile_two_sample", "squared_loss_known_target",
                 "squared_loss_two_sample", "cross_entropy_poisson", "cross_entropy_poisson_fixed_target",
                 "entropy_poisson", "kl_poisson", "bregman_known_target"):
        tracer.patch_function("properloss.compiler", ctor, timed("compiler.build", trace_loss),
                              include_home=False)
    tracer.patch_function("properloss.estimators", "poisson_power_series", timed("estimators.power_series"))
    tracer.patch_function("properloss.estimators", "multinomial_monomial_mvue", counted_mvue)

    for ctor in ("builtin_l2", "builtin_lk_even", "builtin_brier", "squared_norm_polynomial",
                 "squared_norm_gradient"):
        tracer.patch_function("properloss.divergences", ctor, timed("divergences.build", count_monomials),
                              include_home=False)
    for cls in (divergences.PolyDivergence, divergences.SeriesDivergence):
        tracer.patch_method(cls, "evaluate", timed("divergences.eval"))

    tracer.patch_function("properloss.verify", "check_implements", timed("verify.check_implements"))
    tracer.patch_function("properloss.verify", "poisson_expected_loss", timed("verify.poisson_oracle"))
    tracer.patch_function("properloss.verify", "enumerate_histograms", timed("verify.enumerate", count_histograms))
    tracer.patch_function("properloss.verify", "multinomial_pmf", timed("verify.pmf"))

    for attr in ("load_real_sample", "load_vector_sample"):
        tracer.patch_function("properloss.continuous", attr, timed("continuous.load"), include_home=False)
    for attr, name in (("cramer_loss", "continuous.cramer"), ("crps", "continuous.crps"),
                       ("energy_loss", "continuous.energy"), ("projected_cramer_loss", "continuous.projected")):
        tracer.patch_function("properloss.continuous", attr, timed(name), include_home=False)


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    c = tracer.counters
    metrics = {f"{name}.self_s": (tracer.self_s(name), "s") for name in SPAN_NAMES}
    mvue_calls = c["estimators.mvue.calls"]
    metrics.update({
        "sampling.draw_batch.rows": (int(c["sampling.draw_batch.rows"]), "count"),
        "sampling.draw_batch.matrix_mb": (c["sampling.draw_batch.matrix_mb"], "MB"),
        "compiler.batch_evaluator.rows": (int(c["compiler.batch_evaluator.rows"]), "count"),
        "sampling.file_draw.tokens": (int(c["sampling.file_draw.tokens"]), "count"),
        "sampling.subprocess_draw.tokens": (int(c["sampling.subprocess_draw.tokens"]), "count"),
        "compiler.evaluator.calls": (tracer.calls("compiler.evaluator"), "count"),
        "estimators.power_series.calls": (tracer.calls("estimators.power_series"), "count"),
        "estimators.mvue.calls": (int(mvue_calls), "count"),
        "estimators.mvue.nonzero_ratio": (c["estimators.mvue.nonzero"] / mvue_calls if mvue_calls else 0.0, "ratio"),
        "verify.enumerate.calls": (tracer.calls("verify.enumerate"), "count"),
        "verify.enumerate.histograms": (int(c["verify.enumerate.histograms"]), "count"),
        "verify.pmf.calls": (tracer.calls("verify.pmf"), "count"),
        "verify.poisson_oracle.evaluator_calls": (
            tracer.calls("compiler.evaluator", under="verify.poisson_oracle"), "count"),
        "divergences.eval.calls": (tracer.calls("divergences.eval"), "count"),
        "divergences.build.monomials": (int(c["divergences.build.monomials"]), "count"),
        "trace.call_s": (tracer.inclusive_s("cli"), "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    })
    return metrics
