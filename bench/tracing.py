"""Span tracer that times the simulator's layers from outside ``src/``.

Wrappers replace the module attributes through which the package reaches
its own layers: ``nbiot_noma.harness``, ``nbiot_noma.selfcheck`` and
``nbiot_noma.baselines``.  Wrapping ``baselines`` as well catches nested
calls such as ``exhaustive_clustering`` -> ``mckp_oracle`` and
``fast_ofdm_allocate`` -> ``ofdma_allocate``.  Each span records its id,
parent span, op id, name, start and end (``time.perf_counter_ns``).  Spans
stay in memory and are written as JSON lines when the run ends.

A layer's self time is a span's duration minus the time its direct
children cover.  Every op is one root span (``harness.run_experiment`` or
``selfcheck.run_self_checks``), so the module self times partition the
traced op time exactly.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# Functions reported one by one as `<module>.<function>.{calls,self_ms,p50_ms}`.
REPORTED = (
    "scenario.generate_scenario",
    "clustering.build_clusters",
    "allocation.allocate",
    "rate_model.validate",
    "rate_model.sic_chain_mismatch",
    "rate_model.rate_report",
    "baselines.ofdma_allocate",
    "baselines.fast_ofdm_allocate",
    "baselines.mckp_oracle",
    "baselines.exhaustive_clustering",
    "baselines.grid_power_oracle",
    "power_opt.maximize_rates",
    "power_opt.probe_concavity",
    "harness.emit_csv",
)
# Wrapped only so that their time lands in the module that spends it: the
# two op entry points, the per-scheme dispatch, and the power_opt helpers
# that the transform-identity check calls directly from selfcheck.
ATTRIBUTED = (
    "harness.run_experiment",
    "harness.evaluate_scheme",
    "selfcheck.run_self_checks",
    "power_opt.ordered_user_rates",
    "power_opt.cluster_objective",
    "power_opt.tail_powers",
)
TRACED = frozenset(REPORTED + ATTRIBUTED)
NAMESPACES = ("harness", "selfcheck", "baselines")
MODULES = (
    "scenario",
    "clustering",
    "allocation",
    "rate_model",
    "power_opt",
    "baselines",
    "harness",
    "selfcheck",
)
SCHEMES = ("noma", "ofdma", "fast_ofdm")
COUNTERS = (
    "allocation.phase1_steps",
    "allocation.phase2_steps",
    "power_opt.maximize_rates.iterations",
    "baselines.grid_power_oracle.unresolved",
    "rate_model.violations",
)

# span record fields
_ID, _PARENT, _OP, _NAME, _TAG, _START, _END = range(7)


class Tracer:
    """Spans and exact counters for the ops run while it is installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = -1
        self._stack: list[int] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.op][name] += n

    @contextmanager
    def installed(self, nb, op: int):
        """Wrap every traced function in the package namespaces for one op."""
        self.op = op
        saved = []
        for ns_name in NAMESPACES:
            ns = getattr(nb, ns_name)
            for attr, fn in list(vars(ns).items()):
                key = _key(fn)
                if key in TRACED:
                    saved.append((ns, attr, fn))
                    setattr(ns, attr, self._wrap(key, self._hooked(nb, key, fn)))
        try:
            yield self
        finally:
            for ns, attr, fn in saved:
                setattr(ns, attr, fn)
            self.op = -1

    def _wrap(self, key: str, fn):
        spans, stack = self.spans, self._stack
        tagged = key == "harness.evaluate_scheme"

        def traced(*args, **kwargs):
            sid = len(spans)
            tag = (args[0] if args else kwargs["scheme"]) if tagged else None
            rec = [sid, stack[-1] if stack else -1, self.op, key, tag, perf_counter_ns(), 0]
            spans.append(rec)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_END] = perf_counter_ns()
                stack.pop()

        return traced

    def _hooked(self, nb, key: str, fn):
        """``fn`` with the exact counter its layer exposes, if any."""
        if key == "allocation.allocate":

            def allocate(scenario, assignment, on_step=None):
                def step(s, c, mask, phase):
                    self.count(f"allocation.phase{phase}_steps")
                    if on_step is not None:
                        on_step(s, c, mask, phase)

                return fn(scenario, assignment, on_step=step)

            return allocate
        if key == "power_opt.maximize_rates":

            def maximize_rates(*args, **kwargs):
                solution = fn(*args, **kwargs)
                self.count("power_opt.maximize_rates.iterations", solution.iterations)
                return solution

            return maximize_rates
        if key == "baselines.grid_power_oracle":
            unresolved = nb.errors.GridResolutionError

            def grid_power_oracle(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except unresolved:
                    self.count("baselines.grid_power_oracle.unresolved")
                    raise

            return grid_power_oracle
        if key == "rate_model.validate":

            def validate(*args, **kwargs):
                violations = fn(*args, **kwargs)
                self.count("rate_model.violations", len(violations))
                return violations

            return validate
        if key == "harness.emit_csv":

            def emit_csv(results, path):
                fn(results, path)
                self.count("harness.emit_csv.bytes", os.path.getsize(path))

            return emit_csv
        return fn

    def op_counts(self, op: int) -> Counter:
        """Every `.calls` value and counter of one op, for the repeat check."""
        out = Counter(f"{rec[_NAME]}.calls" for rec in self.spans if rec[_OP] == op)
        out.update(self.counts.get(op, {}))
        return out

    def self_times(self) -> list[int]:
        """Self time of every span, in ns, indexed like ``self.spans``."""
        own = [rec[_END] - rec[_START] for rec in self.spans]
        for rec in self.spans:
            if rec[_PARENT] >= 0:
                own[rec[_PARENT]] -= rec[_END] - rec[_START]
        return own

    def root_ns(self) -> int:
        return sum(rec[_END] - rec[_START] for rec in self.spans if rec[_PARENT] < 0)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function, per-scheme, per-module and counter metrics."""
        own = self.self_times()
        durations: dict[str, list[int]] = defaultdict(list)
        self_ns: Counter = Counter()
        module_ns: Counter = Counter()
        scheme_ns: dict[str, list[int]] = defaultdict(list)
        for rec, ns in zip(self.spans, own):
            dur = rec[_END] - rec[_START]
            durations[rec[_NAME]].append(dur)
            self_ns[rec[_NAME]] += ns
            module_ns[rec[_NAME].split(".")[0]] += ns
            if rec[_TAG] is not None:
                scheme_ns[rec[_TAG]].append(dur)

        out: dict[str, tuple[float, str]] = {}
        for key in REPORTED:
            d = durations.get(key, [])
            out[f"{key}.calls"] = (len(d), "count")
            out[f"{key}.self_ms"] = (self_ns[key] / 1e6, "ms")
            out[f"{key}.p50_ms"] = (_median_ms(d), "ms")
            if key == "allocation.allocate":
                p90 = statistics.quantiles(d, n=10)[-1] / 1e6 if len(d) > 1 else _median_ms(d)
                out[f"{key}.p90_ms"] = (p90, "ms")
        out["harness.emit_csv.bytes"] = (self._total("harness.emit_csv.bytes"), "bytes")
        for scheme in SCHEMES:
            out[f"scheme.{scheme}.p50_ms"] = (_median_ms(scheme_ns.get(scheme, [])), "ms")
        traced_ns = sum(module_ns.values())
        for module in MODULES:
            out[f"{module}.self_ms"] = (module_ns[module] / 1e6, "ms")
            out[f"{module}.share"] = (module_ns[module] / traced_ns if traced_ns else 0.0, "ratio")
        for name in COUNTERS:
            out[name] = (self._total(name), "count")
        return out

    def _total(self, name: str) -> int:
        return sum(c[name] for c in self.counts.values())

    def write_jsonl(self, path) -> None:
        fields = ("id", "parent", "op", "name", "tag", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(fields, rec))) + "\n")


def _key(fn) -> str | None:
    module = getattr(fn, "__module__", None) or ""
    if not module.startswith("nbiot_noma.") or not hasattr(fn, "__name__"):
        return None
    return f"{module.rsplit('.', 1)[1]}.{fn.__name__}"


def _median_ms(durations_ns) -> float:
    return statistics.median(durations_ns) / 1e6 if durations_ns else 0.0
