"""Per-layer tracing of one in-process ``cpfsim.cli.main`` call.

The package is not instrumented: the tracer replaces public functions with
timing wrappers from outside, in every ``cpfsim`` module namespace (and
dict, such as the CLI's runner table) that bound them, and puts the
originals back afterwards. Spans are aggregated per (name, parent) as
calls, total and self time instead of being kept one record per call. A
function a refactor removed is recorded as absent.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# (layer name, module, attribute) of each timed function. Several functions
# may share one layer name; the runner is the subcommand's run_* function.
SPANS = (
    ("runs.runner", "cpfsim.runs", "run_sweep"),
    ("runs.runner", "cpfsim.runs", "run_appendix_d"),
    ("runs.runner", "cpfsim.runs", "run_figure2"),
    ("runs.runner", "cpfsim.runs", "run_witness_comparison"),
    ("config.load_config", "cpfsim.config", "load_config"),
    ("bath.load_kernel_csv", "cpfsim.bath", "load_kernel_csv"),
    ("bath.eval_kernel_grid", "cpfsim.bath", "eval_kernel_grid"),
    ("propagator.solve_volterra", "cpfsim.propagator", "solve_volterra"),
    ("propagator.volterra_trapezoid", "cpfsim.propagator", "volterra_trapezoid"),
    ("propagator.compute_G_two_time", "cpfsim.propagator", "compute_G_two_time"),
    ("propagator.two_time_trapezoid", "cpfsim.propagator", "two_time_trapezoid"),
    ("propagator.lorentzian_G", "cpfsim.propagator", "lorentzian_G"),
    ("propagator.lorentzian_G_two_time", "cpfsim.propagator", "lorentzian_G_two_time"),
    ("cpf.build_table", "cpfsim.cpf", "build_table"),
    ("cpf.cpf_from_table", "cpfsim.cpf", "cpf_from_table"),
    ("cpf.cpf_closed_form", "cpfsim.cpf", "cpf_closed_form"),
    ("experiment.run_noise_study", "cpfsim.experiment", "run_noise_study"),
    ("experiment.sample_counts", "cpfsim.experiment", "sample_counts"),
    ("experiment.estimate_cpf", "cpfsim.experiment", "estimate_cpf"),
    ("io.write_dataset", "cpfsim.io", "write_dataset"),
)
# Called too often to time without distorting their callers: counted only.
COUNTERS = (("io.format_value", "cpfsim.io", "format_value"),)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, time in child spans]
        self.spans: dict[tuple, list] = {}  # (name, parent) -> [calls, total, self]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def timed(self, name, fn, on_return=None):
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[1]
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][2] += duration
                rec = spans.setdefault((name, parent), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[2]
            if on_return is not None:
                on_return(self, fn, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _rebind(self, original, wrapper, extra_modules=()) -> None:
        """Replace ``original`` by ``wrapper`` wherever a cpfsim module (or a
        dict it holds) bound it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "cpfsim" or key.startswith("cpfsim."))
        ]
        for module in [*modules, *extra_modules]:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((setattr, module, key, original))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            self._undo.append((dict.__setitem__, value, dkey, original))

    def _lookup(self, name, module, attr):
        fn = getattr(sys.modules.get(module), attr, None)
        if fn is None:
            self.absent.append(f"{name}: {module}.{attr}")
        return fn

    def install(self) -> None:
        for name, module, attr in SPANS:
            fn = self._lookup(name, module, attr)
            if fn is not None:
                self._rebind(fn, self.timed(name, fn, _HOOKS.get(attr)))
        for name, module, attr in COUNTERS:
            fn = self._lookup(name, module, attr)
            if fn is not None:
                self._rebind(fn, self.counted(name, fn))
        table = getattr(sys.modules.get("cpfsim.cpf"), "ProbabilityTable", None)
        post_init = getattr(table, "__post_init__", None)
        if post_init is None:
            self.absent.append("cpf.table_objects: cpfsim.cpf.ProbabilityTable.__post_init__")
        else:
            setattr(table, "__post_init__", self.counted("cpf.table_objects", post_init))
            self._undo.append((setattr, table, "__post_init__", post_init))
        self._install_rng()

    def _install_rng(self) -> None:
        """experiment.rng_setup: Generator construction plus SeedSequence.spawn.
        SeedSequence.spawn builds children of type(self), so a subclass with
        a timed spawn traces every level of spawning."""
        rng = np.random
        default_rng = rng.default_rng
        seed_sequence = rng.SeedSequence
        traced_seq = type(
            "SeedSequence",
            (seed_sequence,),
            {"spawn": self.timed("experiment.rng_setup", seed_sequence.spawn)},
        )
        self._rebind(default_rng, self.timed("experiment.rng_setup", default_rng), [rng])
        self._rebind(seed_sequence, traced_seq, [rng])

    def uninstall(self) -> None:
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)

    # -- results ----------------------------------------------------------

    def layer(self, name) -> tuple[int, float, float]:
        """Calls, total and self seconds of a layer, summed over parents."""
        calls = total = own = 0.0
        for (span, _parent), (c, t, s) in self.spans.items():
            if span == name:
                calls, total, own = calls + c, total + t, own + s
        return int(calls), total, own

    def table(self) -> list[str]:
        lines = [f"{'span':36} {'parent':36} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
        for (name, parent), (calls, total, own) in sorted(
            self.spans.items(), key=lambda item: -item[1][1]
        ):
            lines.append(f"{name:36} {parent or '-':36} {calls:9d} {total:10.4f} {own:10.4f}")
        return lines


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _on_two_time(tracer, fn, args, kwargs, result):
    values = np.asarray(result)
    tracer.counts["propagator.g2_cells_computed"] += values.size
    tracer.counts["propagator.g2_bytes_computed"] += values.nbytes


def _on_volterra(tracer, fn, args, kwargs, result):
    n = np.asarray(result).size - 1
    tracer.counts["propagator.volterra_macs"] += n * (n + 1) // 2


def _on_noise_study(tracer, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    tracer.counts["experiment.replicas_attempted"] += len(bound["times"]) * bound["cfg"].replicas
    tracer.counts["experiment.replicas_with_data"] += sum(p.n_replicas for p in result)
    tracer.counts["experiment.flagged_points"] += sum(bool(p.flagged) for p in result)


_HOOKS = {
    "two_time_trapezoid": _on_two_time,
    "volterra_trapezoid": _on_volterra,
    "run_noise_study": _on_noise_study,
}
