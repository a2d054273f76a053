"""Spans around resdiv's public functions, installed from outside the program.

A wrapper is installed where each function is looked up: methods on their
class, and names brought in by ``from .x import y`` in the importing
module.  ``resdiv.linalg.solve_columns`` is looked up through its module,
so one wrapper covers both ``lattice`` and ``canonical``.  The package
attribute ``resdiv.realize`` is the function, which shadows the submodule,
so modules are fetched with ``importlib.import_module``.

A span's self time is its duration minus the time its child spans cover.
Counters read the arguments and results at the same boundaries.  The cost
of tracing is estimated as the number of spans times the time a wrapper
adds to one call: a traced pass differs from an untraced one by less than
passes differ from each other, so subtracting the two would measure noise.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict


def _coeff_bits(cert):
    values = list(cert.G.exc) + list(cert.A.exc) + [cert.mu, cert.lam]
    return max(max(v.numerator.bit_length(), v.denominator.bit_length())
               for v in values)


def _count_realize_closure(tracer, args, result):
    tracer.counters["antinef.realize_closures"] += 1
    tracer.counters["antinef.closure_steps"] += result[1].initial_s


def _count_closure(tracer, args, result):
    tracer.counters["antinef.closure_steps"] += result[1].initial_s


def _count_realize(tracer, args, result):
    bits = _coeff_bits(result)
    if bits > tracer.counters["realize.max_coeff_bits"]:
        tracer.counters["realize.max_coeff_bits"] = bits


# (span name, module, attribute looked up there, counter or None)
TARGETS = [
    ("graphfile.parse_graph_file", "resdiv.cli", "parse_graph_file", None),
    ("model.ResolutionModel.__init__", "resdiv.model",
     "ResolutionModel.__init__",
     lambda t, a, r: t.counters.update({"model.curves_built": a[0].u})),
    ("blowup.GenericConfiguration.build", "resdiv.blowup",
     "GenericConfiguration.build",
     lambda t, a, r: t.counters.update({"blowup.blown_curves": r.model.u})),
    ("blowup.GenericConfiguration.weighted_dual_sum", "resdiv.blowup",
     "GenericConfiguration.weighted_dual_sum", None),
    ("blowup.PullbackMap.apply", "resdiv.blowup", "PullbackMap.apply", None),
    ("divisor.Divisor.products", "resdiv.divisor", "Divisor.products", None),
    ("antinef.antinef_closure", "resdiv.cli", "antinef_closure",
     _count_closure),
    ("antinef.antinef_closure", "resdiv.canonical", "antinef_closure",
     _count_closure),
    ("antinef.antinef_closure", "resdiv.realize", "antinef_closure",
     _count_realize_closure),
    ("lattice.check_negative_definite", "resdiv.cli",
     "check_negative_definite", None),
    ("lattice.dual_basis", "resdiv.cli", "dual_basis", None),
    ("lattice.dual_basis", "resdiv.realize", "dual_basis", None),
    ("lattice.dual_basis", "resdiv.blowup", "dual_basis", None),
    ("lattice.numerical_pullback", "resdiv.realize", "numerical_pullback",
     None),
    ("linalg.solve_columns", "resdiv.linalg", "solve_columns",
     lambda t, a, r: t.counters.update({"linalg.rows_solved": len(a[0])})),
    ("canonical.discrepancies", "resdiv.canonical", "discrepancies", None),
    ("canonical.discrepancies", "resdiv.cli", "discrepancies", None),
    ("canonical.discrepancies", "resdiv.realize", "discrepancies", None),
    ("canonical.multiplier_divisor", "resdiv.cli", "multiplier_divisor", None),
    ("realize.realize", "resdiv.cli", "realize", _count_realize),
    ("realize.verify_certificate", "resdiv.cli", "verify_certificate", None),
    ("realize.verify_certificate", "resdiv.realize", "verify_certificate",
     None),
    ("realize.choose_mu", "resdiv.realize", "choose_mu", None),
    ("report.Report.render", "resdiv.report", "Report.render",
     lambda t, a, r: t.counters.update(
         {"report.bytes_out": len(r.encode("utf-8"))})),
    ("cli.check", "resdiv.cli", "cmd_check", None),
    ("cli.dual-basis", "resdiv.cli", "cmd_dual_basis", None),
    ("cli.closure", "resdiv.cli", "cmd_closure", None),
    ("cli.multiplier", "resdiv.cli", "cmd_multiplier", None),
    ("cli.realize", "resdiv.cli", "cmd_realize", None),
    ("cli.batch", "resdiv.cli", "cmd_batch", None),
]

SPANS = sorted({name for name, _, _, _ in TARGETS})
COUNTERS = ("model.curves_built", "blowup.blown_curves",
            "antinef.closure_steps", "linalg.rows_solved",
            "realize.max_coeff_bits", "report.bytes_out")


def span_cost(calls=20000, repeats=5):
    """Seconds a wrapper adds to one call, from wrapping a no-op.

    The fastest of ``repeats`` loops is taken for the wrapped and the bare
    no-op alike, since other load only ever slows a loop down.
    """
    def noop():
        return None

    def per_call(fn):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - start)
        return best / calls

    return per_call(Tracer().wrap("noop", noop, None)) - per_call(noop)


class Tracer:
    """Call counts, self times and counters of the wrapped functions."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        # one [child seconds] cell per open span; the first is the root
        self._stack = [[0.0]]

    def wrap(self, name, fn, count):
        stack = self._stack

        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                stack[-1][0] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - cell[0]
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def install(self):
        for name, module_name, attr, count in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner)[member]
            if isinstance(raw, classmethod):
                setattr(owner, member,
                        classmethod(self.wrap(name, raw.__func__, count)))
            else:
                setattr(owner, member, self.wrap(name, raw, count))

    def metrics(self) -> dict:
        """Per-layer metrics by name; see README.md for their meaning."""
        out = {}
        for name in SPANS:
            if not name.startswith("cli."):
                out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        for name in COUNTERS:
            out[name] = self.counters[name]
        cases = self.calls["realize.realize"]
        out["antinef.closures_per_case"] = (
            self.counters["antinef.realize_closures"] / cases if cases else 0.0)
        out["realize.verify_per_case"] = (
            self.calls["realize.verify_certificate"] / cases if cases else 0.0)
        out["trace.spans_s"] = self._stack[0][0]
        out["trace.overhead_s"] = sum(self.calls.values()) * span_cost()
        return out
