"""Run-time spans around the public functions of each gspin module.

``Tracer.install`` replaces every target function at every binding site: the
defining module, each gspin module that imported it by name, and the entries
of ``selftest.CHECKS``; it also wraps four ``ExactMatrix`` methods (the
product only between two matrices) and counts calls into
``characters.CharacterGroup``.  ``Tracer.restore`` puts every original back.
Nothing under ``src/`` changes.

Spans are recorded only while ``active`` is set, which the benchmark does
around the timed call of each op and not around its output check.  A span is
``[name, start, end, parent span index, op id]``.  Spans stay in
memory until ``write``; self time is a span's duration minus the durations of
its direct children (calls are strictly nested in one thread, so the children
never overlap).
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import types
from fractions import Fraction
from math import isqrt

# module -> public functions given their own span
FUNCTIONS = {
    "exactlin": ["rref", "kernel", "solve", "span_basis", "commutant_basis",
                 "rational_eigensplit", "kron"],
    "involutions": ["factor", "verify", "orthogonal_string_decomposition"],
    "endoscopy": ["verify_centralizer", "restriction_diagrams_commute"],
    "restriction": ["project_parameter", "component_sign_group", "restrict_gso4"],
    "dualgroups": ["project_to_so5", "exterior_square", "apply_theta", "sample_gsp4"],
    "params": ["classify", "multiplicity", "psi_disc_membership", "component_group_oracle"],
    "weyl": ["enumerate_weyl_elements", "is_regular", "action_determinant"],
    "scenario": ["load_scenario"],
    "selftest": ["run_selftest"],
    "cli": ["main"],
}
# ExactMatrix method -> span name inside exactlin; ``__mul__`` gets a span only
# for a matrix operand (vector and scalar products pass through untraced)
MATRIX_METHODS = {"__mul__": "matmul", "det": "det", "inverse": "inverse", "charpoly": "charpoly"}
EXACTLIN_OPS = ["matmul", "det", "inverse", "charpoly"] + FUNCTIONS["exactlin"]
FACTOR_KINDS = ("d4", "d6", "d8", "search")
SHARE_MODULES = ["exactlin", "involutions", "endoscopy", "restriction", "dualgroups",
                 "params", "weyl", "scenario", "selftest", "cli"]


def check_names(selftest_module) -> list[str]:
    return [fn.__name__.removeprefix("check_") for fn in selftest_module.CHECKS]


def metric_units(checks: list[str]) -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units: dict[str, str] = {}
    for module in SHARE_MODULES:
        if module not in ("selftest", "cli"):
            for fn in EXACTLIN_OPS if module == "exactlin" else FUNCTIONS[module]:
                units[f"{module}.{fn}.calls"] = "count"
                units[f"{module}.{fn}.self_ms"] = "ms"
        if module == "exactlin":
            units["exactlin.rref.max_cols"] = "count"
            units["exactlin.max_entry_bits"] = "bits"
        if module == "involutions":
            for kind in FACTOR_KINDS:
                units[f"involutions.factor.{kind}.ms_p50"] = "ms"
        if module == "selftest":
            for check in checks:
                units[f"selftest.{check}.ms"] = "ms"
        units[f"{module}.self_share"] = "ratio"
    units["characters.calls"] = "count"
    units["trace.overhead"] = "ratio"
    units["trace.spans"] = "count"
    return units


def binding_snapshot(gs) -> dict:
    """Identity of every attribute the tracer may replace, to prove restores."""
    owners = [*vars(gs).values(), gs.exactlin.ExactMatrix, gs.characters.CharacterGroup]
    snap = {(id(o), attr): id(v) for o in owners for attr, v in vars(o).items()}
    snap.update({("CHECKS", i): id(fn) for i, fn in enumerate(gs.selftest.CHECKS)})
    return snap


def _entry_bits(m) -> int:
    return max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length())
         for row in m.entries() for x in row),
        default=0,
    )


def _factor_kind(e) -> str:
    nu = Fraction(e.nu)
    square = nu >= 0 and all(isqrt(k) ** 2 == k for k in (nu.numerator, nu.denominator))
    return f"d{e.space.dim}" if square else "search"


class Tracer:
    def __init__(self, gs):
        self.gs = gs
        self.spans: list[list] = []
        self.op_id = -1
        self.active = False  # spans are recorded only inside a timed op
        self.character_calls = 0
        self.max_cols = 0
        self.max_bits = 0
        self.factor_ms: dict[str, list[float]] = {k: [] for k in FACTOR_KINDS}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # installing and restoring --------------------------------------------

    def install(self):
        gs = self.gs
        originals = {}
        for module, names in FUNCTIONS.items():
            for fn_name in names:
                fn = getattr(getattr(gs, module), fn_name)
                originals[id(fn)] = self._span(f"{module}.{fn_name}", fn)
        checks = gs.selftest.CHECKS
        for i, fn in enumerate(checks):
            wrapped = self._span(f"selftest.{fn.__name__}", fn)
            self._undo.append((checks.__setitem__, i, fn))
            checks[i] = wrapped
        for mod in vars(gs).values():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    self._undo.append((functools.partial(setattr, mod), attr, value))
                    setattr(mod, attr, originals[id(value)])
        matrix = gs.exactlin.ExactMatrix
        for method, op in MATRIX_METHODS.items():
            fn = matrix.__dict__[method]
            self._undo.append((functools.partial(setattr, matrix), method, fn))
            wrapped = self._span(f"exactlin.{op}", fn)
            if method == "__mul__":
                wrapped = self._matrix_operand_only(matrix, fn, wrapped)
            setattr(matrix, method, wrapped)
        group = gs.characters.CharacterGroup
        for attr, fn in list(vars(group).items()):
            if isinstance(fn, types.FunctionType) and not attr.startswith("_"):
                self._undo.append((functools.partial(setattr, group), attr, fn))
                setattr(group, attr, self._count(fn))

    def restore(self):
        while self._undo:
            put, key, value = self._undo.pop()
            put(key, value)

    # wrappers ------------------------------------------------------------

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.character_calls += self.active
            return fn(*args, **kwargs)

        return counted

    @staticmethod
    def _matrix_operand_only(matrix, fn, wrapped):
        @functools.wraps(fn)
        def mul(a, b):
            return wrapped(a, b) if isinstance(b, matrix) else fn(a, b)

        return mul

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = self._after.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result, rec)
            return result

        return traced

    def _after_rref(self, args, result, rec):
        self.max_cols = max(self.max_cols, args[0].cols)
        self.max_bits = max(self.max_bits, _entry_bits(args[0]))

    def _after_matrix(self, args, result, rec):
        if isinstance(result, self.gs.exactlin.ExactMatrix):
            self.max_bits = max(self.max_bits, _entry_bits(result))

    def _after_factor(self, args, result, rec):
        self.factor_ms[_factor_kind(args[0])].append(1000 * (rec[2] - rec[1]))

    _after = {
        "exactlin.rref": _after_rref,
        "exactlin.matmul": _after_matrix,
        "exactlin.inverse": _after_matrix,
        "involutions.factor": _after_factor,
    }

    # results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_n, start, end, _p, _o) in enumerate(self.spans)]

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, dict]:
        """Per-layer metrics of the spans recorded so far."""
        units = metric_units(check_names(self.gs.selftest))
        values = dict.fromkeys(units, 0)
        share: dict[str, float] = {}
        for (name, start, end, _p, _o), own in zip(self.spans, self.self_times()):
            module, fn = name.split(".", 1)
            share[module] = share.get(module, 0.0) + own
            if module == "selftest" and fn.startswith("check_"):
                key = f"selftest.{fn.removeprefix('check_')}.ms"
                values[key] += 1000 * (end - start)
            elif f"{name}.calls" in values:
                values[f"{name}.calls"] += 1
                values[f"{name}.self_ms"] += 1000 * own
        for module in SHARE_MODULES:
            values[f"{module}.self_share"] = share.get(module, 0.0) / traced_wall_s
        for kind, samples in self.factor_ms.items():
            if samples:
                values[f"involutions.factor.{kind}.ms_p50"] = statistics.median(samples)
        values["exactlin.rref.max_cols"] = self.max_cols
        values["exactlin.max_entry_bits"] = self.max_bits
        values["characters.calls"] = self.character_calls
        values["trace.overhead"] = traced_wall_s / untraced_wall_s
        values["trace.spans"] = len(self.spans)
        return {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    def write(self, path: str):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
