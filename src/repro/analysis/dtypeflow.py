"""Integer-path dtype-flow lint (the DT2xx rule family).

The quantized decode path claims to be *integer-resident*: between the
sanctioned quantization points, data lives as INT codes + PoT scales and no
float tensor is materialized (the ROADMAP's "never materializes a float
tensor between in-projection and readout" end state).  This lint makes that
claim a property of the source:

- ``# integer-resident`` -- trailing comment on a ``def`` line registers the
  function as an integer-resident region (the quantized SSM's decode step
  and prefill scan, ``grouped_integer_matmul``).
- ``# quant-point: <label>`` -- trailing comment on a statement marks a
  *sanctioned* float materialization: a tracked fake-quant call site (the
  ROADMAP's remaining per-token x/B/C quantizations), a scale-application
  epilogue, or a documented FP sub-path (the decay chain runs on dedicated
  FPGA units).  Every existing materialization in a registered region carries
  one; an edit that adds a new float materialization without a sanction --
  or touches a tracked one away from its marker -- fails the lint.

Checks inside registered regions (nested functions inherit the region):

``DT201``
    A float64 cast or conversion: ``x.astype(np.float64)`` (also ``float`` /
    ``"float64"``), ``np.asarray(..., dtype=np.float64)``,
    ``np.array(..., dtype=np.float64)``.
``DT202``
    An array allocation that produces floats: ``np.zeros`` / ``np.ones`` /
    ``np.empty`` / ``np.full`` (and their ``*_like`` variants) with a float
    dtype or with no dtype at all (numpy's default is float64).
``DT203``
    A fake-quant round-trip: calls to ``quantize`` / ``dequantize`` /
    ``quantize_dequantize`` (or its fused kernel ``_fake_quant_into``),
    the step helpers ``self._q`` / ``self._qp``, or a
    ``.dequantize()`` method on a resident state container.

Float *arithmetic* on values that are already float (the softplus/exp decay
chain) is deliberately out of scope: the rule targets materialization
primitives, mirroring the SSMU contract where non-linear operators run on
dedicated floating-point units while every tensor operand stays integer.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional

from repro.analysis.core import Finding, SourceModule

__all__ = ["check_dtype_flow", "count_quant_points"]

_REGION_RE = re.compile(r"integer-resident")
_QUANT_POINT_RE = re.compile(r"quant-point:")

_FLOAT_ALLOCATORS = {
    "zeros",
    "ones",
    "empty",
    "full",
    "zeros_like",
    "ones_like",
    "empty_like",
    "full_like",
}
_ROUND_TRIP_NAMES = {
    "quantize",
    "dequantize",
    "quantize_dequantize",
    "_fake_quant_into",
    "_qp",
}
_INT_DTYPE_RE = re.compile(r"int|bool")


def _dtype_is_float64(node: ast.AST) -> bool:
    """Whether a dtype expression names float64 (or python float)."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("float64", "double")
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in ("float64", "float", "f8", "d")
    return False


def _dtype_is_integer(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return bool(_INT_DTYPE_RE.search(node.attr))
    if isinstance(node, ast.Name):
        return bool(_INT_DTYPE_RE.search(node.id))
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return bool(_INT_DTYPE_RE.search(node.value))
    return False


def _keyword(call: ast.Call, name: str) -> Optional[ast.AST]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


class _RegionChecker:
    """Scan one registered integer-resident function body."""

    def __init__(self, module: SourceModule, func: ast.AST, qualname: str):
        self.module = module
        self.func = func
        self.qualname = qualname
        self.findings: List[Finding] = []

    def run(self) -> List[Finding]:
        for stmt in self.func.body:
            self._visit(stmt)
        return self.findings

    def _sanctioned(self, node: ast.AST) -> bool:
        start = getattr(node, "lineno", 0)
        end = getattr(node, "end_lineno", start) or start
        return self.module.has_marker_in_range(_QUANT_POINT_RE, start, end)

    def _report(self, code: str, message: str, node: ast.AST) -> None:
        if self._sanctioned(node):
            return
        self.findings.append(
            self.module.finding(code, message, node, symbol=self.qualname)
        )

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._check_call(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _check_call(self, call: ast.Call) -> None:
        func = call.func
        # x.astype(np.float64) and friends.
        if isinstance(func, ast.Attribute) and func.attr == "astype" and call.args:
            target = call.args[0]
            if _dtype_is_float64(target):
                self._report(
                    "DT201",
                    f"float64 cast via .astype() in integer-resident region "
                    f"{self.qualname}; add a '# quant-point:' sanction or keep "
                    "the data on integer codes",
                    call,
                )
            return
        # np.asarray / np.array with a float64 dtype.
        if isinstance(func, ast.Attribute) and func.attr in ("asarray", "array"):
            dtype = _keyword(call, "dtype")
            if dtype is not None and _dtype_is_float64(dtype):
                self._report(
                    "DT201",
                    f"np.{func.attr}(..., dtype=float64) materializes a float "
                    f"tensor in integer-resident region {self.qualname}",
                    call,
                )
            return
        # Float-dtype (or float-default) allocations.
        if isinstance(func, ast.Attribute) and func.attr in _FLOAT_ALLOCATORS:
            dtype = _keyword(call, "dtype")
            if dtype is None or not _dtype_is_integer(dtype):
                self._report(
                    "DT202",
                    f"np.{func.attr}(...) allocates a float array in "
                    f"integer-resident region {self.qualname} (numpy defaults "
                    "to float64; pass an integer dtype or sanction the buffer)",
                    call,
                )
            return
        # Fake-quant round-trips.
        name = None
        if isinstance(func, ast.Name) and func.id in _ROUND_TRIP_NAMES:
            name = func.id
        elif isinstance(func, ast.Attribute) and func.attr in _ROUND_TRIP_NAMES:
            name = func.attr
        if name is not None:
            self._report(
                "DT203",
                f"fake-quant round-trip '{name}' in integer-resident region "
                f"{self.qualname}; track it with '# quant-point:' (ROADMAP: "
                "fold onto resident codes) or remove the round trip",
                call,
            )


def _walk_functions(tree: ast.AST):
    """Yield (qualname, node) for every function, including methods."""

    def visit(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child
                yield from visit(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            else:
                yield from visit(child, prefix)

    yield from visit(tree, "")


def check_dtype_flow(module: SourceModule) -> List[Finding]:
    """Run the DT2xx rule family over one module."""
    findings: List[Finding] = []
    covered: List[ast.AST] = []
    for qualname, func in _walk_functions(module.tree):
        if any(func is c or _contains(c, func) for c in covered):
            # Nested function of a registered region: already scanned.
            continue
        if module.marker(_REGION_RE, func.lineno) is None:
            continue
        covered.append(func)
        findings.extend(_RegionChecker(module, func, qualname).run())
    return findings


def _contains(outer: ast.AST, inner: ast.AST) -> bool:
    for node in ast.walk(outer):
        if node is inner:
            return True
    return False


def count_quant_points(module: SourceModule) -> int:
    """Count the ``# quant-point:`` sanction lines inside registered regions.

    The size of the sanctioned float surface of the integer-resident code:
    each marker line (inline or standalone) within an ``# integer-resident``
    function's extent counts once, deduplicated across overlapping regions
    (a nested registered function shares its enclosing region's lines).
    This number is the subject of the DT204 ratchet -- the committed
    ``sanction_budget`` may only shrink, so every refactor of the integer
    path must fold float materializations onto resident codes rather than
    add new sanctioned ones.
    """
    marker_lines: set = set()
    for _qualname, func in _walk_functions(module.tree):
        if module.marker(_REGION_RE, func.lineno) is None:
            continue
        start = func.lineno
        end = getattr(func, "end_lineno", start) or start
        for line in range(start, end + 1):
            if _QUANT_POINT_RE.search(module.comment(line)):
                marker_lines.add(line)
    return len(marker_lines)
