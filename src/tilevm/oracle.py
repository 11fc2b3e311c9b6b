"""Scalar reference executor: ground truth for all functional tests.

Everything is evaluated in float64 and quantized to the op's dtype after
each operator, so the only divergence the device VM can show against this
oracle is its own rounding behavior.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .graph import OperatorGraph
from .isa import NP_DTYPES, CmpType, DType, to_storage  # noqa: F401  (re-exports NP_DTYPES)


@dataclass
class RefTensor:
    dtype: DType
    shape: tuple[int, ...]
    data: np.ndarray  # float64, C-order, matching shape

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=np.float64).reshape(
            self.shape
        )
        if self.data.size != prod(self.shape):
            raise ValueError("element count does not match shape")

    @classmethod
    def from_array(cls, arr: np.ndarray, dtype: DType) -> "RefTensor":
        return cls(dtype, tuple(arr.shape), np.asarray(arr, dtype=np.float64))


def quantize(values: np.ndarray, dtype: DType) -> np.ndarray:
    """Round float64 values into the given storage dtype, back to float64."""
    with np.errstate(all="ignore"):
        return to_storage(values, dtype).astype(np.float64)


def _eval_op(kind: str, ins: list[np.ndarray], attrs: dict) -> np.ndarray:
    with np.errstate(all="ignore", invalid="ignore"):
        if kind == "add":
            return ins[0] + ins[1]
        if kind == "sub":
            return ins[0] - ins[1]
        if kind == "mul":
            return ins[0] * ins[1]
        if kind == "div":
            return ins[0] / ins[1]
        if kind == "min":
            return np.minimum(ins[0], ins[1])
        if kind == "max":
            return np.maximum(ins[0], ins[1])
        if kind == "pow":
            return np.power(ins[0], ins[1])
        if kind == "sqrt":
            return np.sqrt(ins[0])
        if kind == "abs":
            return np.abs(ins[0])
        if kind == "log":
            return np.log(ins[0])
        if kind == "exp":
            return np.exp(ins[0])
        if kind == "round":
            return np.round(ins[0])
        if kind == "floor":
            return np.floor(ins[0])
        if kind == "isfinite":
            return np.isfinite(ins[0]).astype(np.float64)
        if kind == "copy":
            return ins[0].copy()
        if kind == "adds":
            return ins[0] + float(attrs["scalar"])
        if kind == "muls":
            return ins[0] * float(attrs["scalar"])
        if kind == "cmp":
            cmp = CmpType(attrs["cmp"])
            a, b = ins
            table = {
                CmpType.EQ: a == b,
                CmpType.NE: a != b,
                CmpType.LT: a < b,
                CmpType.LE: a <= b,
                CmpType.GT: a > b,
                CmpType.GE: a >= b,
            }
            return table[cmp].astype(np.float64)
        if kind == "cast":
            return ins[0].copy()  # storage change only; quantization applies it
        if kind == "select":
            return np.where(ins[0] != 0, ins[1], ins[2])
        if kind == "sum":
            return np.sum(ins[0], axis=-1, keepdims=True)
        if kind == "reduce_max":
            return np.max(ins[0], axis=-1, keepdims=True)
        if kind == "reduce_min":
            return np.min(ins[0], axis=-1, keepdims=True)
        if kind == "broadcast":
            size = int(attrs["size"])
            return np.broadcast_to(ins[0], ins[0].shape[:-1] + (size,)).copy()
        if kind == "matmul":
            return ins[0] @ ins[1]
    raise ValueError(f"oracle cannot evaluate op kind {kind!r}")


def ref_execute(
    g: OperatorGraph, inputs: dict[str, RefTensor]
) -> dict[str, RefTensor]:
    """Evaluate every op of ``g`` in order; returns all computed tensors."""
    env: dict[str, RefTensor] = {}
    for tid, ref in inputs.items():
        meta = g.tensors[tid]
        if tuple(ref.shape) != g.resolved_shape(tid):
            raise ValueError(
                f"input {tid}: shape {ref.shape} != declared "
                f"{g.resolved_shape(tid)}"
            )
        env[tid] = ref
    for op in g.ops:
        try:
            ins = [env[t].data for t in op.inputs]
        except KeyError as exc:
            raise ValueError(f"missing input tensor {exc} for {op.kind}") from None
        out_meta = g.tensors[op.output]
        raw = _eval_op(op.kind, ins, op.attrs)
        shape = g.resolved_shape(op.output)
        raw = np.broadcast_to(raw, shape)
        env[op.output] = RefTensor(out_meta.dtype, shape, quantize(raw, out_meta.dtype))
    return env


@dataclass
class CompareReport:
    passed: bool
    max_abs_err: float
    first_mismatch: int | None
    checked: int


# Elements per compare block: its float64 temporaries stay a few MiB
# whatever the tensor size.
COMPARE_BLOCK = 1 << 16


def compare(
    actual: np.ndarray | RefTensor,
    expected: np.ndarray | RefTensor,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
) -> CompareReport:
    """Elementwise |a - e| <= abs_tol + rel_tol*|e|; NaN matches NaN only.

    Works through the raveled arrays one ``COMPARE_BLOCK`` at a time.
    """
    a = actual.data if isinstance(actual, RefTensor) else np.asarray(actual)
    e = expected.data if isinstance(expected, RefTensor) else np.asarray(expected)
    if a.shape != e.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {e.shape}")
    a, e = a.ravel(), e.ravel()
    max_err, first = None, None  # largest finite |a - e|; first failing index
    for lo in range(0, a.size, COMPARE_BLOCK):
        x = a[lo : lo + COMPARE_BLOCK].astype(np.float64)
        y = e[lo : lo + COMPARE_BLOCK].astype(np.float64)
        both_nan = np.isnan(x) & np.isnan(y)
        inf_match = np.isinf(x) & np.isinf(y) & (np.sign(x) == np.sign(y))
        with np.errstate(invalid="ignore"):
            diff = np.abs(x - y)
            ok = diff <= abs_tol + rel_tol * np.abs(y)
        ok |= both_nan | inf_match
        finite_diff = diff[np.isfinite(diff)]
        if finite_diff.size:
            block_max = float(finite_diff.max())
            max_err = block_max if max_err is None else max(max_err, block_max)
        if first is None and not bool(ok.all()):
            first = lo + int(np.argmin(ok))
    if first is None:
        return CompareReport(True, max_err or 0.0, None, int(a.size))
    return CompareReport(False, float("inf") if max_err is None else max_err, first, int(a.size))
