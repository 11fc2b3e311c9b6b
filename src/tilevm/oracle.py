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


def compare(
    actual: np.ndarray | RefTensor,
    expected: np.ndarray | RefTensor,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
) -> CompareReport:
    """Elementwise |a - e| <= abs_tol + rel_tol*|e|; NaN matches NaN only."""
    a = actual.data if isinstance(actual, RefTensor) else np.asarray(actual)
    e = expected.data if isinstance(expected, RefTensor) else np.asarray(expected)
    if a.shape != e.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {e.shape}")
    a = a.astype(np.float64).ravel()
    e = e.astype(np.float64).ravel()
    both_nan = np.isnan(a) & np.isnan(e)
    inf_match = np.isinf(a) & np.isinf(e) & (np.sign(a) == np.sign(e))
    with np.errstate(invalid="ignore"):
        diff = np.abs(a - e)
        ok = diff <= abs_tol + rel_tol * np.abs(e)
    ok = ok | both_nan | inf_match
    finite_diff = diff[np.isfinite(diff)]
    max_err = float(finite_diff.max()) if finite_diff.size else (
        0.0 if bool(ok.all()) else float("inf")
    )
    if bool(ok.all()):
        return CompareReport(True, max_err if ok.size else 0.0, None, int(ok.size))
    first = int(np.argmin(ok))
    return CompareReport(False, max_err, first, int(ok.size))
