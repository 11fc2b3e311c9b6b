"""Basic-operator computation graphs with symbolic or concrete shapes.

Shapes are tuples whose entries are either positive ints or symbol names
(strings) drawn from the graph's symbol table.  Graphs are immutable after
``finalize`` and all analyses here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Sequence, Union

from .isa import DType

Dim = Union[int, str]
Shape = tuple[Dim, ...]

ELEMENTWISE_UNARY = frozenset(
    {"sqrt", "abs", "log", "exp", "round", "floor", "isfinite", "copy"}
)
ELEMENTWISE_BINARY = frozenset({"add", "sub", "mul", "div", "min", "max", "pow"})
SCALAR_KINDS = frozenset({"adds", "muls"})
REDUCTION_KINDS = frozenset({"sum", "reduce_max", "reduce_min"})
ELEMENTWISE_KINDS = (
    ELEMENTWISE_UNARY | ELEMENTWISE_BINARY | SCALAR_KINDS | {"cmp", "cast", "select"}
)
VECTOR_KINDS = ELEMENTWISE_KINDS | REDUCTION_KINDS | {"broadcast"}
ALL_KINDS = VECTOR_KINDS | {"matmul"}

_ARITY = {"cmp": 2, "select": 3, "matmul": 2, "broadcast": 1}
_ARITY.update({k: 1 for k in ELEMENTWISE_UNARY | SCALAR_KINDS | {"cast"}})
_ARITY.update({k: 2 for k in ELEMENTWISE_BINARY})
_ARITY.update({k: 1 for k in REDUCTION_KINDS})


class GraphError(ValueError):
    pass


class SymbolTable:
    """Symbol names with optional bindings and a union-find of equalities."""

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}
        self._values: dict[str, int] = {}

    def declare(self, name: str, value: int | None = None) -> None:
        if not name:
            raise GraphError("symbol names must be nonempty")
        self._parent.setdefault(name, name)
        if value is not None:
            self.bind(name, value)

    def names(self) -> set[str]:
        return set(self._parent)

    def _find(self, name: str) -> str:
        while self._parent[name] != name:
            self._parent[name] = self._parent[self._parent[name]]
            name = self._parent[name]
        return name

    def equate(self, a: str, b: str) -> None:
        self.declare(a)
        self.declare(b)
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            va, vb = self._values.get(ra), self._values.get(rb)
            if va is not None and vb is not None and va != vb:
                raise GraphError(f"contradictory equality {a}={b} ({va} vs {vb})")
            self._parent[ra] = rb
            if va is not None:
                self._values[rb] = va

    def equal(self, a: str, b: str) -> bool:
        if a == b:
            return True
        if a not in self._parent or b not in self._parent:
            return False
        return self._find(a) == self._find(b)

    def bind(self, name: str, value: int) -> None:
        if value < 1:
            raise GraphError(f"symbol {name}={value}: bindings must be >= 1")
        self.declare(name)
        root = self._find(name)
        old = self._values.get(root)
        if old is not None and old != value:
            raise GraphError(f"symbol {name} rebound {old} -> {value}")
        self._values[root] = value

    def value_of(self, dim: Dim) -> int | None:
        if isinstance(dim, int):
            return dim
        if dim not in self._parent:
            return None
        return self._values.get(self._find(dim))

    def resolve(self, shape: Shape) -> tuple[int, ...]:
        out = []
        for dim in shape:
            value = self.value_of(dim)
            if value is None:
                raise GraphError(f"unbound symbolic dimension {dim!r}")
            out.append(value)
        return tuple(out)


@dataclass
class TensorMeta:
    """Shape/dtype/placement metadata for one tensor id."""

    id: str
    dtype: DType
    shape: Shape
    strides: tuple[int, ...] | None = None  # elements; None means contiguous
    addr: int | None = None  # global byte offset, assigned at bind time

    def __post_init__(self) -> None:
        for dim in self.shape:
            if isinstance(dim, int) and dim < 1:
                raise GraphError(f"tensor {self.id}: dimension {dim} < 1")
            if isinstance(dim, str) and not dim:
                raise GraphError(f"tensor {self.id}: empty symbol name")
        if self.strides is not None and len(self.strides) != len(self.shape):
            raise GraphError(f"tensor {self.id}: strides rank mismatch")

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def is_concrete(self) -> bool:
        return all(isinstance(d, int) for d in self.shape)

    @property
    def nelems(self) -> int:
        if not self.is_concrete:
            raise GraphError(f"tensor {self.id} has symbolic shape")
        return prod(self.shape)  # type: ignore[arg-type]

    @property
    def nbytes(self) -> int:
        return self.nelems * self.dtype.nbytes

    def contiguous_strides(self) -> tuple[int, ...]:
        out = [1] * self.rank
        for d in reversed(range(self.rank - 1)):
            out[d] = out[d + 1] * int(self.shape[d + 1])
        return tuple(out)

    @property
    def is_contiguous(self) -> bool:
        if self.strides is None:
            return True
        return self.is_concrete and self.strides == self.contiguous_strides()

    def elem_strides(self) -> tuple[int, ...]:
        return self.strides if self.strides is not None else self.contiguous_strides()


@dataclass
class BasicOp:
    """A basic tensor operator at graph granularity."""

    kind: str
    inputs: tuple[str, ...]
    output: str
    attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise GraphError(f"unknown op kind {self.kind!r}")
        arity = _ARITY[self.kind]
        if len(self.inputs) != arity:
            raise GraphError(
                f"{self.kind} expects {arity} inputs, got {len(self.inputs)}"
            )

    @property
    def is_matmul(self) -> bool:
        return self.kind == "matmul"

    @property
    def is_elementwise(self) -> bool:
        return self.kind in ELEMENTWISE_KINDS


def unify_dims(a: Dim, b: Dim, symbols: SymbolTable | None = None) -> Dim | None:
    """Broadcast-unify two dims; None when they cannot be proven compatible."""
    va = symbols.value_of(a) if symbols and isinstance(a, str) else a
    vb = symbols.value_of(b) if symbols and isinstance(b, str) else b
    va = va if va is not None else a
    vb = vb if vb is not None else b
    if va == 1:
        return vb
    if vb == 1:
        return va
    if isinstance(va, int) and isinstance(vb, int):
        return va if va == vb else None
    if isinstance(va, str) and isinstance(vb, str):
        if va == vb or (symbols is not None and symbols.equal(va, vb)):
            return va
        return None
    return None  # symbol vs constant: conservatively incompatible


def unify_shapes(
    a: Shape, b: Shape, symbols: SymbolTable | None = None
) -> Shape | None:
    rank = max(len(a), len(b))
    pa = (1,) * (rank - len(a)) + tuple(a)
    pb = (1,) * (rank - len(b)) + tuple(b)
    out = []
    for da, db in zip(pa, pb):
        dim = unify_dims(da, db, symbols)
        if dim is None:
            return None
        out.append(dim)
    return tuple(out)


class OperatorGraph:
    """Tensors plus ops in topological order, with a shared symbol table."""

    def __init__(self, symbols: SymbolTable | None = None) -> None:
        self.symbols = symbols or SymbolTable()
        self.tensors: dict[str, TensorMeta] = {}
        self.ops: list[BasicOp] = []
        self.outputs: list[str] = []
        self._producers: dict[str, BasicOp] = {}
        self._consumers: dict[str, list[BasicOp]] = {}

    def add_tensor(self, meta: TensorMeta) -> TensorMeta:
        if meta.id in self.tensors:
            raise GraphError(f"duplicate tensor id {meta.id!r}")
        for dim in meta.shape:
            if isinstance(dim, str):
                self.symbols.declare(dim)
        self.tensors[meta.id] = meta
        return meta

    def tensor(
        self,
        tid: str,
        dtype: DType | str,
        shape: Sequence[Dim],
        strides: Sequence[int] | None = None,
    ) -> TensorMeta:
        if isinstance(dtype, str):
            dtype = DType.parse(dtype)
        return self.add_tensor(
            TensorMeta(tid, dtype, tuple(shape), tuple(strides) if strides else None)
        )

    def add_op(self, op: BasicOp) -> BasicOp:
        for tid in op.inputs:
            if tid not in self.tensors:
                raise GraphError(f"{op.kind}: undefined input {tid!r}")
        if op.output not in self.tensors:
            raise GraphError(f"{op.kind}: undefined output {op.output!r}")
        if op.output in self._producers:
            raise GraphError(f"tensor {op.output!r} written twice")
        self._check_shapes(op)
        self._append(op)
        return op

    def _append(self, op: BasicOp) -> None:
        self.ops.append(op)
        self._producers[op.output] = op
        for tid in dict.fromkeys(op.inputs):
            self._consumers.setdefault(tid, []).append(op)

    def subgraph(self, ops: Sequence[BasicOp], outputs: Iterable[str]) -> OperatorGraph:
        """Standalone graph of ``ops``, which this graph has already checked.

        Tensor metas and the symbol table are shared.  The tensors the ops
        read but do not produce come first, in first-use order.
        """
        sub = OperatorGraph(self.symbols)
        produced = {op.output for op in ops}
        for op in ops:
            for tid in op.inputs:
                if tid not in produced:
                    sub.tensors.setdefault(tid, self.tensors[tid])
        for op in ops:
            sub.tensors[op.output] = self.tensors[op.output]
            sub._append(op)
        sub.set_outputs(outputs)
        return sub

    def op(self, kind: str, inputs: Sequence[str], output: str, **attrs) -> BasicOp:
        return self.add_op(BasicOp(kind, tuple(inputs), output, attrs))

    def _check_shapes(self, op: BasicOp) -> None:
        ins = [self.tensors[t] for t in op.inputs]
        out = self.tensors[op.output]
        if op.kind == "matmul":
            a, b = ins
            if a.rank != 2 or b.rank != 2:
                raise GraphError("matmul inputs must be rank 2")
            if unify_dims(a.shape[1], b.shape[0], self.symbols) is None:
                raise GraphError(
                    f"matmul inner dims {a.shape[1]} and {b.shape[0]} do not unify"
                )
            return
        if op.kind in REDUCTION_KINDS or op.kind == "broadcast":
            axis = op.attrs.get("axis", -1)
            if axis not in (-1, max(t.rank for t in ins) - 1):
                raise GraphError(f"{op.kind}: only last-axis supported, got {axis}")
            return
        shape: Shape | None = ins[0].shape
        for t in ins[1:]:
            shape = unify_shapes(shape, t.shape, self.symbols) if shape else None
        if shape is None:
            raise GraphError(
                f"{op.kind}: input shapes not broadcast-unifiable: "
                f"{[t.shape for t in ins]}"
            )
        if unify_shapes(shape, out.shape, self.symbols) is None:
            raise GraphError(f"{op.kind}: output shape {out.shape} does not unify")

    def producer(self, tid: str) -> BasicOp | None:
        return self._producers.get(tid)

    def consumers(self, tid: str) -> list[BasicOp]:
        """Ops that read ``tid``, in the order they were added."""
        return self._consumers.get(tid, [])

    def graph_input_ids(self) -> list[str]:
        return [
            t for t in self.tensors if t not in self._producers and t in self._consumers
        ]

    def set_outputs(self, outputs: Iterable[str]) -> None:
        outputs = list(outputs)
        for tid in outputs:
            if tid not in self.tensors:
                raise GraphError(f"unknown output tensor {tid!r}")
        self.outputs = outputs

    @property
    def is_vector_only(self) -> bool:
        return all(not op.is_matmul for op in self.ops)

    @property
    def is_concrete(self) -> bool:
        return all(self.tensors[t].is_concrete for t in self.touched_tensor_ids())

    def touched_tensor_ids(self) -> list[str]:
        seen: list[str] = []
        for op in self.ops:
            for tid in (*op.inputs, op.output):
                if tid not in seen:
                    seen.append(tid)
        return seen

    def resolved_shape(self, tid: str) -> tuple[int, ...]:
        return self.symbols.resolve(self.tensors[tid].shape)


# --- compound decomposition -------------------------------------------------

_FRESH = "{base}.t{i}"


def decompose(
    kind: str,
    inputs: Sequence[TensorMeta],
    output: str,
    *,
    eps: float = 1e-5,
    taken: bool | None = None,
) -> tuple[list[TensorMeta], list[BasicOp]]:
    """Expand a compound operator into basic ops with fresh intermediates.

    Returns (new tensors including the output meta, ops in execution order).
    """
    if kind == "addmm":
        a, b, c = inputs
        mm = TensorMeta(_FRESH.format(base=output, i=0), c.dtype, (a.shape[0], b.shape[1]))
        out = TensorMeta(output, c.dtype, mm.shape)
        return [mm, out], [
            BasicOp("matmul", (a.id, b.id), mm.id),
            BasicOp("add", (mm.id, c.id), output),
        ]
    if kind == "layernorm":
        (x,) = inputs
        h = x.shape[-1]
        if not isinstance(h, int):
            raise GraphError("layernorm requires a concrete last axis")
        red = x.shape[:-1] + (1,)
        names = iter(_FRESH.format(base=output, i=i) for i in range(16))
        t = lambda shape: TensorMeta(next(names), x.dtype, shape)  # noqa: E731
        s1, mean, mb, xc, sq = t(red), t(red), t(x.shape), t(x.shape), t(x.shape)
        s2, var, ve, std, stdb = t(red), t(red), t(red), t(red), t(x.shape)
        out = TensorMeta(output, x.dtype, x.shape)
        ops = [
            BasicOp("sum", (x.id,), s1.id),
            BasicOp("muls", (s1.id,), mean.id, {"scalar": 1.0 / h}),
            BasicOp("broadcast", (mean.id,), mb.id, {"size": h}),
            BasicOp("sub", (x.id, mb.id), xc.id),
            BasicOp("mul", (xc.id, xc.id), sq.id),
            BasicOp("sum", (sq.id,), s2.id),
            BasicOp("muls", (s2.id,), var.id, {"scalar": 1.0 / h}),
            BasicOp("adds", (var.id,), ve.id, {"scalar": eps}),
            BasicOp("sqrt", (ve.id,), std.id),
            BasicOp("broadcast", (std.id,), stdb.id, {"size": h}),
            BasicOp("div", (xc.id, stdb.id), output),
        ]
        return [s1, mean, mb, xc, sq, s2, var, ve, std, stdb, out], ops
    if kind == "if_else_add":
        if taken is None:
            raise GraphError("if_else_add requires a resolved branch")
        x, y = inputs
        scaled = TensorMeta(_FRESH.format(base=output, i=0), x.dtype, x.shape)
        out_shape = unify_shapes(x.shape, y.shape)
        if out_shape is None:
            raise GraphError("if_else_add operands do not unify")
        out = TensorMeta(output, x.dtype, out_shape)
        return [scaled, out], [
            BasicOp("muls", (x.id,), scaled.id, {"scalar": 2.0 if taken else 4.0}),
            BasicOp("add", (scaled.id, y.id), output),
        ]
    raise GraphError(f"unknown compound operator {kind!r}")


COMPOUND_KINDS = frozenset({"addmm", "layernorm", "if_else_add"})


# --- analyses ----------------------------------------------------------------


def dominant_shape(g: OperatorGraph) -> tuple[int, ...]:
    """Max-rank, per-dimension-max shape covering all ops' iteration spaces."""
    if not g.ops:
        raise GraphError("empty graph has no dominant shape")
    if not g.is_vector_only:
        raise GraphError("dominant_shape requires a vector-only graph")
    shape: Shape | None = None
    for op in g.ops:
        for tid in (*op.inputs, op.output):
            s = g.resolved_shape(tid)
            shape = unify_shapes(shape, s) if shape is not None else s
            if shape is None:
                raise GraphError("graph shapes are not broadcast-unifiable")
    return tuple(int(d) for d in shape)  # type: ignore[union-attr]


def peak_live_count(g: OperatorGraph, mode: str = "all") -> int:
    """Peak number of simultaneously live tile buffers, by backward liveness.

    ``mode="all"`` counts op outputs plus still-needed inputs;
    ``mode="outputs_only"`` counts produced tensors only.
    """
    if mode not in ("all", "outputs_only"):
        raise GraphError(f"unknown liveness mode {mode!r}")
    outputs = set(g.outputs)
    last_use: dict[str, int] = {}
    defined: dict[str, int] = {}
    for i, op in enumerate(g.ops):
        for tid in op.inputs:
            last_use[tid] = i
    for i, op in enumerate(g.ops):
        defined[op.output] = i
        for tid in op.inputs:
            defined.setdefault(tid, i)  # graph inputs materialize at first use
    peak = 0
    for i, op in enumerate(g.ops):
        at = {op.output, *op.inputs}
        for tid, d in defined.items():
            if d <= i and (last_use.get(tid, -1) > i or tid in outputs):
                at.add(tid)
        if mode == "outputs_only":
            at = {tid for tid in at if tid in g._producers}
        peak = max(peak, len(at))
    return peak
