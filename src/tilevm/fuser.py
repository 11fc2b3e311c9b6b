"""Operator fusion: pattern-based grouping, stacking plans, streaming buffer.

Static graphs are grouped by symbol deduction (two ops merge only when
their iteration spaces provably unify); dynamic traces are fused online
through a FusionBuffer that makes the same decisions against concrete
runtime shapes and flushes on incompatibility, host reads, capacity, or
end of stream.  Nothing is cached across flushes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import (
    BasicOp,
    GraphError,
    OperatorGraph,
    Shape,
    TensorMeta,
    unify_shapes,
)
from .tiler import DeviceConfig

VV_PATTERN = "vv-pattern"
CV_PATTERN = "cv-pattern"
SINGLETON = "singleton"


@dataclass
class FusedGroup:
    """A set of ops compiled and dispatched as one meta-kernel."""

    kind: str
    ops: list[BasicOp]
    graph: OperatorGraph
    stores: list[str] = field(default_factory=list)
    flush_reason: str | None = None

    @property
    def loads(self) -> list[str]:
        """External input tensor ids, in first-use order."""
        return self.subgraph().graph_input_ids()

    @property
    def op_kinds(self) -> list[str]:
        return [op.kind for op in self.ops]

    def subgraph(self) -> OperatorGraph:
        """Standalone graph of just this group; tensor metas are shared."""
        return self.graph.subgraph(self.ops, self.stores)

    def describe(self) -> str:
        return f"{self.kind}{{{','.join(self.op_kinds)}}}"


def can_merge_iteration(a: BasicOp, b: BasicOp, g: OperatorGraph) -> bool:
    """True iff the two vector ops' output iteration spaces unify.

    Constants match by value, symbols by identity or recorded equality
    (runtime bindings make symbols concrete), size-1 dims broadcast; an
    unknown symbol against anything else is conservatively unmergeable.
    """
    if a.is_matmul or b.is_matmul:
        return False
    sa = g.tensors[a.output].shape
    sb = g.tensors[b.output].shape
    return unify_shapes(sa, sb, g.symbols) is not None


def _share_tensor(a: BasicOp, b: BasicOp) -> bool:
    ta = {*a.inputs, a.output}
    tb = {*b.inputs, b.output}
    return bool(ta & tb)


def _cv_rule(mm: BasicOp, op: BasicOp, g: OperatorGraph) -> bool:
    if not op.is_elementwise:
        return False
    out_mm = g.tensors[mm.output].shape
    out_op = g.tensors[op.output].shape
    return unify_shapes(out_mm, out_op, g.symbols) is not None


class _GroupBuilder:
    def __init__(self, g: OperatorGraph):
        self.g = g
        self.ops: list[BasicOp] = []
        self.space: Shape | None = None
        self.has_matmul = False

    @property
    def kind(self) -> str:
        if self.has_matmul:
            return CV_PATTERN if len(self.ops) > 1 else SINGLETON
        return VV_PATTERN if len(self.ops) > 1 else SINGLETON

    def produced(self) -> set[str]:
        return {op.output for op in self.ops}

    def accepts(self, op: BasicOp) -> bool:
        if not self.ops:
            return True
        if op.is_matmul:
            return False  # a matmul always seeds its own group
        if self.has_matmul:
            return op.is_elementwise and any(
                t in self.produced() for t in op.inputs
            ) and _cv_rule(self.ops[0], op, self.g)
        if not any(_share_tensor(op, member) for member in self.ops):
            return False
        out_shape = self.g.tensors[op.output].shape
        return (
            self.space is not None
            and unify_shapes(self.space, out_shape, self.g.symbols) is not None
        )

    def add(self, op: BasicOp) -> None:
        self.ops.append(op)
        if op.is_matmul:
            self.has_matmul = True
            self.space = self.g.tensors[op.output].shape
        else:
            out = self.g.tensors[op.output].shape
            self.space = (
                out
                if self.space is None or self.has_matmul
                else unify_shapes(self.space, out, self.g.symbols)
            )


def _creates_cycle(
    op: BasicOp, group_ops: set[str], g: OperatorGraph
) -> bool:
    """Would adding ``op`` to the group route a path out of and back into it?"""
    seen: set[str] = set()

    def depends_on_group(tid: str) -> bool:
        producer = g.producer(tid)
        if producer is None:
            return False
        if producer.output in group_ops:
            return True
        if producer.output in seen:
            return False
        seen.add(producer.output)
        return any(depends_on_group(t) for t in producer.inputs)

    for tid in op.inputs:
        producer = g.producer(tid)
        if producer is None or producer.output in group_ops:
            continue
        if any(depends_on_group(t) for t in producer.inputs):
            return True
    return False


def _escaping(ops: list[BasicOp], g: OperatorGraph, extra: set[str]) -> list[str]:
    """Produced tensors needed outside the group, in production order.

    A tensor escapes when an op outside the group reads it, when it is a
    graph output or in ``extra``, or when nothing has read it yet (a leaf,
    kept reachable).  ``ops`` must already be in ``g``.
    """
    produced = {op.output for op in ops}
    out: list[str] = []
    for op in ops:
        tid = op.output
        consumers = g.consumers(tid)
        if (
            not consumers
            or any(c.output not in produced for c in consumers)
            or tid in g.outputs
            or tid in extra
        ):
            out.append(tid)
    return out


def fuse_static(g: OperatorGraph) -> list[FusedGroup]:
    """Greedy topological packing into cv-pattern / vv-pattern groups."""
    builders: list[_GroupBuilder] = []
    for op in g.ops:
        placed = False
        if not op.is_matmul:
            for builder in reversed(builders):
                if builder.accepts(op) and not _creates_cycle(
                    op, builder.produced(), g
                ):
                    builder.add(op)
                    placed = True
                    break
        if not placed:
            builder = _GroupBuilder(g)
            builder.add(op)
            builders.append(builder)
    groups = []
    for builder in builders:
        group = FusedGroup(builder.kind, builder.ops, g)
        group.stores = _escaping(builder.ops, g, set())
        groups.append(group)
    return _topo_order(groups, g)


def _topo_order(groups: list[FusedGroup], g: OperatorGraph) -> list[FusedGroup]:
    deps = group_dependencies(groups)
    done: list[int] = []
    ready = set()
    while len(done) < len(groups):
        progress = False
        for i in range(len(groups)):
            if i in ready or not deps[i] <= set(done):
                continue
            done.append(i)
            ready.add(i)
            progress = True
        if not progress:
            raise GraphError("cyclic dependency between fused groups")
    return [groups[i] for i in done]


def group_dependencies(groups: list[FusedGroup]) -> list[set[int]]:
    """For each group, the indices of earlier groups it consumes from."""
    producer_of: dict[str, int] = {}
    for i, grp in enumerate(groups):
        for op in grp.ops:
            producer_of[op.output] = i
    deps: list[set[int]] = []
    for i, grp in enumerate(groups):
        need = {
            producer_of[tid]
            for op in grp.ops
            for tid in op.inputs
            if tid in producer_of and producer_of[tid] != i
        }
        deps.append(need)
    return deps


@dataclass
class StackedMember:
    group: FusedGroup
    tiles: int
    core_lo: int = 0
    core_hi: int = 0

    @property
    def cores(self) -> int:
        return self.core_hi - self.core_lo


@dataclass
class StackingPlan:
    """Waves of spatially stacked members; consecutive waves run temporally."""

    waves: list[list[StackedMember]]

    @property
    def is_spatial(self) -> bool:
        return any(len(w) > 1 for w in self.waves)

    @property
    def is_temporal(self) -> bool:
        return len(self.waves) > 1


def _split_cores(tiles: list[int], n_cores: int) -> list[int]:
    """Proportional-to-tiles core split with a 1-core floor per member."""
    total = sum(tiles)
    shares = [max(1, (n_cores * t) // total) for t in tiles]
    while sum(shares) > n_cores:  # floors can overshoot on tiny N
        shares[shares.index(max(shares))] -= 1
    leftovers = n_cores - sum(shares)
    if leftovers:
        rema = sorted(
            range(len(tiles)),
            key=lambda i: (n_cores * tiles[i]) % total,
            reverse=True,
        )
        for i in range(leftovers):
            shares[rema[i % len(rema)]] += 1
    return [min(s, t) for s, t in zip(shares, tiles)]


def plan_stacking(
    tiled_groups: list[tuple[FusedGroup, int]], cfg: DeviceConfig
) -> StackingPlan:
    """Stack already-tiled meta-kernels spatially and temporally.

    Data-independent kernels issued consecutively share one wave with a
    proportional core split; a dependence (or core exhaustion) starts the
    next wave.  Issue order is preserved throughout.
    """
    groups = [g for g, _ in tiled_groups]
    deps = group_dependencies(groups)
    waves: list[list[int]] = []
    current: list[int] = []
    for i in range(len(groups)):
        independent = all(j not in deps[i] for j in current)
        if current and (not independent or len(current) >= cfg.num_cores):
            waves.append(current)
            current = []
        current.append(i)
    if current:
        waves.append(current)
    plan: list[list[StackedMember]] = []
    for wave in waves:
        tiles = [tiled_groups[i][1] for i in wave]
        shares = _split_cores(tiles, cfg.num_cores)
        members = []
        lo = 0
        for idx, share in zip(wave, shares):
            members.append(
                StackedMember(groups[idx], tiled_groups[idx][1], lo, lo + share)
            )
            lo += share
        plan.append(members)
    return StackingPlan(plan)


class FusionBuffer:
    """Order-preserving operator buffer for streaming (runtime) fusion.

    Fusion decisions are made immediately on push using concrete runtime
    shapes; incompatibility flushes the open group.  No decision survives a
    flush, so replaying a trace reproduces identical groups.
    """

    def __init__(self, graph: OperatorGraph | None = None, capacity: int = 64):
        if capacity < 1:
            raise GraphError("capacity must be >= 1")
        self.graph = graph or OperatorGraph()
        self.capacity = capacity
        self._open: _GroupBuilder | None = None
        self._host_reads: set[str] = set()
        self._stored: set[str] = set()
        self._flushed_unstored: set[str] = set()

    def __len__(self) -> int:
        return len(self._open.ops) if self._open else 0

    def push(
        self, op: BasicOp, new_tensors: list[TensorMeta] = ()
    ) -> list[FusedGroup]:
        """Add one operator; returns any groups flushed to make room."""
        for meta in new_tensors:
            if meta.id not in self.graph.tensors:
                self.graph.add_tensor(meta)
        for tid in op.inputs:
            if tid in self._flushed_unstored:
                raise GraphError(
                    f"tensor {tid} was flushed without a store and is gone; "
                    f"it must escape its group to be read later"
                )
        # the op joins the graph first, so a flush it forces sees it as a
        # consumer outside the flushed group and stores what it reads
        self.graph.add_op(op)
        flushed: list[FusedGroup] = []
        if self._open and len(self._open.ops) >= self.capacity:
            flushed.extend(self.flush("capacity"))
        if self._open and not (
            self._open.accepts(op)
            and not _creates_cycle(op, self._open.produced(), self.graph)
        ):
            flushed.extend(self.flush("incompatible"))
        if self._open is None:
            self._open = _GroupBuilder(self.graph)
        self._open.add(op)
        return flushed

    def mark_host_read(self, tid: str) -> None:
        if tid not in self.graph.tensors:
            raise GraphError(f"unknown tensor {tid!r}")
        self._host_reads.add(tid)

    def flush(self, reason: str = "end_of_stream") -> list[FusedGroup]:
        """Emit the buffered group(s) with their escaping stores appended."""
        if self._open is None:
            return []
        ops = self._open.ops
        group = FusedGroup(self._open.kind, ops, self.graph, flush_reason=reason)
        group.stores = _escaping(ops, self.graph, self._host_reads)
        for op in ops:
            if op.output in group.stores:
                self._stored.add(op.output)
            else:
                self._flushed_unstored.add(op.output)
        self._host_reads.clear()
        self._open = None
        return [group]
