"""Iteration-space tiling for vector graphs, matmuls, and cube-vector groups.

The tile-size search is driven by a lightweight cost model,
``ceil(ceil(total/tile)/N) * (tile + TILE_OVERHEAD)``, which scores the
bottleneck workload across cores; the winner is then rounded up to the
hardware instruction width.  No hardware measurement is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, gcd, prod

from .graph import (
    GraphError,
    OperatorGraph,
    REDUCTION_KINDS,
    dominant_shape,
    peak_live_count,  # noqa: F401  (perfbench/tracing.py wraps it here)
)
from .isa import DType


TILE_OVERHEAD = 2.0  # the paper's "+2" per-tile term of the cost model


class InfeasibleTilingError(ValueError):
    """Local memory cannot hold even the smallest legal tile."""


@dataclass
class DeviceConfig:
    """Simulated device geometry and timing parameters.

    Timing values are dimensionless model units, not measurements.
    """

    num_cores: int = 40
    local_mem_bytes: int = 192 * 1024
    instr_width_bytes: int = 32
    decode_cost: float = 1.0
    dma_cost_per_byte: float = 0.5
    vector_cost_per_elem: float = 1.0
    cube_cost_per_mac: float = 1.0
    sync_cost: float = 2.0

    def __post_init__(self) -> None:
        if min(self.num_cores, self.local_mem_bytes, self.instr_width_bytes) < 1:
            raise ValueError("device dimensions must be positive")
        if self.instr_width_bytes & (self.instr_width_bytes - 1):
            raise ValueError("instr_width_bytes must be a power of two")

    def width_elems(self, dtype_bytes: int) -> int:
        return max(1, self.instr_width_bytes // dtype_bytes)


def tiling_cost(tile_size: int, total: int, n_cores: int) -> float:
    """Bottleneck workload of the busiest core for a given tile size."""
    if min(tile_size, total, n_cores) < 1:
        raise ValueError("tiling_cost arguments must be >= 1")
    tiles = ceil(total / tile_size)
    return ceil(tiles / n_cores) * (tile_size + TILE_OVERHEAD)


def min_cost_multiplier(
    t_hi: int, l_prime: int, total: int, n_cores: int
) -> tuple[int, float]:
    """Smallest multiplier t in [1, t_hi] minimizing tiling_cost(t*l_prime).

    Enumerates only the cheapest candidate per per-core tile-count class,
    which covers the global minimum exactly (cost is increasing in t within
    a class).
    """
    if t_hi < 1:
        raise ValueError("t_hi must be >= 1")
    best_t, best_cost = t_hi, tiling_cost(t_hi * l_prime, total, n_cores)
    f = ceil(ceil(total / (t_hi * l_prime)) / n_cores)
    while True:
        t = max(1, min(t_hi, ceil(total / (f * n_cores * l_prime))))
        cost = tiling_cost(t * l_prime, total, n_cores)
        if cost < best_cost or (cost == best_cost and t < best_t):
            best_t, best_cost = t, cost
        if t == 1:
            return best_t, best_cost
        # jump to the smallest per-core factor that shrinks the candidate
        step = (t - 1) * n_cores * l_prime
        f = max(f + 1, (total + step - 1) // step)


def hardware_align_div(
    t_max: int,
    l_prime: int,
    total: int,
    cfg: DeviceConfig,
    dtype_bytes: int,
) -> int:
    """Pick the min-cost tile multiplier, rounded up to the hardware width.

    Returns t such that t*l_prime is the chosen tile size in elements; the
    rounded size never exceeds t_max and never exceeds what one tile of the
    whole space would need.
    """
    if l_prime > t_max:
        raise InfeasibleTilingError(
            f"inner extent {l_prime} exceeds tile limit {t_max}"
        )
    t_hi = min(t_max // l_prime, ceil(total / l_prime))
    t_star, _ = min_cost_multiplier(t_hi, l_prime, total, cfg.num_cores)
    width = cfg.width_elems(dtype_bytes)
    step = width // gcd(l_prime, width)  # smallest t step keeping t*l' aligned
    aligned = ceil(t_star / step) * step
    if aligned > t_hi:
        aligned = (t_hi // step) * step
        if aligned == 0:
            aligned = t_hi  # alignment impossible under the cap
    return aligned


@dataclass
class TiledGraph:
    """Tiling decision for one fused group.

    For vector groups the iteration space is flattened into ``total_rows``
    rows of ``row_size`` elements each and partitioned into contiguous runs
    of ``rows_per_tile`` rows.  For matmul / cube-vector groups the output
    space is a 2-D grid of (tm, tn) tiles, visited row-major.
    """

    kind: str  # "vector" | "matmul" | "cube_vector"
    graph: OperatorGraph
    tile_elems: int
    total_elems: int
    tiles: int
    t_max: int
    dtype_bytes: int
    # vector tiling
    dom: tuple[int, ...] = ()
    boundary: int = 0
    total_rows: int = 1
    rows_per_tile: int = 1
    row_size: int = 1
    # matmul tiling
    tm: int = 0
    tn: int = 0
    k_chunk: int = 0
    grid: tuple[int, int] = (0, 0)
    mkn: tuple[int, int, int] = (0, 0, 0)
    # set by encoder.tile_for_group: the accepted lowering and its allocation
    lowering: object | None = None
    alloc: object | None = None

    @property
    def tail_elems(self) -> int:
        return self.total_elems - (self.tiles - 1) * self.tile_elems

    def check(self) -> None:
        assert 1 <= self.tail_elems <= self.tile_elems
        assert self.tiles * self.tile_elems >= self.total_elems
        assert self.tile_elems <= self.t_max


def aligned_shape(shape: tuple[int, ...], rank: int) -> tuple[int, ...]:
    return (1,) * (rank - len(shape)) + shape


def _protection_boundary(g: OperatorGraph, dom: tuple[int, ...]) -> int:
    """Outermost dimension index from which tiles may not split rows.

    Dimensions at or inside the boundary stay whole within every tile:
    reduction/broadcast axes, axes broadcast by some input, and the inner
    axes of non-contiguous tensors.
    """
    rank = len(dom)
    boundary = rank  # fully flattenable by default
    for op in g.ops:
        if op.kind in REDUCTION_KINDS or op.kind == "broadcast":
            boundary = min(boundary, rank - 1)
    for tid in g.touched_tensor_ids():
        meta = g.tensors[tid]
        shape = aligned_shape(g.resolved_shape(tid), rank)
        frozen = [d for d in range(rank) if shape[d] == 1 and dom[d] != 1]
        if frozen:
            if frozen == list(range(len(frozen))):
                boundary = min(boundary, len(frozen))
            else:
                boundary = min(boundary, min(frozen))
        if not meta.is_contiguous:
            boundary = min(boundary, rank - (meta.rank - 1))
    return max(boundary, 0)


def tile_vector_graph(
    g: OperatorGraph, cfg: DeviceConfig, max_rows: int | None = None
) -> TiledGraph:
    """Tile a vector-only graph over its flattened dominant iteration space.

    The cost model picks the tile, with at most ``max_rows`` rows when
    given, but never fewer than one hardware-width vector needs; whether it
    fits local memory is the allocator's call (see
    ``encoder.tile_for_group``).  Purely element-wise contiguous graphs
    flatten to 1-D, so the whole space is fair game.
    """
    if not g.is_vector_only:
        raise GraphError("tile_vector_graph requires a vector-only graph")
    dom = dominant_shape(g)
    dtype_bytes = max(g.tensors[t].dtype.nbytes for t in g.touched_tensor_ids())
    total = prod(dom)
    boundary = _protection_boundary(g, dom)
    row_size = prod(dom[boundary:]) if boundary < len(dom) else 1
    total_rows = total // row_size
    cap = total_rows
    if max_rows is not None:
        min_rows = ceil(min(cfg.width_elems(dtype_bytes), total) / row_size)
        cap = min(cap, max(max_rows, min_rows))
    t_max = row_size * cap
    t = hardware_align_div(t_max, row_size, total, cfg, dtype_bytes)
    tile = t * row_size
    tiles = ceil(total / tile)
    if tiles == 1:
        tile = total
        t = total_rows
    tg = TiledGraph(
        kind="vector",
        graph=g,
        tile_elems=tile,
        total_elems=total,
        tiles=tiles,
        t_max=t_max,
        dtype_bytes=dtype_bytes,
        dom=dom,
        boundary=boundary,
        total_rows=total_rows,
        rows_per_tile=t,
        row_size=row_size,
    )
    tg.check()
    return tg


def _align16_floor(x: int) -> int:
    return max(16, (x // 16) * 16)


def _tile_matmul_shapes(
    m: int,
    k: int,
    n: int,
    in_dtype: DType,
    out_dtype: DType,
    cfg: DeviceConfig,
    extra_bufs: int,
) -> tuple[int, int, int]:
    """Choose (tm, tn, k_chunk): the largest cube-aligned output tile that
    fits local memory together with its operand slabs and any fused vector
    buffers; k splits with accumulation when its slab alone does not fit."""
    in_b, out_b = in_dtype.nbytes, out_dtype.nbytes
    tm_cap, tn_cap = _align16_floor(m), _align16_floor(n)
    best: tuple[int, int, int] | None = None
    best_key: tuple | None = None
    for tm in range(16, tm_cap + 1, 16):
        for tn in range(16, tn_cap + 1, 16):
            # largest k chunk fitting alongside this output tile
            free = cfg.local_mem_bytes - tm * tn * out_b * (1 + extra_bufs)
            kc = min(k, free // ((tm + tn) * in_b))
            if kc < k:
                kc = (kc // 16) * 16
            if kc < min(k, 16):  # also when the output tiles alone overflow
                continue
            # splitting k is a fallback: any unsplit candidate beats a split one
            chunks = ceil(k / kc)
            key = (chunks, -(tm * tn), -min(tm, tn), -tm)
            if best_key is None or key < best_key:
                best, best_key = (tm, tn, kc), key
    if best is None:
        raise InfeasibleTilingError(
            f"even a single 16x16x16 matmul step does not fit in "
            f"{cfg.local_mem_bytes} bytes of local memory"
        )
    return best


def tile_cube(g: OperatorGraph, cfg: DeviceConfig) -> TiledGraph:
    """2-D output tiling, cube-aligned to 16, for one matmul and the
    element-wise chain fused after it.

    Every chain op inherits the (tm*tn) output tile, so each one reads its
    whole input from a single matmul tile; the chain's extra live buffers
    shrink the feasible tile set.
    """
    mm_ops = [op for op in g.ops if op.is_matmul]
    if len(mm_ops) != 1:
        raise GraphError("cube group needs exactly one matmul")
    mm = mm_ops[0]
    chain = [op for op in g.ops if op is not mm]
    if any(not op.is_elementwise for op in chain):
        raise GraphError("cube-vector chain must be element-wise")
    a, b = (g.tensors[t] for t in mm.inputs)
    out = g.tensors[mm.output]
    m, k = g.resolved_shape(a.id)
    _, n = g.resolved_shape(b.id)
    extra = _chain_peak_buffers(g, mm, chain)
    tm, tn, kc = _tile_matmul_shapes(m, k, n, a.dtype, out.dtype, cfg, extra)
    grid = (ceil(m / tm), ceil(n / tn))
    return TiledGraph(
        kind="cube_vector" if chain else "matmul",
        graph=g,
        tile_elems=tm * tn,
        total_elems=m * n,
        tiles=grid[0] * grid[1],
        t_max=cfg.local_mem_bytes // max(1, out.dtype.nbytes),
        dtype_bytes=max(a.dtype.nbytes, out.dtype.nbytes),
        tm=tm,
        tn=tn,
        k_chunk=kc,
        grid=grid,
        mkn=(m, k, n),
    )


def _chain_peak_buffers(g: OperatorGraph, mm, chain) -> int:
    """Peak live tile buffers beyond the one reserved matmul output slot."""
    outputs = set(g.outputs)
    last_use: dict[str, int] = {}
    for i, op in enumerate(chain):
        for tid in op.inputs:
            last_use[tid] = i
    live = {mm.output}
    peak = max(1, len(outputs))  # the store stage holds every escaping tile
    for i, op in enumerate(chain):
        live.add(op.output)
        live.update(op.inputs)
        peak = max(peak, len(live))
        live = {
            t
            for t in live
            if last_use.get(t, -1) > i or t == op.output or t in outputs
        }
    return peak - 1
