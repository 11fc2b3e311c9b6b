import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilevm import (
    DeviceConfig,
    InfeasibleTilingError,
    OperatorGraph,
    fuse_static,
    hardware_align_div,
    tile_cube,
    tile_for_group,
    tile_vector_graph,
    tiling_cost,
)
from tilevm.tiler import min_cost_multiplier

from helpers import brute_force_min_cost


def _add_graph(shape_a, shape_b, dtype="f16"):
    g = OperatorGraph()
    g.tensor("a", dtype, shape_a)
    g.tensor("b", dtype, shape_b)
    out = tuple(max(x, y) for x, y in zip(shape_a, shape_b))
    g.tensor("c", dtype, out)
    g.op("add", ["a", "b"], "c")
    g.set_outputs(["c"])
    return g


def _matmul_graph(m, k, n, dtype="f32"):
    g = OperatorGraph()
    g.tensor("a", dtype, (m, k))
    g.tensor("b", dtype, (k, n))
    g.tensor("o", dtype, (m, n))
    g.op("matmul", ["a", "b"], "o")
    g.set_outputs(["o"])
    return g


def test_tiling_cost_examples():
    assert tiling_cost(820, 32768, 40) == 822
    assert tiling_cost(819, 32768, 40) == 1642
    assert tiling_cost(32768, 32768, 40) == 32770


def test_tiling_cost_monotone_in_cores():
    rng = np.random.default_rng(3)
    for _ in range(200):
        tile = int(rng.integers(1, 1000))
        total = int(rng.integers(1, 100000))
        n = int(rng.integers(1, 64))
        assert tiling_cost(tile, total, n + 1) <= tiling_cost(tile, total, n)


def test_hardware_align_div_worked_example():
    cfg = DeviceConfig(num_cores=40, instr_width_bytes=32)
    t_star, cost = min_cost_multiplier(32768, 1, 32768, 40)
    assert (t_star, cost) == (820, 822)
    assert hardware_align_div(32768, 1, 32768, cfg, dtype_bytes=2) == 832


def test_hardware_align_div_degenerate():
    cfg = DeviceConfig(num_cores=40, instr_width_bytes=32)
    assert hardware_align_div(16, 16, 16, cfg, dtype_bytes=2) == 1


def test_min_cost_matches_brute_force_randomized():
    rng = np.random.default_rng(17)
    for _ in range(200):
        total = int(rng.integers(1, 100_000))
        n = int(rng.integers(1, 65))
        l_prime = int(rng.integers(1, 8))
        t_max = int(rng.integers(l_prime, max(l_prime + 1, total + 10)))
        t_hi = min(t_max // l_prime, -(-total // l_prime))
        got = min_cost_multiplier(t_hi, l_prime, total, n)
        want = brute_force_min_cost(t_hi, l_prime, total, n)
        assert got == want, (total, n, l_prime, t_hi)


def test_hardware_align_div_aligned_result_brute_checked():
    # t_max=100, l_prime=1, total=1000, N=10, 16-byte width, f16 (8 elems)
    cfg = DeviceConfig(num_cores=10, instr_width_bytes=16)
    t = hardware_align_div(100, 1, 1000, cfg, dtype_bytes=2)
    t_star, _ = brute_force_min_cost(100, 1, 1000, 10)
    rounded = -(-t_star // 8) * 8
    expected = rounded if rounded <= 100 else (100 // 8) * 8  # clamp to t_max
    assert t == expected
    assert t % 8 == 0 and t <= 100


def test_tile_vector_graph_worked_example():
    cfg = DeviceConfig(num_cores=40, local_mem_bytes=192 * 1024, instr_width_bytes=32)
    tg = tile_vector_graph(_add_graph((32, 1024), (32, 1024)), cfg)
    assert tg.t_max == 32768
    assert tg.tile_elems == 832
    assert tg.tiles == 40
    assert tg.tail_elems == 320


def test_tile_vector_graph_single_tile():
    g = OperatorGraph()
    g.tensor("a", "f32", (8,))
    g.tensor("b", "f32", (8,))
    g.op("sqrt", ["a"], "b")
    g.set_outputs(["b"])
    cfg = DeviceConfig(num_cores=1, local_mem_bytes=4096, instr_width_bytes=32)
    tg = tile_vector_graph(g, cfg)
    assert tg.tiles == 1 and tg.tile_elems == 8 and tg.tail_elems == 8


def test_tile_vector_graph_broadcast_dim_skipped():
    # f32, 16-byte width, 4 cores: [4,20] alone tiles to whole 20-element rows
    cfg = DeviceConfig(num_cores=4, local_mem_bytes=64 * 1024, instr_width_bytes=16)
    bcast = tile_vector_graph(_add_graph((1, 20), (4, 20), dtype="f32"), cfg)
    plain = tile_vector_graph(_add_graph((4, 20), (4, 20), dtype="f32"), cfg)
    assert bcast.tile_elems == plain.tile_elems == 20
    assert bcast.tiles == plain.tiles == 4
    assert bcast.rows_per_tile == 1 and bcast.row_size == 20


def test_tile_for_group_infeasible():
    # one 8-elem hardware vector of a, b and c needs 96 B; the core has 64
    g = _add_graph((64, 1024), (64, 1024), dtype="f32")
    cfg = DeviceConfig(num_cores=4, local_mem_bytes=64, instr_width_bytes=32)
    with pytest.raises(InfeasibleTilingError):
        tile_for_group(fuse_static(g)[0], cfg)


def test_tile_for_group_reduction_row_too_large():
    g = OperatorGraph()
    g.tensor("x", "f32", (2, 4096))
    g.tensor("s", "f32", (2, 1))
    g.op("sum", ["x"], "s")
    g.set_outputs(["s"])
    cfg = DeviceConfig(num_cores=4, local_mem_bytes=8 * 1024, instr_width_bytes=32)
    with pytest.raises(InfeasibleTilingError):
        tile_for_group(fuse_static(g)[0], cfg)


def test_partition_invariants_randomized():
    from helpers import random_vector_graph

    rng = np.random.default_rng(23)
    cfg = DeviceConfig()
    for _ in range(60):
        g, _ = random_vector_graph(rng, max_ops=5, max_rows=32, max_cols=128)
        tg = tile_vector_graph(g, cfg)
        assert tg.tiles * tg.tile_elems >= tg.total_elems
        assert tg.total_elems > (tg.tiles - 1) * tg.tile_elems
        assert 1 <= tg.tail_elems <= tg.tile_elems
        assert tg.tile_elems <= tg.t_max
        # effective ranges partition [0, total)
        covered = 0
        for i in range(tg.tiles):
            eff = min(tg.tile_elems, tg.total_elems - i * tg.tile_elems)
            assert eff >= 1
            covered += eff
        assert covered == tg.total_elems


def test_tile_matmul_single_tile():
    cfg = DeviceConfig(num_cores=40)
    tg = tile_cube(_matmul_graph(32, 32, 32), cfg)
    assert (tg.tm, tg.tn) == (32, 32)
    assert tg.kind == "matmul"
    assert tg.tiles == 1 and tg.grid == (1, 1)


def test_tile_matmul_memory_forced_grid():
    # [64,32]x[32,64] f32 with memory forcing 32x32 output tiles
    # budget(32,32,32) = (32*32+32*32)*4 + 32*32*4 = 12288
    cfg = DeviceConfig(num_cores=40, local_mem_bytes=12288)
    tg = tile_cube(_matmul_graph(64, 32, 64), cfg)
    assert (tg.tm, tg.tn) == (32, 32)
    assert tg.tiles == 4 and tg.grid == (2, 2)
    from tilevm.isa import decompose_tile_index

    visits = [decompose_tile_index(i, tg.grid) for i in range(4)]
    assert visits == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_tile_matmul_tail_rows():
    cfg = DeviceConfig(num_cores=40)
    tg = tile_cube(_matmul_graph(17, 16, 16), cfg)
    assert tg.tm == 16 and tg.grid == (2, 1) and tg.tiles == 2
    # tail tile covers a single effective row
    assert min(tg.tm, 17 - 1 * tg.tm) == 1


def test_tile_matmul_k_split():
    # A/B slabs for full k exceed memory; k must split with accumulation
    cfg = DeviceConfig(num_cores=4, local_mem_bytes=16 * 1024)
    tg = tile_cube(_matmul_graph(16, 1024, 16), cfg)
    assert tg.k_chunk < 1024 and tg.k_chunk % 16 == 0
    budget = (tg.tm * tg.k_chunk + tg.k_chunk * tg.tn) * 4 + tg.tm * tg.tn * 4
    assert budget <= cfg.local_mem_bytes


def test_tile_matmul_infeasible():
    cfg = DeviceConfig(num_cores=4, local_mem_bytes=1024)
    with pytest.raises(InfeasibleTilingError):
        tile_cube(_matmul_graph(64, 64, 64), cfg)


def _cv_graph(m, k, n, chain=("add",)):
    g = OperatorGraph()
    g.tensor("a", "f32", (m, k))
    g.tensor("b", "f32", (k, n))
    g.tensor("mm", "f32", (m, n))
    g.op("matmul", ["a", "b"], "mm")
    prev = "mm"
    for i, kind in enumerate(chain):
        out = f"t{i}"
        g.tensor(out, "f32", (m, n))
        if kind in ("add", "mul"):
            extra = f"x{i}"
            g.tensor(extra, "f32", (m, n))
            g.op(kind, [prev, extra], out)
        else:
            g.op(kind, [prev], out)
        prev = out
    g.set_outputs([prev])
    return g


def test_tile_cube_vector_single_tile():
    cfg = DeviceConfig(num_cores=40)
    tg = tile_cube(_cv_graph(32, 32, 32), cfg)
    assert tg.tiles == 1 and (tg.tm, tg.tn) == (32, 32)
    assert tg.kind == "cube_vector"
    assert tg.tile_elems == 1024  # the vector add runs on the same 1024-elem tile


def test_tile_cube_vector_memory_cap():
    # force 32x32 output tiles on a 64x64 addmm-style group
    # budget: slabs (32*64+64*32)*4 + out tiles 32*32*4*(1+2 extra)
    cap = (32 * 64 + 64 * 32) * 4 + 32 * 32 * 4 * 3
    cfg = DeviceConfig(num_cores=40, local_mem_bytes=cap)
    tg = tile_cube(_cv_graph(64, 64, 64), cfg)
    assert (tg.tm, tg.tn) == (32, 32)
    assert tg.tiles == 4
    assert tg.tile_elems == 1024


def test_tile_cube_vector_chain_shrinks_feasible_set():
    def feasible(graph_fn, cap):
        cfg = DeviceConfig(num_cores=4, local_mem_bytes=cap)
        try:
            tg = tile_cube(graph_fn, cfg)
            return tg.tm * tg.tn
        except InfeasibleTilingError:
            return 0

    cap = 64 * 1024
    bare = feasible(_matmul_graph(128, 128, 128), cap)
    chained = feasible(_cv_graph(128, 128, 128, chain=("sqrt", "add")), cap)
    assert 0 < chained < bare


@settings(max_examples=60, deadline=None)
@given(
    total=st.integers(1, 100_000),
    n=st.integers(1, 64),
    t_max=st.integers(1, 100_000),
)
def test_min_cost_multiplier_property(total, n, t_max):
    t_hi = min(t_max, total)
    got = min_cost_multiplier(t_hi, 1, total, n)
    want = brute_force_min_cost(t_hi, 1, total, n)
    assert got == want


def test_tile_width_alignment_invariant_randomized():
    from helpers import random_vector_graph

    rng = np.random.default_rng(29)
    cfg = DeviceConfig()
    for _ in range(60):
        g, _ = random_vector_graph(rng, max_ops=5, max_rows=32, max_cols=128)
        tg = tile_vector_graph(g, cfg)
        width = cfg.width_elems(tg.dtype_bytes)
        cap = (tg.t_max // tg.row_size) * tg.row_size
        assert (
            tg.tile_elems % width == 0
            or tg.tiles == 1
            or tg.tile_elems == cap
        ), (tg.tile_elems, width, tg.row_size)
