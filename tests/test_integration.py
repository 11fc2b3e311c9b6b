"""End-to-end pipelines that cross module boundaries."""

import numpy as np
import pytest

from tilevm import (
    DeviceConfig,
    DeviceState,
    OperatorGraph,
    fuse_static,
    tile_cube,
    tile_for_group,
)
from tilevm.encoder import run_groups

from helpers import oracle_env, random_vector_graph, run_static


def _matmul_graph(m, k, n, dtype="f32"):
    g = OperatorGraph()
    g.tensor("a", dtype, (m, k))
    g.tensor("b", dtype, (k, n))
    g.tensor("o", dtype, (m, n))
    g.op("matmul", ["a", "b"], "o")
    g.set_outputs(["o"])
    return g


def _run_one(g, inputs, cfg):
    groups = fuse_static(g)
    assert len(groups) == 1
    device = DeviceState.from_config(cfg)
    out, [stats] = run_groups([groups[0]], device, cfg, inputs, debug=True)
    return out, stats, groups[0]


def _mm_inputs(g, rng):
    return {
        tid: rng.uniform(-1, 1, g.resolved_shape(tid)).astype(np.float32)
        for tid in ("a", "b")
    }


def test_matmul_multi_tile_grid_matches_oracle():
    rng = np.random.default_rng(101)
    g = _matmul_graph(64, 32, 64)
    cfg = DeviceConfig(num_cores=3, local_mem_bytes=12288)  # forces 32x32 tiles
    inputs = _mm_inputs(g, rng)
    out, stats, _ = _run_one(g, inputs, cfg)
    want = inputs["a"].astype(np.float64) @ inputs["b"].astype(np.float64)
    err = np.abs(out["o"] - want) / (1.0 + np.abs(want))
    assert err.max() <= 1e-5
    assert stats.tiles_executed == 4


def test_matmul_tail_tiles_match_oracle():
    rng = np.random.default_rng(102)
    for m, k, n in [(17, 16, 16), (33, 8, 47), (1, 5, 1), (50, 20, 70)]:
        g = _matmul_graph(m, k, n)
        cfg = DeviceConfig(num_cores=4)
        inputs = _mm_inputs(g, rng)
        out, _, _ = _run_one(g, inputs, cfg)
        want = inputs["a"].astype(np.float64) @ inputs["b"].astype(np.float64)
        err = np.abs(out["o"] - want) / (1.0 + np.abs(want))
        assert err.max() <= 1e-5, (m, k, n)


def test_matmul_k_split_accumulates():
    rng = np.random.default_rng(103)
    g = _matmul_graph(16, 1024, 16)
    cfg = DeviceConfig(num_cores=2, local_mem_bytes=16 * 1024)
    tg = tile_for_group(fuse_static(g)[0], cfg)
    assert tg.k_chunk < 1024  # the point of this test
    inputs = _mm_inputs(g, rng)
    out, _, _ = _run_one(g, inputs, cfg)
    want = inputs["a"].astype(np.float64) @ inputs["b"].astype(np.float64)
    err = np.abs(out["o"] - want) / (1.0 + np.abs(want))
    assert err.max() <= 1e-4  # f32 accumulation across 1024 products


def test_matmul_f16_runs():
    rng = np.random.default_rng(104)
    g = _matmul_graph(32, 32, 32, dtype="f16")
    cfg = DeviceConfig(num_cores=2)
    inputs = {
        tid: rng.uniform(-1, 1, g.resolved_shape(tid)).astype(np.float16)
        for tid in ("a", "b")
    }
    out, _, _ = _run_one(g, inputs, cfg)
    want = inputs["a"].astype(np.float64) @ inputs["b"].astype(np.float64)
    err = np.abs(out["o"].astype(np.float64) - want) / (1.0 + np.abs(want))
    assert err.max() <= 1e-2  # f16 storage of an f32-accumulated product


def test_cube_vector_chain_with_bias_row():
    # matmul followed by adding a broadcast [1, n] bias row
    rng = np.random.default_rng(106)
    g = OperatorGraph()
    g.tensor("a", "f32", (32, 16))
    g.tensor("b", "f32", (16, 48))
    g.tensor("bias", "f32", (1, 48))
    g.tensor("mm", "f32", (32, 48))
    g.tensor("out", "f32", (32, 48))
    g.op("matmul", ["a", "b"], "mm")
    g.op("add", ["mm", "bias"], "out")
    g.set_outputs(["out"])
    cfg = DeviceConfig(num_cores=2)
    inputs = {
        "a": rng.uniform(-1, 1, (32, 16)).astype(np.float32),
        "b": rng.uniform(-1, 1, (16, 48)).astype(np.float32),
        "bias": rng.uniform(-1, 1, (1, 48)).astype(np.float32),
    }
    out, _, group = _run_one(g, inputs, cfg)
    assert group.kind == "cv-pattern"
    want = inputs["a"].astype(np.float64) @ inputs["b"].astype(np.float64) + inputs["bias"]
    err = np.abs(out["out"] - want) / (1.0 + np.abs(want))
    assert err.max() <= 1e-5


def test_frozen_output_store_once():
    # an op whose whole output space is one broadcast row: stored by tile 0 only
    g = OperatorGraph()
    g.tensor("a", "f32", (1, 16))
    g.tensor("b", "f32", (4, 16))
    g.tensor("small", "f32", (1, 16))
    g.tensor("big", "f32", (4, 16))
    g.op("sqrt", ["a"], "small")
    g.op("add", ["a", "b"], "big")
    g.set_outputs(["small", "big"])
    cfg = DeviceConfig(num_cores=4)
    rng = np.random.default_rng(107)
    inputs = {
        "a": rng.uniform(0, 1, (1, 16)).astype(np.float32),
        "b": rng.uniform(0, 1, (4, 16)).astype(np.float32),
    }
    groups = fuse_static(g)
    device = DeviceState.from_config(cfg)
    results, _ = run_groups(groups, device, cfg, inputs, debug=True)
    assert np.allclose(results["small"], np.sqrt(inputs["a"]), atol=1e-6)
    assert np.array_equal(results["big"], inputs["a"] + inputs["b"])


def test_mixed_dtype_cast_pipeline():
    g = OperatorGraph()
    g.tensor("a", "f16", (8, 32))
    g.tensor("wide", "f32", (8, 32))
    g.tensor("out", "f32", (8, 32))
    g.op("cast", ["a"], "wide")
    g.op("adds", ["wide"], "out", scalar=1.5)
    g.set_outputs(["out"])
    cfg = DeviceConfig(num_cores=2)
    rng = np.random.default_rng(109)
    inputs = {"a": rng.uniform(-1, 1, (8, 32)).astype(np.float16)}
    out, _, _ = _run_one(g, inputs, cfg)
    want = inputs["a"].astype(np.float32) + np.float32(1.5)
    assert np.array_equal(out["out"], want)


def test_reduction_store_roundtrip():
    # a reduced tensor as the group output: advancing rows of width one
    g = OperatorGraph()
    g.tensor("x", "f32", (6, 32))
    g.tensor("s", "f32", (6, 1))
    g.op("sum", ["x"], "s")
    g.set_outputs(["s"])
    cfg = DeviceConfig(num_cores=3)
    rng = np.random.default_rng(110)
    inputs = {"x": rng.uniform(-1, 1, (6, 32)).astype(np.float32)}
    out, _, _ = _run_one(g, inputs, cfg)
    env = oracle_env(g, inputs)
    assert np.array_equal(out["s"].astype(np.float64), env["s"].data)


def test_cube_vector_shares_matmul_input_with_chain():
    # residual pattern: the same tensor feeds the matmul and the chain add
    rng = np.random.default_rng(111)
    g = OperatorGraph()
    g.tensor("x", "f32", (16, 16))
    g.tensor("w", "f32", (16, 16))
    g.tensor("mm", "f32", (16, 16))
    g.tensor("out", "f32", (16, 16))
    g.op("matmul", ["x", "w"], "mm")
    g.op("add", ["mm", "x"], "out")
    g.set_outputs(["out"])
    cfg = DeviceConfig(num_cores=2)
    inputs = {
        "x": rng.uniform(-1, 1, (16, 16)).astype(np.float32),
        "w": rng.uniform(-1, 1, (16, 16)).astype(np.float32),
    }
    out, _, group = _run_one(g, inputs, cfg)
    assert group.kind == "cv-pattern"
    want = inputs["x"].astype(np.float64) @ inputs["w"].astype(np.float64) + inputs["x"]
    err = np.abs(out["out"] - want) / (1.0 + np.abs(want))
    assert err.max() <= 1e-5


def test_cube_vector_stored_intermediate_under_tight_memory():
    # mm -> sqrt (escapes) -> add: the stored intermediate must stay live
    # until its store, and the tiler's budget must cover that
    rng = np.random.default_rng(112)
    g = OperatorGraph()
    g.tensor("a", "f32", (64, 32))
    g.tensor("b", "f32", (32, 64))
    g.tensor("y", "f32", (64, 64))
    g.tensor("mm", "f32", (64, 64))
    g.tensor("s", "f32", (64, 64))
    g.tensor("out", "f32", (64, 64))
    g.op("matmul", ["a", "b"], "mm")
    g.op("sqrt", ["mm"], "s")
    g.op("add", ["s", "y"], "out")
    g.set_outputs(["s", "out"])
    cfg = DeviceConfig(num_cores=4, local_mem_bytes=24 * 1024)
    inputs = {
        "a": rng.uniform(0, 1, (64, 32)).astype(np.float32),
        "b": rng.uniform(0, 1, (32, 64)).astype(np.float32),
        "y": rng.uniform(0, 1, (64, 64)).astype(np.float32),
    }
    groups = fuse_static(g)
    assert len(groups) == 1 and groups[0].kind == "cv-pattern"
    assert set(groups[0].stores) == {"s", "out"}
    device = DeviceState.from_config(cfg)
    out, _ = run_groups([groups[0]], device, cfg, inputs, debug=True)
    mm = inputs["a"].astype(np.float64) @ inputs["b"].astype(np.float64)
    s = np.sqrt(mm)
    for tid, want in (("s", s), ("out", s + inputs["y"])):
        err = np.abs(out[tid] - want) / (1.0 + np.abs(want))
        assert err.max() <= 1e-5, tid


def test_u8_bool_tensors_match_oracle():
    # u8 carries 0/1 masks; arithmetic truncates toward zero like the oracle
    g = OperatorGraph()
    g.tensor("a", "u8", (4, 16))
    g.tensor("b", "u8", (4, 16))
    g.tensor("m", "u8", (4, 16))
    g.tensor("s", "u8", (4, 16))
    g.op("min", ["a", "b"], "m")
    g.op("select", ["m", "a", "b"], "s")
    g.set_outputs(["m", "s"])
    cfg = DeviceConfig(num_cores=2)
    rng = np.random.default_rng(113)
    inputs = {
        "a": rng.integers(0, 2, (4, 16)).astype(np.uint8),
        "b": rng.integers(0, 2, (4, 16)).astype(np.uint8),
    }
    out, _, _ = _run_one(g, inputs, cfg)
    env = oracle_env(g, inputs)
    for tid in g.outputs:
        assert np.array_equal(out[tid].astype(np.float64), env[tid].data), tid


def test_vector_outputs_invariant_to_plan_cores_and_local_memory():
    # one group per op, the core count and a row cap set by a smaller local
    # memory change the tiling but not one bit of a vector-only result
    rng = np.random.default_rng(2026)
    plans = [
        (DeviceConfig(num_cores=40), True),
        (DeviceConfig(num_cores=1), False),
        (DeviceConfig(num_cores=7), False),
        (DeviceConfig(num_cores=1, local_mem_bytes=16 * 1024), False),
    ]
    capped = 0
    for _ in range(20):
        g, inputs = random_vector_graph(rng, max_ops=6, max_cols=256)
        want, _, groups = run_static(g, inputs, DeviceConfig(num_cores=40))
        for cfg, singleton in plans:
            got, _, _ = run_static(g, inputs, cfg, singleton=singleton)
            for tid in g.outputs:
                assert got[tid].dtype == want[tid].dtype, tid
                assert got[tid].tobytes() == want[tid].tobytes(), (cfg, singleton, tid)
        rows = [
            [tile_for_group(grp, cfg).rows_per_tile for grp in groups]
            for cfg, _ in plans[1::2]
        ]
        capped += rows[0] != rows[1]
    assert capped >= 10, capped


@pytest.mark.parametrize("k", [64, 128])
def test_cube_group_with_a_widening_cast_is_retiled_to_fit(k):
    # the cube tiler counts the cast's f32 buffer at the f16 matmul width,
    # so its first tile overflows local memory; the fit loop shrinks it
    rng = np.random.default_rng(k)
    g = OperatorGraph()
    g.tensor("a", "f16", (256, k))
    g.tensor("b", "f16", (k, 256))
    g.tensor("c", "f16", (256, 256))
    g.tensor("d", "f32", (256, 256))
    g.op("matmul", ["a", "b"], "c")
    g.op("cast", ["c"], "d")
    g.set_outputs(["d"])
    cfg = DeviceConfig()
    inputs = {t: rng.uniform(-1, 1, g.resolved_shape(t)).astype(np.float16) for t in "ab"}
    [group] = fuse_static(g)
    first = tile_cube(group.subgraph(), cfg)  # overflows once lowered
    tg = tile_for_group(group, cfg)
    assert tg.alloc.high_water <= cfg.local_mem_bytes
    assert tg.tm * tg.tn < first.tm * first.tn
    out, _ = run_groups([group], DeviceState.from_config(cfg), cfg, inputs, debug=True)
    want = oracle_env(g, inputs)["d"].data
    assert np.abs(out["d"] - want).max() <= 1e-2
