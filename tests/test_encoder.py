import time
from dataclasses import replace

import numpy as np
import pytest

from tilevm import (
    DeviceConfig,
    DeviceState,
    DType,
    InfeasibleTilingError,
    InstructionKind,
    KernelType,
    OperatorGraph,
    compile_group,
    fuse_static,
    tile_for_group,
    tile_vector_graph,
    validate_sync,
)
from tilevm.encoder import EncoderError, bind_group, run_groups
from tilevm.fuser import CV_PATTERN
from tilevm.graph import REDUCTION_KINDS, decompose
from tilevm.oracle import compare
from tilevm.isa import MEMORY_KINDS, Queue, sync_set, sync_wait, VirtualInstruction

from helpers import (
    compound_graph,
    direct_layernorm,
    oracle_env,
    random_cube_graph,
    random_layout,
    random_vector_graph,
    run_static,
    with_layouts,
)

CFG = DeviceConfig()


def _vector_group(specs, ops, outputs):
    g = OperatorGraph()
    for tid, dtype, shape in specs:
        g.tensor(tid, dtype, shape)
    for kind, ins, out, attrs in ops:
        g.op(kind, ins, out, **attrs)
    g.set_outputs(outputs)
    groups = fuse_static(g)
    assert len(groups) == 1
    return groups[0]


def _f16_add_group():
    return _vector_group(
        [("a", "f16", (32, 1024)), ("b", "f16", (32, 1024)), ("c", "f16", (32, 1024))],
        [("add", ["a", "b"], "c", {})],
        ["c"],
    )


def test_allocate_local_add_offsets():
    group = _f16_add_group()
    alloc = tile_for_group(group, CFG).alloc
    assert alloc.slots["a"] == (0, 1664)
    assert alloc.slots["b"] == (1664, 1664)
    assert alloc.slots["c"] == (3328, 1664)
    assert alloc.high_water == 4992


def test_allocate_local_chain_reuses_dead_block():
    group = _vector_group(
        [
            ("a", "f16", (32, 1024)), ("b", "f16", (32, 1024)),
            ("c", "f16", (32, 1024)), ("d", "f16", (32, 1024)),
        ],
        [("add", ["a", "b"], "c", {}), ("sqrt", ["c"], "d", {})],
        ["d"],
    )
    alloc = tile_for_group(group, CFG).alloc
    assert alloc.slots["d"][0] == alloc.slots["a"][0] == 0  # d reuses a's block
    assert alloc.high_water == 4992


def test_allocate_local_copy_pair():
    group = _vector_group(
        [("a", "f32", (16,)), ("b", "f32", (16,))],
        [("copy", ["a"], "b", {})],
        ["b"],
    )
    cfg = DeviceConfig(num_cores=1)
    alloc = tile_for_group(group, cfg).alloc
    # copy aliases its input buffer: a single 64-byte block
    assert alloc.slots["a"] == (0, 64)
    assert alloc.high_water == 64


def test_allocation_failure_is_detected():
    # the smallest legal tile is one 16-elem f16 vector of a, b and c: 96 B
    group = _f16_add_group()
    tg = tile_for_group(group, replace(CFG, local_mem_bytes=96))
    assert (tg.tile_elems, tg.alloc.high_water) == (16, 96)
    with pytest.raises(InfeasibleTilingError, match="needs 96 bytes .* core has 95"):
        tile_for_group(group, replace(CFG, local_mem_bytes=95))


def _bind_all(group, cfg, device=None):
    device = device or DeviceState.from_config(cfg)
    tg = tile_for_group(group, cfg)
    bind_group(device, tg.graph)
    return tg, device


def test_compile_add_program_structure_and_header():
    group = _f16_add_group()
    tg, _ = _bind_all(group, CFG)
    program = compile_group(group, tg, CFG)
    kinds = [i.kind.name for i in program.instructions()]
    assert kinds == [
        "Load", "Load", "SyncSet", "SyncWait", "Add", "SyncSet", "SyncWait", "Store",
    ]
    h = program.header
    assert h.kernel_type == KernelType.VECTOR
    assert h.total_tiles == 40 and h.block_dim == 40
    syncs = [i for i in program.instructions() if i.kind.is_sync]
    assert [Queue(s.extras["queue"]) for s in syncs] == [
        Queue.DMA, Queue.VECTOR, Queue.VECTOR, Queue.DMA,
    ]


def test_compile_fused_add_sqrt_single_load_pair():
    group = _vector_group(
        [
            ("a", "f32", (8, 16)), ("b", "f32", (8, 16)),
            ("c", "f32", (8, 16)), ("d", "f32", (8, 16)),
        ],
        [("add", ["a", "b"], "c", {}), ("sqrt", ["c"], "d", {})],
        ["d"],
    )
    tg, _ = _bind_all(group, CFG)
    program = compile_group(group, tg, CFG)
    kinds = [i.kind.name for i in program.instructions() if not i.kind.is_sync]
    assert kinds == ["Load", "Load", "Add", "Sqrt", "Store"]
    counts = {}
    for k in kinds:
        counts[k] = counts.get(k, 0) + 1
    assert counts["Load"] == 2 and counts["Store"] == 1


def test_compile_copy_only_group():
    group = _vector_group(
        [("a", "f32", (64,)), ("b", "f32", (64,))],
        [("copy", ["a"], "b", {})],
        ["b"],
    )
    cfg = DeviceConfig(num_cores=2)
    tg, _ = _bind_all(group, cfg)
    program = compile_group(group, tg, cfg)
    kinds = [i.kind.name for i in program.instructions()]
    assert kinds == ["Load", "SyncSet", "SyncWait", "Store"]


def test_load_store_counts_match_group_interface():
    group = _vector_group(
        [
            ("a", "f32", (4, 8)), ("b", "f32", (4, 8)), ("c", "f32", (4, 8)),
            ("x", "f32", (4, 8)), ("y", "f32", (4, 8)),
        ],
        [("add", ["a", "b"], "x", {}), ("add", ["a", "c"], "y", {})],
        ["x", "y"],
    )
    tg, _ = _bind_all(group, CFG)
    program = compile_group(group, tg, CFG)
    insns = program.instructions()
    loads = sum(1 for i in insns if i.kind in (InstructionKind.Load, InstructionKind.ViewLoad))
    stores = sum(1 for i in insns if i.kind in (InstructionKind.Store, InstructionKind.ViewStore))
    assert loads == len(group.loads) == 3  # a loaded once
    assert stores == len(group.stores) == 2


def test_compute_operands_inside_allocated_blocks():
    group = _vector_group(
        [
            ("a", "f16", (16, 64)), ("b", "f16", (16, 64)),
            ("c", "f16", (16, 64)), ("d", "f16", (16, 64)),
        ],
        [("mul", ["a", "b"], "c", {}), ("abs", ["c"], "d", {})],
        ["d"],
    )
    tg, _ = _bind_all(group, CFG)
    alloc = tg.alloc
    program = compile_group(group, tg, CFG)
    spans = sorted(alloc.slots.values())
    def inside(off, nbytes):
        return any(o <= off and off + nbytes <= o + s for o, s in spans)
    for insn in program.instructions():
        if insn.kind.is_sync or insn.kind in MEMORY_KINDS:
            continue
        w = 2
        assert inside(insn.dst, insn.tile_size * w)
        for src in insn.srcs:
            assert inside(src, insn.tile_size * w)


def test_validate_sync_catches_missing_pair():
    load = VirtualInstruction(
        InstructionKind.Load, dst=0, srcs=(0,), tile_size=8, total_size=8,
        extras={"tile_stride": 8, "dtype": int(DType.F32)},
    )
    add = VirtualInstruction(
        InstructionKind.Add, dst=64, srcs=(0, 0), tile_size=8, total_size=8
    )
    with pytest.raises(EncoderError):
        validate_sync([load, add])
    validate_sync([load, sync_set(0, Queue.DMA), sync_wait(0, Queue.VECTOR), add])
    # wait on the wrong queue does not bracket the dependency
    with pytest.raises(EncoderError):
        validate_sync([load, sync_set(0, Queue.DMA), sync_wait(0, Queue.CUBE), add])


def test_compile_rejects_unbound_tensor():
    group = _f16_add_group()
    tg = tile_for_group(group, CFG)
    with pytest.raises(EncoderError):
        compile_group(group, tg, CFG)


def test_bind_and_run_add():
    group = _vector_group(
        [("a", "f32", (4,)), ("b", "f32", (4,)), ("c", "f32", (4,))],
        [("add", ["a", "b"], "c", {})],
        ["c"],
    )
    device = DeviceState.from_config(CFG)
    out, _ = run_groups(
        [group], device, CFG,
        {"a": np.array([1.0, 2, 3, 4], np.float32),
         "b": np.array([5.0, 6, 7, 8], np.float32)},
        debug=True,
    )
    assert out["c"].tolist() == [6.0, 8.0, 10.0, 12.0]


def test_global_arena_grows_past_its_starting_size():
    # five 4 KiB tensors on a 12 KiB starting arena: the second group's
    # binds grow it, and the first group's stored c must survive the move
    rng = np.random.default_rng(5)
    g = OperatorGraph()
    for tid in ("a", "b", "c", "d", "e"):
        g.tensor(tid, "f32", (32, 32))
    g.op("add", ["a", "b"], "c")
    g.op("matmul", ["c", "d"], "e")
    g.set_outputs(["e"])
    inputs = {t: rng.uniform(-1, 1, (32, 32)).astype(np.float32) for t in "abd"}
    device = DeviceState.from_config(CFG, global_mem_bytes=3 * 4096)
    groups = fuse_static(g)
    assert len(groups) == 2
    out, _ = run_groups(groups, device, CFG, inputs, debug=True)
    assert len(device.global_mem) >= 5 * 4096
    c = inputs["a"] + inputs["b"]
    assert np.allclose(out["e"], c @ inputs["d"], rtol=1e-5, atol=1e-5)


def test_bind_and_run_addmm_matches_oracle():
    rng = np.random.default_rng(2)
    g = OperatorGraph()
    ins = [
        g.tensor("a", "f32", (24, 40)),
        g.tensor("b", "f32", (40, 24)),
        g.tensor("c", "f32", (24, 24)),
    ]
    metas, ops = decompose("addmm", ins, "out")
    for m in metas:
        g.add_tensor(m)
    for op in ops:
        g.add_op(op)
    g.set_outputs(["out"])
    groups = fuse_static(g)
    assert groups[0].kind == "cv-pattern"
    inputs = {t.id: rng.uniform(-1, 1, t.shape).astype(np.float32) for t in ins}
    device = DeviceState.from_config(CFG)
    out, _ = run_groups([groups[0]], device, CFG, inputs, debug=True)
    want = inputs["a"].astype(np.float64) @ inputs["b"].astype(np.float64) + inputs["c"]
    err = np.abs(out["out"] - want) / (1.0 + np.abs(want))
    assert err.max() <= 1e-5


def test_bind_and_run_layernorm_matches_oracle():
    rng = np.random.default_rng(3)
    g = OperatorGraph()
    x = g.tensor("x", "f32", (2, 3, 8))
    metas, ops = decompose("layernorm", [x], "y")
    for m in metas:
        g.add_tensor(m)
    for op in ops:
        g.add_op(op)
    g.set_outputs(["y"])
    groups = fuse_static(g)
    data = rng.uniform(-1, 1, (2, 3, 8)).astype(np.float32)
    device = DeviceState.from_config(CFG)
    out, _ = run_groups([groups[0]], device, CFG, {"x": data}, debug=True)
    want = direct_layernorm(data)
    err = np.abs(out["y"] - want) / (1.0 + np.abs(want))
    assert err.max() <= 1e-3


def test_strided_input_view_load():
    # a transposed (non-contiguous) view: strides swap, tiles become boxes
    g = OperatorGraph()
    g.tensor("a", "f32", (8, 4), strides=(1, 8))  # transpose of an (4, 8) buffer
    g.tensor("b", "f32", (8, 4))
    g.tensor("c", "f32", (8, 4))
    g.op("add", ["a", "b"], "c")
    g.set_outputs(["c"])
    groups = fuse_static(g)
    cfg = DeviceConfig(num_cores=2)
    base = np.arange(32, dtype=np.float32).reshape(4, 8)
    a_view = base.T  # shape (8, 4), strides (1, 8) in elements
    b = np.ones((8, 4), np.float32)
    device = DeviceState.from_config(cfg)
    # bind the *storage* of a: row-major base buffer
    device.bind(g.tensors["a"], base)  # 32 elements in storage order
    out, [stats] = run_groups([groups[0]], device, cfg, {"b": b}, debug=True)
    assert np.array_equal(out["c"], a_view + b)
    assert any(k == "ViewLoad" for k in stats.instruction_counts)


def test_run_groups_matches_oracle():
    rng = np.random.default_rng(9)
    g = OperatorGraph()
    g.tensor("a", "f32", (16, 32))
    g.tensor("b", "f32", (16, 32))
    g.tensor("c", "f32", (16, 32))
    g.tensor("d", "f32", (16, 1))
    g.tensor("e", "f32", (16, 32))
    g.tensor("w", "f32", (32, 8))
    g.tensor("f", "f32", (16, 8))
    g.op("mul", ["a", "b"], "c")
    g.op("sum", ["c"], "d")
    g.op("broadcast", ["d"], "e", size=32)
    g.op("matmul", ["e", "w"], "f")
    g.set_outputs(["e", "f"])
    inputs = {
        t: rng.uniform(-1, 1, g.tensors[t].shape).astype(np.float32)
        for t in ("a", "b", "w")
    }
    groups = fuse_static(g)
    assert len(groups) == 2
    device = DeviceState.from_config(CFG)
    results, stats = run_groups(groups, device, CFG, inputs, debug=True)
    assert len(stats) == len(groups)
    env = oracle_env(g, inputs)
    for tid in g.outputs:
        report = compare(results[tid], env[tid].data, 1e-3, 1e-3)
        assert report.passed, (tid, report.max_abs_err)


def test_encode_latency_budget():
    # ten-op fused group must tile+encode in < 1 ms median
    specs = [("x0", "f32", (32, 64))]
    ops = []
    for i in range(10):
        specs.append((f"x{i+1}", "f32", (32, 64)))
        ops.append(("sqrt" if i % 2 else "abs", [f"x{i}"], f"x{i+1}", {}))
    group = _vector_group(specs, ops, [f"x{10}"])
    tg, device = _bind_all(group, CFG)
    times = []
    for _ in range(30):
        t0 = time.perf_counter()
        tg = tile_for_group(group, CFG)
        compile_group(group, tg, CFG)
        times.append(time.perf_counter() - t0)
    times.sort()
    median = times[len(times) // 2]
    assert median < 1e-3, f"median encode time {median * 1e3:.3f} ms"


def test_adds_with_broadcast_input_materializes():
    # adds over a reduced operand feeding a wider output space
    group = _vector_group(
        [("x", "f32", (6, 8)), ("s", "f32", (6, 1)), ("t", "f32", (6, 8))],
        [("sum", ["x"], "s", {}), ("broadcast", ["s"], "t", {"size": 8})],
        ["t"],
    )
    cfg = DeviceConfig(num_cores=2)
    device = DeviceState.from_config(cfg)
    rng = np.random.default_rng(55)
    data = rng.uniform(-1, 1, (6, 8)).astype(np.float32)
    out, _ = run_groups([group], device, cfg, {"x": data}, debug=True)
    want = np.broadcast_to(data.sum(-1, keepdims=True, dtype=np.float64), (6, 8))
    assert np.allclose(out["t"], want.astype(np.float32), atol=0)


def test_mixed_dtype_without_cast_rejected():
    g = OperatorGraph()
    g.tensor("a", "f16", (4, 8))
    g.tensor("b", "f32", (4, 8))
    g.tensor("c", "f32", (4, 8))
    g.op("add", ["a", "b"], "c")
    g.set_outputs(["c"])
    # lowering is part of tiling, so the mismatch surfaces there
    with pytest.raises(EncoderError, match="add 'c'"):
        tile_for_group(fuse_static(g)[0], CFG)


def test_large_layernorm_compiles_at_the_tile_the_allocator_accepts():
    # at the tile a live-buffer count allowed, this lowering needed
    # 213,200 B of the 196,608 B the core has
    g = OperatorGraph()
    x = g.tensor("x", "f32", (2048, 256))
    metas, ops = decompose("layernorm", [x], "y")
    for m in metas:
        g.add_tensor(m)
    for op in ops:
        g.add_op(op)
    g.set_outputs(["y"])
    rng = np.random.default_rng(12)
    inputs = {"x": rng.uniform(-1, 1, (2048, 256)).astype(np.float32)}
    results, _, _ = run_static(g, inputs, CFG)
    want = oracle_env(g, inputs)["y"].data
    assert compare(results["y"].astype(np.float64), want, 1e-3, 1e-3).passed
    tg = tile_for_group(fuse_static(g)[0], CFG)
    assert tg.alloc.high_water <= CFG.local_mem_bytes
    assert tg.tile_elems <= tg.t_max


def test_every_group_tile_for_group_accepts_compiles_and_matches_oracle():
    # small local memories make the allocator, not the cost model, size
    # most of these tiles
    rng = np.random.default_rng(77)
    accepted = capped = 0
    for i in range(80):
        if i % 2:
            g, inputs = compound_graph("layernorm", rng)
        else:
            g, inputs = random_vector_graph(rng, max_ops=6, max_rows=64, max_cols=256)
        cfg = DeviceConfig(
            num_cores=int(rng.integers(1, 9)),
            local_mem_bytes=int(rng.integers(256, 16385)),
        )
        groups = fuse_static(g)
        try:
            tiled = [tile_for_group(group, cfg) for group in groups]
        except InfeasibleTilingError:
            continue
        accepted += 1
        capped += sum(tg.tiles > tile_vector_graph(tg.graph, cfg).tiles for tg in tiled)
        device = DeviceState.from_config(cfg)
        results, _ = run_groups(groups, device, cfg, inputs, debug=True)
        env = oracle_env(g, inputs)
        dtypes = {g.tensors[t].dtype for t in g.touched_tensor_ids()}
        rounded = DType.F16 in dtypes or any(
            op.kind in REDUCTION_KINDS | {"broadcast"} for op in g.ops
        )
        tol = 1e-3 if rounded else 0.0
        for tid in g.outputs:
            got = results[tid].astype(np.float64)
            assert compare(got, env[tid].data, tol, tol).passed, (i, tid)
    assert accepted >= 40 and capped >= 10, (accepted, capped)


# --- every view record reads the tensor's own layout -------------------------


def test_cube_groups_are_layout_invariant():
    # transposed or row-padded A, B and chain inputs change only where the
    # loads read, not what each tile's local buffers hold: bit-identical
    rng = np.random.default_rng(24)
    seen = {"run": 0, "strided chain input": 0, "k chunks": 0, "tiles": 0}
    for i in range(40):
        g, inputs = random_cube_graph(rng, max_dim=128)
        cfg = DeviceConfig(
            num_cores=int(rng.integers(1, 9)),
            local_mem_bytes=int(rng.integers(6144, 16385)),
        )
        layouts = {t: random_layout(rng, g.tensors[t].shape) for t in g.graph_input_ids()}
        try:
            want, _, _ = run_static(g, inputs, cfg)
        except InfeasibleTilingError:
            continue
        seen["run"] += 1
        got, _, groups = run_static(with_layouts(g, layouts), inputs, cfg)
        for tid in g.outputs:
            assert got[tid].tobytes() == want[tid].tobytes(), (i, tid, layouts)
        tg = tile_for_group(groups[0], cfg)
        seen["strided chain input"] += any(layouts[t] for t in layouts if t not in ("a", "b"))
        seen["k chunks"] += tg.k_chunk < tg.mkn[1]
        seen["tiles"] += tg.tiles > 1
    assert seen["run"] >= 30 and min(seen.values()) >= 5, seen


def test_vector_groups_are_layout_invariant():
    rng = np.random.default_rng(25)
    strided = 0
    for i in range(60):
        g, inputs = random_vector_graph(rng, max_ops=6, max_rows=32, max_cols=64)
        cfg = DeviceConfig(num_cores=int(rng.integers(1, 9)))
        layouts = {t: random_layout(rng, g.tensors[t].shape) for t in g.graph_input_ids()}
        want, _, _ = run_static(g, inputs, cfg)
        got, _, _ = run_static(with_layouts(g, layouts), inputs, cfg)
        for tid in g.outputs:
            assert got[tid].tobytes() == want[tid].tobytes(), (i, tid, layouts)
        strided += any(layouts.values())
    assert strided >= 30, strided


@pytest.mark.parametrize("strides", [(64, 1), (1, 32)])
def test_strided_chain_input_is_read_through_its_strides(strides):
    # addmm's bias c, once loaded as if its strides were (32, 1)
    g = OperatorGraph()
    for tid in ("a", "b", "c", "ab", "y"):
        g.tensor(tid, "f32", (32, 32))
    g.op("matmul", ["a", "b"], "ab")
    g.op("add", ["ab", "c"], "y")
    g.set_outputs(["y"])
    rng = np.random.default_rng(6)
    inputs = {t: rng.uniform(-1, 1, (32, 32)).astype(np.float32) for t in "abc"}
    want, _, _ = run_static(g, inputs, CFG)
    got, _, groups = run_static(with_layouts(g, {"c": strides}), inputs, CFG)
    assert groups[0].kind == CV_PATTERN  # the add is in the matmul's group
    assert got["y"].tobytes() == want["y"].tobytes()


def test_strided_stored_tensor_is_rejected_on_both_paths():
    vector = OperatorGraph()
    vector.tensor("a", "f32", (32, 32))
    vector.tensor("y", "f32", (32, 32), (1, 32))
    vector.op("abs", ["a"], "y")
    vector.set_outputs(["y"])
    cube = OperatorGraph()
    for tid in ("a", "b", "w", "z"):
        cube.tensor(tid, "f32", (32, 32))
    cube.tensor("y", "f32", (32, 32), (1, 32))
    cube.op("matmul", ["a", "b"], "y")
    cube.op("matmul", ["y", "w"], "z")
    cube.set_outputs(["z"])
    for g, vector_only in ((vector, True), (cube, False)):
        group = fuse_static(g)[0]
        assert group.subgraph().is_vector_only == vector_only
        with pytest.raises(EncoderError, match="stored tensor y must be contiguous"):
            tile_for_group(group, CFG)
