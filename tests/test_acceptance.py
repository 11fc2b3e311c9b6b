"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines.
"""

import time
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tilevm import (
    BytecodeProgram,
    DeviceConfig,
    DeviceState,
    DType,
    InstructionKind,
    KernelType,
    OperatorGraph,
    ProgramHeader,
    VirtualInstruction,
    compare,
    compile_group,
    encode_program,
    fuse_static,
    simulate_timing,
    tile_for_group,
    tile_vector_graph,
)
from tilevm.device import tile_range
from tilevm.encoder import bind_group
from tilevm.fuser import FusionBuffer
from tilevm.graph import BasicOp, TensorMeta
from tilevm.isa import decode_instruction, encode_instruction
from tilevm.tiler import hardware_align_div, min_cost_multiplier

from helpers import (
    brute_force_min_cost,
    compound_graph,
    oracle_env,
    random_header,
    random_instruction,
    random_vector_graph,
    run_static,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: {title} ... FAIL")
        raise
    print(f"ACCEPTANCE {number}: {title} ... PASS")


def test_criterion_1_golden_tiling():
    with criterion(1, "golden tiling of the f16 [32,1024] add"):
        start = time.perf_counter()
        cfg = DeviceConfig(num_cores=40, local_mem_bytes=192 * 1024,
                           instr_width_bytes=32)
        g = OperatorGraph()
        g.tensor("a", "f16", (32, 1024))
        g.tensor("b", "f16", (32, 1024))
        g.tensor("c", "f16", (32, 1024))
        g.op("add", ["a", "b"], "c")
        g.set_outputs(["c"])
        t_star, cost = min_cost_multiplier(32768, 1, 32768, 40)
        assert t_star == 820 and cost == 822
        tg = tile_vector_graph(g, cfg)
        assert tg.tile_elems == 832
        assert tg.tiles == 40
        assert tg.tail_elems == 320
        assert time.perf_counter() - start < 1.0


def test_criterion_2_cost_model_brute_force_agreement():
    with criterion(2, "hardware_align_div matches exhaustive minimizer x1000"):
        rng = np.random.default_rng(2024)
        agree = 0
        for _ in range(1000):
            total = int(rng.integers(1, 100_001))
            n = int(rng.integers(1, 65))
            width = int(rng.choice([16, 32, 64]))
            dtype_bytes = int(rng.choice([2, 4]))
            t_max = int(rng.integers(1, 100_001))
            t_hi = min(t_max, -(-total // 1))
            got = min_cost_multiplier(min(t_max, total), 1, total, n)
            want = brute_force_min_cost(min(t_max, total), 1, total, n)
            assert got == want, (total, n, t_max)
            # the aligned result respects width alignment and the cap
            cfg = DeviceConfig(num_cores=n, instr_width_bytes=width)
            t = hardware_align_div(t_max, 1, total, cfg, dtype_bytes)
            w = max(1, width // dtype_bytes)
            assert t <= t_max
            assert t % w == 0 or t == min(t_max, total) or t == (t_max // w) * w
            agree += 1
        assert agree == 1000


def test_criterion_3_bytecode_roundtrip_fuzz():
    with criterion(3, "decode(encode(x)) identity on 10^4 instructions"):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            insn = random_instruction(rng)
            blob = encode_instruction(insn)
            decoded, length = decode_instruction(blob)
            assert decoded == insn and length == len(blob)
        for _ in range(1000):
            insns = [
                random_instruction(rng) for _ in range(int(rng.integers(1, 20)))
            ]
            program = encode_program(random_header(rng), insns)
            header, decoded = program.header, program.instructions()
            assert decoded == insns
            # body walk terminates exactly at code_size
            walked = 0
            for off, _ in program.walk():
                walked = off
            last_len = decode_instruction(program.body, walked)[1]
            assert walked + last_len == header.code_size


def _assert_matches(got, want, rel, abs_):
    report = compare(got.astype(np.float64), want, rel, abs_)
    assert report.passed, f"max err {report.max_abs_err}"


def test_criterion_4_functional_equivalence():
    with criterion(4, "VM matches the scalar oracle on randomized graphs"):
        rng = np.random.default_rng(4)
        cfg = DeviceConfig()
        for i in range(500):
            g, inputs = random_vector_graph(rng, max_ops=8)
            results, _, _ = run_static(g, inputs, cfg, debug=(i % 25 == 0))
            env = oracle_env(g, inputs)
            dtypes = {g.tensors[t].dtype for t in g.touched_tensor_ids()}
            f16_or_red = DType.F16 in dtypes or any(
                op.kind in ("sum", "reduce_max", "reduce_min", "broadcast")
                for op in g.ops
            )
            for tid in g.outputs:
                got = results[tid].astype(np.float64)
                want = env[tid].data
                if f16_or_red:
                    _assert_matches(results[tid], want, 1e-3, 1e-3)
                else:
                    both_nan = np.isnan(got) & np.isnan(want)
                    assert bool(np.all(both_nan | (got == want)))
        for i in range(100):
            kind = ("matmul", "addmm", "layernorm")[i % 3]
            g, inputs = compound_graph(kind, rng)
            results, _, _ = run_static(g, inputs, cfg, debug=(i % 10 == 0))
            env = oracle_env(g, inputs)
            rel = 1e-5 if kind in ("matmul", "addmm") else 1e-3
            for tid in g.outputs:
                _assert_matches(results[tid], env[tid].data, rel, rel)


def test_criterion_5_fusion_preservation_and_traffic():
    with criterion(5, "fused plans preserve semantics and cut global traffic"):
        rng = np.random.default_rng(5)
        cfg = DeviceConfig(num_cores=8)
        checked_traffic = 0
        for _ in range(60):
            g, inputs = random_vector_graph(rng, max_ops=6, max_rows=32,
                                            max_cols=256)
            fused, fused_stats, groups = run_static(g, inputs, cfg)
            single, single_stats, _ = run_static(g, inputs, cfg, singleton=True)
            for tid in g.outputs:
                a, b = fused[tid], single[tid]
                both_nan = np.isnan(a) & np.isnan(b)
                assert bool(np.all(both_nan | (a == b))), tid
            # every multi-op vv group of the plan must strictly cut traffic
            # against running its own ops as singletons
            for grp, stats in zip(groups, fused_stats):
                if grp.kind != "vv-pattern" or len(grp.ops) < 2:
                    continue
                sub = grp.subgraph()
                sub_inputs = {
                    tid: fused.get(tid, single.get(tid, inputs.get(tid)))
                    for tid in sub.graph_input_ids()
                }
                sub_inputs = {
                    tid: arr
                    for tid, arr in sub_inputs.items()
                    if arr is not None
                }
                _, sub_single_stats, _ = run_static(
                    sub, sub_inputs, cfg, singleton=True
                )
                single_bytes = sum(
                    s.global_bytes_moved for s in sub_single_stats
                )
                assert stats.global_bytes_moved < single_bytes, grp.describe()
                checked_traffic += 1
        assert checked_traffic >= 10  # the corpus must actually exercise fusion


def test_criterion_6_streaming_golden_cases():
    with criterion(6, "streaming flush golden case and runtime-only fusion"):
        buf = FusionBuffer()
        buf.push(
            BasicOp("add", ("a", "b"), "c"),
            [
                TensorMeta("a", DType.F32, (8, 16)),
                TensorMeta("b", DType.F32, (8, 16)),
                TensorMeta("c", DType.F32, (8, 16)),
            ],
        )
        buf.push(BasicOp("sqrt", ("c",), "d"), [TensorMeta("d", DType.F32, (8, 16))])
        buf.mark_host_read("d")
        groups = buf.flush("host_read")
        assert len(groups) == 1
        group = groups[0]
        assert group.describe() == "vv-pattern{add,sqrt}"
        assert group.loads == ["a", "b"]
        assert group.stores == ["d"]
        assert group.flush_reason == "host_read"

        # the runtime b=c trace fuses; static fusion of the symbolic graph
        # does not
        def sym_graph():
            g = OperatorGraph()
            g.symbols.declare("b")
            g.symbols.declare("c")
            g.tensor("A", "f32", (1, 20))
            g.tensor("B", "f32", ("b", 20))
            g.tensor("C", "f32", ("c", 20))
            g.tensor("X", "f32", ("b", 20))
            g.tensor("Y", "f32", ("c", 20))
            g.op("add", ["A", "B"], "X")
            g.op("add", ["A", "C"], "Y")
            g.set_outputs(["X", "Y"])
            return g

        static_groups = fuse_static(sym_graph())
        assert max(len(grp.ops) for grp in static_groups) == 1

        stream = FusionBuffer()
        stream.graph.symbols.bind("b", 4)
        stream.graph.symbols.bind("c", 4)
        stream.push(
            BasicOp("add", ("A", "B"), "X"),
            [
                TensorMeta("A", DType.F32, (1, 20)),
                TensorMeta("B", DType.F32, ("b", 20)),
                TensorMeta("X", DType.F32, ("b", 20)),
            ],
        )
        stream.push(
            BasicOp("add", ("A", "C"), "Y"),
            [
                TensorMeta("C", DType.F32, ("c", 20)),
                TensorMeta("Y", DType.F32, ("c", 20)),
            ],
        )
        dynamic_groups = stream.flush()
        assert max(len(grp.ops) for grp in dynamic_groups) == 2


def _synthetic_pipeline_program(k: int, store_elems: int) -> BytecodeProgram:
    add = VirtualInstruction(
        InstructionKind.Add, dst=0, srcs=(0, 0), tile_size=4, total_size=4 * k
    )
    store = VirtualInstruction(
        InstructionKind.Store,
        dst=0,
        srcs=(0,),
        tile_size=store_elems,
        total_size=store_elems * k,
        extras={"tile_stride": store_elems, "dtype": int(DType.F32)},
    )
    return encode_program(
        ProgramHeader(KernelType.VECTOR, 0, k, 1), [add, add, add, store]
    )


def test_criterion_7_decode_hiding():
    with criterion(7, "decode overhead hides behind unit execution"):
        # analytic identity: makespan == 4d + k*e for the single-kernel case
        for k in (1, 3, 8, 21):
            d, elems, rate = 1.0, 40, 0.25
            e = elems * 4 * rate
            assert 4 * d < e
            cfg = DeviceConfig(
                num_cores=1, decode_cost=d, vector_cost_per_elem=0.0,
                dma_cost_per_byte=rate, sync_cost=0.0,
            )
            stats = simulate_timing(_synthetic_pipeline_program(k, elems), cfg)
            assert stats.makespan == 4 * d + k * e

        # property: whenever the per-tile decode burst fits under the
        # smallest per-tile unit cost, the makespan stays within one burst
        # of the zero-decode makespan
        rng = np.random.default_rng(7)
        g = OperatorGraph()
        g.tensor("a", "f32", (16, 64))
        g.tensor("b", "f32", (16, 64))
        g.tensor("c", "f32", (16, 64))
        g.tensor("d", "f32", (16, 64))
        g.op("add", ["a", "b"], "c")
        g.op("sqrt", ["c"], "d")
        g.set_outputs(["d"])
        base_cfg = DeviceConfig(num_cores=4)
        tg = tile_for_group(fuse_static(g)[0], base_cfg)
        device = DeviceState.from_config(base_cfg)
        bind_group(device, tg.graph)
        program = compile_group(fuse_static(g)[0], tg, base_cfg)
        insns = program.instructions()
        n_records = len(insns)
        n_sync = sum(1 for i in insns if i.kind.is_sync)
        passes = 0
        for _ in range(200):
            dma = float(rng.uniform(0.05, 2.0))
            vec = float(rng.uniform(0.05, 2.0))
            tile_bytes = tg.tile_elems * 4
            unit = min(tile_bytes * dma, tg.tile_elems * vec)
            decode = float(rng.uniform(0.0, unit / (2 * n_records)))
            sync = float(rng.uniform(0.0, unit / (2 * max(1, n_sync))))
            cfg = DeviceConfig(
                num_cores=4, decode_cost=decode, dma_cost_per_byte=dma,
                vector_cost_per_elem=vec, sync_cost=sync,
            )
            stats = simulate_timing(program, cfg)
            assert stats.decode_hidden, (decode, sync, dma, vec)
            assert stats.makespan <= stats.makespan_exec_only + stats.decode_burst + 1e-9
            passes += 1
        assert passes == 200


def test_criterion_8_compile_latency_budget():
    with criterion(8, "10-op group tiles and encodes in < 1 ms median"):
        g = OperatorGraph()
        g.tensor("x0", "f32", (32, 64))
        for i in range(10):
            g.tensor(f"x{i+1}", "f32", (32, 64))
            g.op("sqrt" if i % 2 else "abs", [f"x{i}"], f"x{i+1}")
        g.set_outputs(["x10"])
        cfg = DeviceConfig()
        groups = fuse_static(g)
        assert len(groups) == 1 and len(groups[0].ops) == 10
        device = DeviceState.from_config(cfg)
        bind_group(device, tile_for_group(groups[0], cfg).graph)
        samples = []
        for _ in range(50):
            t0 = time.perf_counter()
            tg = tile_for_group(groups[0], cfg)
            compile_group(groups[0], tg, cfg)
            samples.append(time.perf_counter() - t0)
        samples.sort()
        median = samples[len(samples) // 2]
        assert median < 1e-3, f"median {median * 1e3:.3f} ms"


@settings(max_examples=300, deadline=None)
@given(total=st.integers(1, 10_000), n=st.integers(1, 128))
def test_criterion_9_tile_assignment_partition(total, n):
    seen = []
    for core in range(n):
        seen.extend(tile_range(core, total, n))
    assert seen == list(range(total))


def test_criterion_9_report():
    with criterion(9, "per-core tile ranges partition [0, M)"):
        for total, n in [(1, 1), (7, 3), (40, 40), (10_000, 128), (5, 128)]:
            seen = []
            for core in range(n):
                seen.extend(tile_range(core, total, n))
            assert seen == list(range(total))
