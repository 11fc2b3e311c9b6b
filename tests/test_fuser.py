import numpy as np
import pytest

from tilevm import (
    DeviceConfig,
    DeviceState,
    DType,
    OperatorGraph,
    fuse_static,
)
from tilevm.encoder import run_groups
from tilevm.fuser import FusionBuffer, _space
from tilevm.graph import BasicOp, GraphError, TensorMeta, decompose, unify_shapes
from tilevm.oracle import compare

from helpers import oracle_env, random_stream, run_static


def _sym_graph():
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


def _fused_kinds(g):
    return [group.op_kinds for group in fuse_static(g)]


def test_can_merge_iteration_rules():
    # one symbol on both sides: the spaces unify and the ops fuse
    g = OperatorGraph()
    g.symbols.declare("s")
    g.tensor("a", "f32", ("s", 20))
    g.tensor("b", "f32", ("s", 20))
    g.tensor("x", "f32", ("s", 20))
    g.tensor("y", "f32", ("s", 20))
    g.op("sqrt", ["a"], "x")
    g.op("add", ["x", "b"], "y")
    g.set_outputs(["y"])
    assert unify_shapes(g.tensors["x"].shape, g.tensors["y"].shape, g.symbols) == ("s", 20)
    assert _fused_kinds(g) == [["sqrt", "add"]]


def test_can_merge_broadcast_and_symbols():
    g = _sym_graph()
    # [b,20] vs [c,20] with unrelated symbols: conservative no
    assert unify_shapes(("b", 20), ("c", 20), g.symbols) is None
    assert _fused_kinds(g) == [["add"], ["add"]]
    g2 = _sym_graph()
    g2.symbols.bind("b", 4)
    g2.symbols.bind("c", 4)
    assert unify_shapes(("b", 20), ("c", 20), g2.symbols) is not None
    assert _fused_kinds(g2) == [["add", "add"]]
    # [1,20] vs [b,20] broadcasts
    g3 = OperatorGraph()
    g3.symbols.declare("b")
    g3.tensor("p", "f32", (1, 20))
    g3.tensor("r", "f32", ("b", 20))
    g3.tensor("u", "f32", (1, 20))
    g3.tensor("v", "f32", ("b", 20))
    g3.op("abs", ["p"], "u")
    g3.op("add", ["u", "r"], "v")
    g3.set_outputs(["v"])
    assert unify_shapes((1, 20), ("b", 20), g3.symbols) == ("b", 20)
    assert _fused_kinds(g3) == [["abs", "add"]]


def test_fuse_static_addmm_is_cv_pattern():
    g = OperatorGraph()
    ins = [
        g.tensor("a", "f32", (8, 8)),
        g.tensor("b", "f32", (8, 8)),
        g.tensor("c", "f32", (8, 8)),
    ]
    metas, ops = decompose("addmm", ins, "out")
    for m in metas:
        g.add_tensor(m)
    for op in ops:
        g.add_op(op)
    g.set_outputs(["out"])
    groups = fuse_static(g)
    assert [grp.describe() for grp in groups] == ["cv-pattern{matmul,add}"]


def test_fuse_static_add_sqrt_is_vv_pattern():
    g = OperatorGraph()
    for tid in ("a", "b", "c", "d"):
        g.tensor(tid, "f32", (4, 8))
    g.op("add", ["a", "b"], "c")
    g.op("sqrt", ["c"], "d")
    g.set_outputs(["d"])
    groups = fuse_static(g)
    assert [grp.describe() for grp in groups] == ["vv-pattern{add,sqrt}"]
    assert groups[0].loads == ["a", "b"]
    assert groups[0].stores == ["d"]


def test_fuse_static_unrelated_symbols_stay_singletons():
    groups = fuse_static(_sym_graph())
    assert [grp.kind for grp in groups] == ["singleton", "singleton"]


def test_fuse_static_bound_symbols_fuse():
    g = _sym_graph()
    g.symbols.bind("b", 4)
    g.symbols.bind("c", 4)
    groups = fuse_static(g)
    assert [grp.describe() for grp in groups] == ["vv-pattern{add,add}"]


def test_fuse_static_matmul_breaks_vv_chain():
    g = OperatorGraph()
    g.tensor("a", "f32", (8, 8))
    g.tensor("b", "f32", (8, 8))
    g.tensor("c", "f32", (8, 8))
    g.tensor("w", "f32", (8, 8))
    g.tensor("m", "f32", (8, 8))
    g.tensor("d", "f32", (8, 8))
    g.op("add", ["a", "b"], "c")
    g.op("matmul", ["c", "w"], "m")
    g.op("sqrt", ["m"], "d")
    g.set_outputs(["d"])
    groups = fuse_static(g)
    assert [grp.describe() for grp in groups] == [
        "singleton{add}", "cv-pattern{matmul,sqrt}",
    ]
    # the add's result crosses groups, so it must be stored
    assert groups[0].stores == ["c"]


def test_fused_semantics_match_singleton_plan():
    rng = np.random.default_rng(6)
    cfg = DeviceConfig(num_cores=8)
    from helpers import random_vector_graph

    for _ in range(20):
        g, inputs = random_vector_graph(rng, max_ops=6, max_rows=16, max_cols=64)
        fused, _, _ = run_static(g, inputs, cfg)
        single, _, _ = run_static(g, inputs, cfg, singleton=True)
        for tid in g.outputs:
            a, b = fused[tid], single[tid]
            both_nan = np.isnan(a) & np.isnan(b)
            assert bool(np.all(both_nan | (a == b))), tid


def test_vv_fusion_reduces_global_traffic():
    g = OperatorGraph()
    for tid in ("a", "b", "c", "d"):
        g.tensor(tid, "f32", (32, 64))
    g.op("add", ["a", "b"], "c")
    g.op("sqrt", ["c"], "d")
    g.set_outputs(["d"])
    rng = np.random.default_rng(8)
    inputs = {
        "a": rng.uniform(0, 1, (32, 64)).astype(np.float32),
        "b": rng.uniform(0, 1, (32, 64)).astype(np.float32),
    }
    cfg = DeviceConfig(num_cores=4)
    _, fused_stats, groups = run_static(g, inputs, cfg)
    assert groups[0].kind == "vv-pattern"
    _, single_stats, _ = run_static(g, inputs, cfg, singleton=True)
    fused_bytes = sum(s.global_bytes_moved for s in fused_stats)
    single_bytes = sum(s.global_bytes_moved for s in single_stats)
    assert fused_bytes < single_bytes


# --- streaming ------------------------------------------------------------------


def _meta(tid, shape, dtype=DType.F32):
    return TensorMeta(tid, dtype, shape)


def test_push_extends_then_flush_on_host_read():
    buf = FusionBuffer()
    assert buf.push(
        BasicOp("add", ("a", "b"), "c"),
        [_meta("a", (8, 16)), _meta("b", (8, 16)), _meta("c", (8, 16))],
    ) == []
    assert buf.push(BasicOp("sqrt", ("c",), "d"), [_meta("d", (8, 16))]) == []
    buf.mark_host_read("d")
    groups = buf.flush("host_read")
    assert len(groups) == 1
    group = groups[0]
    assert group.describe() == "vv-pattern{add,sqrt}"
    assert group.loads == ["a", "b"]
    assert group.stores == ["d"]
    assert group.flush_reason == "host_read"
    assert buf.flush() == []  # empty buffer flush


def test_push_runtime_equal_symbols_fuse():
    buf = FusionBuffer()
    buf.graph.symbols.bind("b", 4)
    buf.graph.symbols.bind("c", 4)
    buf.push(
        BasicOp("add", ("A", "B"), "X"),
        [_meta("A", (1, 20)), _meta("B", ("b", 20)), _meta("X", ("b", 20))],
    )
    flushed = buf.push(
        BasicOp("add", ("A", "C"), "Y"),
        [_meta("C", ("c", 20)), _meta("Y", ("c", 20))],
    )
    assert flushed == []
    groups = buf.flush()
    assert groups[0].describe() == "vv-pattern{add,add}"


def test_push_matmul_flushes_open_vv_group():
    buf = FusionBuffer()
    buf.push(
        BasicOp("add", ("a", "b"), "c"),
        [_meta("a", (8, 8)), _meta("b", (8, 8)), _meta("c", (8, 8))],
    )
    flushed = buf.push(
        BasicOp("matmul", ("c", "w"), "m"),
        [_meta("w", (8, 8)), _meta("m", (8, 8))],
    )
    assert [g.describe() for g in flushed] == ["singleton{add}"]
    assert flushed[0].flush_reason == "incompatible"
    buf.push(BasicOp("sqrt", ("m",), "s"), [_meta("s", (8, 8))])
    groups = buf.flush()
    assert groups[0].describe() == "cv-pattern{matmul,sqrt}"


def test_capacity_flush():
    buf = FusionBuffer(capacity=3)
    buf.push(
        BasicOp("abs", ("a",), "t0"), [_meta("a", (4,)), _meta("t0", (4,))]
    )
    for i in range(1, 3):
        buf.push(BasicOp("abs", (f"t{i-1}",), f"t{i}"), [_meta(f"t{i}", (4,))])
    flushed = buf.push(BasicOp("abs", ("t2",), "t3"), [_meta("t3", (4,))])
    assert len(flushed) == 1 and flushed[0].flush_reason == "capacity"
    assert len(flushed[0].ops) == 3


def test_capacity_flush_stores_what_the_pending_op_reads():
    buf = FusionBuffer(capacity=2)
    buf.push(BasicOp("abs", ("x",), "a"), [_meta("x", (4,)), _meta("a", (4,))])
    buf.push(BasicOp("sqrt", ("a",), "b"), [_meta("b", (4,))])
    flushed = buf.push(BasicOp("add", ("a", "b"), "c"), [_meta("c", (4,))])
    assert len(flushed) == 1 and flushed[0].flush_reason == "capacity"
    assert flushed[0].stores == ["a", "b"]


def test_cycle_check_stays_bounded_on_a_long_stream():
    # every op also reads the last host-read tensor, whose producers reach
    # back to the start of the stream; the cycle check must not walk them
    buf = FusionBuffer()
    buf.graph.add_tensor(_meta("x", (4,)))
    prev = last = "x"
    groups = []
    for i in range(1000):
        out = f"t{i}"
        groups += buf.push(BasicOp("add", (prev, last), out), [_meta(out, (4,))])
        prev = out
        if i % 7 == 6:
            buf.mark_host_read(out)
            groups += buf.flush("host_read")
            last = out
    groups += buf.flush()
    assert [len(g.ops) for g in groups] == [7] * 142 + [6]


@pytest.mark.parametrize("capacity", [1, 2, 3, 4])
def test_random_stream_groups_match_oracle(capacity):
    rng = np.random.default_rng(100 + capacity)
    cfg = DeviceConfig(num_cores=8)
    for _ in range(10):
        g, inputs, groups = random_stream(rng, capacity)
        device = DeviceState.from_config(cfg)
        results, _ = run_groups(groups, device, cfg, inputs, debug=True)
        env = oracle_env(g, inputs)
        for group in groups:
            for tid in group.stores:
                report = compare(results[tid], env[tid].data, 1e-3, 1e-3)
                assert report.passed, (group.describe(), tid, report.max_abs_err)


def test_stream_statelessness_reproduces_groups():
    def replay():
        buf = FusionBuffer()
        out = []
        out += buf.push(
            BasicOp("add", ("a", "b"), "c"),
            [_meta("a", (4, 4)), _meta("b", (4, 4)), _meta("c", (4, 4))],
        )
        out += buf.push(BasicOp("sqrt", ("c",), "d"), [_meta("d", (4, 4))])
        out += buf.flush("end_of_stream")
        return [(g.describe(), tuple(g.stores), g.flush_reason) for g in out]

    assert replay() == replay()


def test_reading_flushed_unstored_tensor_is_an_error():
    buf = FusionBuffer()
    buf.push(
        BasicOp("add", ("a", "b"), "c"),
        [_meta("a", (4,)), _meta("b", (4,)), _meta("c", (4,))],
    )
    buf.push(BasicOp("sqrt", ("c",), "d"), [_meta("d", (4,))])
    buf.flush()  # c is group-internal: flushed without a store
    with pytest.raises(GraphError):
        buf.push(BasicOp("abs", ("c",), "e"), [_meta("e", (4,))])


def test_dynamic_fusion_superset_of_static():
    # same program family: static (symbolic) vs dynamic (concrete) fusion
    for b, c in [(4, 4), (2, 2), (3, 5)]:
        static_groups = fuse_static(_sym_graph())
        buf = FusionBuffer()
        buf.graph.symbols.bind("b", b)
        buf.graph.symbols.bind("c", c)
        buf.push(
            BasicOp("add", ("A", "B"), "X"),
            [_meta("A", (1, 20)), _meta("B", ("b", 20)), _meta("X", ("b", 20))],
        )
        buf.push(
            BasicOp("add", ("A", "C"), "Y"),
            [_meta("C", ("c", 20)), _meta("Y", ("c", 20))],
        )
        dynamic_groups = buf.flush()
        static_fused = max(len(g.ops) for g in static_groups)
        dynamic_fused = max(len(g.ops) for g in dynamic_groups)
        if b == c:
            assert dynamic_fused == 2 > static_fused
        else:
            assert dynamic_fused == static_fused == 1


def test_static_fusion_is_conservative():
    # the iteration spaces of every pair of ops in a multi-op vv group unify
    # (a reduction's space is its input's)
    from helpers import random_vector_graph

    rng = np.random.default_rng(31)
    for _ in range(40):
        g, _ = random_vector_graph(rng, max_ops=6, max_rows=16, max_cols=64)
        for group in fuse_static(g):
            if group.kind != "vv-pattern":
                continue
            for i, a in enumerate(group.ops):
                for b in group.ops[i + 1 :]:
                    assert unify_shapes(_space(a, g), _space(b, g), g.symbols) is not None


@pytest.mark.parametrize("mode", ["static", "stream"])
def test_reduction_fuses_over_its_input_space(mode):
    # sum walks w[8,16]; the broadcast walks e[8,8]; their outputs unify,
    # their iteration spaces do not, so one tile cannot cover both
    g = OperatorGraph()
    g.tensor("w", "f32", (8, 16))
    metas = [TensorMeta("s", DType.F32, (8, 1)), TensorMeta("e", DType.F32, (8, 8))]
    ops = [BasicOp("sum", ("w",), "s"), BasicOp("broadcast", ("s",), "e", {"size": 8})]
    if mode == "static":
        for meta, op in zip(metas, ops):
            g.add_tensor(meta)
            g.add_op(op)
        g.set_outputs(["e"])
        groups = fuse_static(g)
    else:
        buf = FusionBuffer(g)
        groups = [grp for meta, op in zip(metas, ops) for grp in buf.push(op, [meta])]
        buf.mark_host_read("e")
        groups += buf.flush("host_read")
        g.set_outputs(["e"])
    assert [grp.op_kinds for grp in groups] == [["sum"], ["broadcast"]]
    w = np.random.default_rng(3).uniform(-1, 1, (8, 16)).astype(np.float32)
    cfg = DeviceConfig(num_cores=4)
    out, _ = run_groups(groups, DeviceState.from_config(cfg), cfg, {"w": w}, debug=True)
    assert compare(out["e"], oracle_env(g, {"w": w})["e"].data, 1e-5, 1e-5).passed
