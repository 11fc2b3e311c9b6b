import numpy as np
import pytest

from tilevm import DType, OperatorGraph, decompose, dominant_shape, peak_live_count
from tilevm.graph import BasicOp, GraphError, SymbolTable, TensorMeta, unify_shapes
from tilevm.oracle import RefTensor, compare, ref_execute

from helpers import brute_force_liveness, direct_layernorm


def _graph(*specs, ops=(), outputs=()):
    g = OperatorGraph()
    for tid, dtype, shape in specs:
        g.tensor(tid, dtype, shape)
    for kind, ins, out, attrs in ops:
        if out not in g.tensors:
            raise AssertionError("declare outputs in specs")
        g.op(kind, ins, out, **attrs)
    g.set_outputs(list(outputs))
    return g


def test_symbol_table_equalities_and_bindings():
    st = SymbolTable()
    st.declare("b")
    st.declare("c")
    assert not st.equal("b", "c")
    st.equate("b", "c")
    assert st.equal("b", "c")
    st.bind("b", 4)
    assert st.value_of("c") == 4
    with pytest.raises(GraphError):
        st.bind("c", 5)


def test_tensor_meta_validation():
    with pytest.raises(GraphError):
        TensorMeta("x", DType.F32, (0, 3))
    with pytest.raises(GraphError):
        TensorMeta("x", DType.F32, ("", 3))
    meta = TensorMeta("x", DType.F32, (2, 3))
    assert meta.nelems == 6 and meta.nbytes == 24
    assert meta.contiguous_strides() == (3, 1)
    strided = TensorMeta("y", DType.F32, (2, 3), strides=(1, 2))
    assert not strided.is_contiguous


def test_accepted_strides_never_alias():
    """Every strided layout a graph accepts maps distinct indices to distinct
    elements, and the rule accepts common layouts."""
    rng = np.random.default_rng(31)
    accepted = 0
    for _ in range(300):
        rank = int(rng.integers(1, 4))
        shape = tuple(int(d) for d in rng.integers(1, 5, rank))
        strides = tuple(int(s) for s in rng.integers(0, 13, rank))
        try:
            OperatorGraph().tensor("t", "f32", shape, strides)
        except GraphError:
            continue
        accepted += 1
        offsets = [sum(i * s for i, s in zip(idx, strides)) for idx in np.ndindex(*shape)]
        assert len(set(offsets)) == len(offsets), (shape, strides)
    assert accepted > 50
    g = OperatorGraph()
    g.symbols.declare("n")
    g.tensor("rows", "f32", ("n", 8), (16, 1))  # unknown outermost extent
    g.tensor("one", "f32", (1, 8), (0, 1))  # a size-1 dim's stride is never used
    g.tensor("t", "f32", (8, 4), (1, 8))  # a transpose
    with pytest.raises(GraphError, match="may alias"):
        g.tensor("cols", "f32", (8, "n"), (16, 1))  # unknown inner extent


def test_graph_single_writer_and_arity():
    g = OperatorGraph()
    g.tensor("a", "f32", (4,))
    g.tensor("b", "f32", (4,))
    g.tensor("c", "f32", (4,))
    g.op("add", ["a", "b"], "c")
    with pytest.raises(GraphError):
        g.op("add", ["a", "b"], "c")  # c written twice
    with pytest.raises(GraphError):
        BasicOp("add", ("a",), "d")  # arity
    with pytest.raises(GraphError):
        BasicOp("frobnicate", ("a",), "d")


def test_matmul_shape_check():
    g = OperatorGraph()
    g.tensor("a", "f32", (2, 3))
    g.tensor("b", "f32", (4, 5))
    g.tensor("c", "f32", (2, 5))
    with pytest.raises(GraphError):
        g.op("matmul", ["a", "b"], "c")


def test_elementwise_output_covers_input_broadcast():
    g = OperatorGraph()
    g.symbols.declare("n")
    for tid, shape in (
        ("a", (4, 8)), ("row", (1, 8)), ("flat", (8,)), ("same", (4, 8)),
        ("wide", (2, 4, 8)), ("s", ("n", 8)), ("s_row", (1, 8)), ("s_out", ("n", 8)),
    ):
        g.tensor(tid, "f32", shape)
    # an output smaller than the broadcast of its inputs would drop elements
    for out in ("row", "flat"):
        with pytest.raises(GraphError, match="does not cover"):
            g.op("abs", ["a"], out)
    with pytest.raises(GraphError, match="does not cover"):
        g.op("abs", ["s"], "s_row")  # an unbound symbol may exceed 1
    g.op("abs", ["a"], "same")
    g.op("abs", ["a"], "wide")  # an output may broadcast further
    g.op("abs", ["s"], "s_out")


def test_decompose_addmm():
    a = TensorMeta("a", DType.F32, (2, 3))
    b = TensorMeta("b", DType.F32, (3, 4))
    c = TensorMeta("c", DType.F32, (2, 4))
    metas, ops = decompose("addmm", [a, b, c], "out")
    assert [op.kind for op in ops] == ["matmul", "add"]
    assert metas[-1].id == "out" and metas[-1].shape == (2, 4)


def test_decompose_layernorm_op_sequence():
    x = TensorMeta("x", DType.F32, (2, 3, 8))
    metas, ops = decompose("layernorm", [x], "y")
    assert [op.kind for op in ops] == [
        "sum", "muls", "broadcast", "sub", "mul",
        "sum", "muls", "adds", "sqrt", "broadcast", "div",
    ]
    assert metas[-1].shape == (2, 3, 8)


def test_decompose_layernorm_matches_direct_oracle():
    rng = np.random.default_rng(0)
    x = TensorMeta("x", DType.F32, (2, 3, 8))
    g = OperatorGraph()
    g.add_tensor(x)
    metas, ops = decompose("layernorm", [x], "y")
    for m in metas:
        g.add_tensor(m)
    for op in ops:
        g.add_op(op)
    g.set_outputs(["y"])
    data = rng.uniform(-2, 2, (2, 3, 8)).astype(np.float32)
    env = ref_execute(g, {"x": RefTensor.from_array(data, DType.F32)})
    report = compare(env["y"].data, direct_layernorm(data), 1e-3, 1e-3)
    assert report.passed


def test_decompose_if_else_add_branches():
    x = TensorMeta("x", DType.F32, (4,))
    y = TensorMeta("y", DType.F32, (4,))
    _, ops_true = decompose("if_else_add", [x, y], "z", taken=True)
    assert [op.kind for op in ops_true] == ["muls", "add"]
    assert ops_true[0].attrs["scalar"] == 2.0
    _, ops_false = decompose("if_else_add", [x, y], "z", taken=False)
    assert ops_false[0].attrs["scalar"] == 4.0
    with pytest.raises(GraphError):
        decompose("if_else_add", [x, y], "z")


def test_decompose_unknown_compound():
    with pytest.raises(GraphError):
        decompose("gelu", [TensorMeta("x", DType.F32, (4,))], "y")


def test_dominant_shape_examples():
    g = _graph(
        ("a", "f16", (32, 1024)), ("b", "f16", (32, 1024)), ("c", "f16", (32, 1024)),
        ops=[("add", ["a", "b"], "c", {})], outputs=["c"],
    )
    assert dominant_shape(g) == (32, 1024)

    g = _graph(
        ("a", "f32", (1, 20)), ("b", "f32", (4, 20)), ("c", "f32", (4, 20)),
        ops=[("add", ["a", "b"], "c", {})], outputs=["c"],
    )
    assert dominant_shape(g) == (4, 20)

    g = _graph(
        ("a", "f32", (8,)), ("b", "f32", (2, 8)), ("c", "f32", (2, 8)),
        ops=[("add", ["a", "b"], "c", {})], outputs=["c"],
    )
    assert dominant_shape(g) == (2, 8)


def test_dominant_shape_order_insensitive_and_idempotent():
    g1 = _graph(
        ("a", "f32", (4, 8)), ("b", "f32", (1, 8)),
        ("x", "f32", (4, 8)), ("y", "f32", (4, 8)),
        ops=[("add", ["a", "b"], "x", {}), ("sqrt", ["x"], "y", {})],
        outputs=["y"],
    )
    g2 = _graph(
        ("a", "f32", (4, 8)), ("b", "f32", (1, 8)),
        ("y", "f32", (4, 8)), ("x", "f32", (4, 8)),
        ops=[("sqrt", ["a"], "y", {}), ("add", ["y", "b"], "x", {})],
        outputs=["x"],
    )
    assert dominant_shape(g1) == dominant_shape(g2) == (4, 8)


def test_dominant_shape_requires_unifiable():
    g = _graph(
        ("a", "f32", (3, 8)), ("b", "f32", (2, 8)), ("c", "f32", (3, 8)),
        ("d", "f32", (2, 8)),
        ops=[("sqrt", ["a"], "c", {}), ("sqrt", ["b"], "d", {})],
        outputs=["c", "d"],
    )
    with pytest.raises(GraphError):
        dominant_shape(g)


def test_peak_live_count_examples():
    add = _graph(
        ("a", "f32", (4,)), ("b", "f32", (4,)), ("c", "f32", (4,)),
        ops=[("add", ["a", "b"], "c", {})], outputs=["c"],
    )
    assert peak_live_count(add) == 3
    assert peak_live_count(add) == brute_force_liveness(add.ops, {"c"})

    chain = _graph(
        ("a", "f32", (4,)), ("b", "f32", (4,)), ("c", "f32", (4,)),
        ("d", "f32", (4,)),
        ops=[("add", ["a", "b"], "c", {}), ("sqrt", ["c"], "d", {})],
        outputs=["d"],
    )
    assert peak_live_count(chain) == 3
    assert peak_live_count(chain) == brute_force_liveness(chain.ops, {"d"})

    single = _graph(
        ("a", "f32", (4,)), ("b", "f32", (4,)),
        ops=[("sqrt", ["a"], "b", {})], outputs=["b"],
    )
    assert peak_live_count(single) == 2


def test_peak_live_count_bounds_random():
    from helpers import random_vector_graph

    rng = np.random.default_rng(5)
    for _ in range(40):
        g, _ = random_vector_graph(rng, max_ops=6, max_rows=8, max_cols=16)
        peak = peak_live_count(g)
        n_inputs = len(g.graph_input_ids())
        assert peak <= n_inputs + len(g.ops)
        assert peak >= max(len(op.inputs) + 1 for op in g.ops)
        assert peak == brute_force_liveness(g.ops, set(g.outputs))


def test_peak_live_outputs_only_mode():
    chain = _graph(
        ("a", "f32", (4,)), ("b", "f32", (4,)), ("c", "f32", (4,)),
        ("d", "f32", (4,)),
        ops=[("add", ["a", "b"], "c", {}), ("sqrt", ["c"], "d", {})],
        outputs=["d"],
    )
    assert peak_live_count(chain, mode="outputs_only") == 2
    with pytest.raises(GraphError):
        peak_live_count(chain, mode="bogus")


def test_unify_shapes_symbolic():
    st = SymbolTable()
    st.declare("b")
    st.declare("c")
    assert unify_shapes(("b", 20), ("b", 20), st) == ("b", 20)
    assert unify_shapes((1, 20), ("b", 20), st) == ("b", 20)
    assert unify_shapes(("b", 20), ("c", 20), st) is None
    st.equate("b", "c")
    assert unify_shapes(("b", 20), ("c", 20), st) is not None
    assert unify_shapes(("b", 20), (4, 20), st) is None  # unbound sym vs const
    st.bind("b", 4)
    assert unify_shapes(("b", 20), (4, 20), st) == (4, 20)


def test_decompose_addmm_exact_for_integer_f32_inputs():
    rng = np.random.default_rng(12)
    a = TensorMeta("a", DType.F32, (4, 6))
    b = TensorMeta("b", DType.F32, (6, 5))
    c = TensorMeta("c", DType.F32, (4, 5))
    g = OperatorGraph()
    for meta in (a, b, c):
        g.add_tensor(meta)
    metas, ops = decompose("addmm", [a, b, c], "out")
    for m in metas:
        g.add_tensor(m)
    for op in ops:
        g.add_op(op)
    g.set_outputs(["out"])
    arrays = {
        tid: rng.integers(-8, 8, g.tensors[tid].shape).astype(np.float64)
        for tid in ("a", "b", "c")
    }
    env = ref_execute(
        g, {t: RefTensor.from_array(v, DType.F32) for t, v in arrays.items()}
    )
    direct = arrays["a"] @ arrays["b"] + arrays["c"]
    assert np.array_equal(env["out"].data, direct)  # exact, small integers
