from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilevm import DType, OperatorGraph, RefTensor, compare, oracle, ref_execute
from tilevm.isa import CmpType
from tilevm.oracle import CompareReport, quantize


def _run(g, **arrays):
    refs = {
        tid: RefTensor.from_array(np.asarray(arr), g.tensors[tid].dtype)
        for tid, arr in arrays.items()
    }
    return ref_execute(g, refs)


def test_add_trivial():
    g = OperatorGraph()
    g.tensor("a", "f32", (2,))
    g.tensor("b", "f32", (2,))
    g.tensor("c", "f32", (2,))
    g.op("add", ["a", "b"], "c")
    g.set_outputs(["c"])
    env = _run(g, a=[1.0, 2.0], b=[3.0, 4.0])
    assert env["c"].data.tolist() == [4.0, 6.0]


def test_layernorm_hand_values():
    from tilevm.graph import decompose

    g = OperatorGraph()
    x = g.tensor("x", "f32", (1, 1, 4))
    metas, ops = decompose("layernorm", [x], "y", eps=1e-5)
    for m in metas:
        g.add_tensor(m)
    for op in ops:
        g.add_op(op)
    g.set_outputs(["y"])
    env = _run(g, x=[[[1.0, 2.0, 3.0, 4.0]]])
    # mean 2.5, variance 1.25
    expected = np.array([-1.3416, -0.4472, 0.4472, 1.3416])
    assert np.allclose(env["y"].data.ravel(), expected, atol=1e-3)


def test_matmul_hand_values():
    g = OperatorGraph()
    g.tensor("a", "f32", (2, 2))
    g.tensor("b", "f32", (2, 2))
    g.tensor("c", "f32", (2, 2))
    g.op("matmul", ["a", "b"], "c")
    g.set_outputs(["c"])
    env = _run(g, a=[[1, 2], [3, 4]], b=[[5, 6], [7, 8]])
    assert env["c"].data.tolist() == [[19, 22], [43, 50]]


def test_cmp_select_semantics():
    g = OperatorGraph()
    for tid in ("a", "b", "m", "n"):
        g.tensor(tid, "f32", (2,))
    g.tensor("cond", "f32", (2,))
    g.tensor("out", "f32", (2,))
    g.op("cmp", ["a", "b"], "cond", cmp=int(CmpType.LT))
    g.op("select", ["cond", "m", "n"], "out")
    g.set_outputs(["out"])
    env = _run(g, a=[1, 5], b=[2, 3], m=[9, 9], n=[7, 7])
    assert env["cond"].data.tolist() == [1.0, 0.0]
    assert env["out"].data.tolist() == [9.0, 7.0]


def test_reduction_and_broadcast():
    g = OperatorGraph()
    g.tensor("x", "f32", (2, 2))
    g.tensor("s", "f32", (2, 1))
    g.tensor("y", "f32", (2, 3))
    g.op("sum", ["x"], "s")
    g.op("broadcast", ["s"], "y", size=3)
    g.set_outputs(["y"])
    env = _run(g, x=[[1, 2], [3, 4]])
    assert env["s"].data.ravel().tolist() == [3.0, 7.0]
    assert env["y"].data.tolist() == [[3.0] * 3, [7.0] * 3]


def test_div_by_zero_ieee():
    g = OperatorGraph()
    g.tensor("a", "f32", (3,))
    g.tensor("b", "f32", (3,))
    g.tensor("c", "f32", (3,))
    g.op("div", ["a", "b"], "c")
    g.set_outputs(["c"])
    env = _run(g, a=[1.0, -1.0, 0.0], b=[0.0, 0.0, 0.0])
    c = env["c"].data
    assert np.isposinf(c[0]) and np.isneginf(c[1]) and np.isnan(c[2])


def test_f16_quantization_per_op():
    g = OperatorGraph()
    g.tensor("a", "f16", (1,))
    g.tensor("b", "f16", (1,))
    g.tensor("c", "f16", (1,))
    g.op("add", ["a", "b"], "c")
    g.set_outputs(["c"])
    env = _run(g, a=[1.0009765625], b=[1.0])  # sum rounds to an f16 value
    assert env["c"].data[0] == float(np.float16(1.0009765625) + np.float16(1.0))


def test_quantize_int_truncates_toward_zero():
    vals = np.array([1.9, -1.9, 2.0, -2.0, np.inf, np.nan])
    out = quantize(vals, DType.I32)
    assert out.tolist() == [1.0, -1.0, 2.0, -2.0, 0.0, 0.0]


def test_compare_reports():
    ok = compare(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert ok.passed and ok.max_abs_err == 0.0 and ok.first_mismatch is None

    rel = compare(np.array([1.001]), np.array([1.0]), rel_tol=1e-3, abs_tol=0.0)
    assert rel.passed

    nan_vs_zero = compare(np.array([np.nan]), np.array([0.0]))
    assert not nan_vs_zero.passed and nan_vs_zero.first_mismatch == 0

    nan_match = compare(np.array([np.nan]), np.array([np.nan]))
    assert nan_match.passed

    inf_mismatch = compare(np.array([np.inf]), np.array([-np.inf]))
    assert not inf_mismatch.passed

    with pytest.raises(ValueError):
        compare(np.zeros(2), np.zeros(3))


def _whole_array_compare(a, e, rel_tol, abs_tol):
    """The comparison rule applied to the whole arrays at once."""
    a, e = a.astype(np.float64).ravel(), e.astype(np.float64).ravel()
    both_nan = np.isnan(a) & np.isnan(e)
    inf_match = np.isinf(a) & np.isinf(e) & (np.sign(a) == np.sign(e))
    with np.errstate(invalid="ignore"):
        diff = np.abs(a - e)
        ok = (diff <= abs_tol + rel_tol * np.abs(e)) | both_nan | inf_match
    finite_diff = diff[np.isfinite(diff)]
    max_err = float(finite_diff.max()) if finite_diff.size else (
        0.0 if bool(ok.all()) else float("inf")
    )
    if bool(ok.all()):
        return CompareReport(True, max_err if ok.size else 0.0, None, int(ok.size))
    return CompareReport(False, max_err, int(np.argmin(ok)), int(ok.size))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 40),
    block=st.sampled_from([1, 3, 8, oracle.COMPARE_BLOCK]),
    dtype=st.sampled_from([np.float16, np.float32, np.float64, np.int32]),
)
def test_blocked_compare_matches_whole_array_rule(seed, size, block, dtype):
    rng = np.random.default_rng(seed)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    expected = rng.normal(size=size)
    pick = rng.random(size) < 0.2
    expected[pick] = rng.choice(specials, pick.sum())
    noise = rng.choice([0.0, 1e-7, 1e-3, 1.0], size) * rng.normal(size=size)
    with np.errstate(invalid="ignore", over="ignore"):
        actual = (expected + noise).astype(dtype)
    if dtype != np.int32:
        flip = rng.random(size) < 0.1
        actual[flip] = rng.choice(specials, flip.sum())
    rel, abs_ = float(rng.choice([0.0, 1e-5, 1e-2])), float(rng.choice([0.0, 1e-5, 1e-2]))
    with mock.patch.object(oracle, "COMPARE_BLOCK", block):
        got = compare(actual, expected, rel, abs_)
    assert got == _whole_array_compare(actual, expected, rel, abs_)


def test_missing_input_rejected():
    g = OperatorGraph()
    g.tensor("a", "f32", (2,))
    g.tensor("b", "f32", (2,))
    g.tensor("c", "f32", (2,))
    g.op("add", ["a", "b"], "c")
    g.set_outputs(["c"])
    with pytest.raises(ValueError):
        ref_execute(g, {"a": RefTensor.from_array(np.zeros(2), DType.F32)})
