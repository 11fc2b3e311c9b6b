"""Malformed graph files and traces end in a documented exit code, never a
traceback: exit 2 names the entry or event, and exit 1 only follows a
failed check."""

import copy
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tilevm import cli
from tilevm.cli import EXIT_CHECK_FAILED, EXIT_COMPILE_OR_RUN, EXIT_PARSE_ERROR, main

EXIT_CODES = {0, 1, 2, 3, 4}

A = {"id": "a", "dtype": "f32", "shape": [4, 8], "seed": 1}
B = {"id": "b", "dtype": "f32", "shape": [4, 8], "seed": 2}


def _graph(ops, tensors=(A, B), outputs=None):
    outputs = outputs if outputs is not None else [ops[-1]["out"]]
    return {"tensors": list(tensors), "ops": list(ops), "outputs": outputs}


def _trace(doc):
    """The graph file ``doc`` as a trace: tensors, ops, then a host read of
    each output."""
    events = [{"event": "tensor", **t} for t in doc["tensors"]]
    events += [{"event": "op", **op} for op in doc["ops"]]
    events += [{"event": "host_read", "tensor": t} for t in doc["outputs"]]
    return events + [{"event": "end"}]


def _write(tmp_path, mode, content):
    if mode == "static":
        path = tmp_path / "g.json"
        path.write_text(json.dumps(content))
    else:
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(json.dumps(ev) for ev in content))
    return str(path)


def _run(path, mode, capsys):
    code = main(["run", path, "--mode", mode, "--check"])
    captured = capsys.readouterr()
    assert code in EXIT_CODES
    assert "Traceback" not in captured.err
    if code == EXIT_CHECK_FAILED:
        assert "RESULT FAIL" in captured.out.splitlines()
    return code, captured


# --- op validity lives in graph.py, so both modes reject the same ops ----------

INVALID_OPS = {
    "adds_without_scalar": ([{"kind": "adds", "in": ["a"], "out": "c"}], 0,
                            "adds: attrs.scalar must be a number, got None"),
    "cmp_without_cmp": ([{"kind": "cmp", "in": ["a", "b"], "out": "c"}], 0,
                        "cmp: attrs.cmp must be a CmpType, got None"),
    "broadcast_size_zero": (
        [{"kind": "sum", "in": ["a"], "out": "s"},
         {"kind": "broadcast", "in": ["s"], "out": "c", "attrs": {"size": 0}}],
        1, "broadcast: attrs.size must be an int >= 1, got 0"),
    "abs_into_its_input": ([{"kind": "abs", "in": ["a"], "out": "a"}], 0,
                           "abs: output 'a' is read before it is written"),
    "later_op_writes_an_input": (
        [{"kind": "abs", "in": ["a"], "out": "c"},
         {"kind": "exp", "in": ["b"], "out": "a"}],
        1, "exp: output 'a' is read before it is written"),
}


@pytest.mark.parametrize("mode", ["static", "stream"])
@pytest.mark.parametrize("case", sorted(INVALID_OPS))
def test_invalid_op_is_a_parse_error(tmp_path, capsys, case, mode):
    ops, index, message = INVALID_OPS[case]
    doc = _graph(ops)
    if mode == "static":
        content, where = doc, f"op entry {index}"
    else:
        content, where = _trace(doc), f"trace event {len(doc['tensors']) + index}"
    code, captured = _run(_write(tmp_path, mode, content), mode, capsys)
    assert code == EXIT_PARSE_ERROR
    assert captured.err.startswith(f"error: {where}: {message}"), captured.err


# --- the other malformed inputs a hand probe found -----------------------------

PROBES = {
    "graph_top_level_list": ("static", [_graph([{"kind": "abs", "in": ["a"], "out": "c"}])],
                             "graph: "),
    "graph_op_without_in": ("static", _graph([{"kind": "abs", "out": "c"}]),
                            "op entry 0: missing 'in'"),
    "graph_data_too_short": (
        "static", _graph([{"kind": "abs", "in": ["a"], "out": "c"}],
                         [{**A, "data": [1.0, 2.0, 3.0]}]),
        "tensor entry 0: cannot reshape array of size 3 into shape (4,8)"),
    "graph_unknown_output_id": (
        "static", _graph([{"kind": "abs", "in": ["a"], "out": "c"}], outputs=["z"]),
        "graph: unknown output tensor 'z'"),
    "graph_unbound_symbol": (
        "static", _graph([{"kind": "abs", "in": ["a"], "out": "c"}], [{**A, "shape": ["n", 8]}]),
        "tensor entry 0: unbound symbolic dimension 'n'"),
    "graph_shape_is_a_string": (
        "static", _graph([{"kind": "abs", "in": ["a"], "out": "c"}], [{**A, "shape": "48"}]),
        "tensor entry 0: shape '48' is not a list"),
    "trace_non_integer_bind": (
        "stream", [{"event": "bind", "sym": "n", "value": 2.5}, {"event": "end"}],
        "trace event 0: symbol n=2.5: bindings must be integers >= 1"),
    "trace_data_too_short": (
        "stream", _trace(_graph([{"kind": "abs", "in": ["a"], "out": "c"}],
                                [{**A, "data": [1.0, 2.0, 3.0]}])),
        "trace event 0: cannot reshape array of size 3 into shape (4,8)"),
    "trace_shape_mismatch": (
        "stream", _trace(_graph([{"kind": "add", "in": ["a", "b"], "out": "c"}],
                                [A, {**B, "shape": [3, 8]}])),
        "trace event 2: op add: inputs do not unify"),
}


@pytest.mark.parametrize("case", sorted(PROBES))
def test_malformed_input_is_a_parse_error(tmp_path, capsys, case):
    mode, content, message = PROBES[case]
    code, captured = _run(_write(tmp_path, mode, content), mode, capsys)
    assert code == EXIT_PARSE_ERROR
    assert captured.err.startswith(f"error: {message}"), captured.err


@pytest.mark.parametrize("mode", ["static", "stream"])
def test_undecodable_file_is_a_parse_error(tmp_path, capsys, mode):
    path = tmp_path / "bad"
    path.write_bytes(b"\xff\xfe{}")
    code, captured = _run(str(path), mode, capsys)
    assert code == EXIT_PARSE_ERROR
    assert captured.err.startswith(f"error: cannot load {path}: ")


@pytest.mark.parametrize("mode", ["static", "stream"])
def test_declared_compound_output_keeps_its_declaration(tmp_path, capsys, mode):
    z = {"id": "z", "dtype": "f32", "shape": [4, 8]}
    doc = _graph([{"kind": "layernorm", "in": ["a"], "out": "z"}], [A, z])
    content = doc if mode == "static" else _trace(doc)
    code, captured = _run(_write(tmp_path, mode, content), mode, capsys)
    assert code == 0, captured.err
    assert "RESULT PASS" in captured.out


# --- strided inputs read through their strides ---------------------------------

STRIDED = {
    "row_padded": {"id": "a", "dtype": "f32", "shape": [4, 8], "strides": [16, 1], "seed": 1},
    "transposed": {"id": "a", "dtype": "f32", "shape": [8, 4], "strides": [1, 8], "seed": 1},
}


@pytest.mark.parametrize("mode", ["static", "stream"])
@pytest.mark.parametrize("case", sorted(STRIDED))
@pytest.mark.parametrize("kind", ["abs", "add"])
def test_strided_input_runs_correctly(tmp_path, capsys, kind, case, mode):
    a = STRIDED[case]
    b = {"id": "b", "dtype": "f32", "shape": a["shape"], "seed": 2}
    doc = _graph([{"kind": kind, "in": ["a", "b"][: 1 + (kind == "add")], "out": "c"}], [a, b])
    content = doc if mode == "static" else _trace(doc)
    code, captured = _run(_write(tmp_path, mode, content), mode, capsys)
    assert code == 0, captured.err
    assert "RESULT PASS" in captured.out


@pytest.mark.parametrize("mode", ["static", "stream"])
@pytest.mark.parametrize("strides", [[64, 1], [1, 32]])
def test_strided_chain_input_runs_correctly(tmp_path, capsys, strides, mode):
    # addmm's bias is loaded by the matmul's group, through its strides
    a, b = ({"id": t, "dtype": "f32", "shape": [32, 32], "seed": i} for i, t in enumerate("ab"))
    c = {"id": "c", "dtype": "f32", "shape": [32, 32], "strides": strides, "seed": 3}
    doc = _graph([{"kind": "addmm", "in": ["a", "b", "c"], "out": "y"}], [a, b, c])
    content = doc if mode == "static" else _trace(doc)
    code, captured = _run(_write(tmp_path, mode, content), mode, capsys)
    assert code == 0, captured.err
    assert "RESULT PASS" in captured.out


STRIDED_STORES = {  # y is stored transposed
    "vector": [{"kind": "abs", "in": ["a"], "out": "y"}],
    "cube": [{"kind": "matmul", "in": ["a", "b"], "out": "y"},
             {"kind": "matmul", "in": ["y", "b"], "out": "z"}],
}


@pytest.mark.parametrize("mode", ["static", "stream"])
@pytest.mark.parametrize("path", sorted(STRIDED_STORES))
def test_strided_stored_tensor_exits_4(tmp_path, capsys, path, mode):
    a, b = ({"id": t, "dtype": "f32", "shape": [32, 32], "seed": i} for i, t in enumerate("ab"))
    y = {"id": "y", "dtype": "f32", "shape": [32, 32], "strides": [1, 32]}
    doc = _graph(STRIDED_STORES[path], [a, b, y])
    content = doc if mode == "static" else _trace(doc)
    code, captured = _run(_write(tmp_path, mode, content), mode, capsys)
    assert code == EXIT_COMPILE_OR_RUN
    assert captured.err == "error: EncoderError: stored tensor y must be contiguous\n"


ALIASING = {  # shape, strides: two indices reach one element
    "zero_stride": ([4, 8], [0, 1]),
    "equal_strides": ([4, 8], [1, 1]),
    "overlapping_rows": ([4, 8], [4, 1]),
    "overlapping_transpose": ([8, 4], [1, 4]),
}


@pytest.mark.parametrize("mode", ["static", "stream"])
@pytest.mark.parametrize("case", sorted(ALIASING))
def test_aliasing_strides_are_a_parse_error(tmp_path, capsys, case, mode):
    shape, strides = ALIASING[case]
    a = {"id": "a", "dtype": "f32", "shape": shape, "strides": strides, "seed": 1}
    doc = _graph([{"kind": "abs", "in": ["a"], "out": "c"}], [a])
    content = doc if mode == "static" else _trace(doc)
    code, captured = _run(_write(tmp_path, mode, content), mode, capsys)
    assert code == EXIT_PARSE_ERROR
    where = "tensor entry 0" if mode == "static" else "trace event 0"
    assert captured.err.startswith(f"error: {where}: tensor a: strides {strides} may alias")


@pytest.mark.parametrize("mode", ["static", "stream"])
def test_produced_tensor_is_not_an_input(tmp_path, capsys, monkeypatch, mode):
    z = {"id": "z", "dtype": "f32", "shape": [4, 8], "data": [0.5] * 32}
    doc = _graph([{"kind": "abs", "in": ["a"], "out": "z"}], [A, z, B])
    content = doc if mode == "static" else _trace(doc)
    seen = []
    # a static run calls run_group per group, a stream replay run_groups per flush
    name, at = ("run_group", 4) if mode == "static" else ("run_groups", 3)
    original = getattr(cli, name)

    def capture(*args, **kwargs):
        seen.append(sorted(args[at]))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, capture)
    code, captured = _run(_write(tmp_path, mode, content), mode, capsys)
    assert code == 0, captured.err
    assert seen and all(keys == ["a", "b"] for keys in seen)


# --- mutations of small valid inputs -------------------------------------------

VALID_GRAPH = {
    "symbols": [{"name": "n", "value": 4}],
    "tensors": [
        {"id": "a", "dtype": "f32", "shape": ["n", 8], "seed": 1},
        {"id": "b", "dtype": "f32", "shape": [1, 8], "data": [0.5, -1, 2, 0, 1, 3, -2, 0.25]},
        {"id": "w", "dtype": "f32", "shape": [8, 16], "seed": 3},
    ],
    "ops": [
        {"kind": "add", "in": ["a", "b"], "out": "c"},
        {"kind": "adds", "in": ["c"], "out": "d", "attrs": {"scalar": 0.5}},
        {"kind": "cmp", "in": ["c", "d"], "out": "m", "attrs": {"cmp": "lt"}},
        {"kind": "sum", "in": ["d"], "out": "s"},
        {"kind": "broadcast", "in": ["s"], "out": "e", "attrs": {"size": 8}},
        {"kind": "matmul", "in": ["e", "w"], "out": "f"},
        {"kind": "cast", "in": ["f"], "out": "h", "attrs": {"dst_dtype": "f16"}},
        {"kind": "layernorm", "in": ["d"], "out": "ln"},
    ],
    "outputs": ["m", "h", "ln"],
}

VALID_TRACE = [
    {"event": "bind", "sym": "n", "value": 4},
    {"event": "tensor", "id": "a", "dtype": "f32", "shape": ["n", 8], "seed": 1},
    {"event": "tensor", "id": "b", "dtype": "f32", "shape": [1, 8],
     "data": [0.5, -1, 2, 0, 1, 3, -2, 0.25]},
    {"event": "op", "kind": "add", "in": ["a", "b"], "out": "c"},
    {"event": "op", "kind": "muls", "in": ["c"], "out": "d", "attrs": {"scalar": 2.0}},
    {"event": "host_read", "tensor": "d"},
    {"event": "branch", "taken": True},
    {"event": "op", "kind": "if_else_add", "in": ["d", "d"], "out": "z"},
    {"event": "op", "kind": "cmp", "in": ["z", "d"], "out": "m", "attrs": {"cmp": "ge"}},
    {"event": "op", "kind": "reduce_max", "in": ["z"], "out": "r"},
    {"event": "op", "kind": "broadcast", "in": ["r"], "out": "e", "attrs": {"size": 8}},
    {"event": "tensor", "id": "w", "dtype": "f32", "shape": [8, 16], "seed": 3},
    {"event": "op", "kind": "matmul", "in": ["e", "w"], "out": "f"},
    {"event": "op", "kind": "cast", "in": ["f"], "out": "h", "attrs": {"dst_dtype": "f16"}},
    {"event": "host_read", "tensor": "m"},
    {"event": "host_read", "tensor": "h"},
    {"event": "end"},
]

DTYPES = ["f16", "f32", "i32", "u8"]
_OTHER_VALUES = [None, True, -1, 0, 2.5, "", "x", "n", [], [1], {}, {"k": 1}]


def _locations(node):
    """Every (container, key) pair below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _locations(value)


def _entry_lists(doc):
    """The trace's event list, or a graph file's top-level lists."""
    if isinstance(doc, list):
        return [doc] if doc else []
    return [v for v in doc.values() if isinstance(v, list) and v]


@st.composite
def mutated(draw, base):
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 2))):
        spots = list(_locations(doc))
        how = draw(st.sampled_from(["drop", "retype", "dim", "dtype", "rename", "entries"]))
        if how in ("drop", "retype") and spots:
            node, key = draw(st.sampled_from(spots))
            if how == "drop":
                del node[key]
            else:
                others = [v for v in _OTHER_VALUES if type(v) is not type(node[key])]
                node[key] = draw(st.sampled_from(others))
        elif how == "dim":
            shapes = [n["shape"] for n, k in spots if k == "shape" and isinstance(n[k], list)]
            if shapes := [s for s in shapes if s]:
                shape = draw(st.sampled_from(shapes))
                shape[draw(st.integers(0, len(shape) - 1))] = draw(st.integers(1, 8))
        elif how == "dtype":
            # operands of mixed dtypes fail at compile time (exit 4), in a flush
            tensors = [n for n, k in spots if k == "dtype"]
            if tensors:
                draw(st.sampled_from(tensors))["dtype"] = draw(st.sampled_from(DTYPES))
        elif how == "rename":
            ids = sorted({n[k] for n, k in spots if isinstance(n[k], str) and len(n[k]) <= 2})
            if ids:
                old, new = draw(st.sampled_from(ids)), draw(st.sampled_from(ids + ["q"]))
                for n, k in spots:
                    if n[k] == old and draw(st.booleans()):
                        n[k] = new
        elif how == "entries" and _entry_lists(doc):
            items = draw(st.sampled_from(_entry_lists(doc)))
            i, j = (draw(st.integers(0, len(items) - 1)) for _ in range(2))
            action = draw(st.sampled_from(["duplicate", "drop", "swap"]))
            if action == "duplicate":
                items.insert(j, copy.deepcopy(items[i]))
            elif action == "drop":
                del items[i]
            else:
                items[i], items[j] = items[j], items[i]
    return doc


@pytest.mark.parametrize("mode", ["static", "stream"])
def test_valid_input_passes(tmp_path, capsys, mode):
    content = VALID_GRAPH if mode == "static" else VALID_TRACE
    code, captured = _run(_write(tmp_path, mode, content), mode, capsys)
    assert code == 0, captured.err
    assert "RESULT PASS" in captured.out


_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_SETTINGS
@given(doc=mutated(VALID_GRAPH))
def test_mutated_graph_file_ends_in_a_documented_exit(tmp_path, capsys, doc):
    _run(_write(tmp_path, "static", doc), "static", capsys)


@_SETTINGS
@given(events=mutated(VALID_TRACE))
def test_mutated_trace_ends_in_a_documented_exit(tmp_path, capsys, events):
    code, captured = _run(_write(tmp_path, "stream", events), "stream", capsys)
    named = re.match(r"error: trace event (\d+): ", captured.err)
    if code == EXIT_PARSE_ERROR and named:
        # the events before the named one parse, so a run error that a
        # flush raises is never reported as a parse error
        prefix = events[: int(named.group(1))]
        assert _run(_write(tmp_path, "stream", prefix), "stream", capsys)[0] != EXIT_PARSE_ERROR
