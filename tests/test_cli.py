import io
import json

import pytest

from tilevm.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    build_parser,
    main,
)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    if isinstance(doc, dict):
        path.write_text(json.dumps(doc))
    else:
        path.write_text(doc)
    return str(path)


def _run(args):
    parser = build_parser()
    ns = parser.parse_args(args)
    out = io.StringIO()
    code = ns.fn(ns, out=out)
    return code, out.getvalue()


GOLDEN_ADD = {
    "tensors": [
        {"id": "a", "dtype": "f16", "shape": [32, 1024], "seed": 1},
        {"id": "b", "dtype": "f16", "shape": [32, 1024], "seed": 2},
    ],
    "ops": [{"kind": "add", "in": ["a", "b"], "out": "c"}],
    "outputs": ["c"],
}


def test_run_worked_example_reports_tiling(tmp_path):
    path = _write(tmp_path, "g.json", GOLDEN_ADD)
    code, text = _run(["run", path, "--cores", "40", "--width", "32", "--check"])
    assert code == EXIT_OK
    assert "tile=832" in text and "tiles=40" in text and "tail=320" in text
    assert "RESULT PASS" in text


def test_tile_report_values(tmp_path):
    path = _write(tmp_path, "g.json", GOLDEN_ADD)
    code, text = _run(["tile", path])
    assert code == EXIT_OK
    assert "tile=832 tiles=40 tail=320 t_max=32768" in text
    assert "cost[832]=834" in text  # chosen size's modeled cost
    assert "cost[816]=" in text and "cost[848]=" in text


def test_fuse_report_addmm(tmp_path):
    doc = {
        "tensors": [
            {"id": "a", "dtype": "f32", "shape": [16, 16], "seed": 1},
            {"id": "b", "dtype": "f32", "shape": [16, 16], "seed": 2},
            {"id": "c", "dtype": "f32", "shape": [16, 16], "seed": 3},
        ],
        "ops": [{"kind": "addmm", "in": ["a", "b", "c"], "out": "out"}],
        "outputs": ["out"],
    }
    path = _write(tmp_path, "g.json", doc)
    code, text = _run(["fuse", path])
    assert code == EXIT_OK
    assert "cv-pattern{matmul,add}" in text


def test_disasm_single_op_program(tmp_path):
    doc = {
        "tensors": [
            {"id": "a", "dtype": "f32", "shape": [16], "seed": 1},
            {"id": "b", "dtype": "f32", "shape": [16], "seed": 2},
        ],
        "ops": [{"kind": "add", "in": ["a", "b"], "out": "c"}],
        "outputs": ["c"],
    }
    path = _write(tmp_path, "g.json", doc)
    code, text = _run(["disasm", path, "--cores", "2"])
    assert code == EXIT_OK
    lines = [l for l in text.splitlines() if l and not l.startswith((";", "block_"))]
    body = [l.split()[0] for l in lines]
    non_sync = [k for k in body if not k.startswith("Sync")]
    assert non_sync == ["Load", "Load", "Add", "Store"]
    assert "block_dim=2 body_tile=1 vmain.aiv" in text


def test_run_stream_fused_chain_trace(tmp_path):
    trace = "\n".join(
        json.dumps(ev)
        for ev in [
            {"event": "tensor", "id": "a", "dtype": "f32", "shape": [8, 16], "seed": 1},
            {"event": "tensor", "id": "b", "dtype": "f32", "shape": [8, 16], "seed": 2},
            {"event": "op", "kind": "add", "in": ["a", "b"], "out": "c"},
            {"event": "op", "kind": "sqrt", "in": ["c"], "out": "d"},
            {"event": "host_read", "tensor": "d"},
            {"event": "end"},
        ]
    )
    path = _write(tmp_path, "t.trace", trace)
    code, text = _run(["run", path, "--mode", "stream", "--check"])
    assert code == EXIT_OK
    assert "vv-pattern{add,sqrt}" in text
    assert "reason=host_read" in text
    assert "stores=d" in text
    assert "RESULT PASS" in text


def test_run_stream_incompatible_flush_stores_what_the_pending_op_reads(tmp_path):
    trace = "\n".join(
        json.dumps(ev)
        for ev in [
            {"event": "tensor", "id": "x", "dtype": "f32", "shape": [8, 16], "seed": 1},
            {"event": "tensor", "id": "w", "dtype": "f32", "shape": [16, 8], "seed": 2},
            {"event": "op", "kind": "abs", "in": ["x"], "out": "a"},
            {"event": "op", "kind": "sqrt", "in": ["a"], "out": "b"},
            {"event": "op", "kind": "matmul", "in": ["a", "w"], "out": "c"},
            {"event": "host_read", "tensor": "c"},
            {"event": "end"},
        ]
    )
    path = _write(tmp_path, "t.trace", trace)
    code, text = _run(["run", path, "--mode", "stream", "--check"])
    assert "reason=incompatible vv-pattern{abs,sqrt} stores=a,b" in text
    assert "RESULT PASS" in text
    assert code == EXIT_OK


@pytest.mark.parametrize("taken", [True, False])
def test_run_stream_if_else_add_both_branches(tmp_path, taken):
    trace = "\n".join(
        json.dumps(ev)
        for ev in [
            {"event": "tensor", "id": "x", "dtype": "f32", "shape": [4, 8], "seed": 1},
            {"event": "tensor", "id": "y", "dtype": "f32", "shape": [4, 8], "seed": 2},
            {"event": "branch", "taken": taken},
            {"event": "op", "kind": "if_else_add", "in": ["x", "y"], "out": "z"},
            {"event": "host_read", "tensor": "z"},
            {"event": "end"},
        ]
    )
    path = _write(tmp_path, "t.trace", trace)
    code, text = _run(["run", path, "--mode", "stream", "--check"])
    assert code == EXIT_OK
    assert "vv-pattern{muls,add}" in text
    assert "RESULT PASS" in text


def test_run_stream_dynamic_symbol_binding(tmp_path):
    trace = "\n".join(
        json.dumps(ev)
        for ev in [
            {"event": "bind", "sym": "b", "value": 4},
            {"event": "bind", "sym": "c", "value": 4},
            {"event": "tensor", "id": "A", "dtype": "f32", "shape": [1, 20], "seed": 1},
            {"event": "tensor", "id": "B", "dtype": "f32", "shape": ["b", 20], "seed": 2},
            {"event": "tensor", "id": "C", "dtype": "f32", "shape": ["c", 20], "seed": 3},
            {"event": "op", "kind": "add", "in": ["A", "B"], "out": "X"},
            {"event": "op", "kind": "add", "in": ["A", "C"], "out": "Y"},
            {"event": "end"},
        ]
    )
    path = _write(tmp_path, "t.trace", trace)
    code, text = _run(["run", path, "--mode", "stream", "--check"])
    assert code == EXIT_OK
    assert "vv-pattern{add,add}" in text


def test_bench_reports_stats(tmp_path):
    path = _write(tmp_path, "g.json", GOLDEN_ADD)
    code, text = _run(["bench", path])
    assert code == EXIT_OK
    assert "stat group=0 makespan=" in text
    assert "stat group=0 decode_hidden=" in text
    assert "stat group=0 bytes_moved=196608" in text
    assert "stat group=0 tiles=40" in text


def test_reports_are_deterministic(tmp_path):
    path = _write(tmp_path, "g.json", GOLDEN_ADD)
    _, a = _run(["run", path, "--check", "--seed", "7"])
    _, b = _run(["run", path, "--check", "--seed", "7"])
    assert a == b
    _, t1 = _run(["bench", path, "--seed", "7"])
    _, t2 = _run(["bench", path, "--seed", "7"])
    assert t1 == t2


def test_parse_error_exit_code(tmp_path):
    path = _write(tmp_path, "bad.json", "{not json")
    assert main(["run", path]) == EXIT_PARSE_ERROR
    missing = _write(tmp_path, "bad2.json", {"ops": [{"kind": "add"}]})
    assert main(["run", missing]) == EXIT_PARSE_ERROR


def test_infeasible_exit_code(tmp_path):
    path = _write(tmp_path, "g.json", GOLDEN_ADD)
    assert main(["run", path, "--local-mem", "16"]) == EXIT_INFEASIBLE


def test_unknown_op_is_parse_error(tmp_path):
    doc = {
        "tensors": [{"id": "a", "dtype": "f32", "shape": [4], "seed": 1}],
        "ops": [{"kind": "gelu", "in": ["a"], "out": "b"}],
    }
    path = _write(tmp_path, "g.json", doc)
    assert main(["run", path]) == EXIT_PARSE_ERROR


@pytest.mark.parametrize("taken", [True, False])
def test_run_static_if_else_add_compound(tmp_path, taken):
    doc = {
        "tensors": [
            {"id": "x", "dtype": "f32", "shape": [4, 8], "seed": 1},
            {"id": "y", "dtype": "f32", "shape": [4, 8], "seed": 2},
        ],
        "ops": [
            {
                "kind": "if_else_add",
                "in": ["x", "y"],
                "out": "z",
                "attrs": {"taken": taken},
            }
        ],
        "outputs": ["z"],
    }
    path = _write(tmp_path, "g.json", doc)
    code, text = _run(["run", path, "--check"])
    assert code == EXIT_OK
    assert "RESULT PASS" in text
