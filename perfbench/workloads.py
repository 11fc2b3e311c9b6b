"""Seeded request sets for the three benchmark workloads.

A request is one static graph (``vector_fused``, ``matmul_cube``) or one
``host_read`` round trip of a streamed trace (``stream_trace``).  Every draw
comes from the seed.  Shape dimensions are stratified across the request set
with a randomly shifted low-discrepancy sequence, so the mix of shapes, and
with it every percentile, moves little from seed to seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tilevm import graph as tgraph
from tilevm.graph import OperatorGraph, unify_shapes
from tilevm.isa import DType
from tilevm.oracle import NP_DTYPES


def _lattice(rng, n: int, dims: int) -> np.ndarray:
    """n points in [0, 1)^dims: a randomly shifted Kronecker (R_d) sequence.

    The points fill the cube far more evenly than independent draws, so the
    seed (which only picks the shift) moves the shape mix, and with it every
    percentile, much less than plain random sampling would.
    """
    phi = 2.0
    for _ in range(64):  # root of x**(dims + 1) = x + 1
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = np.array([phi ** -(i + 1) for i in range(dims)])
    return (np.outer(np.arange(n), alpha) + rng.random(dims)) % 1.0


def _scale(u, lo: int, hi: int, log: bool = False):
    """Map [0, 1) onto the integers lo..hi, uniformly or log-uniformly."""
    if log:
        vals = np.exp(np.log(lo) + u * (np.log(hi + 1) - np.log(lo)))
    else:
        vals = lo + u * (hi + 1 - lo)
    vals = np.clip(np.floor(vals), lo, hi).astype(int)
    return vals.tolist()


def _balanced(rng, n: int, choices) -> list:
    """Each choice equally often (up to rounding), in a seeded order."""
    idx = rng.permutation(np.resize(np.arange(len(choices)), n))
    return [choices[i] for i in idx]


def random_data(rng, shape, dtype: DType) -> np.ndarray:
    if dtype == DType.I32:
        return rng.integers(-50, 50, size=shape).astype(np.int32)
    return rng.uniform(-1.0, 1.0, size=shape).astype(NP_DTYPES[dtype])


@dataclass
class StaticRequest:
    """One graph; its input data is regenerated from ``data_seed`` per run."""

    graph: OperatorGraph
    data_seed: tuple[int, ...]

    def inputs(self) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(self.data_seed)
        g = self.graph
        return {
            tid: random_data(rng, g.resolved_shape(tid), g.tensors[tid].dtype)
            for tid in g.graph_input_ids()
        }


def _add_compound(g: OperatorGraph, kind: str, ins: list[str], out: str) -> None:
    # looked up on the module at call time, so a traced run sees the call
    metas, ops = tgraph.decompose(kind, [g.tensors[t] for t in ins], out)
    for meta in metas:
        g.add_tensor(meta)
    for op in ops:
        g.add_op(op)


# --- vector_fused ---------------------------------------------------------------

VECTOR_REQUESTS = 240
_BINARY = ["add", "sub", "mul", "div", "min", "max"]
_UNARY = ["sqrt", "abs", "exp", "log", "round", "floor", "isfinite"]


def _vector_chain(rng, rows: int, cols: int, dtype: DType, n_ops: int) -> OperatorGraph:
    """Random element-wise / broadcast / reduction chain over (rows, cols)."""
    g = OperatorGraph()
    pool: list[str] = []
    for i in range(int(rng.integers(2, 4))):
        shape = (rows, cols) if i == 0 or rng.random() > 0.25 else (1, cols)
        g.tensor(f"in{i}", dtype, shape)
        pool.append(f"in{i}")

    def pick() -> str:
        return pool[int(rng.integers(len(pool)))]

    def unified(*tids: str) -> tuple:
        shape = g.tensors[tids[0]].shape
        for tid in tids[1:]:
            shape = unify_shapes(shape, g.tensors[tid].shape)
        return shape

    for i in range(n_ops):
        out = f"t{i}"
        roll = rng.random()
        if roll < 0.40:
            a, b = pick(), pick()
            g.tensor(out, dtype, unified(a, b))
            g.op(_BINARY[int(rng.integers(len(_BINARY)))], [a, b], out)
        elif roll < 0.60:
            a = pick()
            g.tensor(out, dtype, g.tensors[a].shape)
            g.op(_UNARY[int(rng.integers(len(_UNARY)))], [a], out)
        elif roll < 0.72:
            a = pick()
            g.tensor(out, dtype, g.tensors[a].shape)
            kind = "adds" if rng.random() < 0.5 else "muls"
            g.op(kind, [a], out, scalar=float(rng.normal()))
        elif roll < 0.80:
            a, b = pick(), pick()
            g.tensor(out, dtype, unified(a, b))
            g.op("cmp", [a, b], out, cmp=int(rng.integers(0, 6)))
        elif roll < 0.90 and cols > 1:
            a = pick()
            g.tensor(out, dtype, g.tensors[a].shape[:-1] + (1,))
            g.op(["sum", "reduce_max", "reduce_min"][int(rng.integers(3))], [a], out)
        elif roll < 0.95:
            cond, a, b = pick(), pick(), pick()
            g.tensor(out, dtype, unified(cond, a, b))
            g.op("select", [cond, a, b], out)
        else:
            a = pick()
            shape = g.tensors[a].shape
            if shape[-1] == 1 and cols > 1:
                g.tensor(out, dtype, shape[:-1] + (cols,))
                g.op("broadcast", [a], out, size=cols)
            else:
                g.tensor(out, dtype, shape)
                g.op("abs", [a], out)
        pool.append(out)
    consumed = {t for op in g.ops for t in op.inputs}
    g.set_outputs([op.output for op in g.ops if op.output not in consumed])
    return g


def vector_fused(seed: int) -> list[StaticRequest]:
    """Chains up to 512x1024 (f32/f16/i32); a third are layernorms up to 2048 rows.

    Layernorm rows are spread evenly within each (hidden, dtype) cell, so the
    share of shapes in each cell's failing row range barely moves with the
    seed.
    """
    rng = np.random.default_rng([seed, 1])
    n = VECTOR_REQUESTS
    cells = [(h, dt) for h in (128, 256, 512) for dt in (DType.F32, DType.F16)]
    ln_cells = _balanced(rng, n // 3, cells)
    ln_rows = {c: iter(_scale(_lattice(rng, ln_cells.count(c), 1)[:, 0], 1, 2048)) for c in cells}
    layernorms = [(next(ln_rows[c]), *c) for c in ln_cells]
    n_chain = n - len(layernorms)
    shape = _lattice(rng, n_chain, 2)
    chains = zip(
        _scale(shape[:, 0], 1, 512),
        _scale(shape[:, 1], 1, 1024),
        _balanced(rng, n_chain, [DType.F32, DType.F16, DType.I32]),
        _balanced(rng, n_chain, list(range(1, 9))),
    )
    is_layernorm = _balanced(rng, n, [True, False, False])
    layernorms = iter(layernorms)
    requests = []
    for index, ln in enumerate(is_layernorm):
        if ln:
            rows, hidden, dtype = next(layernorms)
            g = OperatorGraph()
            g.tensor("x", dtype, (rows, hidden))
            _add_compound(g, "layernorm", ["x"], "out")
            g.set_outputs(["out"])
        else:
            rows, cols, dtype, n_ops = next(chains)
            g = _vector_chain(np.random.default_rng([seed, 2, index]), rows, cols, dtype, n_ops)
        requests.append(StaticRequest(g, (seed, 3, index)))
    return requests


# --- matmul_cube ----------------------------------------------------------------

MATMUL_REQUESTS = 200
_EPILOGUES = ["none", "none", "muls", "bias", "abs"]


def matmul_cube(seed: int) -> list[StaticRequest]:
    """1-8 independent matmul/addmm branches, m, n in 32-256, k in 32-1024."""
    rng = np.random.default_rng([seed, 4])
    n = MATMUL_REQUESTS
    branches = _balanced(rng, n, list(range(1, 9)))
    total = sum(branches)
    # a request's branches are consecutive lattice points, so each request
    # mixes shapes and request costs vary less than with independent draws
    shape = _lattice(rng, total, 3)
    ms = _scale(shape[:, 0], 32, 256, log=True)
    ns = _scale(shape[:, 1], 32, 256, log=True)
    ks = _scale(shape[:, 2], 32, 1024, log=True)
    addmm = _balanced(rng, total, [False, True])
    epilogue = _balanced(rng, total, _EPILOGUES)
    requests = []
    j = 0
    for index, count in enumerate(branches):
        g = OperatorGraph()
        outputs = []
        for b in range(count):
            m, k, nn = ms[j], ks[j], ns[j]
            a, w, out = f"a{b}", f"w{b}", f"o{b}"
            g.tensor(a, DType.F32, (m, k))
            g.tensor(w, DType.F32, (k, nn))
            if addmm[j]:
                g.tensor(f"c{b}", DType.F32, (m, nn))
                _add_compound(g, "addmm", [a, w, f"c{b}"], f"mm{b}")
            else:
                g.tensor(f"mm{b}", DType.F32, (m, nn))
                g.op("matmul", [a, w], f"mm{b}")
            last = f"mm{b}"
            if epilogue[j] != "none":
                g.tensor(out, DType.F32, (m, nn))
                if epilogue[j] == "muls":
                    g.op("muls", [last], out, scalar=0.5)
                elif epilogue[j] == "bias":
                    g.tensor(f"bias{b}", DType.F32, (1, nn))
                    g.op("add", [last, f"bias{b}"], out)
                else:
                    g.op("abs", [last], out)
                last = out
            outputs.append(last)
            j += 1
        g.set_outputs(outputs)
        requests.append(StaticRequest(g, (seed, 5, index)))
    return requests


# --- stream_trace ----------------------------------------------------------------

STREAM_MIN_OPS = 3000
_STREAM_BINARY = ["add", "sub", "mul", "max", "min"]
_LAYERNORM_OPS = 11  # basic ops of one decomposed layernorm


@dataclass
class StreamTrace:
    """A replayable event list; window i ends with the i-th host_read."""

    events: list[dict]
    reads: list[str] = field(default_factory=list)  # tensor read by each window
    basic_ops: int = 0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for ev in self.events:
                fh.write(json.dumps(ev) + "\n")

    def prefix(self, windows: int) -> "StreamTrace":
        """The events of the first ``windows`` windows, then ``end``."""
        reads_seen = 0
        for i, ev in enumerate(self.events):
            if ev["event"] == "host_read":
                reads_seen += 1
                if reads_seen == windows:
                    return StreamTrace(
                        self.events[: i + 1] + [{"event": "end"}],
                        self.reads[:windows],
                    )
        return self


def stream_trace(seed: int) -> StreamTrace:
    """Small-tensor chains with runtime binds, compounds and branches.

    Each chain starts with a ``bind`` of a fresh row symbol and its own input
    tensors; every op consumes the chain head, so the head is always a leaf
    (and therefore stored) when a flush happens.  A ``host_read`` of the head
    closes each window after 1-13 basic ops (7 on average).  Every sixth
    window starts a new chain, and so does every twentieth op when it falls
    inside a window: that chain shares no tensor with the open group, so the
    fuser flushes the group as incompatible.
    """
    rng = np.random.default_rng([seed, 6])
    trace = StreamTrace([])
    events = trace.events
    chain = {"head": "", "inputs": [], "cols": 1, "head_cols": 1}
    ids = {"s": 0, "x": 0, "y": 0}

    def fresh(prefix: str) -> str:
        ids[prefix] += 1
        return f"{prefix}{ids[prefix] - 1}"

    shapes = iter(_lattice(rng, 4 * STREAM_MIN_OPS, 3))  # far more than the chains used

    def start_chain() -> None:
        u_rows, u_cols, u_dtype = next(shapes)
        sym, cols = fresh("s"), 32 << int(u_cols * 3)  # 32 .. 128
        dtype = "f16" if u_dtype < 0.25 else "f32"
        events.append({"event": "bind", "sym": sym, "value": _scale(u_rows, 1, 16)})
        inputs = []
        for i in range(int(rng.integers(1, 3))):
            tid = fresh("x")
            shape = [sym, cols] if i == 0 or rng.random() < 0.7 else [1, cols]
            data_seed = int(rng.integers(1 << 30))
            events.append(
                {"event": "tensor", "id": tid, "dtype": dtype, "shape": shape, "seed": data_seed}
            )
            inputs.append(tid)
        chain.update(head=inputs[0], inputs=inputs, cols=cols, head_cols=cols)

    def op(kind: str, ins: list[str], **attrs) -> None:
        out = fresh("y")
        ev = {"event": "op", "kind": kind, "in": ins, "out": out}
        if attrs:
            ev["attrs"] = attrs
        events.append(ev)
        chain["head"] = out

    budgets = iter(_balanced(rng, STREAM_MIN_OPS, list(range(1, 14))))
    # op choices come from an evenly spread sequence, so every kind's share,
    # and with it the size mix of the fused groups, barely moves with the seed
    rolls = iter(_lattice(rng, 4 * STREAM_MIN_OPS, 1)[rng.permutation(4 * STREAM_MIN_OPS), 0])
    phase = int(rng.integers(6))
    ops = 0
    while trace.basic_ops < STREAM_MIN_OPS:
        if len(trace.reads) % 6 == phase or not chain["head"]:
            start_chain()
        budget, spent = next(budgets), 0
        while spent < budget:
            ops += 1
            if spent and ops % 20 == 0:
                start_chain()
            head, cols = chain["head"], chain["cols"]
            full = chain["head_cols"] == cols
            roll = next(rolls)
            if roll < 0.08 and full:
                op("layernorm", [head])
                spent += _LAYERNORM_OPS
                continue
            spent += 1
            if roll < 0.16 and full:
                events.append({"event": "branch", "taken": bool(rng.random() < 0.5)})
                # both operands are the head: op outputs carry resolved dims,
                # which decompose() cannot unify with a symbolic input
                op("if_else_add", [head, head])
                spent += 1
            elif roll < 0.24 and full:
                op(["sum", "reduce_max"][int(rng.integers(2))], [head])
                chain["head_cols"] = 1
            elif roll < 0.30 and not full:
                op("broadcast", [head], size=cols)
                chain["head_cols"] = cols
            elif roll < 0.45:
                scalar = round(float(rng.uniform(0.5, 1.5)), 3)
                op(["adds", "muls"][int(rng.integers(2))], [head], scalar=scalar)
            elif roll < 0.55:
                op("abs", [head])
            else:
                other = chain["inputs"][int(rng.integers(len(chain["inputs"])))]
                op(_STREAM_BINARY[int(rng.integers(len(_STREAM_BINARY)))], [head, other])
                chain["head_cols"] = cols
        trace.basic_ops += spent
        events.append({"event": "host_read", "tensor": chain["head"]})
        trace.reads.append(chain["head"])
    events.append({"event": "end"})
    return trace
