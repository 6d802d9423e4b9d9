"""Minimal reverse-mode autodiff over flat float64 arrays.

Every intermediate value is a TensorNode appended to a Tape in creation
order, which is already a valid topological order for the backward sweep.
Only the primitives needed by the encoder and the losses exist, and there
is no broadcasting beyond scalar-times-tensor; shape plumbing is explicit
(`reshape`, `repeat_rows`, `take_rows`, `narrow`).

Gradient buffers are allocated lazily during the backward sweep: a node
whose gradient is never written reads as zeros through the `grad`
property. Backward closures hand contributions to `_accum`, which takes
ownership of the array on first write; a closure may pass the incoming
gradient array itself to at most one parent (later in-place accumulation
into it only ever mutates buffers of nodes already swept).

Only leaves carry gradient: `Tape.leaf` makes a node that requires one,
`Tape.constant` one that does not, and a derived node requires one when
any parent does. Backward closures skip the contributions of parents that
need none (`_accum` drops them, and the products behind `linear`, `matmul`
and `multiply` are not computed), so a constant's `_grad` stays None and
its `grad` reads as zeros.

Lifetime: a tape holds its nodes (`Tape.nodes`), but a node holds its tape
only weakly, so the two never form a reference cycle. The caller keeps the
tape alive, in a local, while it builds and sweeps; once the last reference
to a tape goes, refcounting frees it at once, with every value and gradient
buffer that only its nodes still reached, and no cyclic collection is
needed. A node whose tape is gone raises ValueError when it is used in a
new primitive or sweep; its `values` and `grad` stay readable.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Callable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tape",
    "TensorNode",
    "add",
    "add_rowvec",
    "multiply",
    "matmul",
    "linear",
    "relu",
    "log",
    "exp",
    "sum_all",
    "max_reduce",
    "concat",
    "softmax",
    "reshape",
    "repeat_rows",
    "take_rows",
    "pick",
    "narrow",
    "backward",
    "gradient_check",
]


class ShapeError(ValueError):
    """Operand shapes do not line up for the requested primitive."""


class TensorNode:
    """One value in the compute graph.

    `values` is a flat float64 array of length prod(shape); `array` gives
    a shaped read view. Nodes are immutable after creation except for the
    gradient buffer, which the backward sweep fills. The node refers to its
    tape weakly (see the module docstring); `tape` raises ValueError once
    the tape has been dropped.
    """

    __slots__ = (
        "_tape_ref", "shape", "values", "_grad", "parents", "_backward", "requires_grad"
    )

    def __init__(
        self,
        tape: "Tape",
        shape: tuple[int, ...],
        values: np.ndarray,
        parents: tuple["TensorNode", ...] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
        requires_grad: bool | None = None,
    ):
        self._tape_ref = weakref.ref(tape)
        self.shape = shape
        self.values = values
        self._grad: np.ndarray | None = None
        self.parents = parents
        self._backward = backward_fn
        if requires_grad is None:  # derived: required when any parent's gradient is
            requires_grad = False
            for p in parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        tape.nodes.append(self)

    @property
    def tape(self) -> "Tape":
        tape = self._tape_ref()
        if tape is None:
            raise ValueError("node used after its tape was dropped; keep the Tape alive")
        return tape

    @property
    def array(self) -> np.ndarray:
        return self.values.reshape(self.shape)

    @property
    def grad(self) -> np.ndarray:
        """Flat d(output)/d(self) after backward; zeros when untouched."""
        if self._grad is None:
            self._grad = np.zeros(self.values.size)
        return self._grad

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on non-scalar node of shape {self.shape}")
        return float(self.values[0])


class Tape:
    """Creation-ordered node record; single-owner while building or sweeping."""

    def __init__(self):
        self.nodes: list[TensorNode] = []
        self._swept = False

    def leaf(self, values) -> TensorNode:
        arr = np.asarray(values, dtype=float)
        return TensorNode(self, arr.shape, arr.ravel().copy(), requires_grad=True)

    def constant(self, values) -> TensorNode:
        """Like `leaf`, but carries no gradient: backward never writes its grad."""
        arr = np.asarray(values, dtype=float)
        return TensorNode(self, arr.shape, arr.ravel().copy(), requires_grad=False)


def _accum(node: TensorNode, contrib: np.ndarray) -> None:
    if not node.requires_grad:
        return
    if node._grad is None:
        node._grad = contrib
    else:
        node._grad += contrib


def _same_tape(*nodes: TensorNode) -> Tape:
    tape = nodes[0].tape
    for n in nodes[1:]:
        if n.tape is not tape:
            raise ValueError("operands belong to different tapes")
    return tape


# ---------------------------------------------------------------------------
# forward primitives
# ---------------------------------------------------------------------------


def add(a: TensorNode, b: TensorNode) -> TensorNode:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    out = a.values + b.values

    def backward_fn(g: np.ndarray) -> None:
        _accum(a, g)
        _accum(b, g.copy())

    return TensorNode(tape, a.shape, out, (a, b), backward_fn)


def add_rowvec(x: TensorNode, b: TensorNode) -> TensorNode:
    """Add a (F,) vector to every row of a (N, F) node (explicit broadcast)."""
    tape = _same_tape(x, b)
    if len(x.shape) != 2 or b.shape != (x.shape[1],):
        raise ShapeError(f"add_rowvec: shapes {x.shape} and {b.shape}")
    out = x.array + b.array

    def backward_fn(g: np.ndarray) -> None:
        _accum(b, g.reshape(x.shape).sum(axis=0))
        _accum(x, g)

    return TensorNode(tape, x.shape, out.ravel(), (x, b), backward_fn)


def multiply(a: TensorNode, b) -> TensorNode:
    """Elementwise product; either operand may be a scalar (shape ()).

    A plain Python number as `b` is wrapped as a constant.
    """
    if not isinstance(b, TensorNode):
        b = a.tape.constant(float(b))
    tape = _same_tape(a, b)
    if a.shape == b.shape:
        out = a.values * b.values

        def backward_fn(g: np.ndarray) -> None:
            _accum(a, g * b.values)
            _accum(b, g * a.values)

        return TensorNode(tape, a.shape, out, (a, b), backward_fn)
    if a.shape == ():
        a, b = b, a  # normalize to tensor * scalar
    if b.shape != ():
        raise ShapeError(f"multiply: shapes {a.shape} and {b.shape} differ")
    out = a.values * b.values[0]

    def backward_fn(g: np.ndarray) -> None:
        _accum(a, g * b.values[0])
        if b.requires_grad:
            _accum(b, np.array([float(g @ a.values)]))

    return TensorNode(tape, a.shape, out, (a, b), backward_fn)


def matmul(a: TensorNode, b: TensorNode) -> TensorNode:
    tape = _same_tape(a, b)
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise ShapeError("matmul: both operands must be rank 2")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.shape} x {b.shape}")
    am, bm = a.array, b.array
    out = am @ bm

    def backward_fn(g: np.ndarray) -> None:
        gm = g.reshape(out.shape)
        if a.requires_grad:
            _accum(a, (gm @ bm.T).ravel())
        if b.requires_grad:
            _accum(b, (am.T @ gm).ravel())

    return TensorNode(tape, out.shape, out.ravel(), (a, b), backward_fn)


def linear(x: TensorNode, w: TensorNode, b: TensorNode) -> TensorNode:
    """Fused x @ w + b for (N, K) x, (K, F) w, (F,) b; one temp, one sweep."""
    tape = _same_tape(x, w, b)
    if len(x.shape) != 2 or len(w.shape) != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: inner dims {x.shape} x {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias shape {b.shape} vs width {w.shape[1]}")
    xm, wm = x.array, w.array
    out = xm @ wm
    out += b.array

    def backward_fn(g: np.ndarray) -> None:
        gm = g.reshape(out.shape)
        if b.requires_grad:
            _accum(b, gm.sum(axis=0))
        if x.requires_grad:
            _accum(x, (gm @ wm.T).ravel())
        if w.requires_grad:
            _accum(w, (xm.T @ gm).ravel())

    return TensorNode(tape, out.shape, out.ravel(), (x, w, b), backward_fn)


def relu(x: TensorNode) -> TensorNode:
    out = np.maximum(x.values, 0.0)

    def backward_fn(g: np.ndarray) -> None:
        _accum(x, g * (x.values > 0.0))

    return TensorNode(x.tape, x.shape, out, (x,), backward_fn)


def log(x: TensorNode, floor: float = 0.0) -> TensorNode:
    """Elementwise natural log of max(x, floor).

    Entries at or below the floor get zero gradient (the argument is
    constant there), which is what the loss code relies on.
    """
    arg = np.maximum(x.values, floor) if floor > 0.0 else x.values
    with np.errstate(invalid="ignore", divide="ignore"):  # nan/inf propagate to the caller
        out = np.log(arg)

    def backward_fn(g: np.ndarray) -> None:
        if floor > 0.0:
            _accum(x, np.where(x.values > floor, g / x.values, 0.0))
        else:
            with np.errstate(invalid="ignore", divide="ignore"):
                _accum(x, g / x.values)

    return TensorNode(x.tape, x.shape, out, (x,), backward_fn)


def exp(x: TensorNode) -> TensorNode:
    out = np.exp(x.values)

    def backward_fn(g: np.ndarray) -> None:
        _accum(x, g * out)

    return TensorNode(x.tape, x.shape, out, (x,), backward_fn)


def sum_all(x: TensorNode) -> TensorNode:
    out = np.array([x.values.sum()])

    def backward_fn(g: np.ndarray) -> None:
        _accum(x, np.full(x.values.size, g[0]))

    return TensorNode(x.tape, (), out, (x,), backward_fn)


def max_reduce(x: TensorNode, axis: int) -> TensorNode:
    """Max along one axis; gradient routes to the argmax (lowest index on ties)."""
    if not -len(x.shape) <= axis < len(x.shape):
        raise ShapeError(f"max_reduce: axis {axis} out of range for {x.shape}")
    axis = axis % len(x.shape)
    n = x.shape[axis]
    pre, post = math.prod(x.shape[:axis]), math.prod(x.shape[axis + 1 :])
    # one argmax pass (first occurrence = lowest index; NaN wins), then the
    # winners' flat indices in x.values serve both the gather and the scatter
    idx = x.values.reshape(pre, n, post).argmax(axis=1)
    flat = ((np.arange(pre)[:, None] * n + idx) * post + np.arange(post)).ravel()

    def backward_fn(g: np.ndarray) -> None:
        routed = np.zeros(x.values.size)
        routed[flat] = g
        _accum(x, routed)

    shape = x.shape[:axis] + x.shape[axis + 1 :]
    return TensorNode(x.tape, shape, x.values[flat], (x,), backward_fn)


def concat(parts: Sequence[TensorNode], axis: int) -> TensorNode:
    if not parts:
        raise ShapeError("concat: need at least one operand")
    parts = tuple(parts)
    tape = _same_tape(*parts)
    rank = len(parts[0].shape)
    if not -rank <= axis < rank:
        raise ShapeError(f"concat: axis {axis} out of range for rank {rank}")
    axis = axis % rank
    for p in parts[1:]:
        if len(p.shape) != rank or any(
            p.shape[d] != parts[0].shape[d] for d in range(rank) if d != axis
        ):
            raise ShapeError(f"concat: incompatible shapes {[q.shape for q in parts]}")
    out = np.concatenate([p.array for p in parts], axis=axis)
    splits = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def backward_fn(g: np.ndarray) -> None:
        for p, piece in zip(parts, np.split(g.reshape(out.shape), splits, axis=axis)):
            _accum(p, piece.ravel())  # ravel copies unless the split is contiguous

    return TensorNode(tape, out.shape, out.ravel(), parts, backward_fn)


def softmax(x: TensorNode, axis: int = -1) -> TensorNode:
    """Softmax along one axis, computed with max-subtraction."""
    if not -len(x.shape) <= axis < len(x.shape):
        raise ShapeError(f"softmax: axis {axis} out of range for {x.shape}")
    arr = x.array
    shifted = arr - arr.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g: np.ndarray) -> None:
        gp = g.reshape(x.shape)
        inner = (gp * p).sum(axis=axis, keepdims=True)
        _accum(x, (p * (gp - inner)).ravel())

    return TensorNode(x.tape, x.shape, p.ravel(), (x,), backward_fn)


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------


def reshape(x: TensorNode, shape: Sequence[int]) -> TensorNode:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.values.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")

    def backward_fn(g: np.ndarray) -> None:
        _accum(x, g)

    return TensorNode(x.tape, shape, x.values, (x,), backward_fn)


def repeat_rows(x: TensorNode, k: int) -> TensorNode:
    """Tile a (F,) row k times into (k, F), or expand (B, F) to (B*k, F)
    with each row repeated k times consecutively."""
    if k < 1:
        raise ShapeError("repeat_rows: k must be positive")
    if len(x.shape) == 1:
        out = np.tile(x.array, (k, 1))

        def backward_fn(g: np.ndarray) -> None:
            _accum(x, g.reshape(out.shape).sum(axis=0))

        return TensorNode(x.tape, out.shape, out.ravel(), (x,), backward_fn)
    if len(x.shape) == 2:
        b, f = x.shape
        out = np.repeat(x.array, k, axis=0)

        def backward_fn(g: np.ndarray) -> None:
            _accum(x, g.reshape(b, k, f).sum(axis=1).ravel())

        return TensorNode(x.tape, out.shape, out.ravel(), (x,), backward_fn)
    raise ShapeError(f"repeat_rows: rank {len(x.shape)} unsupported")


def take_rows(x: TensorNode, idx) -> TensorNode:
    if len(x.shape) != 2:
        raise ShapeError("take_rows: operand must be rank 2")
    idx = np.asarray(idx, dtype=int)
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError("take_rows: index must be a nonempty 1-D sequence")
    if idx.min() < 0 or idx.max() >= x.shape[0]:
        raise ShapeError(f"take_rows: index out of range for {x.shape[0]} rows")
    out = x.array[idx]

    def backward_fn(g: np.ndarray) -> None:
        # add.at handles repeated indices correctly
        np.add.at(x.grad.reshape(x.shape), idx, g.reshape(out.shape))

    return TensorNode(x.tape, out.shape, out.ravel(), (x,), backward_fn)


def pick(x: TensorNode, cols) -> TensorNode:
    """Gather one entry per row of a (N, C) node: out[i] = x[i, cols[i]]."""
    if len(x.shape) != 2:
        raise ShapeError("pick: operand must be rank 2")
    cols = np.asarray(cols, dtype=int)
    if cols.shape != (x.shape[0],):
        raise ShapeError(f"pick: need one column index per row, got {cols.shape}")
    if cols.min() < 0 or cols.max() >= x.shape[1]:
        raise ShapeError(f"pick: column index out of range for {x.shape[1]} columns")
    rows = np.arange(x.shape[0])
    out = x.array[rows, cols]

    def backward_fn(g: np.ndarray) -> None:
        np.add.at(x.grad.reshape(x.shape), (rows, cols), g)

    return TensorNode(x.tape, out.shape, out.copy(), (x,), backward_fn)


def narrow(x: TensorNode, start: int, length: int) -> TensorNode:
    """Contiguous slice of a 1-D node; used to carve parameter vectors.

    The value is a view of the operand's buffer, as with `reshape`: node
    values are never written after creation.
    """
    if len(x.shape) != 1:
        raise ShapeError("narrow: operand must be rank 1")
    if start < 0 or length < 1 or start + length > x.shape[0]:
        raise ShapeError(f"narrow: [{start}, {start + length}) outside length {x.shape[0]}")
    out = x.values[start : start + length]

    def backward_fn(g: np.ndarray) -> None:
        x.grad[start : start + length] += g

    return TensorNode(x.tape, (length,), out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# backward sweep and gradient checking
# ---------------------------------------------------------------------------


def backward(tape: Tape, output: TensorNode) -> None:
    """Fill grads of every node on the tape with d(output)/d(node).

    Repeated calls restart from zero rather than accumulating. Nodes the
    output does not depend on, and nodes that require no gradient, keep
    zero gradients and are skipped.
    """
    if output.tape is not tape:
        raise ValueError("output node does not belong to this tape")
    if output.shape != ():
        raise ValueError(f"backward: output must be scalar, got shape {output.shape}")
    if tape._swept:
        for node in tape.nodes:
            node._grad = None
    tape._swept = True
    output._grad = np.ones(1)
    for node in reversed(tape.nodes):
        if node._backward is not None and node._grad is not None and node.requires_grad:
            node._backward(node._grad)


def gradient_check(
    build: Callable[[Tape, TensorNode], TensorNode],
    params,
    h: float = 1e-5,
) -> float:
    """Compare backward gradients against central finite differences.

    `build(tape, leaf)` must deterministically produce a scalar node from
    the 1-D parameter leaf. Returns the max over coordinates of
    |analytic - numeric| / max(1, |numeric|).
    """
    if h <= 0.0:
        raise ValueError("gradient_check: h must be positive")
    base = np.asarray(params, dtype=float).ravel().copy()

    tape = Tape()
    leaf = tape.leaf(base)
    out = build(tape, leaf)
    if out.shape != ():
        raise ValueError("gradient_check: build must return a scalar node")
    if not math.isfinite(out.values[0]):
        raise FloatingPointError("gradient_check: non-finite value at base point")
    backward(tape, out)
    analytic = leaf.grad.copy()

    def probe(vec: np.ndarray) -> float:
        t = Tape()
        val = build(t, t.leaf(vec)).item()
        if not math.isfinite(val):
            raise FloatingPointError("gradient_check: non-finite value while probing")
        return val

    worst = 0.0
    for i in range(base.size):
        bump = np.zeros_like(base)
        bump[i] = h
        numeric = (probe(base + bump) - probe(base - bump)) / (2.0 * h)
        rel = abs(analytic[i] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, rel)
    return worst
