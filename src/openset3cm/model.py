"""Toy point-cloud encoder and heads.

A shared per-point MLP lifts xyz coordinates to F-dimensional features,
a global feature is the elementwise max over points, and the
segmentation head scores each point from the concatenated
[per-point | global] feature pair. A classification head scores the
cloud from the global feature alone.

The public ops (`encode`, `segment_logits`, `classify_logits`) are the
evaluation path and compute head outputs one column at a time: a BLAS
matrix product couples output columns through kernel blocking, so a
single-GEMM head would not preserve retained columns bit-exactly across
head surgery. Training uses the tape builder below, where the head is
one fused product per block for speed; no contract compares logits
across the two paths.

All parameters live in one flat float64 buffer, `ModelParams.flat`, and
the named arrays are views into it. A training step puts the buffer on
the tape as one leaf, carves it into per-tensor nodes with
`nodes_from_vector`, and updates it with one vector SGD step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .data import _not_utf8

__all__ = [
    "ModelParams",
    "init_params",
    "encode",
    "segment_logits",
    "classify_logits",
    "expand_head",
    "save_params",
    "load_params",
    "ParamNodes",
    "params_vector",
    "nodes_from_vector",
    "build_seg_logits",
]

DEFAULT_HIDDEN = (32, 64)
DEFAULT_INIT_STD = 0.1


@dataclass
class ModelParams:
    """Encoder and head weights, packed into one float64 buffer.

    Construction copies the given arrays into ``flat`` in `_tensor_names`
    order and rebinds every field to a view of it, so SGD updates all of
    them with one in-place vector step on ``flat``. The views must be
    updated in place (``params.seg_w[...] = x``), never rebound: a rebound
    array no longer shares ``flat`` and training would not see it.
    """

    mlp_w: list[np.ndarray]
    mlp_b: list[np.ndarray]
    seg_w: np.ndarray  # (2F, C)
    seg_b: np.ndarray  # (C,)
    cls_w: np.ndarray  # (F, C)
    cls_b: np.ndarray  # (C,)
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.mlp_w) != len(self.mlp_b):
            raise ValueError("mlp layer lists are unbalanced")
        arrays = [np.asarray(arr, dtype=float) for _, arr in _tensor_names(self)]
        self.flat = np.empty(sum(arr.size for arr in arrays))
        views, cursor = [], 0
        for arr in arrays:
            view = self.flat[cursor : cursor + arr.size].reshape(arr.shape)
            view[...] = arr
            views.append(view)
            cursor += arr.size
        n = 2 * len(self.mlp_w)
        self.mlp_w, self.mlp_b = views[0:n:2], views[1:n:2]
        self.seg_w, self.seg_b, self.cls_w, self.cls_b = views[n:]

    @property
    def feature_dim(self) -> int:
        return self.mlp_w[-1].shape[1]

    @property
    def n_classes(self) -> int:
        return self.seg_w.shape[1]

    @property
    def in_dim(self) -> int:
        return self.mlp_w[0].shape[0]

    def validate(self) -> None:
        if not self.mlp_w or len(self.mlp_w) != len(self.mlp_b):
            raise ValueError("mlp layer lists are empty or unbalanced")
        width = self.mlp_w[0].shape[0]
        for w, b in zip(self.mlp_w, self.mlp_b):
            if w.ndim != 2 or w.shape[0] != width or b.shape != (w.shape[1],):
                raise ValueError(f"mlp layer chain broken at {w.shape} / {b.shape}")
            width = w.shape[1]
        f = width
        if self.seg_w.shape != (2 * f, self.seg_b.size):
            raise ValueError(f"segmentation head {self.seg_w.shape} does not fit 2F={2 * f}")
        if self.cls_w.shape != (f, self.cls_b.size):
            raise ValueError(f"classification head {self.cls_w.shape} does not fit F={f}")
        if self.seg_w.shape[1] != self.cls_w.shape[1]:
            raise ValueError("segmentation and classification heads disagree on C")
        for arr in self.all_arrays():
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite parameter values")

    def all_arrays(self) -> list[np.ndarray]:
        return [*self.mlp_w, *self.mlp_b, self.seg_w, self.seg_b, self.cls_w, self.cls_b]

    def copy(self) -> "ModelParams":
        return replace(self)  # construction packs a fresh buffer


def init_params(
    n_classes: int,
    seed: int,
    in_dim: int = 3,
    hidden: tuple[int, ...] = DEFAULT_HIDDEN,
    std: float = DEFAULT_INIT_STD,
) -> ModelParams:
    """Seeded Gaussian weights (std 0.1 by default), zero biases.

    Draw order is fixed (mlp layers, then seg head, then cls head) so a
    seed pins every parameter.
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    mlp_w, mlp_b = [], []
    width = in_dim
    for h in hidden:
        mlp_w.append(rng.normal(0.0, std, (width, h)))
        mlp_b.append(np.zeros(h))
        width = h
    params = ModelParams(
        mlp_w=mlp_w,
        mlp_b=mlp_b,
        seg_w=rng.normal(0.0, std, (2 * width, n_classes)),
        seg_b=np.zeros(n_classes),
        cls_w=rng.normal(0.0, std, (width, n_classes)),
        cls_b=np.zeros(n_classes),
    )
    params.validate()
    return params


def _check_cloud(cloud) -> np.ndarray:
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError(f"cloud must be N x d with N >= 1, got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("cloud has non-finite coordinates")
    return pts


def encode(cloud, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-point features (N, F) and the max-pooled global feature (F,)."""
    pts = _check_cloud(cloud)
    if pts.shape[1] != params.in_dim:
        raise ValueError(f"cloud dim {pts.shape[1]} vs encoder input {params.in_dim}")
    h = pts
    for w, b in zip(params.mlp_w, params.mlp_b):
        h = np.maximum(h @ w + b, 0.0)
    return h, h.max(axis=0)


def _head_per_column(feats: np.ndarray, glob: np.ndarray, w: np.ndarray, b: np.ndarray):
    # per-column, per-row reduction: each logit depends only on its own row
    # and its own column of w, so results survive both point permutation and
    # head-column surgery bit-for-bit (a blas gemm/gemv would round remainder
    # rows differently depending on position)
    f = feats.shape[1]
    out = np.empty((feats.shape[0], w.shape[1]))
    for c in range(w.shape[1]):
        out[:, c] = np.sum(feats * w[:f, c], axis=1) + (glob @ w[f:, c] + b[c])
    return out


def segment_logits(cloud, params: ModelParams) -> np.ndarray:
    """Per-point logits (N, C); row i sees point i's feature and the global max."""
    feats, glob = encode(cloud, params)
    return _head_per_column(feats, glob, params.seg_w, params.seg_b)


def classify_logits(cloud, params: ModelParams) -> np.ndarray:
    """Cloud-level logits (C,) from the global feature only."""
    _, glob = encode(cloud, params)
    out = np.empty(params.cls_w.shape[1])
    for c in range(params.cls_w.shape[1]):
        out[c] = glob @ params.cls_w[:, c] + params.cls_b[c]
    return out


def expand_head(
    params: ModelParams,
    remove_col: int,
    add_k: int,
    init_scale: float = DEFAULT_INIT_STD,
    seed: int = 0,
) -> ModelParams:
    """Drop one output column and append add_k fresh Gaussian ones.

    Retained columns (weights and biases, both heads) are copied
    bit-exactly; new-column draw order is seg head then cls head.
    """
    c_old = params.n_classes
    if not 0 <= remove_col < c_old:
        raise ValueError(f"remove_col {remove_col} out of range for C={c_old}")
    if add_k < 1:
        raise ValueError("add_k must be >= 1")
    rng = np.random.default_rng(seed)
    keep = [c for c in range(c_old) if c != remove_col]
    new = ModelParams(
        mlp_w=params.mlp_w,
        mlp_b=params.mlp_b,
        seg_w=np.concatenate(
            [params.seg_w[:, keep], rng.normal(0.0, init_scale, (params.seg_w.shape[0], add_k))],
            axis=1,
        ),
        seg_b=np.concatenate([params.seg_b[keep], rng.normal(0.0, init_scale, add_k)]),
        cls_w=np.concatenate(
            [params.cls_w[:, keep], rng.normal(0.0, init_scale, (params.cls_w.shape[0], add_k))],
            axis=1,
        ),
        cls_b=np.concatenate([params.cls_b[keep], rng.normal(0.0, init_scale, add_k)]),
    )
    new.validate()
    return new


# ---------------------------------------------------------------------------
# checkpoint format: flat text, 17 significant digits, bit-exact round-trip
# ---------------------------------------------------------------------------

_CKPT_HEADER = "#params v1"


def _tensor_names(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    named = []
    for i, (w, b) in enumerate(zip(params.mlp_w, params.mlp_b)):
        named.append((f"mlp_w{i}", w))
        named.append((f"mlp_b{i}", b))
    named.append(("seg_w", params.seg_w))
    named.append(("seg_b", params.seg_b))
    named.append(("cls_w", params.cls_w))
    named.append(("cls_b", params.cls_b))
    return named


def save_params(params: ModelParams, path) -> None:
    params.validate()
    lines = [_CKPT_HEADER, f"layers {len(params.mlp_w)}"]
    for name, arr in _tensor_names(params):
        shape = " ".join(str(s) for s in arr.shape)
        lines.append(f"tensor {name} {shape}")
        mat = arr.reshape(arr.shape[0], -1) if arr.ndim == 2 else arr.reshape(1, -1)
        for row in mat:
            lines.append(" ".join(f"{v:.17g}" for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path) -> ModelParams:
    """Read a checkpoint written by `save_params`.

    A malformed or truncated file raises ValueError naming ``path:line``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not lines or lines[0] != _CKPT_HEADER:
        raise ValueError(f"{path}:1: not a v1 parameter checkpoint")
    head = lines[1].split() if len(lines) > 1 else []
    if len(head) != 2 or head[0] != "layers" or not head[1].isdecimal():
        raise ValueError(f"{path}:2: missing layer count")
    n_layers = int(head[1])
    tensors: dict[str, np.ndarray] = {}
    i = 2
    while i < len(lines):
        if not lines[i]:
            i += 1
            continue
        head = lines[i].split()
        if head[:1] != ["tensor"] or len(head) not in (3, 4) or not all(
            tok.isdecimal() for tok in head[2:]
        ):
            raise ValueError(f"{path}:{i + 1}: expected a tensor block")
        name, shape = head[1], tuple(int(s) for s in head[2:])
        n_rows, n_cols = shape if len(shape) == 2 else (1, shape[0])
        rows = []
        for r in range(n_rows):
            at = i + 1 + r
            if at >= len(lines):
                raise ValueError(
                    f"{path}:{at + 1}: file ends inside tensor {name} ({r} of {n_rows} rows)"
                )
            try:
                row = [float(tok) for tok in lines[at].split()]
            except ValueError:
                raise ValueError(f"{path}:{at + 1}: non-numeric value in tensor {name}") from None
            if len(row) != n_cols:
                raise ValueError(
                    f"{path}:{at + 1}: tensor {name} row has {len(row)} values, expected {n_cols}"
                )
            rows.append(row)
        tensors[name] = np.array(rows).reshape(shape)
        i += 1 + n_rows
    expected = [f"{kind}{j}" for j in range(n_layers) for kind in ("mlp_w", "mlp_b")]
    for name in (*expected, "seg_w", "seg_b", "cls_w", "cls_b"):
        if name not in tensors:
            raise ValueError(f"{path}:{len(lines) + 1}: missing tensor {name}")
    params = ModelParams(
        mlp_w=[tensors[f"mlp_w{j}"] for j in range(n_layers)],
        mlp_b=[tensors[f"mlp_b{j}"] for j in range(n_layers)],
        seg_w=tensors["seg_w"],
        seg_b=tensors["seg_b"],
        cls_w=tensors["cls_w"],
        cls_b=tensors["cls_b"],
    )
    try:
        params.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return params


# ---------------------------------------------------------------------------
# tape-side builders (training path)
# ---------------------------------------------------------------------------


@dataclass
class ParamNodes:
    """Tape nodes for the trained tensors, carved from one parameter leaf.

    The segmentation head's weight comes in its two (F, C) halves: ``seg_top``
    scores per-point features, ``seg_bottom`` the pooled global feature.
    """

    mlp_w: list[ad.TensorNode]
    mlp_b: list[ad.TensorNode]
    seg_top: ad.TensorNode
    seg_bottom: ad.TensorNode
    seg_b: ad.TensorNode


def params_vector(params: ModelParams) -> np.ndarray:
    """A copy of all parameters in the fixed layer order (the layout of ``flat``)."""
    return params.flat.copy()


def nodes_from_vector(tape: ad.Tape, leaf: ad.TensorNode, template: ModelParams) -> ParamNodes:
    """Carve a flat parameter leaf laid out like ``template.flat`` into ParamNodes.

    The classification head is not carved: it never enters the training
    graph, so its slice of the leaf's gradient stays zero and an SGD step
    leaves it bit-unchanged.
    """
    if leaf.shape != template.flat.shape:
        raise ad.ShapeError(f"parameter leaf {leaf.shape} vs layout {template.flat.shape}")
    cursor = 0

    def carve(shape):
        nonlocal cursor
        size = math.prod(shape)
        node = ad.narrow(leaf, cursor, size)
        cursor += size
        return ad.reshape(node, shape) if len(shape) == 2 else node

    mlp_w, mlp_b = [], []
    for w, b in zip(template.mlp_w, template.mlp_b):
        mlp_w.append(carve(w.shape))
        mlp_b.append(carve(b.shape))
    half = (template.feature_dim, template.n_classes)
    seg_top = carve(half)
    seg_bottom = carve(half)
    seg_b = carve(template.seg_b.shape)
    return ParamNodes(mlp_w, mlp_b, seg_top, seg_bottom, seg_b)


def build_seg_logits(
    tape: ad.Tape,
    nodes: ParamNodes,
    points: ad.TensorNode,
    batch: int,
    n_points: int,
) -> ad.TensorNode:
    """Segmentation logits for `batch` stacked clouds of `n_points` each.

    `points` is (batch * n_points, 3). The head over [per-point | global]
    is computed blockwise: the top half of seg_w hits per-point features,
    the bottom half hits the per-cloud max feature (repeated per point).
    """
    h = points
    for w, b in zip(nodes.mlp_w, nodes.mlp_b):
        h = ad.relu(ad.linear(h, w, b))
    per_cloud = ad.max_reduce(ad.reshape(h, (batch, n_points, h.shape[1])), axis=1)
    global_part = ad.repeat_rows(ad.matmul(per_cloud, nodes.seg_bottom), n_points)
    return ad.add_rowvec(ad.add(ad.matmul(h, nodes.seg_top), global_part), nodes.seg_b)
