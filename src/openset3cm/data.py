"""Procedural point-cloud part-segmentation corpus and the open-set split.

Eight shape categories are assembled from a handful of parametric primitives
(sphere caps, cylinders, boxes, plane patches). Every primitive carries a
part label; labels are globally unique across categories, like a part
vocabulary shared by the whole corpus. Generation is a pure function of
(category, n_points, seed).

The open-set protocol merges all part labels of a chosen category subset
into one training label (the unknown cluster) and compacts the remaining
labels to a contiguous range; the recorded map is what later evaluation and
head surgery reason about.

Cloud files are read and written in one pass per file. `write_cloud`
formats the whole body with one ``%`` format. `read_cloud` makes one Python
loop over the point lines: each line is split once, its tokens converted by
Python's own ``float``/``int`` and checked as plain Python numbers (token
count, parse, finiteness, label range, in that order); NumPy is called only
when the finished lists become arrays. The first line that fails a check
raises, naming its own line number (counted from 1 at the header, as in the
file); trailing content and `LabeledCloud.validate` come after.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "LabeledCloud",
    "OpenSetDataset",
    "CATEGORIES",
    "N_PART_LABELS",
    "JITTER_STD",
    "generate_shape",
    "generate_corpus",
    "build_openset_split",
    "labels_for_categories",
    "augment_cloud",
    "read_cloud",
    "write_cloud",
    "write_corpus_dir",
    "load_corpus_dir",
]

JITTER_STD = 0.02


@dataclass
class LabeledCloud:
    """One shape: unit-sphere points, a part label per point, category id.

    ``seed`` records how the cloud was generated; clouds read back from a
    file carry seed -1 because the file format does not store it.
    """

    points: np.ndarray
    part_labels: np.ndarray
    category: int
    seed: int = -1

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def validate(self) -> None:
        if self.points.ndim != 2 or self.points.shape[1] != 3 or self.n_points < 1:
            raise ValueError(f"points must be N x 3 with N >= 1, got {self.points.shape}")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("non-finite coordinates")
        if self.part_labels.shape != (self.n_points,):
            raise ValueError("need exactly one part label per point")
        if self.part_labels.min() < 0 or self.part_labels.max() >= N_PART_LABELS:
            raise ValueError(f"part labels must lie in [0, {N_PART_LABELS})")
        # the coordinate bound first: past it the norm could overflow
        bound = 1.0 + 1e-9
        if np.abs(self.points).max() > bound or np.linalg.norm(self.points, axis=1).max() > bound:
            raise ValueError("points leave the unit sphere")


# ---------------------------------------------------------------------------
# primitive surface samplers; each returns (n, 3) points
# ---------------------------------------------------------------------------


def _cylinder(rng, n, center, radius, height, axis=2):
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    along = rng.uniform(-height / 2.0, height / 2.0, n)
    pts = np.empty((n, 3))
    if axis == 2:
        pts[:, 0], pts[:, 1], pts[:, 2] = radius * np.cos(theta), radius * np.sin(theta), along
    elif axis == 0:
        pts[:, 0], pts[:, 1], pts[:, 2] = along, radius * np.cos(theta), radius * np.sin(theta)
    else:
        pts[:, 0], pts[:, 1], pts[:, 2] = radius * np.cos(theta), along, radius * np.sin(theta)
    return pts + np.asarray(center)


def _sphere_cap(rng, n, center, radius, cos_min):
    # uniform over the cap z/r >= cos_min
    u = rng.uniform(cos_min, 1.0, n)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    s = np.sqrt(np.maximum(1.0 - u * u, 0.0))
    pts = np.column_stack([s * np.cos(theta), s * np.sin(theta), u]) * radius
    return pts + np.asarray(center)


def _box(rng, n, center, half):
    hx, hy, hz = half
    areas = np.array([hy * hz, hx * hz, hx * hy], dtype=float)
    face_axis = rng.choice(3, size=n, p=areas / areas.sum())
    side = rng.choice([-1.0, 1.0], size=n)
    uv = rng.uniform(-1.0, 1.0, (n, 2))
    pts = np.empty((n, 3))
    for ax in range(3):
        mask = face_axis == ax
        others = [a for a in range(3) if a != ax]
        pts[mask, ax] = side[mask] * half[ax]
        pts[mask, others[0]] = uv[mask, 0] * half[others[0]]
        pts[mask, others[1]] = uv[mask, 1] * half[others[1]]
    return pts + np.asarray(center)


def _patch(rng, n, center, half_x, half_y):
    pts = np.column_stack(
        [rng.uniform(-half_x, half_x, n), rng.uniform(-half_y, half_y, n), np.zeros(n)]
    )
    return pts + np.asarray(center)


def _four_corner(rng, n, sampler, dx, dy):
    corner = rng.integers(0, 4, n)
    pts = sampler(rng, n)
    pts[:, 0] += np.where(corner % 2 == 0, -dx, dx)
    pts[:, 1] += np.where(corner < 2, -dy, dy)
    return pts


# ---------------------------------------------------------------------------
# category registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartDef:
    label: int
    name: str
    weight: float
    sampler: Callable


@dataclass(frozen=True)
class CategoryDef:
    category: int
    name: str
    parts: tuple

    @property
    def part_labels(self) -> tuple:
        return tuple(p.label for p in self.parts)


def _registry() -> tuple:
    defs = []
    label = [0]

    def part(name, weight, sampler):
        p = PartDef(label[0], name, weight, sampler)
        label[0] += 1
        return p

    defs.append(
        CategoryDef(0, "lamp", (
            part("pole", 0.45, lambda rng, n: _cylinder(rng, n, (0, 0, -0.25), 0.06, 1.1)),
            part("shade", 0.55, lambda rng, n: _sphere_cap(rng, n, (0, 0, 0.35), 0.5, 0.15)),
        ))
    )
    defs.append(
        CategoryDef(1, "table", (
            part("top", 0.5, lambda rng, n: _box(rng, n, (0, 0, 0.45), (0.7, 0.5, 0.04))),
            part("legs", 0.5, lambda rng, n: _four_corner(
                rng, n, lambda r, m: _cylinder(r, m, (0, 0, -0.05), 0.05, 0.95), 0.6, 0.4)),
        ))
    )
    defs.append(
        CategoryDef(2, "mug", (
            part("body", 0.62, lambda rng, n: _cylinder(rng, n, (0, 0, 0), 0.42, 0.85)),
            part("bottom", 0.12, lambda rng, n: _patch(rng, n, (0, 0, -0.425), 0.4, 0.4)),
            part("handle", 0.26, lambda rng, n: _cylinder(rng, n, (0.58, 0, 0), 0.06, 0.6)),
        ))
    )
    defs.append(
        CategoryDef(3, "rocket", (
            part("body", 0.55, lambda rng, n: _cylinder(rng, n, (0, 0, -0.1), 0.25, 1.1)),
            part("nose", 0.25, lambda rng, n: _sphere_cap(rng, n, (0, 0, 0.32), 0.45, 0.4)),
            part("fins", 0.20, lambda rng, n: _four_corner(
                rng, n, lambda r, m: _box(r, m, (0, 0, -0.62), (0.3, 0.03, 0.16)), 0.12, 0.12)),
        ))
    )
    defs.append(
        CategoryDef(4, "chair", (
            part("seat", 0.4, lambda rng, n: _box(rng, n, (0, 0, 0.0), (0.45, 0.45, 0.05))),
            part("back", 0.35, lambda rng, n: _box(rng, n, (0, -0.45, 0.5), (0.45, 0.04, 0.45))),
            part("rails", 0.25, lambda rng, n: _four_corner(
                rng, n, lambda r, m: _cylinder(r, m, (0, 0, -0.45), 0.05, 0.8), 0.4, 0.4)),
        ))
    )
    defs.append(
        CategoryDef(5, "airplane", (
            part("fuselage", 0.45, lambda rng, n: _cylinder(rng, n, (0, 0, 0), 0.16, 1.5, axis=0)),
            part("wings", 0.38, lambda rng, n: _box(rng, n, (0.05, 0, 0), (0.16, 0.95, 0.02))),
            part("tail", 0.17, lambda rng, n: _box(rng, n, (-0.68, 0, 0.22), (0.12, 0.03, 0.22))),
        ))
    )
    defs.append(
        CategoryDef(6, "skateboard", (
            part("deck", 0.6, lambda rng, n: _box(rng, n, (0, 0, 0.12), (0.85, 0.26, 0.03))),
            part("wheels", 0.4, lambda rng, n: _four_corner(
                rng, n, lambda r, m: _cylinder(r, m, (0, 0, -0.02), 0.09, 0.08, axis=1), 0.55, 0.3)),
        ))
    )
    defs.append(
        CategoryDef(7, "umbrella", (
            part("canopy", 0.5, lambda rng, n: _sphere_cap(rng, n, (0, 0, 0.1), 0.75, 0.35)),
            part("pole", 0.3, lambda rng, n: _cylinder(rng, n, (0, 0, -0.15), 0.04, 1.3)),
            part("grip", 0.2, lambda rng, n: _cylinder(rng, n, (0.1, 0, -0.8), 0.05, 0.3, axis=0)),
        ))
    )
    return tuple(defs)


CATEGORIES: tuple = _registry()
N_PART_LABELS: int = sum(len(c.parts) for c in CATEGORIES)


def labels_for_categories(category_ids: Sequence[int]) -> frozenset:
    """All part labels owned by the given categories."""
    wanted = set(category_ids)
    unknown = set(wanted) - {c.category for c in CATEGORIES}
    if unknown:
        raise ValueError(f"unknown category ids: {sorted(unknown)}")
    return frozenset(
        lbl for c in CATEGORIES if c.category in wanted for lbl in c.part_labels
    )


def _allocate(weights: np.ndarray, total: int) -> np.ndarray:
    # every part gets at least one point; the rest follow the weights
    n_parts = weights.size
    counts = np.ones(n_parts, dtype=int)
    remaining = total - n_parts
    exact = weights / weights.sum() * remaining
    counts += exact.astype(int)
    short = total - counts.sum()
    order = np.argsort(-(exact - exact.astype(int)), kind="stable")
    counts[order[:short]] += 1
    return counts


def generate_shape(category: int, n_points: int, seed: int) -> LabeledCloud:
    """Sample one labeled shape; pure in (category, n_points, seed)."""
    matches = [c for c in CATEGORIES if c.category == category]
    if not matches:
        raise ValueError(f"unknown category id {category}")
    if n_points < 8:
        raise ValueError("need at least 8 points")
    cat = matches[0]
    rng = np.random.default_rng([seed, category, n_points])
    counts = _allocate(np.array([p.weight for p in cat.parts]), n_points)
    chunks, labels = [], []
    for part, count in zip(cat.parts, counts):
        chunks.append(part.sampler(rng, count))
        labels.append(np.full(count, part.label, dtype=np.int64))
    pts = np.vstack(chunks)
    pts = pts + rng.normal(0.0, JITTER_STD, pts.shape)
    pts = pts - pts.mean(axis=0)
    scale = np.linalg.norm(pts, axis=1).max()
    if scale > 0.0:
        pts = pts / scale
    cloud = LabeledCloud(pts, np.concatenate(labels), category, seed)
    cloud.validate()
    return cloud


def generate_corpus(
    shapes_per_category: int,
    n_points: int,
    seed: int,
    categories: Sequence[int] | None = None,
) -> list:
    """Deterministic corpus: shape i of a category uses a derived seed."""
    if shapes_per_category < 1:
        raise ValueError("need at least one shape per category")
    ids = [c.category for c in CATEGORIES] if categories is None else list(categories)
    return [
        generate_shape(cat, n_points, seed * 1_000_003 + i)
        for cat in ids
        for i in range(shapes_per_category)
    ]


def augment_cloud(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Train-time augmentation: up-axis rotation plus point jitter."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return points @ rot.T + rng.normal(0.0, JITTER_STD, points.shape)


# ---------------------------------------------------------------------------
# open-set split
# ---------------------------------------------------------------------------


@dataclass
class OpenSetDataset:
    """Phase-1 view of the corpus plus everything needed to undo it later.

    ``train``/``test`` carry remapped labels (known classes compacted,
    unknown sources merged into ``unknown_label``); ``train_source`` and
    ``test_source`` are the same clouds with original labels, revealed only
    after head surgery.
    """

    train: list
    test: list
    train_source: list
    test_source: list
    known_classes: tuple
    unknown_source_classes: tuple
    label_map: dict
    unknown_label: int

    @property
    def n_train_labels(self) -> int:
        return self.unknown_label + 1

    def phase2_column_manifest(self) -> list:
        """Original label owned by each post-surgery output column."""
        return list(self.known_classes) + list(self.unknown_source_classes)

    def phase2_label_map(self) -> dict:
        return {orig: col for col, orig in enumerate(self.phase2_column_manifest())}

    def phase2_label_lookup(self) -> np.ndarray:
        """`phase2_label_map` as an int64 array indexed by original label."""
        return _lookup_array(self.phase2_label_map())


def _lookup_array(mapping: dict) -> np.ndarray:
    """int64 array ``a`` with ``a[k] == mapping[k]`` for every (nonnegative)
    key and -1 elsewhere: ``a[labels]`` remaps a whole label array at once."""
    keys = np.fromiter(mapping.keys(), dtype=np.int64, count=len(mapping))
    out = np.full(int(keys.max()) + 1, -1, dtype=np.int64)
    out[keys] = np.fromiter(mapping.values(), dtype=np.int64, count=len(mapping))
    return out


def _deal_split(categories: Sequence[int], test_fraction: float = 0.2) -> list:
    """The split rule: (ordinal within category, is_test) per shape, in order.

    Within each category, shapes are dealt out in order with every
    round(1/test_fraction)-th one held out for test.
    """
    stride = int(round(1.0 / test_fraction))
    seen: dict = {}
    out = []
    for cat in categories:
        k = seen.get(cat, 0)
        seen[cat] = k + 1
        out.append((k, k % stride == stride - 1))
    return out


def build_openset_split(
    clouds: Sequence[LabeledCloud],
    unknown_source_classes,
    test_fraction: float = 0.2,
) -> OpenSetDataset:
    """Merge the chosen labels into one cluster and compact the rest.

    Coordinates are shared with the input clouds, never copied or touched;
    only label arrays are rebuilt. The train/test split follows
    `_deal_split`, the rule `write_corpus_dir` records in its manifest.
    """
    if not clouds:
        raise ValueError("empty corpus")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must sit strictly between 0 and 1")
    corpus_labels = np.concatenate([c.part_labels for c in clouds])
    if corpus_labels.size and corpus_labels.min() < 0:
        raise ValueError("part labels must be nonnegative")
    all_labels = np.flatnonzero(np.bincount(corpus_labels)).tolist()
    unknown = sorted(int(u) for u in unknown_source_classes)
    if not unknown:
        raise ValueError("unknown_source_classes must be nonempty")
    if not set(unknown) <= set(all_labels):
        raise ValueError("unknown_source_classes contains labels absent from the corpus")
    known = [l for l in all_labels if l not in set(unknown)]
    if not known:
        raise ValueError("unknown_source_classes must not cover every label")
    unknown_label = len(known)
    label_map = {orig: i for i, orig in enumerate(known)}
    label_map.update({orig: unknown_label for orig in unknown})

    deal = _deal_split([c.category for c in clouds], test_fraction)
    train_s = [c for c, (_, is_test) in zip(clouds, deal) if not is_test]
    test_s = [c for c, (_, is_test) in zip(clouds, deal) if is_test]

    lookup = _lookup_array(label_map)

    def remap(cloud: LabeledCloud) -> LabeledCloud:
        return LabeledCloud(cloud.points, lookup[cloud.part_labels], cloud.category, cloud.seed)

    return OpenSetDataset(
        train=[remap(c) for c in train_s],
        test=[remap(c) for c in test_s],
        train_source=train_s,
        test_source=test_s,
        known_classes=tuple(known),
        unknown_source_classes=tuple(unknown),
        label_map=label_map,
        unknown_label=unknown_label,
    )


# ---------------------------------------------------------------------------
# file format: "#pcd v1 n=<N> category=<id>", then one "x y z label" per line
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(r"^#pcd v1 n=(\d+) category=(\d+)$")


def _not_utf8(path) -> ValueError:
    """The error for a text file that failed to decode, naming ``path:line``
    of its first byte that is not UTF-8."""
    try:
        raw = Path(path).read_bytes()
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return ValueError(f"{path}:{line}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    except OSError:
        pass
    return ValueError(f"{path}: not UTF-8 text")


def write_cloud(cloud: LabeledCloud, path) -> None:
    cloud.validate()
    n = cloud.n_points
    row_major = [
        v for (x, y, z), lbl in zip(cloud.points.tolist(), cloud.part_labels.tolist())
        for v in (x, y, z, lbl)
    ]
    header = f"#pcd v1 n={n} category={cloud.category}\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "%.17g %.17g %.17g %d\n" * n % tuple(row_major))


def read_cloud(path) -> LabeledCloud:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not lines:
        raise ValueError(f"{path}:1: empty file")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise ValueError(f"{path}:1: bad header {lines[0]!r}")
    n, category = int(m.group(1)), int(m.group(2))
    if n < 1:
        raise ValueError(f"{path}:1: cloud must contain at least one point")
    if len(lines) - 1 < n:
        raise ValueError(f"{path}: expected {n} point lines, found {len(lines) - 1}")
    coords, labels = [], []
    for lineno, line in enumerate(lines[1 : n + 1], 2):
        tokens = line.split()
        if len(tokens) != 4:
            raise ValueError(f"{path}:{lineno}: expected 'x y z label', got {line!r}")
        try:
            x, y, z = float(tokens[0]), float(tokens[1]), float(tokens[2])
            label = int(tokens[3])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: unparsable numbers") from None
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError(f"{path}:{lineno}: non-finite coordinate")
        # the range check sees the Python int, so no label can overflow int64
        if not 0 <= label < N_PART_LABELS:
            raise ValueError(f"{path}:{lineno}: label {label} outside [0, {N_PART_LABELS})")
        coords += (x, y, z)
        labels.append(label)
    for extra in range(n + 1, len(lines)):
        if lines[extra].strip():
            raise ValueError(f"{path}:{extra + 1}: trailing content after {n} points")
    pts = np.array(coords, dtype=np.float64).reshape(n, 3)
    cloud = LabeledCloud(pts, np.array(labels, dtype=np.int64), category, seed=-1)
    try:
        cloud.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return cloud


def write_corpus_dir(clouds: Sequence[LabeledCloud], out_dir) -> None:
    """Write one file per cloud plus a manifest of path, category, split.

    The split column follows `_deal_split` at the default fraction, the
    rule `load_corpus_dir` checks it against.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for cloud, (k, is_test) in zip(clouds, _deal_split([c.category for c in clouds])):
        name = f"cat{cloud.category}_shape{k:04d}.pcd"
        write_cloud(cloud, out / name)
        rows.append(f"{name} {cloud.category} {'test' if is_test else 'train'}")
    (out / "manifest.txt").write_text("\n".join(rows) + "\n", encoding="utf-8")


def load_corpus_dir(corpus_dir) -> list:
    """Read every cloud named by the manifest, in manifest order.

    The manifest's split column must agree with the split rule
    (`_deal_split` at the default fraction), which `build_openset_split`
    applies to the loaded clouds; a disagreeing row raises ValueError.
    """
    root = Path(corpus_dir)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise ValueError(f"{manifest}: missing manifest")
    try:
        text = manifest.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(manifest) from None
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 3 or not tokens[1].isdecimal() or tokens[2] not in ("train", "test"):
            raise ValueError(f"{manifest}:{lineno}: expected 'path category split'")
        rows.append((lineno, tokens[0], int(tokens[1]), tokens[2]))
    if not rows:
        raise ValueError(f"{manifest}: no clouds listed")
    clouds = []
    rule = _deal_split([category for _, _, category, _ in rows])
    for (lineno, name, category, split), (_, is_test) in zip(rows, rule):
        if split != ("test" if is_test else "train"):
            raise ValueError(
                f"{manifest}:{lineno}: split {split!r} disagrees with the every-5th-is-test rule"
            )
        cloud = read_cloud(root / name)
        if cloud.category != category:
            raise ValueError(f"{manifest}:{lineno}: category mismatch with {name}")
        clouds.append(cloud)
    return clouds
