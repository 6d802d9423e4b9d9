"""Output checks, computed independently of the program's own code paths.

Each check returns a list of problems; an empty list means the output
passed. The only program object used is the category registry
(`data.CATEGORIES`), which defines the corpus the checks reason about, and
`data.generate_corpus` as the in-memory reference a written corpus must
reproduce bit for bit.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

SIGNS = {"maximize_cmi": -1.0, "literal_eq8": 1.0}
TEST_STRIDE = 5  # every 5th shape of a category is held out for test


def split_sizes(shapes_per_category: int, n_categories: int) -> tuple[int, int]:
    """(n_train, n_test) of a generated corpus."""
    n_test = n_categories * (shapes_per_category // TEST_STRIDE)
    return n_categories * shapes_per_category - n_test, n_test


def hidden_labels(categories, unknown_categories) -> list[int]:
    return sorted(l for c in categories if c.category in set(unknown_categories) for l in c.part_labels)


def known_labels(categories, unknown_categories) -> list[int]:
    hidden = set(hidden_labels(categories, unknown_categories))
    return sorted(l for c in categories for l in c.part_labels if l not in hidden)


# ---------------------------------------------------------------------------
# openset run record
# ---------------------------------------------------------------------------


def check_openset_record(record: dict, categories) -> list[str]:
    cfg = record["config"]
    problems = []
    if record["status"] == "diverged":
        return [f"run diverged after {len(record['total'])} steps"]
    n_train, n_test = split_sizes(cfg["shapes_per_category"], len(categories))
    per_epoch = n_train // cfg["batch"]
    want = {1: cfg["epochs_phase1"] * per_epoch, 2: cfg["epochs_phase2"] * per_epoch}
    phases = record["phase"]
    for phase, n in want.items():
        got = sum(1 for p in phases if p == phase)
        if got != n:
            problems.append(f"phase {phase}: {got} steps, want {n}")
    if not len(record["ce"]) == len(record["l3cm"]) == len(record["total"]) == len(phases):
        problems.append("loss series differ in length")
        return problems

    sign = SIGNS[cfg["sign_mode"]]
    weight = {1: cfg["lambda_"], 2: cfg["lambda_"] if cfg["phase2_l3cm"] else 0.0}
    for i, (phase, ce, l3, total) in enumerate(
        zip(phases, record["ce"], record["l3cm"], record["total"])
    ):
        want_total = ce + sign * weight[phase] * l3
        if abs(total - want_total) > 1e-12 * max(abs(want_total), 1e-300):
            problems.append(f"step {i}: total {total!r} != ce + sign*lambda*l3cm = {want_total!r}")
            break
        if not l3 >= 0.0:
            problems.append(f"step {i}: l3cm {l3!r} < 0")
            break

    ce1 = [c for p, c in zip(phases, record["ce"]) if p == 1]
    if per_epoch and len(ce1) >= 2 * per_epoch:
        first = math.fsum(ce1[:per_epoch]) / per_epoch
        last = math.fsum(ce1[-per_epoch:]) / per_epoch
        if not last < first:
            problems.append(f"phase-1 mean CE did not fall: first epoch {first}, last {last}")

    unknown = cfg["unknown_categories"]
    known, hidden = known_labels(categories, unknown), hidden_labels(categories, unknown)
    q = np.asarray(record["final_q_hat"], dtype=float)
    if q.shape != (len(known) + 1,) or np.any(q < 0.0) or abs(math.fsum(q) - 1.0) > 1e-9:
        problems.append(f"final_q_hat is not a distribution over {len(known) + 1} labels")
    if record["column_manifest"] != known + hidden:
        problems.append("column manifest is not sorted known labels then sorted hidden labels")
    for key in ("pre_report", "post_report"):
        report = record[key]
        if report is None:
            problems.append(f"{key} missing")
            continue
        counted = sum(report["category_counts"].values())
        if counted != n_test or report["n_shapes"] != n_test:
            problems.append(f"{key}: {counted} shapes counted, test split has {n_test}")
    return problems


# ---------------------------------------------------------------------------
# sweep table
# ---------------------------------------------------------------------------


def check_sweep_csv(text: str, grid, seeds) -> tuple[list[str], int]:
    """Problems, plus how many runs the failing rows account for."""
    lines = text.strip().split("\n")
    if not lines or lines[0] != "lambda,miou_seen,miou_unseen,n_runs,n_ok,status":
        return ["sweep table has no lambda header"], len(grid) * len(seeds)
    rows = [line.split(",", 5) for line in lines[1:]]
    problems, bad_runs = [], 0
    values = [float(r[0]) for r in rows]
    if values != sorted(float(g) for g in grid):
        return [f"rows {values} are not the grid in ascending order"], len(grid) * len(seeds)
    for row in rows:
        lam, seen, unseen, n_runs, n_ok = row[0], row[1], row[2], int(row[3]), int(row[4])
        bad = []
        if not n_ok == n_runs == len(seeds):
            bad.append(f"n_ok={n_ok} n_runs={n_runs} seeds={len(seeds)}")
        for label, text_value in (("seen", seen), ("unseen", unseen)):
            value = float("nan") if text_value == "NA" else float(text_value)
            if not 0.0 <= value <= 1.0:
                bad.append(f"miou_{label} {text_value} outside [0, 1]")
        if bad:
            problems.append(f"lambda={lam}: " + "; ".join(bad))
            bad_runs += len(seeds)
    return problems, bad_runs


# ---------------------------------------------------------------------------
# corpus directory
# ---------------------------------------------------------------------------

_HEADER = re.compile(r"#pcd v1 n=(\d+) category=(\d+)")


def parse_corpus_dir(root) -> list[dict]:
    """Read a corpus directory with this module's own parser: one dict per
    manifest row with name, category, split, points (N, 3) and labels."""
    root = Path(root)
    clouds = []
    for line in (root / "manifest.txt").read_text(encoding="utf-8").split("\n"):
        if not line.strip():
            continue
        name, category, split = line.split()
        head, _, body = (root / name).read_text(encoding="utf-8").partition("\n")
        m = _HEADER.fullmatch(head)
        if m is None:
            raise ValueError(f"{name}: bad header {head!r}")
        table = np.array(body.split(), dtype=np.float64).reshape(-1, 4)
        if table.shape[0] != int(m.group(1)) or int(m.group(2)) != int(category):
            raise ValueError(f"{name}: header disagrees with body or manifest")
        clouds.append(
            {
                "name": name,
                "category": int(category),
                "split": split,
                "points": table[:, :3].copy(),
                "labels": table[:, 3].astype(np.int64),
            }
        )
    return clouds


def check_corpus(parsed: list[dict], reference: list) -> list[str]:
    """Every cloud read back equals, bit for bit, its in-memory original."""
    if len(parsed) != len(reference):
        return [f"{len(parsed)} clouds on disk, {len(reference)} generated"]
    problems = []
    for got, want in zip(parsed, reference):
        pts = np.ascontiguousarray(want.points, dtype=np.float64)
        if (
            got["category"] != want.category
            or got["points"].shape != pts.shape
            or not np.array_equal(got["points"].view(np.uint64), pts.view(np.uint64))
            or not np.array_equal(got["labels"], want.part_labels)
        ):
            problems.append(f"{got['name']}: differs from the generated cloud")
    return problems


# ---------------------------------------------------------------------------
# checkpoint evaluation
# ---------------------------------------------------------------------------


def parse_checkpoint(path) -> dict:
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines[0] != "#params v1" or not lines[1].startswith("layers "):
        raise ValueError(f"{path}: not a v1 checkpoint")
    tensors, i = {}, 2
    while i < len(lines):
        if not lines[i]:
            i += 1
            continue
        _, name, *dims = lines[i].split()
        shape = tuple(int(d) for d in dims)
        n_rows = shape[0] if len(shape) == 2 else 1
        rows = " ".join(lines[i + 1 : i + 1 + n_rows]).split()
        tensors[name] = np.array(rows, dtype=np.float64).reshape(shape)
        i += 1 + n_rows
    tensors["layers"] = int(lines[1].split()[1])
    return tensors


def forward_argmax(points: np.ndarray, t: dict) -> np.ndarray:
    """Predicted output column per point.

    The head is reduced one column at a time, in the order the program's
    evaluation uses: a single matrix product rounds differently and can
    flip near-tied argmaxes, which would make an exact mIoU comparison
    meaningless.
    """
    h = points
    for j in range(t["layers"]):
        h = np.maximum(h @ t[f"mlp_w{j}"] + t[f"mlp_b{j}"], 0.0)
    glob = h.max(axis=0)
    w, b = t["seg_w"], t["seg_b"]
    f = h.shape[1]
    logits = np.empty((h.shape[0], w.shape[1]))
    for c in range(w.shape[1]):
        logits[:, c] = np.sum(h * w[:f, c], axis=1) + (glob @ w[f:, c] + b[c])
    return np.argmax(logits, axis=1)


def _iou(pred, gt, part) -> float:
    p, g = pred == part, gt == part
    union = int(np.count_nonzero(p | g))
    return 1.0 if union == 0 else int(np.count_nonzero(p & g)) / union


def merged_miou(parsed: list[dict], ckpt: dict, categories, unknown_categories):
    """(known mIoU, unknown mIoU, distinct predicted columns) of a merged-label
    checkpoint on the test split the manifest names."""
    unknown = set(unknown_categories)
    present = sorted({int(l) for c in parsed for l in np.unique(c["labels"])})
    hidden = {l for c in categories if c.category in unknown for l in c.part_labels}
    known = [l for l in present if l not in hidden]
    merged = len(known)
    to_col = {l: i for i, l in enumerate(known)} | {l: merged for l in hidden}
    parts = {c.category: sorted({to_col[l] for l in c.part_labels}) for c in categories}
    per_cat: dict = {}
    predicted = set()
    for cloud in parsed:
        if cloud["split"] != "test":
            continue
        pred = forward_argmax(cloud["points"], ckpt)
        predicted.update(np.unique(pred).tolist())
        gt = np.array([to_col[int(l)] for l in cloud["labels"]])
        cat = cloud["category"]
        shape = math.fsum(_iou(pred, gt, p) for p in parts[cat]) / len(parts[cat])
        per_cat.setdefault(cat, []).append(shape)
    means = {c: math.fsum(v) / len(v) for c, v in per_cat.items()}

    def group(cats):
        vals = [means[c] for c in sorted(cats)]
        return math.fsum(vals) / len(vals) if vals else None

    return (
        group(c for c in means if c not in unknown),
        group(c for c in means if c in unknown),
        predicted,
    )


def check_predicts_labels(predicted: set) -> list[str]:
    if len(predicted) < 2:
        return [f"checkpoint predicts only {sorted(predicted)} on the test split"]
    return []


def check_eval_summary(summary: dict, known: float, unknown: float) -> list[str]:
    problems = []
    for key, want in (("miou_known", known), ("miou_unknown", unknown)):
        got = summary.get(key)
        if got is None or want is None or abs(got - want) > 1e-12:
            problems.append(f"{key}: summary says {got!r}, recomputed {want!r}")
    return problems


def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
