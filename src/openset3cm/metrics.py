"""Segmentation quality measures.

Part IoU follows the empty-part convention: a part absent from both the
prediction and the ground truth scores 1, so shapes are never punished for
parts they do not have. Shape-level mIoU averages over the category's whole
part vocabulary, category-level mIoU over shapes. Sums use exact summation,
so every reported mean is independent of shape ordering.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "part_iou",
    "shape_miou",
    "category_miou",
    "IoUReport",
    "compile_report",
    "report_to_csv",
    "report_to_summary_json",
]


def _paired(pred, gt):
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape or pred.ndim != 1:
        raise ValueError(f"pred and gt must be equal-length 1-D, got {pred.shape} vs {gt.shape}")
    return pred, gt


def part_iou(pred, gt, part: int) -> float:
    """Intersection over union of one part's point sets; empty union scores 1."""
    pred, gt = _paired(pred, gt)
    p = pred == part
    g = gt == part
    union = int(np.sum(p | g))
    if union == 0:
        return 1.0
    return int(np.sum(p & g)) / union


def shape_miou(pred, gt, parts_of_category) -> float:
    """Mean part IoU over the category's full part set, in sorted part order."""
    parts = sorted(set(int(p) for p in parts_of_category))
    if not parts:
        raise ValueError("parts_of_category must be nonempty")
    return math.fsum(part_iou(pred, gt, part) for part in parts) / len(parts)


def category_miou(shape_mious: Iterable) -> float:
    """Arithmetic mean of shape-level mIoUs; exact under reordering."""
    values = [float(v) for v in shape_mious]
    if not values:
        raise ValueError("no shapes to average")
    return math.fsum(values) / len(values)


@dataclass
class IoUReport:
    """Aggregated segmentation scores for one evaluation pass.

    ``per_shape`` pairs each shape's category with its mIoU in evaluation
    order; group means are None when the group has no categories.
    """

    per_shape: list
    category_means: dict
    category_counts: dict
    known_mean: float | None
    unknown_mean: float | None
    n_shapes: int

    def validate(self) -> None:
        for _, v in self.per_shape:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"shape mIoU {v} outside [0, 1]")


def compile_report(per_shape, unknown_categories) -> IoUReport:
    """Fold per-shape (category, mIoU) records into category and group means."""
    per_shape = [(int(c), float(v)) for c, v in per_shape]
    if not per_shape:
        raise ValueError("no shapes evaluated")
    unknown_categories = set(int(c) for c in unknown_categories)
    by_cat: dict = {}
    for cat, value in per_shape:
        by_cat.setdefault(cat, []).append(value)
    category_means = {cat: category_miou(vals) for cat, vals in sorted(by_cat.items())}
    category_counts = {cat: len(vals) for cat, vals in sorted(by_cat.items())}

    def group_mean(cats):
        vals = [category_means[c] for c in sorted(cats)]
        return math.fsum(vals) / len(vals) if vals else None

    known_cats = [c for c in category_means if c not in unknown_categories]
    unknown_cats = [c for c in category_means if c in unknown_categories]
    report = IoUReport(
        per_shape=per_shape,
        category_means=category_means,
        category_counts=category_counts,
        known_mean=group_mean(known_cats),
        unknown_mean=group_mean(unknown_cats),
        n_shapes=len(per_shape),
    )
    report.validate()
    return report


def report_to_csv(report: IoUReport, unknown_categories) -> str:
    """One row per category: ``category, n_shapes, miou, group``."""
    unknown_categories = set(int(c) for c in unknown_categories)
    lines = ["category,n_shapes,miou,group"]
    for cat in sorted(report.category_means):
        group = "unknown" if cat in unknown_categories else "known"
        lines.append(
            f"{cat},{report.category_counts[cat]},{report.category_means[cat]!r},{group}"
        )
    return "\n".join(lines) + "\n"


def report_to_summary_json(report: IoUReport) -> str:
    all_cat = category_miou(report.category_means.values())
    all_shape = category_miou(v for _, v in report.per_shape)
    summary = {
        "miou_known": report.known_mean,
        "miou_unknown": report.unknown_mean,
        "miou_categories": all_cat,
        "miou_shapes": all_shape,
    }
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"
