"""Tests for IoU metrics and report aggregation."""

import json

import numpy as np
import pytest

from openset3cm import metrics as mt

GT = [0, 0, 1, 1]
PRED = [0, 1, 1, 1]
IOU_A = 0.5
IOU_B = 0.6666666666666666
SHAPE_AB = 0.5833333333333333
CATEGORY_MEAN = 0.611111111111111


class TestPartIou:
    def test_hand_counted_fixture(self):
        assert abs(mt.part_iou(PRED, GT, 0) - IOU_A) <= 1e-12
        assert abs(mt.part_iou(PRED, GT, 1) - IOU_B) <= 1e-12

    def test_part_absent_from_both_scores_one(self):
        assert mt.part_iou(PRED, GT, 7) == 1.0

    def test_exact_match_scores_one(self):
        assert mt.part_iou(GT, GT, 0) == 1.0

    def test_disjoint_scores_zero(self):
        assert mt.part_iou([0, 0], [1, 1], 0) == 0.0
        assert mt.part_iou([0, 0], [1, 1], 1) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mt.part_iou([0, 1], [0, 1, 1], 0)

    def test_symmetric_and_jointly_permutation_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pred = rng.integers(0, 4, 30)
            gt = rng.integers(0, 4, 30)
            perm = rng.permutation(30)
            for part in range(4):
                assert mt.part_iou(pred, gt, part) == mt.part_iou(gt, pred, part)
                assert mt.part_iou(pred[perm], gt[perm], part) == mt.part_iou(pred, gt, part)


class TestShapeMiou:
    def test_perfect_prediction(self):
        assert mt.shape_miou(GT, GT, {0, 1}) == 1.0

    def test_all_wrong_two_part_shape(self):
        assert mt.shape_miou([1, 1, 0, 0], [0, 0, 1, 1], {0, 1}) == 0.0

    def test_hand_counted_fixture(self):
        assert abs(mt.shape_miou(PRED, GT, {0, 1}) - SHAPE_AB) <= 1e-12

    def test_absent_category_part_scores_one(self):
        expected = (IOU_A + IOU_B + 1.0) / 3.0
        assert abs(mt.shape_miou(PRED, GT, {0, 1, 9}) - expected) <= 1e-12

    def test_part_order_irrelevant(self):
        assert mt.shape_miou(PRED, GT, [1, 0]) == mt.shape_miou(PRED, GT, [0, 1])

    def test_empty_part_set_rejected(self):
        with pytest.raises(ValueError):
            mt.shape_miou(PRED, GT, set())

    def test_one_iff_prediction_matches_on_category_points(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            gt = rng.integers(0, 3, 20)
            pred = gt.copy()
            if rng.random() < 0.5:
                pred[rng.integers(0, 20)] = (pred[rng.integers(0, 20)] + 1) % 3
            score = mt.shape_miou(pred, gt, {0, 1, 2})
            assert (score == 1.0) == bool(np.array_equal(pred, gt))


class TestCategoryMiou:
    def test_single_shape(self):
        assert mt.category_miou([0.7]) == 0.7

    def test_two_extremes(self):
        assert mt.category_miou([1.0, 0.0]) == 0.5

    def test_hand_counted_fixture(self):
        assert abs(mt.category_miou([SHAPE_AB, 1.0, 0.25]) - CATEGORY_MEAN) <= 1e-12

    def test_reordering_exact(self):
        rng = np.random.default_rng(3)
        values = list(rng.random(17))
        base = mt.category_miou(values)
        for _ in range(20):
            rng.shuffle(values)
            assert mt.category_miou(values) == base

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mt.category_miou([])


class TestReport:
    records = [(0, 1.0), (0, 0.5), (4, 0.25)]

    def test_aggregation(self):
        report = mt.compile_report(self.records, unknown_categories={4})
        assert report.category_means == {0: 0.75, 4: 0.25}
        assert report.category_counts == {0: 2, 4: 1}
        assert report.known_mean == 0.75
        assert report.unknown_mean == 0.25
        assert report.n_shapes == 3

    def test_missing_group_is_none(self):
        report = mt.compile_report([(0, 1.0)], unknown_categories={4})
        assert report.unknown_mean is None
        summary = json.loads(mt.report_to_summary_json(report))
        assert summary["miou_unknown"] is None

    def test_csv_layout(self):
        report = mt.compile_report(self.records, unknown_categories={4})
        csv = mt.report_to_csv(report, unknown_categories={4})
        lines = csv.strip().split("\n")
        assert lines[0] == "category,n_shapes,miou,group"
        assert lines[1] == "0,2,0.75,known"
        assert lines[2] == "4,1,0.25,unknown"

    def test_summary_json_keys(self):
        report = mt.compile_report(self.records, unknown_categories={4})
        summary = json.loads(mt.report_to_summary_json(report))
        assert set(summary) == {"miou_known", "miou_unknown", "miou_categories", "miou_shapes"}
        assert abs(summary["miou_categories"] - 0.5) <= 1e-12
        expected_shapes = (1.0 + 0.5 + 0.25) / 3.0
        assert abs(summary["miou_shapes"] - expected_shapes) <= 1e-12

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ValueError):
            mt.compile_report([(0, 1.5)], unknown_categories=set())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mt.compile_report([], unknown_categories=set())
