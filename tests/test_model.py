"""Tests for the point-cloud encoder, heads, surgery, and checkpointing."""

import math

import numpy as np
import pytest

from openset3cm import autodiff as ad
from openset3cm import loss as ls
from openset3cm import model as md


def random_cloud(rng, n=32, scale=1.0):
    return rng.normal(0.0, scale, (n, 3))


def identity_mlp_params(n_classes=2):
    """3-wide identity encoder: features equal coordinates on nonneg input."""
    params = md.init_params(n_classes, seed=0, in_dim=3, hidden=(3, 3))
    for w, b in zip(params.mlp_w, params.mlp_b):
        w[...] = np.eye(3)
        b[...] = 0.0
    return params


def ce_step(params, cloud, labels, lr):
    """One training step on cross-entropy alone, through the flat buffer."""
    tape = ad.Tape()
    leaf = tape.leaf(params.flat)
    nodes = md.nodes_from_vector(tape, leaf, params)
    logits = md.build_seg_logits(tape, nodes, tape.constant(cloud), 1, len(cloud))
    agg = ls.EmaAggregate.uniform(params.n_classes, 0.995)
    ce = ls.total_objective(logits, labels, agg, ls.TrainConfig(lambda_=0.0, unknown_label=0)).ce
    ad.backward(tape, ce)
    params.flat -= lr * leaf.grad
    return ce.item()


class TestModelParams:
    def test_properties(self):
        params = md.init_params(5, seed=1)
        assert params.in_dim == 3
        assert params.feature_dim == 64
        assert params.n_classes == 5

    def test_validate_rejects_broken_chain(self):
        params = md.init_params(4, seed=0)
        params.seg_w = params.seg_w[:-1]
        with pytest.raises(ValueError):
            params.validate()

    def test_validate_rejects_non_finite(self):
        params = md.init_params(4, seed=0)
        params.mlp_w[0][0, 0] = np.nan
        with pytest.raises(ValueError):
            params.validate()

    def test_copy_is_deep(self):
        params = md.init_params(3, seed=2)
        clone = params.copy()
        clone.mlp_w[0][0, 0] += 1.0
        clone.seg_b[0] += 1.0
        assert params.mlp_w[0][0, 0] != clone.mlp_w[0][0, 0]
        assert params.seg_b[0] != clone.seg_b[0]

    def test_arrays_are_views_of_flat(self, tmp_path):
        params = md.init_params(3, seed=2)
        md.save_params(params, tmp_path / "weights.txt")
        made = {
            "init_params": params,
            "expand_head": md.expand_head(params, remove_col=0, add_k=2),
            "load_params": md.load_params(tmp_path / "weights.txt"),
            "copy": params.copy(),
        }
        for how, p in made.items():
            assert p.flat.size == sum(arr.size for arr in p.all_arrays()), how
            for arr in p.all_arrays():
                assert np.shares_memory(arr, p.flat), how
            assert np.array_equal(p.flat, md.params_vector(p)), how
        for how in ("expand_head", "load_params", "copy"):
            assert not np.shares_memory(made[how].flat, params.flat), how

    def test_flat_step_is_visible_to_segment_logits(self):
        params = md.init_params(3, seed=5)
        cloud = random_cloud(np.random.default_rng(6), 10)
        before = md.segment_logits(cloud, params)
        step = np.random.default_rng(7).normal(0.0, 0.01, params.flat.size)
        expected = params.flat - step
        params.flat -= step
        after = md.segment_logits(cloud, params)
        assert not np.array_equal(after, before)
        assert np.array_equal(md.params_vector(params), expected)
        assert np.array_equal(after, md.segment_logits(cloud, params.copy()))


class TestInitParams:
    def test_same_seed_reproduces_every_array(self):
        a = md.init_params(6, seed=41)
        b = md.init_params(6, seed=41)
        for x, y in zip(a.all_arrays(), b.all_arrays()):
            assert np.array_equal(x, y)

    def test_different_seeds_differ(self):
        a = md.init_params(6, seed=41)
        b = md.init_params(6, seed=42)
        assert not np.array_equal(a.seg_w, b.seg_w)

    def test_biases_start_at_zero(self):
        params = md.init_params(4, seed=7)
        for b in [*params.mlp_b, params.seg_b, params.cls_b]:
            assert np.all(b == 0.0)

    def test_weight_scale_matches_std(self):
        params = md.init_params(4, seed=7, std=0.1)
        draws = np.concatenate([params.seg_w.ravel(), params.cls_w.ravel()])
        assert abs(draws.std() - 0.1) <= 0.02
        assert abs(draws.mean()) <= 0.02

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            md.init_params(1, seed=0)


class TestEncode:
    def test_single_point_global_equals_its_feature(self):
        params = md.init_params(4, seed=3)
        cloud = np.array([[0.3, -0.2, 0.9]])
        feats, glob = md.encode(cloud, params)
        assert feats.shape == (1, 64)
        assert np.array_equal(glob, feats[0])

    def test_duplicated_cloud_keeps_global(self):
        params = md.init_params(4, seed=3)
        cloud = random_cloud(np.random.default_rng(0), 17)
        _, glob = md.encode(cloud, params)
        _, glob2 = md.encode(np.vstack([cloud, cloud]), params)
        assert np.array_equal(glob, glob2)

    def test_global_permutation_invariant_bitwise(self):
        params = md.init_params(4, seed=3)
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, 40)
        _, glob = md.encode(cloud, params)
        for _ in range(30):
            perm = rng.permutation(40)
            _, glob_p = md.encode(cloud[perm], params)
            assert np.array_equal(glob, glob_p)

    def test_empty_cloud_rejected(self):
        params = md.init_params(4, seed=3)
        with pytest.raises(ValueError):
            md.encode(np.zeros((0, 3)), params)

    def test_non_finite_cloud_rejected(self):
        params = md.init_params(4, seed=3)
        with pytest.raises(ValueError):
            md.encode(np.array([[0.0, np.inf, 0.0]]), params)

    def test_wrong_coordinate_dim_rejected(self):
        params = md.init_params(4, seed=3)
        with pytest.raises(ValueError):
            md.encode(np.zeros((5, 2)), params)


class TestSegmentLogits:
    def test_equivariant_under_permutation_bitwise(self):
        params = md.init_params(5, seed=11)
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, 25)
        base = md.segment_logits(cloud, params)
        for _ in range(30):
            perm = rng.permutation(25)
            assert np.array_equal(md.segment_logits(cloud[perm], params), base[perm])

    def test_zero_head_gives_uniform_distributions(self):
        params = md.init_params(3, seed=1)
        params.seg_w[...] = 0.0
        params.seg_b[...] = 0.0
        logits = md.segment_logits(random_cloud(np.random.default_rng(2), 9), params)
        assert np.all(logits == 0.0)
        # softmax of a zero row is exactly uniform
        tape = ad.Tape()
        probs = ad.softmax(tape.leaf(logits), axis=1).array
        assert np.all(probs == 1.0 / 3.0)

    def test_deterministic_across_runs(self):
        cloud = random_cloud(np.random.default_rng(8), 14)
        a = md.segment_logits(cloud, md.init_params(4, seed=9))
        b = md.segment_logits(cloud, md.init_params(4, seed=9))
        assert np.array_equal(a, b)


class TestClassifyLogits:
    def test_permutation_invariant_bitwise(self):
        params = md.init_params(5, seed=11)
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 33)
        base = md.classify_logits(cloud, params)
        for _ in range(30):
            perm = rng.permutation(33)
            assert np.array_equal(md.classify_logits(cloud[perm], params), base)

    def test_zero_head_gives_zero_logits(self):
        params = md.init_params(3, seed=1)
        params.cls_w[...] = 0.0
        params.cls_b[...] = 0.0
        logits = md.classify_logits(random_cloud(np.random.default_rng(2), 9), params)
        assert np.all(logits == 0.0)

    def test_feature_collision_gives_equal_logits(self):
        # identity encoder: global feature is the coordinate-wise max, so two
        # different clouds with the same maxima must classify identically
        params = identity_mlp_params()
        cloud_a = np.eye(3)
        cloud_b = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
        assert np.array_equal(
            md.classify_logits(cloud_a, params), md.classify_logits(cloud_b, params)
        )


class TestExpandHead:
    def test_unknown_column_swap_grows_head(self):
        params = md.init_params(9, seed=4)
        out = md.expand_head(params, remove_col=8, add_k=8)
        assert out.n_classes == 16
        assert out.seg_w.shape == (128, 16)
        assert out.cls_w.shape == (64, 16)

    def test_add_one_keeps_width(self):
        params = md.init_params(5, seed=4)
        out = md.expand_head(params, remove_col=2, add_k=1)
        assert out.n_classes == 5

    def test_retained_logits_unchanged_max_abs_diff_zero(self):
        params = md.init_params(9, seed=4)
        out = md.expand_head(params, remove_col=8, add_k=8, seed=77)
        keep = list(range(8))
        rng = np.random.default_rng(13)
        for _ in range(10):
            cloud = random_cloud(rng, 21)
            seg_before = md.segment_logits(cloud, params)[:, keep]
            seg_after = md.segment_logits(cloud, out)[:, : len(keep)]
            assert np.max(np.abs(seg_after - seg_before)) == 0.0
            cls_before = md.classify_logits(cloud, params)[keep]
            cls_after = md.classify_logits(cloud, out)[: len(keep)]
            assert np.max(np.abs(cls_after - cls_before)) == 0.0

    def test_middle_column_removal_keeps_order(self):
        params = md.init_params(5, seed=4)
        out = md.expand_head(params, remove_col=1, add_k=2, seed=3)
        keep = [0, 2, 3, 4]
        cloud = random_cloud(np.random.default_rng(1), 12)
        before = md.segment_logits(cloud, params)
        after = md.segment_logits(cloud, out)
        assert np.max(np.abs(after[:, :4] - before[:, keep])) == 0.0

    def test_new_columns_are_seeded(self):
        params = md.init_params(5, seed=4)
        a = md.expand_head(params, remove_col=0, add_k=3, seed=10)
        b = md.expand_head(params, remove_col=0, add_k=3, seed=10)
        c = md.expand_head(params, remove_col=0, add_k=3, seed=11)
        assert np.array_equal(a.seg_w, b.seg_w)
        assert not np.array_equal(a.seg_w, c.seg_w)

    def test_encoder_arrays_are_copies(self):
        params = md.init_params(5, seed=4)
        out = md.expand_head(params, remove_col=0, add_k=1)
        out.mlp_w[0][0, 0] += 1.0
        assert params.mlp_w[0][0, 0] != out.mlp_w[0][0, 0]

    def test_bad_arguments_rejected(self):
        params = md.init_params(5, seed=4)
        with pytest.raises(ValueError):
            md.expand_head(params, remove_col=5, add_k=1)
        with pytest.raises(ValueError):
            md.expand_head(params, remove_col=0, add_k=0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = md.init_params(7, seed=123)
        # exercise non-default magnitudes too
        params.seg_b += 1e-17
        params.mlp_w[0] *= 1e8
        path = tmp_path / "weights.txt"
        md.save_params(params, path)
        loaded = md.load_params(path)
        for x, y in zip(params.all_arrays(), loaded.all_arrays()):
            assert np.array_equal(x, y)

    def test_rejects_unknown_header(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("#something else\n")
        with pytest.raises(ValueError):
            md.load_params(path)

    def truncated(self, tmp_path, keep):
        params = md.init_params(3, seed=1, hidden=(4,))
        path = tmp_path / "weights.txt"
        md.save_params(params, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(keep(lines)) + "\n")
        return path

    def test_rejects_truncated_file(self, tmp_path):
        # cut inside the first tensor: 1 of its 3 rows survives
        path = self.truncated(tmp_path, lambda lines: lines[:4])
        with pytest.raises(ValueError, match=r"weights\.txt:5: file ends inside tensor mlp_w0"):
            md.load_params(path)

    def test_rejects_header_only_file(self, tmp_path):
        path = self.truncated(tmp_path, lambda lines: lines[:1])
        with pytest.raises(ValueError, match=r"weights\.txt:2: missing layer count"):
            md.load_params(path)

    def test_rejects_file_missing_last_tensor(self, tmp_path):
        path = self.truncated(tmp_path, lambda lines: lines[:-2])
        with pytest.raises(ValueError, match=r"weights\.txt:\d+: missing tensor cls_b"):
            md.load_params(path)

    def test_rejects_short_row(self, tmp_path):
        def drop_value(lines):
            return lines[:3] + [lines[3].rsplit(" ", 1)[0]] + lines[4:]

        path = self.truncated(tmp_path, drop_value)
        with pytest.raises(ValueError, match=r"weights\.txt:4: tensor mlp_w0 row has 3 values"):
            md.load_params(path)


class TestTrainingGraph:
    def tiny(self):
        return md.init_params(3, seed=21, hidden=(4, 5))

    def test_builder_matches_public_forward(self):
        params = md.init_params(4, seed=15)
        rng = np.random.default_rng(3)
        clouds = [random_cloud(rng, 16) for _ in range(2)]
        tape = ad.Tape()
        nodes = md.nodes_from_vector(tape, tape.leaf(params.flat), params)
        pts = tape.constant(np.vstack(clouds))
        logits = md.build_seg_logits(tape, nodes, pts, batch=2, n_points=16).array
        for i, cloud in enumerate(clouds):
            ref = md.segment_logits(cloud, params)
            got = logits[16 * i : 16 * (i + 1)]
            assert np.max(np.abs(got - ref)) <= 1e-9

    def test_vector_carving_matches_leaf_nodes(self):
        params = self.tiny()
        tape = ad.Tape()
        nodes = md.nodes_from_vector(tape, tape.leaf(params.flat), params)
        for node, arr in zip([*nodes.mlp_w, *nodes.mlp_b], [*params.mlp_w, *params.mlp_b]):
            assert np.array_equal(node.array, arr)
        f = params.feature_dim
        assert np.array_equal(nodes.seg_top.array, params.seg_w[:f])
        assert np.array_equal(nodes.seg_bottom.array, params.seg_w[f:])
        assert np.array_equal(nodes.seg_b.array, params.seg_b)
        with pytest.raises(ad.ShapeError):
            md.nodes_from_vector(tape, tape.leaf(params.flat[:-1]), params)

    def test_sgd_reduces_cross_entropy(self):
        params = self.tiny()
        rng = np.random.default_rng(17)
        cloud = random_cloud(rng, 12)
        labels = rng.integers(0, 3, 12)
        history = [ce_step(params, cloud, labels, lr=0.5) for _ in range(30)]
        assert history[-1] < history[0] - 0.05
        assert math.isfinite(history[-1])

    def test_step_leaves_constants_without_gradient(self):
        params = self.tiny()
        rng = np.random.default_rng(8)
        cloud, labels = random_cloud(rng, 16), rng.integers(0, 3, 16)
        cfg = ls.TrainConfig(lambda_=0.5, unknown_label=2)

        def step(points_need_grad: bool):
            tape = ad.Tape()
            leaf = tape.leaf(params.flat)
            nodes = md.nodes_from_vector(tape, leaf, params)
            pts = tape.leaf(cloud) if points_need_grad else tape.constant(cloud)
            logits = md.build_seg_logits(tape, nodes, pts, 1, len(cloud))
            agg = ls.EmaAggregate.uniform(params.n_classes, 0.995)
            obj = ls.total_objective(logits, labels, agg, cfg)
            assert obj.l3cm_term is not None
            ad.backward(tape, obj.total)
            return tape, leaf, pts

        tape, leaf, pts = step(points_need_grad=False)
        assert pts._grad is None
        assert all(n._grad is None for n in tape.nodes if not n.requires_grad)
        np.testing.assert_array_equal(pts.grad, np.zeros(cloud.size))
        # skipping the constants' gradients leaves every other bit alone
        _, leaf_ref, pts_ref = step(points_need_grad=True)
        assert np.any(pts_ref.grad != 0.0)
        assert leaf.grad.tobytes() == leaf_ref.grad.tobytes()

    def test_untouched_head_gets_no_update(self):
        params = self.tiny()
        cls_w, cls_b = params.cls_w.copy(), params.cls_b.copy()
        cloud = random_cloud(np.random.default_rng(2), 6)
        ce_step(params, cloud, np.zeros(6, dtype=int), lr=0.5)
        assert params.cls_w.tobytes() == cls_w.tobytes()
        assert params.cls_b.tobytes() == cls_b.tobytes()
        assert not np.array_equal(params.seg_w, md.init_params(3, seed=21, hidden=(4, 5)).seg_w)

    def test_objective_gradient_through_model(self):
        # draw chosen so no relu boundary or pool-argmax swap sits within the
        # finite-difference window; at a kink the probe smears a correct
        # gradient into a false mismatch
        params = md.init_params(3, seed=2, hidden=(4, 5))
        rng = np.random.default_rng(1002)
        cloud = random_cloud(rng, 6)
        labels = np.array([0, 1, 2, 2, 2, 1])
        agg = ls.EmaAggregate(np.array([0.3, 0.4, 0.3]), 0.995)
        cfg = ls.TrainConfig(lambda_=0.6, unknown_label=2)

        def build(tape, leaf):
            nodes = md.nodes_from_vector(tape, leaf, params)
            logits = md.build_seg_logits(tape, nodes, tape.constant(cloud), 1, 6)
            return ls.total_objective(logits, labels, agg, cfg).total

        assert ad.gradient_check(build, md.params_vector(params)) <= 1e-6


class TestForwardFuzz:
    def test_finite_on_1000_random_clouds(self):
        params = md.init_params(5, seed=31)
        rng = np.random.default_rng(100)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            cloud = rng.normal(0.0, 3.0, (n, 3))
            assert np.all(np.isfinite(md.segment_logits(cloud, params)))
            assert np.all(np.isfinite(md.classify_logits(cloud, params)))
