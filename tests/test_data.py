"""Tests for corpus generation, the open-set split, and cloud file I/O."""

import numpy as np
import pytest

from openset3cm import data as dt


def tiny_cloud(labels, category=0):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(len(labels), 3))
    pts /= np.linalg.norm(pts, axis=1).max()
    return dt.LabeledCloud(pts, np.asarray(labels, dtype=np.int64), category, seed=5)


class TestRegistry:
    def test_eight_categories_with_global_labels(self):
        assert len(dt.CATEGORIES) == 8
        all_labels = [l for c in dt.CATEGORIES for l in c.part_labels]
        assert sorted(all_labels) == list(range(dt.N_PART_LABELS))
        for c in dt.CATEGORIES:
            assert 2 <= len(c.parts) <= 4

    def test_labels_for_categories(self):
        lamp_table = dt.labels_for_categories([0, 1])
        assert lamp_table == frozenset({0, 1, 2, 3})
        with pytest.raises(ValueError):
            dt.labels_for_categories([0, 99])


class TestGenerateShape:
    def test_deterministic_bitwise(self):
        a = dt.generate_shape(3, 128, seed=9)
        b = dt.generate_shape(3, 128, seed=9)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.part_labels, b.part_labels)

    def test_seed_changes_cloud(self):
        a = dt.generate_shape(3, 128, seed=9)
        b = dt.generate_shape(3, 128, seed=10)
        assert not np.array_equal(a.points, b.points)

    def test_lamp_has_exactly_two_part_labels(self):
        cloud = dt.generate_shape(0, 256, seed=4)
        assert sorted(np.unique(cloud.part_labels)) == [0, 1]

    def test_every_category_emits_its_full_part_set(self):
        for cat in dt.CATEGORIES:
            cloud = dt.generate_shape(cat.category, 64, seed=2)
            assert sorted(np.unique(cloud.part_labels)) == sorted(cat.part_labels)

    def test_normalized_to_unit_sphere(self):
        cloud = dt.generate_shape(6, 200, seed=8)
        norms = np.linalg.norm(cloud.points, axis=1)
        assert norms.max() <= 1.0 + 1e-9
        assert norms.max() >= 1.0 - 1e-6

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            dt.generate_shape(42, 64, seed=0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            dt.generate_shape(0, 7, seed=0)


class TestCorpus:
    def test_size_and_determinism(self):
        a = dt.generate_corpus(5, 64, seed=3)
        b = dt.generate_corpus(5, 64, seed=3)
        assert len(a) == 5 * len(dt.CATEGORIES)
        assert all(np.array_equal(x.points, y.points) for x, y in zip(a, b))

    def test_category_subset(self):
        corpus = dt.generate_corpus(4, 64, seed=3, categories=[1, 5])
        assert sorted({c.category for c in corpus}) == [1, 5]
        assert len(corpus) == 8

    def test_every_cloud_nondegenerate(self):
        for cloud in dt.generate_corpus(3, 64, seed=1):
            cloud.validate()
            assert len(np.unique(cloud.part_labels)) >= 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dt.generate_corpus(0, 64, seed=1)


class TestAugment:
    def test_deterministic_given_rng_state(self):
        cloud = dt.generate_shape(1, 64, seed=0)
        a = dt.augment_cloud(cloud.points, np.random.default_rng(7))
        b = dt.augment_cloud(cloud.points, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_up_axis_rotation_preserves_z_up_to_jitter(self):
        cloud = dt.generate_shape(1, 256, seed=0)
        out = dt.augment_cloud(cloud.points, np.random.default_rng(3))
        assert np.max(np.abs(out[:, 2] - cloud.points[:, 2])) <= 10 * dt.JITTER_STD
        norms_in = np.linalg.norm(cloud.points, axis=1)
        norms_out = np.linalg.norm(out, axis=1)
        assert np.max(np.abs(norms_out - norms_in)) <= 10 * dt.JITTER_STD

    def test_input_not_mutated(self):
        cloud = dt.generate_shape(1, 64, seed=0)
        before = cloud.points.copy()
        dt.augment_cloud(cloud.points, np.random.default_rng(1))
        assert np.array_equal(cloud.points, before)


class TestOpenSetSplit:
    def corpus(self):
        return dt.generate_corpus(10, 64, seed=0)

    def test_default_split_shape(self):
        ds = dt.build_openset_split(self.corpus(), dt.labels_for_categories([4, 5, 6, 7]))
        assert ds.known_classes == tuple(range(10))
        assert ds.unknown_source_classes == tuple(range(10, 21))
        assert ds.unknown_label == 10
        assert ds.n_train_labels == 11
        assert len(ds.train) == 64 and len(ds.test) == 16

    def test_split_is_per_category_80_20(self):
        ds = dt.build_openset_split(self.corpus(), dt.labels_for_categories([7]))
        for cat in range(8):
            assert sum(c.category == cat for c in ds.train) == 8
            assert sum(c.category == cat for c in ds.test) == 2

    def test_labels_remapped_coordinates_shared(self):
        ds = dt.build_openset_split(self.corpus(), dt.labels_for_categories([4, 5, 6, 7]))
        for remapped, source in zip(ds.train, ds.train_source):
            assert remapped.points is source.points
            expected = np.array([ds.label_map[int(l)] for l in source.part_labels])
            assert np.array_equal(remapped.part_labels, expected)

    def test_unknown_points_carry_merged_label(self):
        ds = dt.build_openset_split(self.corpus(), dt.labels_for_categories([4, 5, 6, 7]))
        for cloud in ds.train:
            if cloud.category >= 4:
                assert np.all(cloud.part_labels == ds.unknown_label)
            else:
                assert np.all(cloud.part_labels < ds.unknown_label)

    def test_map_total_and_surjective(self):
        ds = dt.build_openset_split(self.corpus(), dt.labels_for_categories([2, 3]))
        assert sorted(ds.label_map) == list(range(21))
        assert set(ds.label_map.values()) == set(range(ds.unknown_label + 1))

    def test_known_inverse_round_trip(self):
        ds = dt.build_openset_split(self.corpus(), dt.labels_for_categories([0, 6]))
        inverse = {v: k for k, v in ds.label_map.items() if v != ds.unknown_label}
        for orig in ds.known_classes:
            assert inverse[ds.label_map[orig]] == orig

    def test_sixteen_labels_eight_merged_gives_nine(self):
        clouds = [tiny_cloud(list(range(16)))]
        ds = dt.build_openset_split(clouds, set(range(8, 16)), test_fraction=0.5)
        assert ds.unknown_label == 8
        assert ds.n_train_labels == 9

    def test_merge_single_class_keeps_total_count(self):
        clouds = [tiny_cloud(list(range(16)))]
        ds = dt.build_openset_split(clouds, {7}, test_fraction=0.5)
        assert ds.n_train_labels == 16
        assert ds.label_map[7] == ds.unknown_label == 15

    def test_phase2_manifest_and_map_agree(self):
        ds = dt.build_openset_split(self.corpus(), dt.labels_for_categories([4, 5, 6, 7]))
        manifest = ds.phase2_column_manifest()
        assert manifest == list(range(21))
        assert all(ds.phase2_label_map()[orig] == col for col, orig in enumerate(manifest))

    def test_rejects_degenerate_label_sets(self):
        corpus = self.corpus()
        with pytest.raises(ValueError):
            dt.build_openset_split(corpus, set())
        with pytest.raises(ValueError):
            dt.build_openset_split(corpus, set(range(21)))
        with pytest.raises(ValueError):
            dt.build_openset_split(corpus, {77})
        with pytest.raises(ValueError):
            dt.build_openset_split([], {1})


class TestVectorRemap:
    """The lookup-array remaps against the per-point dict loops they replaced."""

    @staticmethod
    def assert_matches_dict_loops(clouds, unknown):
        ds = dt.build_openset_split(clouds, unknown)
        all_labels = sorted({int(l) for c in clouds for l in np.unique(c.part_labels)})
        assert sorted(ds.known_classes + ds.unknown_source_classes) == all_labels
        for remapped, source in zip(ds.train + ds.test, ds.train_source + ds.test_source):
            expected = np.array([ds.label_map[int(l)] for l in source.part_labels], dtype=np.int64)
            assert remapped.part_labels.dtype == np.int64
            assert np.array_equal(remapped.part_labels, expected)
        phase2_map, lookup = ds.phase2_label_map(), ds.phase2_label_lookup()
        for source in ds.train_source + ds.test_source:
            expected = np.array([phase2_map[int(l)] for l in source.part_labels], dtype=np.int64)
            got = lookup[source.part_labels]
            assert got.dtype == np.int64
            assert np.array_equal(got, expected)

    def test_generated_corpus(self):
        corpus = dt.generate_corpus(10, 64, seed=3)
        for cats in ([4, 5, 6, 7], [0, 6], [7]):
            self.assert_matches_dict_loops(corpus, dt.labels_for_categories(cats))

    def test_corpus_read_from_disk(self, tmp_path):
        dt.write_corpus_dir(dt.generate_corpus(5, 32, seed=4), tmp_path / "c")
        corpus = dt.load_corpus_dir(tmp_path / "c")
        self.assert_matches_dict_loops(corpus, dt.labels_for_categories([4, 5, 6, 7]))

    def test_sparse_label_set(self):
        # labels with gaps: the lookup array must leave the gaps unused
        clouds = [tiny_cloud([3, 9, 9, 14, 20]), tiny_cloud([20, 3], category=1)]
        self.assert_matches_dict_loops(clouds, {9, 20})

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            dt.build_openset_split([tiny_cloud([0, -1, 2])], {2})


class TestCloudIO:
    def test_round_trip_exact(self, tmp_path):
        cloud = dt.generate_shape(2, 100, seed=6)
        path = tmp_path / "shape.pcd"
        dt.write_cloud(cloud, path)
        loaded = dt.read_cloud(path)
        assert np.array_equal(loaded.points, cloud.points)
        assert np.array_equal(loaded.part_labels, cloud.part_labels)
        assert loaded.category == cloud.category

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.pcd"
        path.write_text("#mesh v2\n0 0 0 0\n")
        with pytest.raises(ValueError, match=":1:"):
            dt.read_cloud(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.pcd"
        path.write_text("")
        with pytest.raises(ValueError):
            dt.read_cloud(path)

    def test_zero_points_rejected(self, tmp_path):
        path = tmp_path / "zero.pcd"
        path.write_text("#pcd v1 n=0 category=1\n")
        with pytest.raises(ValueError, match=":1:"):
            dt.read_cloud(path)

    def test_label_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "label.pcd"
        path.write_text(f"#pcd v1 n=2 category=0\n0 0 0.5 0\n0 0.5 0 {dt.N_PART_LABELS}\n")
        with pytest.raises(ValueError, match=":3:"):
            dt.read_cloud(path)

    def test_huge_label_names_line(self, tmp_path):
        # 20 digits do not fit int64: the range check must see the Python int
        path = tmp_path / "huge.pcd"
        path.write_text("#pcd v1 n=2 category=0\n0 0 0.5 0\n0.1 0.2 0.3 99999999999999999999\n")
        with pytest.raises(ValueError) as info:
            dt.read_cloud(path)
        assert str(info.value) == (
            f"{path}:3: label 99999999999999999999 outside [0, {dt.N_PART_LABELS})"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_coordinate_leaves_sphere_without_overflow(self, tmp_path):
        path = tmp_path / "far.pcd"
        path.write_text("#pcd v1 n=1 category=0\n1e200 0 0 0\n")
        with pytest.raises(ValueError, match="points leave the unit sphere"):
            dt.read_cloud(path)

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "tokens.pcd"
        path.write_text("#pcd v1 n=1 category=0\n0 0\n")
        with pytest.raises(ValueError, match=":2:"):
            dt.read_cloud(path)

    def test_unparsable_number_names_line(self, tmp_path):
        path = tmp_path / "nan.pcd"
        path.write_text("#pcd v1 n=1 category=0\n0 zero 0 0\n")
        with pytest.raises(ValueError, match=":2:"):
            dt.read_cloud(path)

    def test_missing_point_lines(self, tmp_path):
        path = tmp_path / "short.pcd"
        path.write_text("#pcd v1 n=3 category=0\n0 0 0.5 0\n")
        with pytest.raises(ValueError):
            dt.read_cloud(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "extra.pcd"
        path.write_text("#pcd v1 n=1 category=0\n0 0 0.5 0\nleftover\n")
        with pytest.raises(ValueError, match=":3:"):
            dt.read_cloud(path)


class TestCorpusDir:
    def test_write_then_load_round_trip(self, tmp_path):
        corpus = dt.generate_corpus(5, 32, seed=2)
        dt.write_corpus_dir(corpus, tmp_path / "corpus")
        loaded = dt.load_corpus_dir(tmp_path / "corpus")
        assert len(loaded) == len(corpus)
        for a, b in zip(loaded, corpus):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.part_labels, b.part_labels)
            assert a.category == b.category

    def test_manifest_records_split(self, tmp_path):
        corpus = dt.generate_corpus(5, 32, seed=2)
        dt.write_corpus_dir(corpus, tmp_path / "corpus")
        rows = (tmp_path / "corpus" / "manifest.txt").read_text().splitlines()
        assert len(rows) == len(corpus)
        assert sum(r.endswith(" test") for r in rows) == 8
        ds = dt.build_openset_split(dt.load_corpus_dir(tmp_path / "corpus"), {20})
        assert len(ds.test) == 8

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValueError):
            dt.load_corpus_dir(tmp_path)

    def test_malformed_manifest_line(self, tmp_path):
        corpus = dt.generate_corpus(2, 32, seed=2, categories=[0])
        dt.write_corpus_dir(corpus, tmp_path / "c")
        manifest = tmp_path / "c" / "manifest.txt"
        manifest.write_text(manifest.read_text() + "odd line\n")
        with pytest.raises(ValueError):
            dt.load_corpus_dir(tmp_path / "c")

    def test_category_mismatch_detected(self, tmp_path):
        corpus = dt.generate_corpus(2, 32, seed=2, categories=[0])
        dt.write_corpus_dir(corpus, tmp_path / "c")
        manifest = tmp_path / "c" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(" 0 ", " 3 "))
        with pytest.raises(ValueError, match="mismatch"):
            dt.load_corpus_dir(tmp_path / "c")

    def test_manifest_split_must_follow_rule(self, tmp_path):
        corpus = dt.generate_corpus(5, 32, seed=2, categories=[0, 1])
        dt.write_corpus_dir(corpus, tmp_path / "c")
        manifest = tmp_path / "c" / "manifest.txt"
        rows = manifest.read_text().splitlines()
        assert [r.endswith(" test") for r in rows] == [False] * 4 + [True] + [False] * 4 + [True]
        manifest.write_text("\n".join(r.replace(" test", " train") for r in rows) + "\n")
        with pytest.raises(ValueError, match=r"manifest\.txt:5: split 'train' disagrees"):
            dt.load_corpus_dir(tmp_path / "c")
        rows[1] = rows[1].replace(" train", " test")
        manifest.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=r"manifest\.txt:2: split 'test' disagrees"):
            dt.load_corpus_dir(tmp_path / "c")

    def test_undecodable_manifest_names_path_and_line(self, tmp_path):
        dt.write_corpus_dir(dt.generate_corpus(1, 16, seed=2, categories=[0]), tmp_path / "c")
        manifest = tmp_path / "c" / "manifest.txt"
        manifest.write_bytes(b"\n" + manifest.read_bytes().replace(b"shape", b"sh\xffpe"))
        with pytest.raises(ValueError) as info:
            dt.load_corpus_dir(tmp_path / "c")
        assert str(info.value).startswith(f"{manifest}:2: not UTF-8 text")
