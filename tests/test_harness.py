"""Run protocol, records, sweeps: everything short of full-scale training."""

import gc
import hashlib
import json
import math
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from openset3cm import autodiff as ad
from openset3cm import data as dt
from openset3cm import harness as hz
from openset3cm import model as md

TINY = dict(shapes_per_category=6, n_points=32, epochs_phase1=2, epochs_phase2=1)


def tiny_config(**over):
    base = dict(TINY)
    base.update(over)
    return hz.RunConfig(**base)


class TestRunConfig:
    def test_defaults_validate(self):
        hz.RunConfig().validate()

    def test_round_trips_through_dict(self):
        cfg = tiny_config(lambda_=0.3, seed=9)
        d = cfg.to_dict()
        assert d["lambda_"] == 0.3
        assert d["unknown_categories"] == [4, 5, 6, 7]

    def test_from_mapping_file_spellings(self):
        cfg = hz.RunConfig.from_mapping(
            {"lambda": "0.25", "unknown_classes": "2,3", "beta": "0.9", "seed": "7"}
        )
        assert cfg.lambda_ == 0.25
        assert cfg.unknown_categories == (2, 3)
        assert cfg.beta == 0.9
        assert cfg.seed == 7

    def test_from_mapping_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            hz.RunConfig.from_mapping({"lamda": "0.5"})

    def test_from_mapping_rejects_bad_bool(self):
        with pytest.raises(ValueError, match="expected 0 or 1"):
            hz.RunConfig.from_mapping({"augment": "yes"})

    def test_env_seed_wins(self, monkeypatch):
        monkeypatch.setenv(hz.SEED_ENV_VAR, "42")
        cfg = hz.RunConfig.from_mapping({"seed": "7"})
        assert cfg.seed == 42

    def test_env_seed_absent_keeps_config(self, monkeypatch):
        monkeypatch.delenv(hz.SEED_ENV_VAR, raising=False)
        cfg = hz.RunConfig.from_mapping({"seed": "7"})
        assert cfg.seed == 7

    def test_rejects_unknown_set_covering_everything(self):
        with pytest.raises(ValueError, match="proper subset"):
            tiny_config(unknown_categories=tuple(range(8))).validate()

    def test_rejects_empty_unknown_set(self):
        with pytest.raises(ValueError, match="proper subset"):
            tiny_config(unknown_categories=()).validate()

    def test_rejects_alien_category_id(self):
        with pytest.raises(ValueError, match="proper subset"):
            tiny_config(unknown_categories=(4, 99)).validate()

    def test_rejects_negative_phase2_epochs(self):
        with pytest.raises(ValueError, match="epochs_phase2"):
            tiny_config(epochs_phase2=-1).validate()

    def test_rejects_tiny_corpus(self):
        with pytest.raises(ValueError, match="shapes per category"):
            tiny_config(shapes_per_category=4).validate()

    def test_objective_fields_validated_before_compute(self):
        with pytest.raises(ValueError, match="sign_mode"):
            hz.run_openset(tiny_config(sign_mode="banana"))


@pytest.fixture(scope="module")
def run_pair():
    rec0 = hz.run_openset(tiny_config(lambda_=0.0, seed=1))
    rec5 = hz.run_openset(tiny_config(lambda_=0.5, seed=1))
    return rec0, rec5


class TestRunOpenset:
    def test_lambda_zero_record_is_valid_with_all_zero_term_series(self, run_pair):
        rec0, _ = run_pair
        assert rec0.status == "ok"
        assert rec0.n_steps > 0
        assert all(v == 0.0 for v in rec0.l3cm)

    def test_series_length_equals_optimizer_steps(self, run_pair):
        rec0, _ = run_pair
        # 6 shapes/category: 5 train past the 80/20 deal, 40 clouds, batch 8
        steps_per_epoch = 40 // 8
        want = steps_per_epoch * (TINY["epochs_phase1"] + TINY["epochs_phase2"])
        assert rec0.n_steps == want
        assert len(rec0.phase) == want
        assert len(rec0.ce) == want
        assert len(rec0.l3cm) == want

    def test_default_run_finite(self, run_pair):
        _, rec5 = run_pair
        assert rec5.status == "ok"
        assert all(math.isfinite(v) for v in rec5.total)
        assert any(v != 0.0 for v in rec5.l3cm)

    def test_phase_two_series_tail(self, run_pair):
        _, rec5 = run_pair
        phases = rec5.phase
        assert phases == sorted(phases)
        assert set(phases) == {1, 2}
        # term disabled during fine-tuning by default
        tail = [v for p, v in zip(phases, rec5.l3cm) if p == 2]
        assert all(v == 0.0 for v in tail)

    def test_reports_present_and_sized(self, run_pair):
        rec0, _ = run_pair
        assert rec0.pre_report is not None
        assert rec0.post_report is not None
        assert rec0.pre_report.n_shapes == 8
        assert rec0.post_report.n_shapes == 8

    def test_column_manifest_is_known_then_unknown(self, run_pair):
        rec0, _ = run_pair
        assert rec0.column_manifest == list(range(21))

    def test_config_snapshot_reruns_identically(self, run_pair, monkeypatch):
        monkeypatch.delenv(hz.SEED_ENV_VAR, raising=False)
        rec0, _ = run_pair
        snap = dict(rec0.config)
        mapping = {
            "lambda": snap.pop("lambda_"),
            "unknown_classes": snap.pop("unknown_categories"),
        }
        mapping.update(snap)
        again = hz.run_openset(hz.RunConfig.from_mapping(mapping))
        assert hz.record_to_json(again) == hz.record_to_json(rec0)

    def test_final_q_hat_on_simplex(self, run_pair):
        _, rec5 = run_pair
        q = np.array(rec5.final_q_hat)
        assert q.shape == (11,)
        assert abs(q.sum() - 1.0) < 1e-9
        assert (q >= 0).all()
        assert rec5.seen_count > 0

    def test_q_hat_trace_rows_tagged_by_step(self, run_pair):
        _, rec5 = run_pair
        for row in rec5.q_hat_trace:
            assert len(row) == 12
            assert row[0] == int(row[0]) and row[0] > 0


class TestDeterminism:
    def test_identical_runs_byte_identical(self):
        cfg = tiny_config(lambda_=0.5, seed=3)
        a = hz.record_to_json(hz.run_openset(cfg))
        b = hz.record_to_json(hz.run_openset(cfg))
        assert a == b

    def test_different_seed_differs(self):
        a = hz.record_to_json(hz.run_openset(tiny_config(seed=3)))
        b = hz.record_to_json(hz.run_openset(tiny_config(seed=4)))
        assert a != b

    def test_wall_clock_not_serialized(self):
        rec = hz.run_openset(tiny_config())
        assert rec.wall_clock > 0.0
        assert "wall_clock" not in json.loads(hz.record_to_json(rec))

    def test_record_round_trip(self):
        rec = hz.run_openset(tiny_config(lambda_=0.5))
        text = hz.record_to_json(rec)
        assert hz.record_to_json(hz.record_from_json(text)) == text

    def test_golden_record_digest(self):
        """Pins the criterion-11 record bytes, so a refactor that drifts any
        number fails here. Measured with numpy 2.4.6 on scipy-openblas
        0.3.31; another BLAS build may round differently. A deliberate
        change to the record's numbers updates this digest and says why
        in CHANGES.md."""
        cfg = hz.RunConfig(
            lambda_=0.5, seed=2, shapes_per_category=20, n_points=64,
            epochs_phase1=4, epochs_phase2=2,
        )
        digest = hashlib.sha256(hz.record_to_json(hz.run_openset(cfg)).encode()).hexdigest()
        assert digest == "3867145abb51619c1d485f4f7e0d4e7a2f1847fb67eb7ccc535ea9a8e4c2383d"

    def test_run_leaves_no_live_tape(self, monkeypatch):
        made = []

        class RecordingTape(ad.Tape):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        monkeypatch.setattr(ad, "Tape", RecordingTape)
        gc.disable()
        try:
            rec = hz.run_openset(tiny_config(epochs_phase1=1, epochs_phase2=1))
            assert rec.status == "ok"
            assert len(made) == rec.n_steps
            assert [r for r in made if r() is not None] == []
        finally:
            gc.enable()


class TestSurgery:
    def test_retained_logits_identical_after_expand(self):
        record, params, ds = hz.run_train(tiny_config())
        assert record.status == "ok"
        expanded = md.expand_head(
            params,
            remove_col=ds.unknown_label,
            add_k=len(ds.unknown_source_classes),
            seed=5,
        )
        cloud = ds.test_source[0].points
        before = md.segment_logits(cloud, params)
        after = md.segment_logits(cloud, expanded)
        kept = [c for c in range(params.n_classes) if c != ds.unknown_label]
        assert np.max(np.abs(after[:, : len(kept)] - before[:, kept])) == 0.0

    def test_openset_head_width_follows_manifest(self):
        rec = hz.run_openset(tiny_config())
        assert len(rec.column_manifest) == 21


class TestDivergenceDetection:
    def test_injected_nan_yields_structured_status(self, monkeypatch):
        from openset3cm import loss as ls

        real = ls.total_objective
        calls = {"n": 0}

        def poisoned(logits, labels, agg, cfg):
            obj = real(logits, labels, agg, cfg)
            calls["n"] += 1
            if calls["n"] == 3:
                obj.total.values[...] = float("nan")
            return obj

        monkeypatch.setattr(hz.ls, "total_objective", poisoned)
        rec = hz.run_openset(tiny_config())
        assert rec.status == "diverged"
        assert rec.n_steps == 3
        assert rec.post_report is None

    def test_injected_huge_total_trips_threshold(self, monkeypatch):
        from openset3cm import loss as ls

        real = ls.total_objective

        def poisoned(logits, labels, agg, cfg):
            obj = real(logits, labels, agg, cfg)
            obj.total.values[...] = 2e6
            return obj

        monkeypatch.setattr(hz.ls, "total_objective", poisoned)
        rec = hz.run_openset(tiny_config())
        assert rec.status == "diverged"
        assert rec.n_steps == 1


class TestEmaEndToEnd:
    def test_beta_one_freezes_aggregate_at_uniform(self):
        rec = hz.run_openset(tiny_config(beta=1.0))
        q = np.array(rec.final_q_hat)
        assert np.array_equal(q, np.full(11, 1.0 / 11.0))
        assert rec.seen_count > 0


@pytest.fixture(scope="module")
def lam_rows():
    return hz.sweep_lambda(tiny_config(), [0.5, 0.0], seeds=(0, 1))


class TestSweeps:
    def test_rows_sorted_by_grid_value(self, lam_rows):
        assert [r["lambda_"] for r in lam_rows] == [0.0, 0.5]

    def test_row_aggregates(self, lam_rows):
        for row in lam_rows:
            assert row["n_runs"] == 2
            assert row["n_ok"] == 2
            assert 0.0 <= row["miou_seen"] <= 1.0
            assert 0.0 <= row["miou_unseen"] <= 1.0

    def test_csv_layout(self, lam_rows):
        text = hz.sweep_rows_to_csv(lam_rows, "lambda_")
        lines = text.strip().split("\n")
        assert lines[0] == "lambda,miou_seen,miou_unseen,n_runs,n_ok,status"
        assert len(lines) == 3
        assert lines[1].startswith("0.0,")

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="empty grid"):
            hz.sweep_lambda(tiny_config(), [])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            hz.sweep_lambda(tiny_config(), [-0.1])

    def test_beta_grid_bounds(self):
        with pytest.raises(ValueError, match="EMA factors"):
            hz.sweep_beta(tiny_config(), [1.5])

    def test_sweep_generates_corpus_once(self, monkeypatch):
        calls = []
        real = dt.generate_corpus

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dt, "generate_corpus", counting)
        cfg = tiny_config()
        rows = hz.sweep_lambda(cfg, [0.5, 0.0], seeds=(0, 1))
        assert len(calls) == 1
        # same rows as the mean over standalone runs
        for row in rows:
            runs = [hz.run_openset(replace(cfg, lambda_=row["lambda_"], seed=s)) for s in (0, 1)]
            counts = Counter(r.status for r in runs)
            assert row == {
                "lambda_": row["lambda_"],
                "miou_seen": math.fsum(r.post_report.known_mean for r in runs) / 2,
                "miou_unseen": math.fsum(r.post_report.unknown_mean for r in runs) / 2,
                "n_runs": 2,
                "n_ok": 2,
                "status": ",".join(f"{k}={v}" for k, v in sorted(counts.items())),
            }

    def test_beta_sweep_runs(self):
        rows = hz.sweep_beta(tiny_config(), [1.0], seeds=(0,))
        assert rows[0]["beta"] == 1.0
        assert rows[0]["n_runs"] == 1


class TestExportCurves:
    def test_row_count_and_header(self, tmp_path):
        rec = hz.run_openset(tiny_config(lambda_=0.5))
        out = tmp_path / "curves.csv"
        hz.export_curves(rec, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "step,ce,l3cm,total"
        assert len(lines) == rec.n_steps + 1

    def test_series_round_trip_exactly(self, tmp_path):
        rec = hz.run_openset(tiny_config(lambda_=0.5))
        out = tmp_path / "curves.csv"
        hz.export_curves(rec, out)
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert [float(r[1]) for r in rows] == rec.ce
        assert [float(r[2]) for r in rows] == rec.l3cm
        assert [float(r[3]) for r in rows] == rec.total

    def test_lambda_zero_term_column_all_zero(self, tmp_path):
        rec = hz.run_openset(tiny_config(lambda_=0.0))
        out = tmp_path / "curves.csv"
        hz.export_curves(rec, out)
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert all(r[2] == "0.0" for r in rows)

    def test_unwritable_path_has_context(self, tmp_path):
        rec = hz.run_openset(tiny_config())
        bad = tmp_path / "missing_dir" / "curves.csv"
        with pytest.raises(OSError, match="cannot write curves"):
            hz.export_curves(rec, bad)


class TestCorpusFromDirectory:
    def test_run_from_generated_directory(self, tmp_path):
        clouds = dt.generate_corpus(6, 32, seed=0)
        dt.write_corpus_dir(clouds, tmp_path / "corpus")
        cfg = tiny_config(data_dir=str(tmp_path / "corpus"))
        rec_dir = hz.run_openset(cfg)
        rec_gen = hz.run_openset(tiny_config())
        assert rec_dir.status == "ok"
        a = json.loads(hz.record_to_json(rec_dir))
        b = json.loads(hz.record_to_json(rec_gen))
        # identical clouds, identical training: only the config snapshot differs
        assert a["ce"] == b["ce"]
        assert a["post_report"] == b["post_report"]

    def test_mixed_cloud_sizes_rejected(self, tmp_path):
        clouds = dt.generate_corpus(6, 32, seed=0) + [dt.generate_shape(0, 48, seed=99)]
        dt.write_corpus_dir(clouds, tmp_path / "corpus")
        cfg = tiny_config(data_dir=str(tmp_path / "corpus"))
        with pytest.raises(ValueError, match="uniform n_points"):
            hz.run_openset(cfg)
