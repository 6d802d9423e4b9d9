"""Subcommand behavior, config plumbing, exit codes. All in-process."""

import json
import os
import subprocess
import sys

import pytest

from openset3cm import cli
from openset3cm import harness as hz
from openset3cm import model as md

TINY_ARGS = [
    "shapes_per_category=6",
    "n_points=32",
    "epochs_phase1=2",
    "epochs_phase2=1",
]


class TestConfigPlumbing:
    def test_config_file_with_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# tiny setup\n"
            "lambda = 0.25\n"
            "\n"
            "seed = 5   # trailing comment\n"
            "n_points = 32\n"
        )
        mapping = cli._read_config_file(cfg)
        assert mapping == {"lambda": "0.25", "seed": "5", "n_points": "32"}

    def test_config_file_bad_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda 0.25\n")
        with pytest.raises(ValueError, match="expected key = value"):
            cli._read_config_file(cfg)

    def test_missing_config_file_is_config_error(self, tmp_path):
        rc = cli.main(["openset", "--config", str(tmp_path / "absent.cfg")])
        assert rc == cli.EXIT_CONFIG

    def test_override_beats_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv(hz.SEED_ENV_VAR, raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nlambda = 0.25\n")
        rec_path = tmp_path / "rec.json"
        rc = cli.main(
            ["openset", "--config", str(cfg), "--record", str(rec_path)]
            + TINY_ARGS
            + ["seed=9"]
        )
        assert rc == cli.EXIT_OK
        snap = json.loads(rec_path.read_text())["config"]
        assert snap["seed"] == 9
        assert snap["lambda_"] == 0.25

    def test_env_seed_beats_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv(hz.SEED_ENV_VAR, "42")
        rec_path = tmp_path / "rec.json"
        rc = cli.main(
            ["openset", "--record", str(rec_path)] + TINY_ARGS + ["seed=9"]
        )
        assert rc == cli.EXIT_OK
        assert json.loads(rec_path.read_text())["config"]["seed"] == 42

    def test_unknown_key_exit_code(self):
        assert cli.main(["openset", "bogus=1"]) == cli.EXIT_CONFIG

    def test_invalid_value_exit_code(self):
        assert cli.main(["openset", "beta=1.5"] + TINY_ARGS) == cli.EXIT_CONFIG

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


class TestGenData:
    def test_writes_corpus_directory(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        rc = cli.main(
            ["gen-data", "--out", str(out), "shapes_per_category=6", "n_points=32"]
        )
        assert rc == cli.EXIT_OK
        assert (out / "manifest.txt").exists()
        assert len(list(out.glob("*.pcd"))) == 48
        assert "wrote 48 clouds" in capsys.readouterr().out


class TestTrainEval:
    def test_checkpoint_round_trip_through_eval(self, tmp_path, monkeypatch):
        monkeypatch.delenv(hz.SEED_ENV_VAR, raising=False)
        ck = tmp_path / "weights.txt"
        rc = cli.main(["train", "--checkpoint", str(ck)] + TINY_ARGS)
        assert rc == cli.EXIT_OK
        params = md.load_params(ck)
        assert params.n_classes == 11
        csv_path = tmp_path / "per_cat.csv"
        json_path = tmp_path / "summary.json"
        rc = cli.main(
            ["eval", "--checkpoint", str(ck), "--csv", str(csv_path),
             "--json", str(json_path)]
            + TINY_ARGS
        )
        assert rc == cli.EXIT_OK
        assert csv_path.read_text().startswith("category,n_shapes,miou,group")
        summary = json.loads(json_path.read_text())
        assert set(summary) == {
            "miou_known", "miou_unknown", "miou_categories", "miou_shapes"
        }

    def test_eval_rejects_width_mismatch(self, tmp_path, monkeypatch):
        monkeypatch.delenv(hz.SEED_ENV_VAR, raising=False)
        params = md.init_params(n_classes=7, seed=0)
        ck = tmp_path / "weights.txt"
        md.save_params(params, ck)
        rc = cli.main(["eval", "--checkpoint", str(ck)] + TINY_ARGS)
        assert rc == cli.EXIT_CONFIG

    def test_eval_truncated_checkpoint_exits_config_error(self, tmp_path, capsys):
        ck = tmp_path / "weights.txt"
        ck.write_text("#params v1\n")
        rc = cli.main(["eval", "--checkpoint", str(ck)] + TINY_ARGS)
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: {ck}:2: missing layer count" in err
        assert "config error" not in err


class TestOpenset:
    def test_full_run_reports_and_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(hz.SEED_ENV_VAR, raising=False)
        rec_path = tmp_path / "rec.json"
        rc = cli.main(["openset", "--record", str(rec_path)] + TINY_ARGS)
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "pre-surgery:" in out
        assert "post-surgery:" in out
        assert "status: ok" in out
        payload = json.loads(rec_path.read_text())
        assert payload["status"] == "ok"

    def test_diverged_run_exits_3(self, monkeypatch):
        from openset3cm import loss as ls

        real = ls.total_objective

        def poisoned(logits, labels, agg, cfg):
            obj = real(logits, labels, agg, cfg)
            obj.total.values[...] = float("inf")
            return obj

        monkeypatch.setattr(hz.ls, "total_objective", poisoned)
        rc = cli.main(["openset"] + TINY_ARGS)
        assert rc == cli.EXIT_DIVERGED


class TestSweepCommands:
    def test_lambda_sweep_stdout(self, capsys, monkeypatch):
        monkeypatch.delenv(hz.SEED_ENV_VAR, raising=False)
        rc = cli.main(
            ["sweep-lambda", "--grid", "0", "--seeds", "0"] + TINY_ARGS
        )
        assert rc == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "lambda,miou_seen,miou_unseen,n_runs,n_ok,status"
        assert len(lines) == 2

    def test_beta_sweep_to_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv(hz.SEED_ENV_VAR, raising=False)
        out = tmp_path / "beta.csv"
        rc = cli.main(
            ["sweep-beta", "--grid", "1.0,0.9", "--seeds", "0", "--out", str(out)]
            + TINY_ARGS
        )
        assert rc == cli.EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("beta,")
        assert len(lines) == 3
        assert lines[1].startswith("0.9,")

    def test_empty_seed_list_rejected(self):
        assert cli.main(["sweep-lambda", "--seeds", " "] + TINY_ARGS) == cli.EXIT_CONFIG


class TestExportCurves:
    def test_export_from_record_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv(hz.SEED_ENV_VAR, raising=False)
        rec_path = tmp_path / "rec.json"
        assert cli.main(["openset", "--record", str(rec_path)] + TINY_ARGS) == 0
        out = tmp_path / "curves.csv"
        rc = cli.main(
            ["export-curves", "--record", str(rec_path), "--out", str(out)]
        )
        assert rc == cli.EXIT_OK
        lines = out.read_text().strip().split("\n")
        n_steps = len(json.loads(rec_path.read_text())["total"])
        assert lines[0] == "step,ce,l3cm,total"
        assert len(lines) == n_steps + 1

    def test_missing_record_is_config_error(self, tmp_path):
        rc = cli.main(
            ["export-curves", "--record", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "c.csv")]
        )
        assert rc == cli.EXIT_CONFIG

    def test_malformed_record_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = cli.main(
            ["export-curves", "--record", str(bad), "--out", str(tmp_path / "c.csv")]
        )
        assert rc == cli.EXIT_CONFIG


def _ok_record(config):
    return hz.RunRecord(config=config.to_dict(), seed=config.seed, status="ok")


class TestBlasThreadPin:
    """Every command runs with OpenBLAS on one thread and leaves the
    caller's count as it found it."""

    @pytest.fixture
    def blas_threads(self):
        calls = hz._openblas_thread_calls()
        if calls is None:
            pytest.skip("no OpenBLAS loaded")
        get_fn, set_fn = calls
        before = get_fn()
        set_fn(2)  # a count the pin must change and then restore
        yield get_fn
        set_fn(before)

    def test_command_runs_on_one_thread(self, blas_threads, monkeypatch):
        seen = []

        def fake_run_openset(config):
            seen.append(blas_threads())
            return _ok_record(config)

        monkeypatch.setattr(hz, "run_openset", fake_run_openset)
        assert cli.main(["openset"] + TINY_ARGS) == cli.EXIT_OK
        assert seen == [1]
        assert blas_threads() == 2

    def test_count_restored_after_config_error(self, blas_threads):
        assert cli.main(["openset", "beta=1.5"] + TINY_ARGS) == cli.EXIT_CONFIG
        assert blas_threads() == 2

    @pytest.mark.parametrize("hide", ["library", "symbols"])
    def test_runs_without_openblas(self, hide, monkeypatch):
        if hide == "library":
            monkeypatch.setattr(hz, "_openblas_thread_calls", lambda: None)
        else:
            monkeypatch.setattr(hz, "_OPENBLAS_THREAD_SYMBOLS", ())
            assert hz._openblas_thread_calls() is None
        monkeypatch.setattr(hz, "run_openset", _ok_record)
        assert cli.main(["openset"] + TINY_ARGS) == cli.EXIT_OK

    def test_import_opens_nothing_and_loads_no_library(self):
        # numpy first: its own import maps OpenBLAS; the package's must not
        probe = (
            "import sys, numpy\n"
            "events = []\n"
            "sys.addaudithook(lambda e, a: events.append((e, a[0])) "
            "if e in ('open', 'ctypes.dlopen') else None)\n"
            "import openset3cm.cli\n"
            "bad = [(e, a) for e, a in events if e == 'ctypes.dlopen' or "
            "not str(a).endswith(('.py', '.pyc'))]\n"
            "print(bad)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip() == "[]"
