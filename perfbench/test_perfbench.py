"""The benchmark's own tests: each output check accepts real program output
and rejects a minimally corrupted copy; a sweep row is the mean of the
standalone runs it aggregates; the tracer counts the steps a record holds.

Tiny configurations keep the whole file to a few seconds.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from openset3cm import autodiff, cli, data, harness, loss, metrics, model  # noqa: E402

from perfbench import checks, spans  # noqa: E402

PROGRAM = dict(
    autodiff=autodiff, model=model, loss=loss, data=data, metrics=metrics, harness=harness, cli=cli
)
TINY = ["shapes_per_category=10", "n_points=32", "batch=4", "lr=0.05"]


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    assert code == 0, argv


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    path = tmp_path_factory.mktemp("rec") / "record.json"
    run_cli(["openset", "--record", path, *TINY, "epochs_phase1=4", "epochs_phase2=1"])
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def disk(tmp_path_factory):
    root = tmp_path_factory.mktemp("disk")
    corpus, ckpt, summary = root / "corpus", root / "model.ckpt", root / "eval.json"
    run_cli(["gen-data", "--out", corpus, "shapes_per_category=5", "n_points=64", "data_seed=3"])
    run_cli(["train", "--checkpoint", ckpt, f"data_dir={corpus}", "lr=0.2", "batch=2",
             "epochs_phase1=3"])
    run_cli(["eval", "--checkpoint", ckpt, "--json", summary, f"data_dir={corpus}"])
    return root


def test_record_check_accepts_real_record(record):
    assert checks.check_openset_record(record, data.CATEGORIES) == []


def test_record_check_rejects_perturbed_total(record):
    bad = json.loads(json.dumps(record))
    bad["total"][7] *= 1.0 + 1e-9
    problems = checks.check_openset_record(bad, data.CATEGORIES)
    assert len(problems) == 1 and problems[0].startswith("step 7: total")


def test_eval_check_matches_and_rejects_shifted_miou(disk):
    parsed = checks.parse_corpus_dir(disk / "corpus")
    ckpt = checks.parse_checkpoint(disk / "model.ckpt")
    known, unknown, _ = checks.merged_miou(parsed, ckpt, data.CATEGORIES, (4, 5, 6, 7))
    summary = json.loads((disk / "eval.json").read_text())
    assert checks.check_eval_summary(summary, known, unknown) == []
    summary["miou_known"] += 1e-9
    assert len(checks.check_eval_summary(summary, known, unknown)) == 1


def test_corpus_check_rejects_last_digit_change(disk, tmp_path):
    reference = data.generate_corpus(5, 64, 3)
    assert checks.check_corpus(checks.parse_corpus_dir(disk / "corpus"), reference) == []
    copy = tmp_path / "corpus"
    copy.mkdir()
    for f in (disk / "corpus").iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    victim = copy / "cat3_shape0002.pcd"
    lines = victim.read_text().split("\n")
    x, rest = lines[5].split(" ", 1)
    mantissa, exp = (x.split("e") + [""])[:2]
    last = str((int(mantissa[-1]) + 1) % 10)
    lines[5] = " ".join([mantissa[:-1] + last + (f"e{exp}" if exp else ""), rest])
    victim.write_text("\n".join(lines))
    assert checks.check_corpus(checks.parse_corpus_dir(copy), reference) == [
        "cat3_shape0002.pcd: differs from the generated cloud"
    ]


def test_sweep_rows_are_fsum_means_of_standalone_runs(tmp_path):
    config = ["shapes_per_category=5", "n_points=16", "batch=4", "epochs_phase1=1",
              "epochs_phase2=1"]
    grid, seeds = (0.3, 0.1), (0, 1)
    table = tmp_path / "sweep.csv"
    run_cli(["sweep-lambda", "--grid", "0.3,0.1", "--seeds", "0,1", "--out", table, *config])
    problems, bad_runs = checks.check_sweep_csv(table.read_text(), grid, seeds)
    assert problems == [] and bad_runs == 0
    rows = [line.split(",") for line in table.read_text().strip().split("\n")[1:]]
    for row in rows:
        reports = []
        for seed in seeds:
            path = tmp_path / f"run-{row[0]}-{seed}.json"
            run_cli(["openset", "--record", path, *config, f"lambda={row[0]}", f"seed={seed}"])
            reports.append(json.loads(path.read_text())["post_report"])
        assert float(row[1]) == math.fsum(r["known_mean"] for r in reports) / len(seeds)
        assert float(row[2]) == math.fsum(r["unknown_mean"] for r in reports) / len(seeds)


def test_sweep_check_rejects_unsorted_rows():
    text = "lambda,miou_seen,miou_unseen,n_runs,n_ok,status\n0.3,0.5,0.5,2,2,ok=2\n0.1,0.5,0.5,2,2,ok=2\n"
    problems, bad_runs = checks.check_sweep_csv(text, (0.1, 0.3), (0, 1))
    assert problems and bad_runs == 4


def test_tracer_counts_record_steps(tmp_path):
    path = tmp_path / "record.json"
    tracer = spans.Tracer()
    tracer.install(PROGRAM)
    try:
        run_cli(["openset", "--record", path, *TINY, "epochs_phase1=1", "epochs_phase2=1"])
    finally:
        tracer.uninstall()
    assert not hasattr(cli.main, "__wrapped__")  # uninstall restored the originals
    steps = len(json.loads(path.read_text())["total"])
    out = spans.layer_metrics(tracer, 1)
    assert tracer.count("loss.total_objective") == out["trace.steps"] == steps
    assert out["autodiff.linear.calls_per_step"] == 2
    assert out["cli.openset.s"] > out["harness.run_openset.s_per_call"] > 0
    assert 0.9 < out["harness.sweep.concurrency"] <= 1.0
