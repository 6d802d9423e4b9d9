"""The three workloads: what each job runs through the CLI, and how its
outputs are checked.

A job's program seeds come from the benchmark seed and the job's index in
the run, so the same `--seed` always gives the same inputs. Each job is a
fixed list of CLI commands; `check` returns how many of the job's
operations were attempted and how many failed (a command that exits
non-zero, raises, or writes output that fails its check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks


@dataclass
class Outcome:
    attempted: int
    failed: int
    steps: int  # training steps the job ran, from its record or its config
    problems: list = field(default_factory=list)


def program_seeds(seed: int, job: int) -> tuple[int, int]:
    """(training seed, data seed) of job `job` in a run with benchmark seed `seed`."""
    a, b = np.random.default_rng([seed, job]).integers(0, 2**31, size=2)
    return int(a), int(b)


class OpensetDense:
    """`openset --record` on the default corpus: 200 shapes per category,
    256 points, batch 8 (2 048 points per step), lambda 0.5, 2 + 1 epochs."""

    name = "openset_dense"
    ops = 1
    config = ["lambda=0.5", "epochs_phase1=2", "epochs_phase2=1"]

    def warmup(self, tmp: Path) -> list:
        return [["openset", "shapes_per_category=5", "epochs_phase1=1", "epochs_phase2=1"]]

    def commands(self, seeds, tmp: Path) -> list:
        a, b = seeds
        record = tmp / "record.json"
        return [["openset", "--record", str(record), *self.config, f"seed={a}", f"data_seed={b}"]]

    def check(self, seeds, tmp: Path, codes, program) -> Outcome:
        if codes != [0]:
            return Outcome(self.ops, self.ops, 0, [f"openset exited {codes[0]}"])
        record = checks.load_json(tmp / "record.json")
        problems = checks.check_openset_record(record, program.data.CATEGORIES)
        return Outcome(self.ops, int(bool(problems)), len(record["total"]), problems)


class SweepSparse:
    """`sweep-lambda --out` at the sparse operating point: batch 2, 64 points
    (128 points per step), 50 shapes per category, 2 + 1 epochs, a 4-value
    grid over 2 training seeds. One operation is one of the 8 runs."""

    name = "sweep_sparse"
    grid = (0.1, 0.3, 0.5, 0.7)
    n_seeds, shapes, epochs = 2, 50, (2, 1)
    ops = len(grid) * n_seeds
    config = ["batch=2", "n_points=64", f"shapes_per_category={shapes}",
              f"epochs_phase1={epochs[0]}", f"epochs_phase2={epochs[1]}"]

    def _seeds(self, seeds):
        return [seeds[0] + i for i in range(self.n_seeds)]

    def warmup(self, tmp: Path) -> list:
        return [[
            "sweep-lambda", "--grid", "0.5", "--seeds", "0", "--out", str(tmp / "warm.csv"),
            "batch=2", "n_points=64", "shapes_per_category=5", "epochs_phase1=1", "epochs_phase2=1",
        ]]

    def commands(self, seeds, tmp: Path) -> list:
        train_seeds = ",".join(str(s) for s in self._seeds(seeds))
        grid = ",".join(str(g) for g in self.grid)
        return [[
            "sweep-lambda", "--grid", grid, "--seeds", train_seeds, "--out", str(tmp / "sweep.csv"),
            *self.config, f"data_seed={seeds[1]}",
        ]]

    def steps(self) -> int:
        n_train, _ = checks.split_sizes(self.shapes, 8)
        return len(self.grid) * self.n_seeds * sum(self.epochs) * (n_train // 2)

    def check(self, seeds, tmp: Path, codes, program) -> Outcome:
        if codes != [0]:
            return Outcome(self.ops, self.ops, self.steps(), [f"sweep-lambda exited {codes[0]}"])
        text = (tmp / "sweep.csv").read_text(encoding="utf-8")
        problems, bad_runs = checks.check_sweep_csv(text, self.grid, self._seeds(seeds))
        return Outcome(self.ops, bad_runs, self.steps(), problems)


class DiskCheckpoint:
    """The file workflow: `gen-data` (50 shapes per category, 512 points),
    `train --checkpoint` on that directory (batch 2, lr 0.2, 2 epochs, the
    umbrella category hidden), then `eval --checkpoint --json` on it. One
    operation is one command.

    With the default four hidden categories the merged label covers half of
    all points, and short runs often predict nothing else: at batch 2 and
    lr 0.2 one seed in fifty still did after 5 epochs. With one hidden
    category, 2 epochs separated at least 4 labels on every seed tried."""

    name = "disk_checkpoint"
    ops = 3
    shapes, points, epochs = 50, 512, 2
    unknown = (7,)
    hidden = "unknown_classes=" + ",".join(str(c) for c in unknown)
    train = ["batch=2", "lr=0.2", f"epochs_phase1={epochs}", hidden]

    def warmup(self, tmp: Path) -> list:
        corpus = tmp / "warm-corpus"
        ckpt = tmp / "warm.ckpt"
        return [
            ["gen-data", "--out", str(corpus), "shapes_per_category=5", f"n_points={self.points}"],
            ["train", "--checkpoint", str(ckpt), f"data_dir={corpus}", "epochs_phase1=1", self.hidden],
            ["eval", "--checkpoint", str(ckpt), "--json", str(tmp / "warm.json"), f"data_dir={corpus}",
             self.hidden],
        ]

    def commands(self, seeds, tmp: Path) -> list:
        a, b = seeds
        corpus, ckpt = tmp / "corpus", tmp / "model.ckpt"
        return [
            ["gen-data", "--out", str(corpus), f"shapes_per_category={self.shapes}",
             f"n_points={self.points}", f"data_seed={b}"],
            ["train", "--checkpoint", str(ckpt), f"data_dir={corpus}", *self.train, f"seed={a}"],
            ["eval", "--checkpoint", str(ckpt), "--json", str(tmp / "eval.json"), f"data_dir={corpus}",
             self.hidden],
        ]

    def steps(self) -> int:
        n_train, _ = checks.split_sizes(self.shapes, 8)
        return self.epochs * (n_train // 2)

    def check(self, seeds, tmp: Path, codes, program) -> Outcome:
        # the commands are checked in order; a command whose input failed
        # its check cannot be verified and counts as failed too
        def outcome(passed, problems):
            return Outcome(self.ops, self.ops - passed, self.steps(), problems)

        data = program.data
        if codes[0] != 0:
            return outcome(0, [f"gen-data exited {codes[0]}"])
        try:
            parsed = checks.parse_corpus_dir(tmp / "corpus")
        except (OSError, ValueError) as exc:
            return outcome(0, [f"corpus: {exc}"])
        reference = data.generate_corpus(self.shapes, self.points, seeds[1])
        if problems := checks.check_corpus(parsed, reference):
            return outcome(0, problems)
        if codes[1] != 0:
            return outcome(1, [f"train exited {codes[1]}"])
        try:
            ckpt = checks.parse_checkpoint(tmp / "model.ckpt")
        except (OSError, ValueError) as exc:
            return outcome(1, [f"checkpoint: {exc}"])
        known, unknown, predicted = checks.merged_miou(parsed, ckpt, data.CATEGORIES, self.unknown)
        if problems := checks.check_predicts_labels(predicted):
            return outcome(1, problems)
        if codes[2] != 0:
            return outcome(2, [f"eval exited {codes[2]}"])
        problems = checks.check_eval_summary(checks.load_json(tmp / "eval.json"), known, unknown)
        return outcome(2 if problems else 3, problems)


WORKLOADS = {w.name: w for w in (OpensetDense(), SweepSparse(), DiskCheckpoint())}


def corpus_mb(root: Path) -> float:
    """Bytes on disk of a corpus directory's files, in MB."""
    return math.fsum(p.stat().st_size for p in root.iterdir()) / 1e6 if root.is_dir() else 0.0
