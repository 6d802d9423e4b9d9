"""Run orchestration: the two-phase open-set protocol and ablation sweeps.

A run trains phase 1 on the merged-label view of the corpus (cross-entropy
plus the weighted unknown-cluster spread term, cluster average tracked by
EMA), evaluates, performs head surgery (drop the unknown column, append one
column per revealed source label), fine-tunes phase 2 on original labels,
and evaluates again. Everything a run produces lands in a RunRecord whose
serialized form is byte-stable: identical config and seed give identical
bytes, wall-clock time is kept out of the payload.

Divergence (non-finite loss or total above the threshold) is a structured
outcome, never an exception: the record carries status "diverged" and
whatever series were collected up to the abort. A run that finishes with no
training progress at all is marked "degraded".
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import data as dt
from . import loss as ls
from . import metrics as mt
from . import model as md

__all__ = [
    "RunConfig",
    "RunRecord",
    "DIVERGENCE_THRESHOLD",
    "SEED_ENV_VAR",
    "run_openset",
    "run_train",
    "evaluate_params",
    "load_corpus",
    "sweep_lambda",
    "sweep_beta",
    "export_curves",
    "record_to_json",
    "record_from_json",
]

DIVERGENCE_THRESHOLD = 1e6
SEED_ENV_VAR = "OPENSET3CM_SEED"
_QHAT_EVERY = 25

# mean L1 movement of q_hat between trace checkpoints, averaged over the
# last tenth of phase 1: a settled tracker moves well under this; with no
# averaging (beta near 0) it keeps jumping by the full batch scatter
Q_HAT_SETTLE_THRESHOLD = 0.03


@dataclass
class RunConfig:
    """Everything one run needs; file keys match the field names below,
    except ``lambda_`` which is spelled ``lambda`` in config files and
    ``unknown_categories`` which is spelled ``unknown_classes``."""

    lambda_: float = 0.5
    beta: float = 0.995
    sign_mode: str = "maximize_cmi"
    lr: float = 0.01
    epochs_phase1: int = 60
    epochs_phase2: int = 30
    batch: int = 8
    seed: int = 0
    n_points: int = 256
    shapes_per_category: int = 200
    data_seed: int = 0
    unknown_categories: tuple = (4, 5, 6, 7)
    data_dir: str = ""
    augment: bool = True
    phase2_l3cm: bool = False

    def validate(self) -> None:
        # TrainConfig re-validates the objective fields; check the rest here
        _train_config(self, self.lambda_, self.epochs_phase1, unknown_label=0)
        if self.epochs_phase2 < 0:
            raise ValueError("epochs_phase2 must be nonnegative")
        if self.n_points < 8:
            raise ValueError("n_points must be at least 8")
        if self.shapes_per_category < 5:
            raise ValueError("need at least 5 shapes per category for an 80/20 split")
        ids = {c.category for c in dt.CATEGORIES}
        chosen = set(self.unknown_categories)
        if not chosen or not chosen <= ids or chosen == ids:
            raise ValueError(
                f"unknown_categories must be a nonempty proper subset of {sorted(ids)}"
            )

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["unknown_categories"] = list(self.unknown_categories)
        return out

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        """Build from flat string key-values (config file / CLI overrides).

        The ``OPENSET3CM_SEED`` environment variable, when set, wins over
        any seed given here.
        """
        kinds = {f.name: f.type for f in dataclasses.fields(cls)}
        kwargs = {}
        for raw_key, raw in mapping.items():
            key = _CONFIG_ALIASES.get(raw_key, raw_key)
            kind = kinds.get(key)
            if kind is None:
                raise ValueError(f"unknown config key {raw_key!r}")
            if kind == "tuple":
                parts = raw.replace(",", " ").split() if isinstance(raw, str) else raw
                kwargs[key] = tuple(int(p) for p in parts)
            elif kind == "bool" and isinstance(raw, str):
                if raw not in ("0", "1"):
                    raise ValueError(f"config key {raw_key}: expected 0 or 1, got {raw!r}")
                kwargs[key] = raw == "1"
            else:
                kwargs[key] = _SCALAR_PARSERS[kind](raw)
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            kwargs["seed"] = int(env_seed)
        config = cls(**kwargs)
        config.validate()
        return config


# config-file spellings that differ from the field names (see RunConfig)
_CONFIG_ALIASES = {"lambda": "lambda_", "unknown_classes": "unknown_categories"}
# RunConfig field annotations are strings under `from __future__ import annotations`
_SCALAR_PARSERS = {"float": float, "int": int, "str": str, "bool": bool}


def _train_config(config: RunConfig, lambda_: float, epochs: int, unknown_label: int):
    return ls.TrainConfig(
        lambda_=lambda_,
        beta=config.beta,
        sign_mode=config.sign_mode,
        lr=config.lr,
        epochs=epochs,
        batch=config.batch,
        seed=config.seed,
        unknown_label=unknown_label,
    )


@dataclass
class RunRecord:
    """One run's full story; ``wall_clock`` never enters the serialization."""

    config: dict
    seed: int
    status: str
    phase: list = field(default_factory=list)
    ce: list = field(default_factory=list)
    l3cm: list = field(default_factory=list)
    total: list = field(default_factory=list)
    epoch_summaries: list = field(default_factory=list)
    q_hat_trace: list = field(default_factory=list)
    final_q_hat: list = field(default_factory=list)
    seen_count: int = 0
    column_manifest: list = field(default_factory=list)
    pre_report: mt.IoUReport | None = None
    post_report: mt.IoUReport | None = None
    wall_clock: float = 0.0

    @property
    def n_steps(self) -> int:
        return len(self.total)


def _report_payload(report: mt.IoUReport | None):
    if report is None:
        return None
    return {
        "per_shape": [[c, v] for c, v in report.per_shape],
        "category_means": {str(c): v for c, v in report.category_means.items()},
        "category_counts": {str(c): n for c, n in report.category_counts.items()},
        "known_mean": report.known_mean,
        "unknown_mean": report.unknown_mean,
        "n_shapes": report.n_shapes,
    }


def _report_from_payload(payload) -> mt.IoUReport | None:
    if payload is None:
        return None
    return mt.IoUReport(
        per_shape=[(int(c), float(v)) for c, v in payload["per_shape"]],
        category_means={int(c): v for c, v in payload["category_means"].items()},
        category_counts={int(c): n for c, n in payload["category_counts"].items()},
        known_mean=payload["known_mean"],
        unknown_mean=payload["unknown_mean"],
        n_shapes=payload["n_shapes"],
    )


# serialized keys: every field but ``wall_clock``; ``*_report`` fields are IoUReports
_RECORD_KEYS = tuple(f.name for f in dataclasses.fields(RunRecord) if f.name != "wall_clock")


def record_to_json(record: RunRecord) -> str:
    payload = {}
    for key in _RECORD_KEYS:
        value = getattr(record, key)
        payload[key] = _report_payload(value) if key.endswith("_report") else value
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def record_from_json(text: str) -> RunRecord:
    payload = json.loads(text)
    return RunRecord(
        **{
            key: _report_from_payload(payload[key]) if key.endswith("_report") else payload[key]
            for key in _RECORD_KEYS
        }
    )


# ---------------------------------------------------------------------------
# BLAS threading
# ---------------------------------------------------------------------------

# (get, set) thread-count entry points, in lookup order: the scipy-openblas
# build that NumPy wheels bundle, then plain and 64-bit-suffixed OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


def _openblas_thread_calls():
    """The loaded OpenBLAS's (get, set) thread-count functions, or None.

    Finds the library among the process's mapped files, so it names the
    copy NumPy actually calls; None when none is mapped, no candidate
    exports a get/set pair, or ``/proc`` is unreadable.
    """
    try:
        with open("/proc/self/maps", "rb") as fh:
            libs = sorted(
                {os.fsdecode(ln.split()[-1]) for ln in fh if b"openblas" in ln and b".so" in ln}
            )
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get_fn = getattr(handle, get_name, None)
            set_fn = getattr(handle, set_name, None)
            if get_fn is not None and set_fn is not None:
                get_fn.restype, get_fn.argtypes = ctypes.c_int, []
                set_fn.restype, set_fn.argtypes = None, [ctypes.c_int]
                return get_fn, set_fn
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread; restore the count after.

    The largest product here, (2048 x 64) . (64 x 64), gains no wall time
    from a second thread, which only spin-waits between calls. OpenBLAS
    splits a product over output blocks, never over the inner dimension,
    so results do not depend on the thread count. Does nothing when no
    OpenBLAS is loaded.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get_fn, set_fn = calls
    before = get_fn()
    set_fn(1)
    try:
        yield
    finally:
        set_fn(before)


# ---------------------------------------------------------------------------
# training internals
# ---------------------------------------------------------------------------


def load_corpus(config: RunConfig) -> list:
    if config.data_dir:
        clouds = dt.load_corpus_dir(config.data_dir)
        sizes = {c.n_points for c in clouds}
        if len(sizes) != 1:
            raise ValueError(f"corpus mixes cloud sizes {sorted(sizes)}; need uniform n_points")
        return clouds
    return dt.generate_corpus(config.shapes_per_category, config.n_points, config.data_seed)


def _phase1_part_sets(ds: dt.OpenSetDataset) -> dict:
    out = {}
    for cat in dt.CATEGORIES:
        mapped = {ds.label_map[l] for l in cat.part_labels if l in ds.label_map}
        out[cat.category] = mapped
    return out


class _Trainer:
    """Single-run state: the rng stream, the step count, the growing record."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.record = RunRecord(config=config.to_dict(), seed=config.seed, status="ok")
        self.rng = np.random.default_rng([config.seed, 0x3C])
        self.step = 0
        self.t0 = time.perf_counter()

    def finish(self) -> RunRecord:
        self.record.wall_clock = time.perf_counter() - self.t0
        return self.record

    def _batch_arrays(self, clouds, ids):
        blocks = []
        for i in ids:
            pts = clouds[i].points
            if self.config.augment:
                pts = dt.augment_cloud(pts, self.rng)
            blocks.append(pts)
        return np.vstack(blocks)

    def run_phase(self, phase, params, clouds, label_arrays, cfg, agg):
        """Train one phase; returns the final aggregate or None on divergence.

        Each step puts ``params.flat`` on the tape as one leaf, carves it
        with `md.nodes_from_vector` and updates it with one vector SGD step.
        """
        record = self.record
        n_points = clouds[0].n_points
        order = np.arange(len(clouds))
        for epoch in range(cfg.epochs):
            self.rng.shuffle(order)
            epoch_ce, epoch_total = [], []
            for start in range(0, len(order) - cfg.batch + 1, cfg.batch):
                ids = order[start : start + cfg.batch]
                pts = self._batch_arrays(clouds, ids)
                labels = np.concatenate([label_arrays[i] for i in ids])
                tape = ad.Tape()
                leaf = tape.leaf(params.flat)
                nodes = md.nodes_from_vector(tape, leaf, params)
                logits = md.build_seg_logits(
                    tape, nodes, tape.constant(pts), len(ids), n_points
                )
                obj = ls.total_objective(logits, labels, agg, cfg)
                ce_v = obj.ce.item()
                l3_v = obj.l3cm_term.item() if obj.l3cm_term is not None else 0.0
                total_v = obj.total.item()
                record.phase.append(phase)
                record.ce.append(ce_v)
                record.l3cm.append(l3_v)
                record.total.append(total_v)
                epoch_ce.append(ce_v)
                epoch_total.append(total_v)
                if not math.isfinite(total_v) or abs(total_v) > DIVERGENCE_THRESHOLD:
                    record.status = "diverged"
                    return None
                ad.backward(tape, obj.total)
                params.flat -= cfg.lr * leaf.grad
                if obj.unknown_rows.size:
                    agg = ls.ema_update(agg, obj.probs.array[obj.unknown_rows])
                self.step += 1
                if phase == 1 and self.step % _QHAT_EVERY == 0:
                    record.q_hat_trace.append([self.step, *agg.q_hat.tolist()])
            record.epoch_summaries.append(
                {
                    "phase": phase,
                    "epoch": epoch,
                    "mean_ce": math.fsum(epoch_ce) / len(epoch_ce) if epoch_ce else None,
                    "mean_total": math.fsum(epoch_total) / len(epoch_total)
                    if epoch_total
                    else None,
                }
            )
        return agg


def evaluate_params(params: md.ModelParams, ds: dt.OpenSetDataset, config: RunConfig,
                    *, surgery_done: bool) -> mt.IoUReport:
    """Test-split mIoU report, in the label space the head currently has.

    Before surgery predictions live in the merged phase-1 space; after it,
    output columns are translated back to original labels through the
    recorded column manifest.
    """
    records = []
    if surgery_done:
        manifest = np.array(ds.phase2_column_manifest())
        for cloud in ds.test_source:
            pred_cols = np.argmax(md.segment_logits(cloud.points, params), axis=1)
            pred = manifest[pred_cols]
            parts = dt.CATEGORIES[cloud.category].part_labels
            records.append((cloud.category, mt.shape_miou(pred, cloud.part_labels, parts)))
    else:
        part_sets = _phase1_part_sets(ds)
        for cloud in ds.test:
            pred = np.argmax(md.segment_logits(cloud.points, params), axis=1)
            parts = part_sets[cloud.category]
            records.append((cloud.category, mt.shape_miou(pred, cloud.part_labels, parts)))
    return mt.compile_report(records, unknown_categories=config.unknown_categories)


def _assess_convergence(record: RunRecord) -> None:
    """Mark the run degraded when phase 1 shows no real convergence.

    Two independent triggers: the cross-entropy tail is no better than the
    opening stretch (optimization made no progress), or the tracked class
    average q_hat is still jumping at the end of phase 1 (the average never
    settled, which is what a too-small EMA factor looks like).
    """
    phase1_ce = [c for p, c in zip(record.phase, record.ce) if p == 1]
    if len(phase1_ce) >= 20:
        decile = max(1, len(phase1_ce) // 10)
        head = math.fsum(phase1_ce[:decile]) / decile
        tail = math.fsum(phase1_ce[-decile:]) / decile
        if tail >= head:
            record.status = "degraded"
            return
    if len(record.q_hat_trace) >= 6:
        q = np.array([row[1:] for row in record.q_hat_trace])
        steps = np.abs(np.diff(q, axis=0)).sum(axis=1)
        k = max(1, len(steps) // 10)
        if steps[-k:].mean() > Q_HAT_SETTLE_THRESHOLD:
            record.status = "degraded"


def _run_phase1(config: RunConfig, clouds):
    """The start every run shares: split, init, phase 1, evaluation.

    Returns (trainer, params, ds). When phase 1 diverged the record's
    status says so and it holds no evaluation; otherwise it carries the
    tracker state, the pre-surgery report and the convergence verdict.
    """
    config.validate()
    trainer = _Trainer(config)
    if clouds is None:
        clouds = load_corpus(config)
    ds = dt.build_openset_split(clouds, dt.labels_for_categories(config.unknown_categories))
    params = md.init_params(ds.n_train_labels, seed=config.seed)
    cfg1 = _train_config(config, config.lambda_, config.epochs_phase1, ds.unknown_label)
    agg = ls.EmaAggregate.uniform(ds.n_train_labels, config.beta)
    labels1 = [c.part_labels for c in ds.train]
    agg = trainer.run_phase(1, params, ds.train, labels1, cfg1, agg)
    if agg is not None:
        record = trainer.record
        record.final_q_hat = agg.q_hat.tolist()
        record.seen_count = agg.seen_count
        record.pre_report = evaluate_params(params, ds, config, surgery_done=False)
        _assess_convergence(record)
    return trainer, params, ds


def run_openset(config: RunConfig, clouds=None) -> RunRecord:
    """The full protocol: train, evaluate, head surgery, fine-tune, evaluate.

    `clouds`, when given, is the corpus `load_corpus(config)` would return;
    the run only reads it, so callers may share one corpus across runs.
    """
    trainer, params, ds = _run_phase1(config, clouds)
    record = trainer.record
    if record.status == "diverged":
        return trainer.finish()

    # head surgery: drop the merged column, one fresh column per source label
    add_k = len(ds.unknown_source_classes)
    params = md.expand_head(
        params, remove_col=ds.unknown_label, add_k=add_k, seed=config.seed + 1
    )
    record.column_manifest = ds.phase2_column_manifest()

    phase2_lookup = ds.phase2_label_lookup()
    labels2 = [phase2_lookup[c.part_labels] for c in ds.train_source]
    n_phase2 = len(record.column_manifest)
    # no point carries label n_phase2: the term keys on the merged cluster,
    # which no longer exists after surgery
    cfg2 = _train_config(
        config, config.lambda_ if config.phase2_l3cm else 0.0, config.epochs_phase2, n_phase2
    )
    agg2 = ls.EmaAggregate.uniform(n_phase2, config.beta)
    if trainer.run_phase(2, params, ds.train_source, labels2, cfg2, agg2) is not None:
        record.post_report = evaluate_params(params, ds, config, surgery_done=True)
    return trainer.finish()


def run_train(config: RunConfig) -> tuple:
    """Phase 1 only: train on the merged-label view and evaluate.

    Returns (record, params, dataset) so callers can checkpoint the weights.
    """
    trainer, params, ds = _run_phase1(config, None)
    return trainer.finish(), params, ds


# ---------------------------------------------------------------------------
# sweeps and exports
# ---------------------------------------------------------------------------


def _sweep(config: RunConfig, grid, seeds, field_name: str) -> list:
    # the swept field and the seed never reach the corpus: load it once
    config.validate()
    clouds = load_corpus(config)
    rows = []
    for value in sorted(grid):
        runs = [
            run_openset(replace(config, **{field_name: value, "seed": seed}), clouds)
            for seed in seeds
        ]
        ok = [r for r in runs if r.status != "diverged" and r.post_report is not None]
        counts: dict = {}
        for r in runs:
            counts[r.status] = counts.get(r.status, 0) + 1
        status = ",".join(f"{k}={v}" for k, v in sorted(counts.items()))
        seen = [r.post_report.known_mean for r in ok]
        unseen = [r.post_report.unknown_mean for r in ok]
        rows.append(
            {
                field_name: value,
                "miou_seen": math.fsum(seen) / len(seen) if seen else None,
                "miou_unseen": math.fsum(unseen) / len(unseen) if unseen else None,
                "n_runs": len(runs),
                "n_ok": len(ok),
                "status": status,
            }
        )
    return rows


def sweep_lambda(config: RunConfig, grid, seeds=(0, 1, 2, 3, 4)) -> list:
    """One aggregated row per weight value, sorted ascending."""
    if not grid:
        raise ValueError("empty grid")
    if any(v < 0 for v in grid):
        raise ValueError("weights must be nonnegative")
    return _sweep(config, grid, seeds, "lambda_")


def sweep_beta(config: RunConfig, grid, seeds=(0, 1, 2, 3, 4)) -> list:
    if not grid:
        raise ValueError("empty grid")
    if any(not 0.0 <= v <= 1.0 for v in grid):
        raise ValueError("EMA factors must lie in [0, 1]")
    return _sweep(config, grid, seeds, "beta")


def sweep_rows_to_csv(rows: list, field_name: str) -> str:
    header = f"{field_name.rstrip('_')},miou_seen,miou_unseen,n_runs,n_ok,status"
    lines = [header]
    for row in rows:
        seen = "NA" if row["miou_seen"] is None else repr(row["miou_seen"])
        unseen = "NA" if row["miou_unseen"] is None else repr(row["miou_unseen"])
        lines.append(
            f"{row[field_name]!r},{seen},{unseen},{row['n_runs']},{row['n_ok']},{row['status']}"
        )
    return "\n".join(lines) + "\n"


def export_curves(record: RunRecord, path) -> None:
    """CSV of the loss series: ``step, ce, l3cm, total``, one row per step."""
    lines = ["step,ce,l3cm,total"]
    for i in range(record.n_steps):
        lines.append(f"{i},{record.ce[i]!r},{record.l3cm[i]!r},{record.total[i]!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write curves to {path}: {exc}") from exc
