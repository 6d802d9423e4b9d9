"""Command-line front end.

Subcommands: gen-data, train, openset, sweep-lambda, sweep-beta, eval,
export-curves. Runs are configured by a flat key=value text file plus
key=value overrides on the command line; `OPENSET3CM_SEED` in the
environment beats both. Exit codes: 0 success, 2 error in the config, the
data, a checkpoint or a file written (the message names the file and line
where it can), 3 diverged run (single-run subcommands only). Every command
runs with OpenBLAS on one thread (`harness._one_blas_thread`).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import data as dt
from . import harness as hz
from . import metrics as mt
from . import model as md

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _read_config_file(path) -> dict:
    """Flat ``key = value`` lines; blank lines and # comments ignored."""
    mapping = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise dt._not_utf8(path) from None
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {line.strip()!r}")
        key, _, value = text.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def _config_from_args(args) -> hz.RunConfig:
    mapping = {}
    if getattr(args, "config", None):
        mapping.update(_read_config_file(args.config))
    for item in getattr(args, "overrides", []) or []:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not key=value")
        key, _, value = item.partition("=")
        mapping[key.strip()] = value.strip()
    return hz.RunConfig.from_mapping(mapping)


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _print_report(tag: str, report: mt.IoUReport | None) -> None:
    if report is None:
        print(f"{tag}: no evaluation (run aborted)")
        return
    known = "NA" if report.known_mean is None else f"{report.known_mean:.4f}"
    unknown = "NA" if report.unknown_mean is None else f"{report.unknown_mean:.4f}"
    print(f"{tag}: known miou {known}  unknown miou {unknown}  shapes {report.n_shapes}")


def _cmd_gen_data(args) -> int:
    config = _config_from_args(args)
    clouds = dt.generate_corpus(
        config.shapes_per_category, config.n_points, config.data_seed
    )
    dt.write_corpus_dir(clouds, args.out)
    print(f"wrote {len(clouds)} clouds to {args.out}")
    return EXIT_OK


def _finish_single_run(record: hz.RunRecord, args, two_phase: bool) -> int:
    if getattr(args, "record", None):
        _write_text(args.record, hz.record_to_json(record))
        print(f"record written to {args.record}")
    _print_report("pre-surgery" if two_phase else "eval", record.pre_report)
    if two_phase:
        _print_report("post-surgery", record.post_report)
    print(f"status: {record.status}")
    return EXIT_DIVERGED if record.status == "diverged" else EXIT_OK


def _cmd_train(args) -> int:
    config = _config_from_args(args)
    record, params, _ = hz.run_train(config)
    if args.checkpoint:
        md.save_params(params, args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}")
    return _finish_single_run(record, args, two_phase=False)


def _cmd_openset(args) -> int:
    config = _config_from_args(args)
    record = hz.run_openset(config)
    return _finish_single_run(record, args, two_phase=True)


def _parse_grid(text: str) -> list:
    values = [float(p) for p in text.replace(",", " ").split() if p]
    if not values:
        raise ValueError("empty grid")
    return values


def _cmd_sweep(args, field_name: str, sweep_fn) -> int:
    config = _config_from_args(args)
    grid = _parse_grid(args.grid)
    seeds = tuple(int(s) for s in args.seeds.replace(",", " ").split() if s)
    if not seeds:
        raise ValueError("empty seed list")
    rows = sweep_fn(config, grid, seeds=seeds)
    csv_text = hz.sweep_rows_to_csv(rows, field_name)
    if args.out:
        _write_text(args.out, csv_text)
        print(f"sweep table written to {args.out}")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_eval(args) -> int:
    config = _config_from_args(args)
    params = md.load_params(args.checkpoint)
    clouds = hz.load_corpus(config)
    ds = dt.build_openset_split(
        clouds, dt.labels_for_categories(config.unknown_categories)
    )
    n_phase2 = len(ds.phase2_column_manifest())
    if params.n_classes == ds.n_train_labels:
        report = hz.evaluate_params(params, ds, config, surgery_done=False)
        space = "merged (pre-surgery)"
    elif params.n_classes == n_phase2:
        report = hz.evaluate_params(params, ds, config, surgery_done=True)
        space = "original (post-surgery)"
    else:
        raise ValueError(
            f"checkpoint has {params.n_classes} classes; expected "
            f"{ds.n_train_labels} (pre-surgery) or {n_phase2} (post-surgery)"
        )
    print(f"label space: {space}")
    _print_report("eval", report)
    if args.csv:
        _write_text(args.csv, mt.report_to_csv(report, config.unknown_categories))
        print(f"per-category table written to {args.csv}")
    if args.json:
        _write_text(args.json, mt.report_to_summary_json(report) + "\n")
        print(f"summary written to {args.json}")
    return EXIT_OK


def _cmd_export_curves(args) -> int:
    try:
        with open(args.record, "r", encoding="utf-8") as fh:
            record = hz.record_from_json(fh.read())
    except UnicodeDecodeError:
        raise dt._not_utf8(args.record) from None
    except OSError as exc:
        raise ValueError(f"cannot read record {args.record}: {exc}") from exc
    except (json.JSONDecodeError, KeyError) as exc:
        raise ValueError(f"{args.record}: not a run record: {exc}") from exc
    hz.export_curves(record, args.out)
    print(f"{record.n_steps} steps written to {args.out}")
    return EXIT_OK


def _add_config_args(sub) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument(
        "overrides",
        nargs="*",
        metavar="key=value",
        help="config overrides applied after the file",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openset3cm",
        description="open-set point-cloud segmentation with the "
        "unknown-cluster spread regularizer",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-data", help="generate a corpus directory")
    p.add_argument("--out", required=True, help="corpus directory to create")
    _add_config_args(p)
    p.set_defaults(fn=_cmd_gen_data)

    p = subs.add_parser("train", help="phase 1 only: train on merged labels")
    p.add_argument("--checkpoint", help="write final weights here")
    p.add_argument("--record", help="write the run record JSON here")
    _add_config_args(p)
    p.set_defaults(fn=_cmd_train)

    p = subs.add_parser("openset", help="full two-phase protocol")
    p.add_argument("--record", help="write the run record JSON here")
    _add_config_args(p)
    p.set_defaults(fn=_cmd_openset)

    p = subs.add_parser("sweep-lambda", help="ablation over the term weight")
    p.add_argument("--grid", default="0.1,0.3,0.5,0.7")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    _add_config_args(p)
    p.set_defaults(fn=lambda a: _cmd_sweep(a, "lambda_", hz.sweep_lambda))

    p = subs.add_parser("sweep-beta", help="ablation over the EMA factor")
    p.add_argument("--grid", default="0,0.9,0.99,0.995,0.999")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    _add_config_args(p)
    p.set_defaults(fn=lambda a: _cmd_sweep(a, "beta", hz.sweep_beta))

    p = subs.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--csv", help="write the per-category table here")
    p.add_argument("--json", help="write the summary here")
    _add_config_args(p)
    p.set_defaults(fn=_cmd_eval)

    p = subs.add_parser("export-curves", help="loss series of a saved record to CSV")
    p.add_argument("--record", required=True, help="run record JSON")
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(fn=_cmd_export_curves)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with hz._one_blas_thread():
            return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
