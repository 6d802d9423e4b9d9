"""Benchmark of the open-set trainer, driven through `openset3cm.cli.main`.

    python3 perfbench/run.py --workload openset_dense --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout: the program is imported from
`src/`, nothing is installed. One process warms up, then repeats the
workload's job (new program seeds per job, all derived from `--seed`)
until `--seconds` have passed, checking every job's outputs. With
`--trace 0` it reports the end-to-end metrics of the fastest job; with
`--trace 1` each round
runs the job once untraced and once with every public program function
wrapped, and reports the per-layer metrics. The last line of standard
output is the JSON result; the full result, with the environment, goes to
`.perfbench/<workload>-seed<seed>-trace<t>.json` and the spans of a traced
run to `.perfbench/spans-<workload>-seed<seed>.csv`.
"""

import time

_T0 = time.perf_counter()


def _process_age_s() -> float:
    """Seconds since this process started, at clock-tick resolution."""
    import os

    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(uptime - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)


_AGE_AT_T0 = _process_age_s()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
ENCODER_DEPTH = 2  # linear layers in the default encoder (hidden widths 32, 64)


def blas_info() -> dict:
    import numpy as np

    info = {"blas": None, "blas_version": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    # the thread count the loaded OpenBLAS actually uses, read without
    # changing it
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["blas_threads"] = fn()
                return info
    return info


def environment() -> dict:
    import numpy as np

    return {
        "numpy": np.__version__,
        **blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run_commands(main, commands) -> list:
    """Exit code of each command; None where it raised instead of returning."""
    codes = []
    for argv in commands:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(argv))
        except Exception:  # a crash is a failed operation, not a failed benchmark
            traceback.print_exc()
            codes.append(None)
    return codes


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "openset3cm" / "cli.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse_args(argv)

    from openset3cm import autodiff, cli, data, harness, loss, metrics, model
    from perfbench import spans
    from perfbench.workloads import WORKLOADS, Outcome, corpus_mb, program_seeds

    program = SimpleNamespace(
        autodiff=autodiff, model=model, loss=loss, data=data,
        metrics=metrics, harness=harness, cli=cli,
    )
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    env = environment()
    try:
        run_commands(cli.main, workload.warmup(fresh_dir(tmp)))
        t_jobs = time.perf_counter()
        setup_s = _AGE_AT_T0 + (t_jobs - _T0)

        walls = {False: [], True: []}
        cpus, rss = [], None
        attempted = failed = expected_steps = 0
        problems, corpus_sizes = [], []
        tracer = spans.Tracer() if args.trace else None
        job = 0
        while time.perf_counter() - t_jobs < args.seconds:
            seeds = program_seeds(args.seed, job)
            for traced in (False, True) if args.trace else (False,):
                work = fresh_dir(tmp / "job")
                commands = workload.commands(seeds, work)
                if traced:
                    tracer.install(vars(program))
                cpu0, t0 = cpu_seconds(), time.perf_counter()
                try:
                    codes = run_commands(cli.main, commands)
                finally:
                    t1, cpu1 = time.perf_counter(), cpu_seconds()
                    if traced:
                        tracer.uninstall()
                if rss is None:
                    rss = peak_rss_mb()
                walls[traced].append(t1 - t0)
                if not traced:
                    cpus.append(cpu1 - cpu0)
                try:
                    outcome = workload.check(seeds, work, codes, program)
                except (OSError, ValueError, KeyError) as exc:  # unreadable output
                    outcome = Outcome(workload.ops, workload.ops, 0, [f"unreadable output: {exc!r}"])
                attempted += outcome.attempted
                failed += outcome.failed
                problems += [f"job {job}: {p}" for p in outcome.problems]
                if traced:
                    expected_steps += outcome.steps
                    corpus_sizes.append(corpus_mb(work / "corpus"))
            job += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    run_problems = []
    if args.trace:
        n_traced = len(walls[True])
        metrics_out = spans.layer_metrics(tracer, n_traced)
        metrics_out["data.corpus_dir.mb"] = statistics.fmean(corpus_sizes)
        metrics_out["trace.overhead_s"] = min(walls[True]) - min(walls[False])
        span_steps = tracer.count("loss.total_objective")
        if span_steps != expected_steps:
            run_problems.append(f"spans count {span_steps} steps, the jobs ran {expected_steps}")
        if tracer.count("autodiff.linear") != ENCODER_DEPTH * span_steps:
            run_problems.append(f"linear calls per step differ from encoder depth {ENCODER_DEPTH}")
        tracer.write_csv(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        metrics_out = {
            # the fastest job: other tenants of the machine only ever slow a
            # job down, often for a whole run, which moves medians by up to a
            # fifth between runs and minima by a few percent
            "wall_s": min(walls[False]),
            "setup_s": setup_s,
            "cpu_s": min(cpus),
            "peak_rss_mb": rss,
        }

    result = {
        "correct": not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": spans.unit_of(name)}
            for name, value in metrics_out.items()
        },
    }
    details = {
        "args": vars(args),
        "env": env,
        "jobs": job,
        "walls_s": walls[False],
        "median_wall_s": statistics.median(walls[False]),
        "traced_walls_s": walls[True],
        "cpu_s": cpus,
        "problems": run_problems + problems,
        "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    for line in run_problems + problems:
        print(f"problem: {line}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
