"""Layer tracing from outside the program.

`Tracer.install` replaces the public functions of the program's modules by
timing wrappers, at the module attribute their callers look up: the
harness calls `md.build_seg_logits`, the model calls `ad.linear`, the loss
calls its own imported `as_prob_vector`, so those are the names patched.
Each call becomes one span (name, start, end, parent, step id, run id)
held in compact in-memory columns; `write_csv` dumps them when the
benchmark ends and `layer_metrics` folds them into the per-layer figures.

Tape primitives get two spans: the forward call, and the backward closure
the primitive attached to the node it returned, which the wrapper swaps
for a timed one. Run ids count calls of `harness.run_openset` and
`harness.run_train`; the step id is the number of tapes the current run
has started, less one, so batch preparation for step k carries id k - 1
and the evaluation after training carries the last step's id.
"""

from __future__ import annotations

import functools
import math
import time
import types
from array import array

import numpy as np

PRIMITIVES = (
    "linear",
    "matmul",
    "relu",
    "max_reduce",
    "softmax",
    "log",
    "pick",
    "take_rows",
    "repeat_rows",
    "add_rowvec",
)
RUN_FUNCS = ("run_openset", "run_train")
CLI_COMMANDS = ("gen-data", "train", "openset", "eval", "sweep-lambda")

_perf = time.perf_counter


class Tracer:
    """Span recorder; install it around the traced job, then uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.step = array("q")
        self.run = array("q")
        self._stack = [-1]
        self._run = -1
        self._step = -1
        self._n_runs = 0
        self.flop = {"linear": 0, "matmul": 0}
        self.tape_nodes = 0
        self.tape_bytes = 0
        self.points_read = 0
        self._patched: list = []

    # -- span bookkeeping ---------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.step.append(self._step)
        self.run.append(self._run)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(_perf())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = _perf()
        self._stack.pop()

    # -- wrappers -----------------------------------------------------------

    def _plain(self, fn, name):
        nid = self._nid(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return wrapper

    def _primitive(self, fn, name, tensor_type):
        nid = self._nid(name)
        bwd_nid = self._nid(name + ".bwd")
        open_, close = self._open, self._close
        short = name.split(".", 1)[1]
        counts_flop = short in self.flop
        flop = self.flop

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                node = fn(*args, **kwargs)
            finally:
                close(i)
            if not isinstance(node, tensor_type) or node._backward is None:
                return node
            inner = node._backward
            bwd_flop = 0
            if counts_flop:
                # (N, K) @ (K, F): 2NKF forward; both input grads 4NKF backward;
                # linear adds its bias row sum (NF) on each side
                (n, k), f = args[0].shape, args[1].shape[1]
                bias = n * f if short == "linear" else 0
                flop[short] += 2 * n * k * f + bias
                bwd_flop = 4 * n * k * f + bias

            def timed_backward(g):
                j = open_(bwd_nid)
                try:
                    inner(g)
                finally:
                    close(j)
                if bwd_flop:
                    flop[short] += bwd_flop

            node._backward = timed_backward
            return node

        return wrapper

    def _sweep(self, fn, name):
        nid = self._nid(name)

        @functools.wraps(fn)
        def wrapper(tape, output):
            i = self._open(nid)
            try:
                fn(tape, output)
            finally:
                self._close(i)
            # unique buffers of values and gradients alive on this tape
            # (reshape nodes share their parent's value array)
            seen = set()
            for node in tape.nodes:
                for arr in (node.values, node._grad):
                    if arr is not None and id(arr) not in seen:
                        seen.add(id(arr))
                        self.tape_bytes += arr.nbytes
            self.tape_nodes += len(tape.nodes)

        return wrapper

    def _run_scope(self, fn, name):
        nid = self._nid(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = (self._run, self._step)
            self._run, self._step = self._n_runs, -1
            self._n_runs += 1
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
                self._run, self._step = outer

        return wrapper

    def _step_start(self, fn, name):
        inner = self._plain(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._step += 1
            return inner(*args, **kwargs)

        return wrapper

    def _reader(self, fn, name):
        inner = self._plain(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cloud = inner(*args, **kwargs)
            self.points_read += cloud.n_points
            return cloud

        return wrapper

    def _cli_main(self, fn):
        @functools.wraps(fn)
        def wrapper(argv=None):
            i = self._open(self._nid("cli." + str(argv[0])))
            try:
                return fn(argv)
            finally:
                self._close(i)

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every public program function found in `modules` (short name
        to module object), at the module attribute callers look up."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        tensor_type = modules["autodiff"].TensorNode
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(fn, types.FunctionType)
                    or not fn.__module__.startswith("openset3cm.")
                ):
                    continue
                name = f"{layer}.{attr}"
                if layer == "autodiff" and attr == "backward":
                    wrapped = self._sweep(fn, name)
                elif layer == "autodiff":
                    wrapped = self._primitive(fn, name, tensor_type)
                elif layer == "harness" and attr in RUN_FUNCS:
                    wrapped = self._run_scope(fn, name)
                elif layer == "model" and attr == "params_to_nodes":
                    wrapped = self._step_start(fn, name)
                elif layer == "data" and attr == "read_cloud":
                    wrapped = self._reader(fn, name)
                elif layer == "cli" and attr == "main":
                    wrapped = self._cli_main(fn)
                else:
                    wrapped = self._plain(fn, name)
                self._patched.append((mod, attr, fn))
                setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def count(self, name: str) -> int:
        """Spans recorded under `name`."""
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return int(np.count_nonzero(np.frombuffer(self.name_id, dtype=np.int64) == nid))

    # -- output -------------------------------------------------------------

    def columns(self) -> dict:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "step": np.frombuffer(self.step, dtype=np.int64),
            "run": np.frombuffer(self.run, dtype=np.int64),
        }

    def write_csv(self, path) -> None:
        """One line per span: name, start and end in seconds on the
        process's performance clock, parent span index (-1 for none),
        step id, run id."""
        names = self.names
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,name,start_s,end_s,parent,step,run\n")
            for i, (nid, t0, t1, par, step, run) in enumerate(
                zip(self.name_id, self.start, self.end, self.parent, self.step, self.run)
            ):
                fh.write(f"{i},{names[nid]},{t0:.9f},{t1:.9f},{par},{step},{run}\n")


_UNIT_NAMES = {"calls": "count", "nodes": "count", "steps": "count", "mb": "MB", "mflop": "MFLOP"}


def unit_of(metric: str) -> str:
    """Unit from the metric's last name part: `fwd_ms_per_step` is in ms,
    `calls_per_step` a count, `overhead_s` in s."""
    last = metric.rsplit(".", 1)[-1]
    if last == "concurrency":
        return "ratio"
    head = last.split("_per_")[0].split("_")[-1]
    return _UNIT_NAMES.get(head, head)


def layer_metrics(tracer: Tracer, n_jobs: int) -> dict:
    """Per-layer figures from the spans of `n_jobs` traced jobs.

    Per-step figures divide by the training steps counted from spans (one
    `loss.total_objective` call per step); per-call figures divide by the
    layer's own call count and read 0 when the layer never ran.
    """
    col = tracer.columns()
    n_names = len(tracer.names)
    dur = col["end"] - col["start"]
    calls = np.bincount(col["name"], minlength=n_names)
    busy = np.bincount(col["name"], weights=dur, minlength=n_names)
    ids = tracer._ids

    def count(name):
        return int(calls[ids[name]]) if name in ids else 0

    def seconds(name):
        return float(busy[ids[name]]) if name in ids else 0.0

    def per_call(name, scale):
        return seconds(name) * scale / count(name) if count(name) else 0.0

    steps = count("loss.total_objective")

    def per_step(total):
        return total / steps if steps else 0.0

    def per_job(total):
        return total / n_jobs

    out = {}
    other_fwd = other_bwd = other_calls = 0.0
    for layer_fn in tracer.names:
        if not layer_fn.startswith("autodiff.") or layer_fn.endswith(".bwd"):
            continue
        prim = layer_fn.split(".", 1)[1]
        if prim in PRIMITIVES or prim in ("backward", "gradient_check"):
            continue
        other_calls += count(layer_fn)
        other_fwd += seconds(layer_fn)
        other_bwd += seconds(layer_fn + ".bwd")
    for prim in PRIMITIVES:
        out[f"autodiff.{prim}.calls_per_step"] = per_step(count(f"autodiff.{prim}"))
        out[f"autodiff.{prim}.fwd_ms_per_step"] = per_step(seconds(f"autodiff.{prim}") * 1e3)
        out[f"autodiff.{prim}.bwd_ms_per_step"] = per_step(seconds(f"autodiff.{prim}.bwd") * 1e3)
    out["autodiff.other.calls_per_step"] = per_step(other_calls)
    out["autodiff.other.fwd_ms_per_step"] = per_step(other_fwd * 1e3)
    out["autodiff.other.bwd_ms_per_step"] = per_step(other_bwd * 1e3)
    out["autodiff.linear.mflop_per_step"] = per_step(tracer.flop["linear"] * 1e-6)
    out["autodiff.matmul.mflop_per_step"] = per_step(tracer.flop["matmul"] * 1e-6)
    out["autodiff.backward.ms_per_step"] = per_step(seconds("autodiff.backward") * 1e3)
    out["autodiff.tape.nodes_per_step"] = per_step(tracer.tape_nodes)
    out["autodiff.tape.mb_per_step"] = per_step(tracer.tape_bytes / 1e6)

    for fn in ("params_to_nodes", "build_seg_logits", "apply_sgd_step"):
        out[f"model.{fn}.ms_per_step"] = per_step(seconds(f"model.{fn}") * 1e3)
    out["model.segment_logits.ms_per_cloud"] = per_call("model.segment_logits", 1e3)
    out["model.save_params.ms"] = per_call("model.save_params", 1e3)
    out["model.load_params.ms"] = per_call("model.load_params", 1e3)

    out["loss.total_objective.ms_per_step"] = per_step(seconds("loss.total_objective") * 1e3)
    out["loss.ema_update.ms_per_step"] = per_step(seconds("loss.ema_update") * 1e3)

    out["data.generate_corpus.calls"] = per_job(count("data.generate_corpus"))
    out["data.generate_corpus.s"] = per_job(seconds("data.generate_corpus"))
    out["data.augment_cloud.ms_per_step"] = per_step(seconds("data.augment_cloud") * 1e3)
    out["data.build_openset_split.s"] = per_job(seconds("data.build_openset_split"))
    out["data.write_corpus_dir.s"] = per_job(seconds("data.write_corpus_dir"))
    out["data.load_corpus_dir.calls"] = per_job(count("data.load_corpus_dir"))
    out["data.load_corpus_dir.s"] = per_job(seconds("data.load_corpus_dir"))
    out["data.read_cloud.us_per_point"] = (
        seconds("data.read_cloud") * 1e6 / tracer.points_read if tracer.points_read else 0.0
    )

    out["metrics.shape_miou.calls"] = per_job(count("metrics.shape_miou"))
    out["metrics.shape_miou.ms_per_call"] = per_call("metrics.shape_miou", 1e3)

    # a run's self time: its span less the time its direct children cover
    # (spans nest strictly on one thread, so children never overlap)
    parent = col["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=dur.size
    )
    run_ids = [ids[f"harness.{fn}"] for fn in RUN_FUNCS if f"harness.{fn}" in ids]
    is_run = np.isin(col["name"], run_ids)
    run_self = float(np.sum(dur[is_run] - child_time[is_run]))
    out["harness.run_openset.s_per_call"] = per_call("harness.run_openset", 1.0)
    out["harness.run.self_ms_per_step"] = per_step(run_self * 1e3)
    out["harness.evaluate_params.s_per_call"] = per_call("harness.evaluate_params", 1.0)
    out["harness.record_to_json.ms"] = per_call("harness.record_to_json", 1e3)

    # run-level concurrency: summed run spans over the wall of the commands
    # that hold them (1.0 while runs go one after another)
    holders = set()
    for i in np.flatnonzero(is_run):
        while parent[i] >= 0:
            i = parent[i]
        holders.add(int(i))
    holder_wall = float(sum(dur[i] for i in holders))
    out["harness.sweep.concurrency"] = float(np.sum(dur[is_run])) / holder_wall if holders else 0.0

    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = per_job(seconds(f"cli.{command}"))
    out["trace.steps"] = per_job(steps)
    return out
