#!/usr/bin/env python3
"""treeattn benchmark: one workload per process, one caller, closed loop.

    python3 benchmarks/run.py --workload {train-pair,infer-long,treescore} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The workload's inputs are generated from
``--seed`` in a child process.  This process then sets up, checks, warms up
and calls the library repeatedly until ``--seconds`` of calls have been
timed; between slices of those calls, set-ups in fresh child processes are
timed (their median is ``setup_s``).  Every set-up and
call is timed next to a fixed calibration loop, and the reported times are
scaled to a reference machine speed (see ``calibrate``).  With ``--trace 0``
the last line of stdout is the result with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics, from traced calls on one
fixed chunk that follow an untraced timing of the same length.  The
lines before it name every metric with its unit and record the
environment.  Exit status 1, with no result line, means the benchmark
could not produce a trustworthy result: the library is missing from this
checkout, a traced span recorded no calls, or exact counts differed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BLAS_THREADS = 1
# must precede the first numpy import, here and in the generator process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
# Reference speed: the machine on which calibrate() takes exactly this long.
CALIBRATION_REF_S = 0.040
SETUP_REPEATS = 3
MIN_CALLS = 3
TRACED_PASSES = 3
CHILD_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def import_library():
    """Import treeattn from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import treeattn
    except ImportError as err:
        raise BenchmarkError(f"cannot import treeattn from {ROOT / 'src'}: {err}") from None
    origin = Path(treeattn.__file__).resolve()
    if (ROOT / "src") not in origin.parents:
        raise BenchmarkError(f"treeattn imported from {origin}, not from this checkout")
    return treeattn


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpu": cpu, "commit": git_commit(), "seed": seed}


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from ``.git``; None
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def in_child(entry: str, *args):
    """Run ``benchmarks/workloads.py entry *args`` in a fresh interpreter,
    wait for it to end, and return the JSON value it prints last.  A child
    still running after CHILD_TIMEOUT_S is killed and waited for."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(ROOT / "benchmarks" / "workloads.py"), entry,
               *(str(arg) for arg in args)]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{entry} took over {CHILD_TIMEOUT_S} s") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchmarkError(f"{entry} failed in its process (status {done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def calibrate() -> float:
    """Seconds taken by a fixed loop of small numpy operations, the kind
    the tensor engine is made of.

    Other tenants of a shared machine slow every process on it by a common
    factor that drifts over seconds and minutes.  Timings measured next to
    this loop are scaled by ``CALIBRATION_REF_S / calibrate()``, which
    removes that factor; the library never runs this code.
    """
    import numpy as np

    weight, x = np.full((100, 100), 0.01), np.ones(100)
    started = time.perf_counter()
    for _ in range(12000):
        x = np.tanh(weight @ x) * 0.5 + 0.5
    return time.perf_counter() - started


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between calibration readings ``before`` and
    ``after``, scaled to the reference speed."""
    return seconds * 2 * CALIBRATION_REF_S / (before + after)


class Tally:
    """Items attempted and failed, and the throughput of each timed call;
    reasons for failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rates: list[float] = []  # good items per second, per timed call
        self.good = 0  # good items of all timed calls
        self.spent = 0.0  # seconds inside timed calls
        self.adjusted_spent = 0.0  # the same, scaled to reference speed
        self.calibration = calibrate()  # the latest calibrate() reading

    def run(self, workload, state, index: int, tracer=None) -> tuple[int, float]:
        """One call, traced when a tracer is given, then its untimed and
        untraced checks; returns (good items, seconds)."""
        import tracing
        import workloads

        started = time.perf_counter()
        try:
            with tracing.installed(tracer) if tracer else nullcontext():
                output = workload.call(state, index)
            elapsed = time.perf_counter() - started
            failed = workload.check(state, index, output)
        except Exception as err:  # a failing call is counted, not fatal
            elapsed = time.perf_counter() - started
            if not isinstance(err, workloads.CheckFailed):
                traceback.print_exc()
            print(f"call {index} failed: {err}", file=sys.stderr)
            failed = workload.items
        self.attempted += workload.items
        self.failed += failed
        return workload.items - failed, elapsed

    def timed_until(self, workload, state, seconds: float) -> None:
        """Timed calls, cycling over the input chunks, until ``seconds`` of
        call time have been spent in total and MIN_CALLS calls made."""
        while self.spent < seconds or len(self.rates) < MIN_CALLS:
            before = self.calibration
            good, elapsed = self.run(workload, state, len(self.rates))
            self.calibration = calibrate()
            self.rates.append(good / elapsed)
            self.good += good
            self.spent += elapsed
            self.adjusted_spent += at_reference_speed(elapsed, before, self.calibration)

    def timed_setup(self, args, workdir: Path, setup_tracer) -> tuple[float, float]:
        """One set-up in a fresh process; returns (seconds, seconds at
        reference speed) and adds its spans to ``setup_tracer``."""
        before = self.calibration
        elapsed, busy, calls = in_child("setup", args.workload, workdir, args.seed,
                                        int(setup_tracer is not None))
        self.calibration = calibrate()
        if setup_tracer is not None:
            for name, seconds in busy.items():
                setup_tracer.busy[name] += seconds
            setup_tracer.calls.update(calls)
        return elapsed, at_reference_speed(elapsed, before, self.calibration)

    def traced_or_not(self, workload, state, tracer) -> float:
        """Seconds at reference speed of one call on chunk 0, traced when a
        tracer is given."""
        before = self.calibration
        _, elapsed = self.run(workload, state, 0, tracer)
        self.calibration = calibrate()
        return at_reference_speed(elapsed, before, self.calibration)


def layer_metrics(workload, setup_tracer, passes: list, overhead: tuple) -> dict:
    """Per-layer metrics: busy seconds per traced call, the mean over the
    calls (set-up spans: per set-up), exact counts of one traced call, and
    the untraced and traced throughput of the alternated calls."""
    import tracing

    first = passes[0]
    busy = {name: statistics.fmean(t.busy[name] for t in passes)
            for name, *_ in tracing.CALL_SITES}
    for name in workload.setup_spans:
        busy[name] = setup_tracer.busy[name] / SETUP_REPEATS
    del busy["cli.main"]  # reported as self time
    merges = first.calls["parser.st_gumbel_select"]
    examples = first.calls["tensor.backward"]
    tape = {op: first.counts[f"tape_records.{op}"] for op in (*tracing.TAPE_OPS, "other")}
    return {
        **{f"{name}.s": (seconds, "s") for name, seconds in busy.items()},
        "cli.main.self_s": (statistics.fmean(t.self_time["cli.main"] for t in passes), "s"),
        **{f"tensor.tape_records.{op}": (count, "count") for op, count in tape.items()},
        "tensor.tape_records_per_example": (
            sum(tape.values()) / examples if examples else 0, "count"),
        "parser.compose.calls": (first.calls["parser.compose"], "count"),
        "parser.validity_scores.candidates": (first.counts["candidates"], "count"),
        "parser.compose_per_merge": (
            first.calls["parser.compose"] / merges if merges else 0, "ratio"),
        "attention.attend.nodes": (first.counts["nodes"], "count"),
        "trees.BinaryTree.span_set.calls": (first.calls["trees.BinaryTree.span_set"], "count"),
        "trace.untraced_items_per_s": (overhead[0], "1/s"),
        "trace.traced_items_per_s": (overhead[1], "1/s"),
        "trace.overhead": (overhead[0] / overhead[1] - 1.0, "ratio"),
    }


def guard_trace(workload, setup_tracer, passes: list) -> None:
    """Fail loudly when a span this workload must exercise saw no call, or
    when a work count differs between traced calls on the same input."""
    silent = [n for n in workload.spans if any(t.calls[n] == 0 for t in passes)]
    silent += [n for n in workload.setup_spans if setup_tracer.calls[n] == 0]
    if silent:
        raise BenchmarkError(f"{workload.name}: spans recorded no calls: {silent}")
    first = passes[0]
    for other in passes[1:]:
        if other.counts != first.counts or other.calls != first.calls:
            raise BenchmarkError(f"{workload.name}: work counts differ between traced calls: "
                                 f"{dict(first.counts)} / {dict(other.counts)}")


def measure(args, workdir: Path) -> dict:
    """Generate, set up for the calls, then alternate timed set-ups (each in
    a fresh process) with slices of the timed loop, so that the set-up
    samples and the calls both spread over the whole run."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](workdir, args.seed)
    in_child("generate", args.workload, workdir, args.seed)
    state = workload.setup()
    tally = Tally()
    try:
        tally.attempted += workload.preflight(state)
    except workloads.CheckFailed as err:
        print(f"preflight check failed: {err}", file=sys.stderr)
        tally.attempted += 1
        tally.failed += 1
    workload.warm_up(state)

    setup_tracer = tracing.Tracer() if args.trace else None
    setup_times, setup_adjusted = [], []
    for repeat in range(SETUP_REPEATS):
        seconds, adjusted = tally.timed_setup(args, workdir, setup_tracer)
        setup_times.append(seconds)
        setup_adjusted.append(adjusted)
        tally.timed_until(workload, state, args.seconds * (repeat + 1) / SETUP_REPEATS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"workload": workload, "tally": tally, "setup_times": setup_times,
              "setup_adjusted": setup_adjusted, "peak_rss_mb": peak_rss_mb}
    if args.trace:
        # untraced and traced calls on one chunk, alternated so that both
        # see the same machine conditions
        passes, untraced, traced = [], 0.0, 0.0
        for _ in range(TRACED_PASSES):
            untraced += tally.traced_or_not(workload, state, None)
            passes.append(tracing.Tracer())
            traced += tally.traced_or_not(workload, state, passes[-1])
        guard_trace(workload, setup_tracer, passes)
        items = TRACED_PASSES * workload.items
        result["layers"] = layer_metrics(workload, setup_tracer, passes,
                                         (items / untraced, items / traced))
    return result


E2E_NAMES = {"train-pair": "train_examples_per_s", "infer-long": "infer_sentences_per_s",
             "treescore": "treescore_trees_per_s"}


def report(args, result) -> dict:
    """Print the named metrics and environment; return the result line."""
    tally, workload = result["tally"], result["workload"]
    throughput = tally.good / tally.adjusted_spent
    q1, median, q3 = statistics.quantiles(tally.rates, n=4)
    setup_s = statistics.median(result["setup_adjusted"])

    def listed(values):
        return " ".join(f"{v:.4f}" for v in values)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"{E2E_NAMES[args.workload]} {throughput:.4f} 1/s at reference speed  "
          f"({workload.item} per second over {len(tally.rates)} calls; as measured: "
          f"{tally.good / tally.spent:.4f} overall, per call median {median:.4f}, "
          f"quartiles {q1:.4f}-{q3:.4f})")
    print(f"calls as measured: {listed(tally.rates)}")
    print(f"setup_s {setup_s:.4f} s at reference speed  (median of {SETUP_REPEATS}; "
          f"as measured: {listed(result['setup_times'])})")
    print(f"calibration {tally.calibration * 1000:.2f} ms at the end  "
          f"(reference {CALIBRATION_REF_S * 1000:.2f} ms)")
    print(f"peak_rss_mb {result['peak_rss_mb']:.1f} MB")
    print(f"failed_ratio {tally.failed / tally.attempted:.6f}  "
          f"({tally.failed} of {tally.attempted} items)")
    if args.trace:
        metrics = result["layers"]
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
    else:
        metrics = {"adjusted_items_per_s": (throughput, "1/s"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (result["peak_rss_mb"], "MB")}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(E2E_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_library()
        (ROOT / ".benchwork").mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".benchwork"))
        try:
            line = report(args, measure(args, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                (ROOT / ".benchwork").rmdir()
            except OSError:
                pass  # another run is using it
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
