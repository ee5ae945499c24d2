"""Benchmark runner for rigidfold.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  One caller on one thread drives ``rigidfold.cli.main([...])`` in
a closed loop: each call starts after the previous one returned, and
``RIGIDFOLD_THREADS`` is removed from the environment first.

A run sets up five times in fresh child processes (imports, warm caches,
seeded inputs written) and reports the median as ``setup_s``; it then runs
one untimed warm-up pass and times passes until ``--seconds`` have gone by.
Every call's output is checked.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` spends half the time untraced and half traced and
prints the per-layer metrics with ``trace_overhead``.  The last stdout line
is the result object; the line before it carries the details (machine,
inputs, tail percentiles, worst residual, output digests).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

STARTED = time.perf_counter()  # set-up is timed from here, once the interpreter runs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
REFERENCE = HERE / "reference.json"
SETUP_RUNS = 5
TAIL_BEYOND = 10
# The host's speed drifts by up to 2x over seconds (other tenants share the
# cores), so times are scaled to a fixed speed: each call's wall time is
# multiplied by CAL_REF_S over the time calibrate() takes around it.  Over
# 20 s windows of sweep passes this cut the quartile spread of the median
# pass time from 36% to 3%.
CAL_REF_S = 0.0125
CAL_ROUNDS = 1500

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond).  With too few samples for
    that, the maximum is returned with no sample beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, n - rank


def calibrate() -> float:
    """Time a fixed mix of interpreter work and 3x3 numpy products.

    The mix resembles the program's own hot loops but calls none of its
    code, so a change to the program does not move it.
    """
    import math

    import numpy as np

    t0 = time.perf_counter()
    acc, eye, total = np.eye(3), np.eye(3), 0.0
    for i in range(CAL_ROUNDS):
        c, s = math.cos(i * 1e-3), math.sin(i * 1e-3)
        acc = acc @ np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        total += float(np.linalg.norm(acc - eye))
    return time.perf_counter() - t0


def label(op: dict) -> str:
    return f"{op['argv'][0]} {Path(op['file']).name if 'file' in op else op['argv'][1]}"


def setup(workload: str, seed: int, workdir: Path) -> dict:
    """Import the program, warm its lazy caches and write the seeded inputs."""
    from rigidfold import cli  # noqa: F401  (the import is part of set-up)
    from rigidfold import symmetry_enumeration

    symmetry_enumeration._all_patterns()
    inputs = wl.make_inputs(workload, seed, workdir)
    (workdir / "inputs.json").write_text(json.dumps(inputs))
    return inputs


def timed_setups(workload: str, seed: int) -> tuple[list[float], Path]:
    """Set up SETUP_RUNS times in fresh processes; keep the last one's inputs.

    Each child times itself from interpreter start to inputs written, then
    runs calibrate() once; the set-up time is scaled by that calibration.
    Returns the scaled times and the kept input directory.
    """
    times, dirs = [], []
    try:
        for i in range(SETUP_RUNS):
            workdir = WORK / f"{workload}-{seed}-{os.getpid()}-{i}"
            dirs.append(workdir)
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--setup-only", str(workdir)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed:\n{proc.stderr}")
            timing = json.loads(proc.stdout)
            times.append(timing["setup_s"] * CAL_REF_S / timing["calibration_s"])
    except BaseException:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
        raise
    for d in dirs[:-1]:
        shutil.rmtree(d, ignore_errors=True)
    return times, dirs[-1]


class Runner:
    """Runs passes over the op sets and checks every call."""

    def __init__(self, inputs: dict, reference: list | None):
        from rigidfold import cli

        self.cli = cli
        self.sets = inputs["sets"]
        self.reference = reference
        self.first: dict[int, list] = {}  # set index -> counts of its first pass
        self.digests: dict[int, list] = {}
        self.digests_stable = True
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.worst_residual = 0.0

    def run_pass(self, i: int) -> tuple[list[float], list[float], int]:
        """One pass: returns (scaled call times, unscaled call times, states).

        calibrate() runs before and after every call, and each call's wall
        time is scaled by CAL_REF_S over the mean of the two.
        """
        ops = self.sets[i % len(self.sets)]
        calls, scaled = [], []
        cal = calibrate()
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    rc = self.cli.main(list(op["argv"]))
                except Exception:  # a crash is a failed operation, not the end of the run
                    rc = -1
                    err.write(traceback.format_exc())
                dt = time.perf_counter() - t0
            cal_next = calibrate()
            scaled.append(dt * CAL_REF_S / (0.5 * (cal + cal_next)))
            cal = cal_next
            calls.append((op, rc, out.getvalue(), err.getvalue(), dt))
        return scaled, [c[-1] for c in calls], self._check(i % len(self.sets), calls)

    def _fail(self, op: dict, message: str):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{label(op)}: {message}")

    def _check(self, set_index: int, calls) -> int:
        counts, digests, states = [], [], 0
        for op, rc, out, err, _ in calls:
            self.attempted += 1
            try:
                got = wl.check(op, rc, out, err)
            except (wl.CheckFailed, OSError, ValueError, KeyError, IndexError) as e:
                self._fail(op, f"{type(e).__name__}: {e}")
                counts.append(None)
                digests.append(None)
                continue
            counts.append(got.counts)
            digests.append(got.digest)
            states += got.states
            self.worst_residual = max(self.worst_residual, got.worst_residual)
        want = self.first.setdefault(set_index, counts)
        if self.reference is not None:
            want = self.reference[set_index]
        for op, c, w in zip(self.sets[set_index], counts, want):
            if c is not None and c != w:
                self._fail(op, f"counts {c} differ from {w}")
        if self.digests.setdefault(set_index, digests) != digests:
            self.digests_stable = False
        return states


def measure(runner: Runner, seconds: float) -> dict:
    """Run passes for ``seconds``; times are scaled to the CAL_REF_S speed."""
    pass_times, call_times, rates, raw = [], [], [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        calls, unscaled, states = runner.run_pass(i)
        raw.append(sum(unscaled))
        pass_times.append(sum(calls))
        call_times += calls
        rates.append(states / sum(calls))
        i += 1
    return {"pass": pass_times, "call": call_times, "rate": rates, "raw": raw}


def end_to_end(samples: dict, setup_times: list[float]) -> tuple[dict, dict]:
    pass_tail, pass_pct, pass_beyond = tail(samples["pass"])
    call_ms = [1e3 * t for t in samples["call"]]
    call_tail, call_pct, call_beyond = tail(call_ms)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (statistics.median(samples["pass"]), "s"),
        "pass_s.tail": (pass_tail, "s"),
        "states_per_s": (statistics.median(samples["rate"]), "1/s"),
        "cmd_ms.p50": (statistics.median(call_ms), "ms"),
        "cmd_ms.tail": (call_tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "passes": len(samples["pass"]), "calls": len(call_ms),
        "pass_s.tail": {"percentile": pass_pct, "beyond": pass_beyond},
        "cmd_ms.tail": {"percentile": call_pct, "beyond": call_beyond},
        "setup_runs_s": setup_times,
        "pass_s.unscaled_median": statistics.median(samples["raw"]),
    }
    return metrics, details


def traced(runner: Runner, seconds: float, workload: str, seed: int) -> tuple[dict, dict]:
    from tracer import Tracer

    plain = measure(runner, seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        runner.run_pass(0)  # warm the wrapped path, then drop its spans
        tracer.reset()
        with_spans = measure(runner, seconds / 2.0)
    finally:
        tracer.remove()
    passes = len(with_spans["pass"])
    metrics = tracer.layer_metrics(passes, sum(with_spans["pass"]) / sum(with_spans["raw"]))
    metrics["trace_overhead"] = (
        statistics.median(with_spans["pass"]) / statistics.median(plain["pass"]), "ratio")
    (HERE / "out").mkdir(exist_ok=True)
    spans_path = HERE / "out" / f"spans-{workload}-{seed}.jsonl"
    tracer.write(str(spans_path))
    details = {"passes": passes, "untraced_passes": len(plain["pass"]), "spans": len(tracer.spans),
               "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, details


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "RIGIDFOLD_THREADS": "unset"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's first-pass counts as the default seed's reference")
    args = ap.parse_args(argv)
    if args.record_reference and args.seed != wl.DEFAULT_SEED:
        ap.error(f"--record-reference needs --seed {wl.DEFAULT_SEED}")

    if not (ROOT / "src" / "rigidfold" / "cli.py").is_file():
        print(f"error: no rigidfold sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("RIGIDFOLD_THREADS", None)

    if args.setup_only:
        setup(args.workload, args.seed, Path(args.setup_only))
        elapsed = time.perf_counter() - STARTED
        print(json.dumps({"setup_s": elapsed, "calibration_s": calibrate()}))
        return 0

    try:
        setup_times, workdir = timed_setups(args.workload, args.seed)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        inputs = json.loads((workdir / "inputs.json").read_text())
        from rigidfold import symmetry_enumeration

        symmetry_enumeration._all_patterns()
        reference = None
        if args.seed == wl.DEFAULT_SEED and not args.record_reference and REFERENCE.is_file():
            reference = json.loads(REFERENCE.read_text()).get(args.workload)
        runner = Runner(inputs, reference)
        for i in range(len(inputs["sets"]) if args.record_reference else 1):
            runner.run_pass(i)  # warm-up, checked but not timed
        if args.trace:
            metrics, details = traced(runner, args.seconds, args.workload, args.seed)
        else:
            metrics, details = end_to_end(measure(runner, args.seconds), setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    if args.record_reference:
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        ref[args.workload] = [runner.first[k] for k in sorted(runner.first)]
        REFERENCE.write_text(json.dumps(ref, sort_keys=True).replace("]], ", "]],\n ") + "\n")

    correct = runner.failed == 0
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine(),
        "inputs": inputs["info"], "attempted": runner.attempted, "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted, "errors": runner.errors,
        "worst_residual": runner.worst_residual, "digests_stable": runner.digests_stable,
        "digests": {label(op): d for op, d in zip(runner.sets[0], runner.digests[0])},
        "counts": runner.first[0],
    })
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
