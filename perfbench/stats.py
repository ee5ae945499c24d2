"""Repeat benchmark runs and compare result files.

    python3 perfbench/stats.py collect OUT.jsonl [--workloads sweep io] [--seeds 1 2 3] [--trace 0]
    python3 perfbench/stats.py spread OUT.jsonl
    python3 perfbench/stats.py compare BASE.jsonl NEW.jsonl

``collect`` runs ``perfbench/run.py`` once per workload and seed with the
run length from ``BENCHMARK.json`` and appends one JSON record per run.
``spread`` prints, per workload and end-to-end metric, the median, the
quartiles and the quartile distance as a share of the median, against the
metric's bound.  ``compare`` prints both sides' medians and quartiles and
the ratio new/base; a pair whose spread on either side exceeds the bound
is marked ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, over the records of one result file."""
    out: dict = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            for name, value in rec["metrics"].items():
                out[rec["workload"]][name].append(value)
    return out


def collect(path: str, workloads: list[str], seeds: list[int], trace: int) -> int:
    seconds = str(spec()["run_seconds"])
    bad = 0
    with open(path, "a") as fh:
        for workload in workloads:
            for seed in seeds:
                argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                        "--seconds", seconds, "--trace", str(trace)]
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                    bad += 1
                    if not lines:
                        continue
                result = json.loads(lines[-1])
                rec = {"workload": workload, "seed": seed, "trace": trace, "correct": result["correct"],
                       "attempted": result["attempted"], "failed": result["failed"],
                       "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
                fh.write(json.dumps(rec) + "\n")
                fh.flush()
                print(json.dumps(rec), flush=True)
    return bad


def spread(path: str) -> int:
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    over = 0
    print(f"{'workload':12} {'metric':14} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for workload, metrics in load(path).items():
        for name, values in metrics.items():
            if name not in bounds:
                continue
            q1, med, q3 = quartiles(values)
            rel = (q3 - q1) / med
            flag = ""
            if name != "setup_s" and rel > bounds[name] / 3.0:
                flag = "  OVER" if rel > bounds[name] else "  >1/3"
                over += rel > bounds[name]
            print(f"{workload:12} {name:14} {len(values):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{rel:7.3f} {bounds[name]:6.2f}{flag}")
    return over


def compare(base_path: str, new_path: str) -> int:
    metrics = {m["name"]: m for m in spec()["end_to_end"] + spec()["per_layer"]}
    base, new = load(base_path), load(new_path)
    print(f"{'workload':12} {'metric':44} {'base median [q1, q3]':>32} {'new median [q1, q3]':>32} {'new/base':>9}")
    for workload in sorted(set(base) & set(new)):
        for name in sorted(set(base[workload]) & set(new[workload])):
            b, n = quartiles(base[workload][name]), quartiles(new[workload][name])
            ratio = n[1] / b[1] if b[1] else float("nan")
            verdict = ""
            bound = metrics.get(name, {}).get("bound")
            if bound is not None:
                spreads = [(q3 - q1) / med if med else 0.0 for q1, med, q3 in (b, n)]
                worse = ratio > 1 + bound if metrics[name]["better"] == "lower" else ratio < 1 - bound
                verdict = "unresolved" if max(spreads) > bound else ("WORSE" if worse else "ok")
            print(f"{workload:12} {name:44} {b[1]:12.6g} [{b[0]:.6g}, {b[2]:.6g}] "
                  f"{n[1]:12.6g} [{n[0]:.6g}, {n[2]:.6g}] {ratio:9.4f} {verdict}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect")
    p.add_argument("out")
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec()["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("spread")
    p.add_argument("results")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    args = ap.parse_args(argv)
    if args.cmd == "collect":
        bad = collect(args.out, args.workloads, args.seeds, args.trace)
        return 1 if bad else (spread(args.out) if args.trace == 0 else 0)
    if args.cmd == "spread":
        return 1 if spread(args.results) else 0
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
