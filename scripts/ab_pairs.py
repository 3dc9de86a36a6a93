#!/usr/bin/env python3
"""Alternating A/B pairs of the repository benchmark (stdlib only).

Runs the command `BENCHMARK.json` declares in two checkouts, a parent
and a change, for `--pairs N` pairs. Pair i runs the parent first when
i is even and the change first when i is odd, so slow drift of the
host's speed hits both sides alike. Each run uses the benchmark's fixed
`run_seconds`.

For every workload it prints, per end-to-end metric, both sides'
median and quartiles, how many pairs the change won (respecting the
metric's `better` direction), whether the median gap exceeds the
parent's interquartile range, and a flag when the change's median is
worse than the parent's by more than the metric's `bound`. It also
prints failed/attempted op totals per side. `--runs` lists every run's
values as well.

Nothing is written inside either checkout: each side builds into its
own cargo target directory under `--target-root` (default: a directory
in the system temp dir).

    scripts/ab_pairs.py --parent ../base --change . --workload repair-ladder \\
        --seed 0 --pairs 10
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile


def load_benchmark(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)


def build_command(run_cmd):
    """The benchmark's `cargo run ...` turned into the matching build."""
    cmd = list(run_cmd)
    if "--" in cmd:
        cmd = cmd[: cmd.index("--")]
    if len(cmd) > 1 and cmd[0] == "cargo" and cmd[1] == "run":
        return ["cargo", "build"] + cmd[2:]
    return None


def target_dir(root, side, tree):
    tag = hashlib.sha1(os.path.abspath(tree).encode()).hexdigest()[:10]
    return os.path.join(root, f"{side}-{tag}")


def run_once(bench, tree, env, workload, seed, seconds):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"ab_pairs: benchmark run failed in {tree} (exit {proc.returncode})")
    doc = json.loads(lines[-1])
    return {
        "attempted": doc.get("attempted", 0),
        "failed": doc.get("failed", 0),
        "correct": doc.get("correct", False),
        "metrics": {k: v["value"] for k, v in doc["metrics"].items()},
    }


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def better(metric, a, b):
    """Whether value `a` beats value `b` for this metric."""
    return a < b if metric["better"] == "lower" else a > b


def worse_than_bound(metric, change, parent):
    bound = metric["bound"]
    if metric["better"] == "lower":
        return change > parent * (1 + bound)
    return change < parent * (1 - bound)


def report(bench, workload, runs, show_runs):
    print(f"== {workload}: {len(runs['parent'])} pairs")
    for side in ("parent", "change"):
        att = sum(r["attempted"] for r in runs[side])
        fail = sum(r["failed"] for r in runs[side])
        bad = sum(1 for r in runs[side] if not r["correct"])
        print(f"   {side:6}: failed/attempted ops {fail}/{att}, incorrect runs {bad}")
    head = f"   {'metric':12} {'parent med [q1, q3]':>30} {'change med [q1, q3]':>30} {'ratio':>6} {'wins':>6}  flags"
    print(head)
    for m in bench["end_to_end"]:
        name = m["name"]
        p = [r["metrics"][name] for r in runs["parent"]]
        c = [r["metrics"][name] for r in runs["change"]]
        pq, cq = quartiles(p), quartiles(c)
        wins = sum(1 for a, b in zip(c, p) if better(m, a, b))
        flags = []
        if worse_than_bound(m, cq[1], pq[1]):
            flags.append(f"WORSE THAN BOUND {m['bound']}")
        if abs(cq[1] - pq[1]) > pq[2] - pq[0] and better(m, cq[1], pq[1]):
            flags.append("gain > parent IQR")
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        print(
            f"   {name:12} {pq[1]:>12.4g} [{pq[0]:.4g}, {pq[2]:.4g}]".ljust(46)
            + f" {cq[1]:>12.4g} [{cq[0]:.4g}, {cq[2]:.4g}]".ljust(31)
            + f" {ratio:>6.3f} {wins:>3}/{len(p):<2}  {' '.join(flags)}"
        )
        if show_runs:
            print(f"      parent: {' '.join(f'{x:.4g}' for x in p)}")
            print(f"      change: {' '.join(f'{x:.4g}' for x in c)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", help="workload name (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--target-root", default=os.path.join(tempfile.gettempdir(), "ab_pairs"),
                    help="where each side's cargo target directory lives")
    ap.add_argument("--runs", action="store_true", help="also list every run's values")
    args = ap.parse_args()

    bench = load_benchmark(args.change)
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    trees = {"parent": args.parent, "change": args.change}
    envs = {}
    for side, tree in trees.items():
        env = dict(os.environ)
        env["CARGO_TARGET_DIR"] = target_dir(args.target_root, side, tree)
        envs[side] = env
        build = build_command(load_benchmark(tree)["command"])
        if build:
            subprocess.run(build, cwd=tree, env=env, check=True)

    for w in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(bench, trees[side], envs[side], w, args.seed, seconds))
            last = {s: runs[s][-1]["metrics"].get("wall_s", float("nan")) for s in order}
            sys.stderr.write(
                f"ab_pairs: {w} pair {i + 1}/{args.pairs}: "
                f"parent wall_s {last['parent']:.4g}, change wall_s {last['change']:.4g}\n"
            )
        report(bench, w, runs, args.runs)


if __name__ == "__main__":
    main()
