"""Alternating parent/change runs of perfbench, from `git archive` copies.

Usage, from the root of a checkout:

    python3 tools/alternate.py PARENT CHANGE --workload W [--pairs K] [--seed N]

PARENT and CHANGE are git revisions (`git stash create` names the working
tree, staged files included, without touching any ref).  Each is exported
with `git archive` into its own directory under WORKDIR, and
`perfbench/run.py --trace 0` runs there K times per side for the
`run_seconds` of the checkout's BENCHMARK.json, alternating: pair i uses
seed N + i on both sides, and the side that runs first alternates from
pair to pair, parent first in pair 0.  The script prints every run's
metrics and calibration loop, the change/parent ratio of each metric per
pair, and per metric the medians, the parent's quartiles and the number
of pairs in which the change reads better.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

WORKDIR = os.path.join(tempfile.gettempdir(), "hopfdy-alternate")


def export(rev: str, dest: str) -> str:
    """The tree of `rev` under dest/<sha>, extracted from `git archive`."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    path = os.path.join(dest, sha[:12])
    if not os.path.isdir(path):
        tmp = path + ".tmp"
        os.makedirs(tmp)
        with tempfile.TemporaryFile() as tar:
            subprocess.run(["git", "archive", "--format=tar", sha], stdout=tar, check=True)
            tar.seek(0)
            with tarfile.open(fileobj=tar) as t:
                t.extractall(tmp)
        os.rename(tmp, path)
    return path


def run_once(tree: str, workload: str, seconds, seed: int) -> dict:
    """One perfbench run in `tree`: its metrics and its calibration line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed in %s (exit %d): %s"
                         % (tree, out.returncode, out.stderr.strip()[-400:]))
    result = json.loads(lines[-1])
    calib = next((line for line in lines if line.startswith("calibration_s")), "calibration_s ?")
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "calibration": calib}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="tools/alternate.py")
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as f:
        seconds = json.load(f)["run_seconds"]
    os.makedirs(WORKDIR, exist_ok=True)
    trees = {"parent": export(args.parent, WORKDIR), "change": export(args.change, WORKDIR)}
    print("parent %s\nchange %s" % (trees["parent"], trees["change"]), flush=True)

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            r = run_once(trees[side], args.workload, seconds, seed)
            runs[side].append(r)
            print("pair %d seed %d %s%s  %s  %s" % (
                i, seed, side, "" if r["correct"] else "  INCORRECT",
                "  ".join("%s=%.6g" % kv for kv in sorted(r["metrics"].items())),
                r["calibration"]), flush=True)
        p, c = runs["parent"][-1]["metrics"], runs["change"][-1]["metrics"]
        print("pair %d ratio change/parent  %s" % (i, "  ".join(
            "%s=%.3f" % (k, c[k] / p[k] if p[k] else float("nan")) for k in sorted(p))),
            flush=True)

    print("summary over %d pairs, workload %s" % (args.pairs, args.workload))
    for k in sorted(runs["parent"][0]["metrics"]):
        pv = [r["metrics"][k] for r in runs["parent"]]
        cv = [r["metrics"][k] for r in runs["change"]]
        better = sum(c < p for p, c in zip(pv, cv))  # every metric here: lower is better
        q1, q3 = quartiles(pv)
        ratios = [c / p for p, c in zip(pv, cv) if p]
        print("%-16s median parent %.6g  change %.6g  ratio %.3f  parent IQR %.6g-%.6g"
              "  change better in %d of %d" % (
                  k, statistics.median(pv), statistics.median(cv),
                  statistics.median(ratios) if ratios else float("nan"), q1, q3,
                  better, args.pairs))
    failed = {s: sum(r["failed"] for r in rs) for s, rs in runs.items()}
    print("failed queries: parent %d, change %d" % (failed["parent"], failed["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
