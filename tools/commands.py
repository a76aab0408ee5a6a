"""Alternating parent/change runs of the CLI command table, from `git archive`
copies.

Usage, from the root of a checkout:

    python3 tools/commands.py PARENT CHANGE [--pairs K]

PARENT and CHANGE are git revisions, exported as `tools/alternate.py` does.
Each command of TABLE runs K times per side as `python -m hopfdy.cli`, from
the tree's `tests/` directory with `PYTHONPATH=../src`.  Pair i runs each
command on both sides back to back, and the side that runs first alternates
from command to command and from pair to pair, so a change of the machine's
speed between two runs lands on either side alike.  The script prints every
run's wall time, exit code and peak RSS (`ru_maxrss` from `os.wait4`), then
per command the median wall time and peak RSS of each side, the ratio of
the medians with the least and greatest of the K per-pair ratios next to
it, and whether stdout and the exit code were the same in all 2K runs.
On Linux a child's `ru_maxrss` includes the high-water RSS of the process
that forked it, so each run also prints this script's own peak: a child
figure equal to it is a floor, not the child's peak.  It exits 1 if any
command printed a different stdout or exit code.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import statistics
import subprocess
import sys
import time

from alternate import WORKDIR, export

# ROADMAP's baseline table (the README cross-validations, relext bar and
# cover, double bk:2), then double bk:3, kunneth at degree 3, the rational
# tangent space on bk:2, and the two query kinds of perfbench's session
# workload that the rows above miss, whose Ext side runs kernel_dim_top
TABLE = [
    "dy tensor bk:1 --r0 --degree 3",
    "dy tensor bk:2 --r0 --degree 2",
    "dy tensor bk:2 --lambda data/lambda_bk2.json --degree 2",
    "crosscheck dimension-formula bk:2 --r0",
    "crosscheck dimension-formula bk:2 --lambda data/lambda_bk2.json",
    "crosscheck dimension-formula bk:1 --lambda data/lambda_37_41.json",
    "relext bk:2 --sub bk:1 --coeff restriction --degree 3 --resolution bar",
    "relext bk:2 --sub bk:1 --coeff restriction --degree 3 --resolution cover",
    "crosscheck kunneth bk:1 --degree 2",
    "crosscheck adjunction-tensor bk:1 --r0 --degree 2",
    "double bk:2",
    "double bk:3",
    "crosscheck kunneth bk:1 --degree 3",
    "rmatrix tangent bk:2 --lambda data/lambda_bk2.json",
    "crosscheck adjunction-res bk:2 --sub bk:1 --degree 2",
    "relext bk:2 --degree 3",
]


def run_once(tree: str, command: str) -> dict:
    """One CLI run in `tree`/tests: wall time, exit code, stdout digest, and
    the peak RSS in MB of the child (`ru_maxrss`) and of this script."""
    env = dict(os.environ, PYTHONPATH="../src")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "hopfdy.cli"] + command.split(),
                            cwd=os.path.join(tree, "tests"), env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "code": proc.returncode, "rss": usage.ru_maxrss / 1024,
            "runner": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "stdout": hashlib.sha256(stdout).hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="tools/commands.py")
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=3)
    args = ap.parse_args(argv)
    os.makedirs(WORKDIR, exist_ok=True)
    trees = {"parent": export(args.parent, WORKDIR), "change": export(args.change, WORKDIR)}
    print("parent %s\nchange %s" % (trees["parent"], trees["change"]), flush=True)

    runs = {(side, cmd): [] for side in trees for cmd in TABLE}
    for i in range(args.pairs):
        for n, cmd in enumerate(TABLE):
            order = ("parent", "change") if (i + n) % 2 == 0 else ("change", "parent")
            for side in order:
                r = run_once(trees[side], cmd)
                runs[side, cmd].append(r)
                print("pair %d %-6s %7.3f s  exit %d  %6.1f MB (runner %.1f MB)  %s"
                      % (i, side, r["wall"], r["code"], r["rss"], r["runner"], cmd), flush=True)

    print("summary over %d pairs: median wall parent, change, ratio (min-max of the "
          "per-pair ratios); median peak RSS parent, change (MB); same stdout and exit"
          % args.pairs)
    differ = 0
    for cmd in TABLE:
        p, c = (runs[side, cmd] for side in ("parent", "change"))
        same = len({(r["code"], r["stdout"]) for r in p + c}) == 1
        differ += not same
        mp, mc = (statistics.median(r["wall"] for r in rs) for rs in (p, c))
        rp, rc = (statistics.median(r["rss"] for r in rs) for rs in (p, c))
        ratios = [b["wall"] / a["wall"] for a, b in zip(p, c)]
        print("%7.3f %7.3f  %.3f (%.3f-%.3f)  %6.1f %6.1f  %-9s %s"
              % (mp, mc, mc / mp, min(ratios), max(ratios), rp, rc,
                 "same" if same else "DIFFERENT", cmd))
    print("commands with differing stdout or exit code: %d of %d" % (differ, len(TABLE)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
