"""hopfdy benchmark: end-to-end metrics per workload, per-layer metrics from spans.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Workloads are rational-r (one fresh CLI process per query) and session (one
long-lived library process).  Queries are issued one at a time
by one client (closed loop) until the workload's minimum query count is
reached and ``--seconds`` are used up: a CLI workload starts no query that
would, at the median pace so far, end after ``--seconds``.  Every answer is
checked; the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it name every
metric with its unit, plus the machine facts, the calibration loop, the seed
and the sha256 of every input.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
WORK = os.path.join("perfbench", "_work")  # relative: main() runs from ROOT
RUN_LIMIT_S = 165.0     # every child is killed before a run reaches this age
SETUP_REPEATS = 4     # set-up probes before the timed part, and as many after it

END_TO_END = {"query_s.p90": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "dycomplex.cochain_basis_s": "s", "dycomplex.differential_images_s": "s",
    "dycomplex.rank_delta_s": "s", "dycomplex.containment_s": "s",
    "dycomplex.cochain_dim": "count", "dycomplex.image_nnz": "count",
    "exactlin.rank_rows": "count", "exactlin.rank_cols": "count",
    "relext.get_resolution_s": "s", "relext.cochain_basis_s": "s",
    "relext.rank_delta_s": "s", "relext.kernel_dim_top_s": "s",
    "relext.term_dim": "count", "relext.cochain_dim": "count",
    "double.drinfeld_double_s": "s", "double.coeff_restriction_s": "s",
    "double.live_doubles": "count",
    "rmatrix.check_rmatrix_s": "s", "rmatrix.tangent_space_s": "s",
    "hopfcore.catalog_hopf_s": "s", "hopfcore.verify_hopf_s": "s",
    "hopffile.load_hopf_s": "s",
    "trace.uncovered_share": "ratio", "trace.overhead_s": "s",
}


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# child processes, watched from outside

class Child:
    """Outcome of one child process: wall time, exit code, peak RSS."""

    def __init__(self, t0, t1, code, rss_mb, killed, out_path):
        self.t0, self.t1, self.code = t0, t1, code
        self.rss_mb, self.killed, self.out_path = rss_mb, killed, out_path

    @property
    def ok(self):
        return self.code == 0 and not self.killed

    def lines(self):
        with open(self.out_path) as f:
            return [json.loads(line) for line in f if line.strip()]


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, out_path, deadline) -> Child:
    """Run argv with stdout to out_path; SIGKILL it at ``deadline``.

    The child is waited for without reaping (WNOWAIT), the kill timer is
    stopped, and only then is it reaped with wait4 for its rusage, so the
    timer can never signal a reused pid.
    """
    killed = threading.Event()
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                stdin=subprocess.DEVNULL, cwd=ROOT, env=child_env())

    def kill():
        killed.set()
        os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(0.5, deadline - time.perf_counter()), kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        t1 = time.perf_counter()
    except BaseException:  # interrupted or terminated: take the child down too
        os.kill(proc.pid, signal.SIGKILL)
        raise
    finally:
        timer.cancel()
        timer.join()
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(t0, t1, proc.returncode, ru.ru_maxrss / 1024.0, killed.is_set(),
                 out_path)


def cli_command(spec):
    return [sys.executable, "-m", "hopfdy.cli"] + workloads.cli_argv(spec)


def worker_command(*args):
    return [sys.executable, os.path.join(BENCH, "worker.py"), *args]


# ---------------------------------------------------------------------------
# facts recorded beside the metrics

def calibration_s() -> float:
    """A fixed pure-Python loop; reported, never used to scale a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": sys.version.split()[0]}
    try:
        import numpy
        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = "absent"
    facts["git"] = "not a git checkout"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                facts["git"] = sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            facts["git"] = "git unavailable"
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "hopfdy")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    facts["src_sha256"] = h.hexdigest()
    return facts


class StdoutLedger:
    """sha256 of each CLI stdout, keyed by source tree, command and inputs.

    Identical queries against identical code must print identical bytes; a
    query whose stdout differs from an earlier run's in this checkout fails.
    """

    def __init__(self, path, src_sha):
        self.path, self.src_sha = path, src_sha
        try:
            with open(path) as f:
                self.known = json.load(f)
        except (OSError, ValueError):
            self.known = {}
        self.seen: dict = {}

    def check(self, argv, input_shas, out_sha) -> bool:
        key = " ".join([self.src_sha] + argv + input_shas)
        self.seen[" ".join(argv)] = out_sha
        prev = self.known.setdefault(key, out_sha)
        return prev == out_sha

    def save(self):
        tmp = self.path + ".%d.tmp" % os.getpid()
        with open(tmp, "w") as f:
            json.dump(self.known, f, indent=0, sort_keys=True)
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# statistics

def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def end_to_end(times, elapsed, correct_count, rss_mb, setup) -> dict:
    log("query_s samples (%d): %s" % (len(times), " ".join("%.4f" % t for t in times)))
    log("setup_s samples: %s" % " ".join("%.4f" % t for t in setup))
    # Printed, not bounded: on a shared CPU that swings between a fast and a
    # slow state, the median and the throughput moved by up to 0.27 and 0.21
    # of themselves between runs, where p90 moved by at most 0.08.
    log("%-34s %14.6f s      (printed beside the metrics)"
        % ("query_s.p50", statistics.median(times)))
    log("%-34s %14.6f 1/min  (printed beside the metrics)"
        % ("queries_per_min", 60.0 * correct_count / elapsed))
    return {"query_s.p90": percentile(times, 0.9),
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setup)}


def layer_metrics(span_list, containment_s, live, overhead_s) -> dict:
    """Sum self time per span name and counters per counter name."""
    out = {name: 0.0 if unit == "s" else 0 for name, unit in PER_LAYER.items()}
    selfs = spans.self_times(span_list)
    query_total = query_uncovered = 0.0
    for s in span_list:
        key = s["name"] + "_s"
        if key in out:
            out[key] += selfs[s["id"]]
        for cname, v in s["counters"].items():
            if cname in out:
                out[cname] += v
        if s["name"] == "query":
            query_total += s["end"] - s["start"]
            query_uncovered += selfs[s["id"]]
    out["dycomplex.containment_s"] = containment_s
    out["double.live_doubles"] = live
    out["trace.uncovered_share"] = query_uncovered / query_total if query_total else 0.0
    out["trace.overhead_s"] = overhead_s
    return out


# ---------------------------------------------------------------------------
# one run

class Run:
    def __init__(self, workload, seed, seconds, trace, smoke):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.smoke = trace, smoke
        self.t_start = time.perf_counter()
        self.deadline = self.t_start + RUN_LIMIT_S
        self.dir = os.path.join(WORK, "%s-seed%d%s" % (workload, seed,
                                                      "-smoke" if smoke else ""))
        os.makedirs(self.dir, exist_ok=True)
        self.rng = random.Random(seed)
        self.attempted = self.failed = 0
        self.inputs: dict = {}
        self.notes: list = []

    def path(self, name):
        return os.path.join(self.dir, name)

    def count(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append("FAILED %s" % what)

    def setup_times(self, workdir, when):
        """Fresh interpreter + import hopfdy + the workload's algebras/files.

        Probes are taken both before and after the timed part, so that their
        median spans the run rather than the second in which they started.
        """
        out = []
        for r in range(SETUP_REPEATS):
            c = run_child(worker_command("setup", "--workload", self.workload,
                                         "--workdir", workdir),
                          self.path("setup-%s-%d.out" % (when, r)), self.deadline)
            if not c.ok:
                raise RuntimeError("set-up probe failed with code %s" % c.code)
            out.append(c.t1 - c.t0)
        return out

    # -- CLI workloads -------------------------------------------------------
    def cli_query(self, spec, input_files, ledger, tag, measured=True):
        """One CLI process; returns (ok, seconds to checked answer, rss)."""
        argv = cli_command(spec)
        c = run_child(argv, self.path("%s.out" % tag), self.deadline)
        ok = c.ok
        if ok:
            with open(c.out_path, "rb") as f:
                raw = f.read()
            try:
                ok = json.loads(raw)["results"] == workloads.cli_expected(spec)
            except (ValueError, KeyError):
                ok = False
            shas = [workloads.sha256_file(p) for p in input_files]
            ok = ledger.check(argv[3:], shas, hashlib.sha256(raw).hexdigest()) and ok
        t = time.perf_counter() - c.t0
        what = "%s: %s (code %s%s)" % (tag, " ".join(argv[3:]), c.code,
                                       ", killed" if c.killed else "")
        if measured:
            self.count(ok, what)
        elif not ok:
            raise RuntimeError("warm-up failed: " + what)
        return ok, t, c.rss_mb

    def replica_query(self, spec, tag):
        """The traced library replica of one CLI query."""
        t0 = time.perf_counter()
        c = run_child(worker_command("replica", "--spec", json.dumps(spec),
                                     "--spawn", repr(t0)),
                      self.path("%s.out" % tag), self.deadline)
        lines = c.lines() if c.ok else []
        ok = (len(lines) == 2 and lines[0]["answer"] == workloads.cli_expected(spec))
        self.count(ok, "%s replica (code %s)" % (tag, c.code))
        return ok, time.perf_counter() - t0, (lines[-1] if lines else None)

    def run_cli(self):
        specs = workloads.cli_specs(self.workload, self.rng, self.dir)
        ledger = StdoutLedger(os.path.join(WORK, "stdout-ledger.json"), self.facts["src_sha256"])
        warm = workloads.warmup_spec(self.workload, self.dir)
        self.cli_query(warm, [warm["lambda"]] if "lambda" in warm else [], ledger,
                       "warmup", measured=False)
        self.stdout_shas = ledger.seen
        setup = None if self.trace else self.setup_times(self.dir, "before")
        times, rss, good = [], 0.0, 0
        t_first = time.perf_counter()
        minimum = 1 if self.smoke else workloads.MIN_QUERIES[self.workload]
        while True:
            spec, files = next(specs)
            for p in files:
                self.inputs[os.path.basename(p)] = workloads.sha256_file(p)
            if self.trace:
                ok_u, t_u, _ = self.cli_query(spec, files, ledger, "untraced")
                ok_t, t_t, last = self.replica_query(spec, "traced")
                ledger.save()
                if not (ok_u and ok_t):
                    return None
                return layer_metrics(last["spans"], last["containment_s"],
                                     last["live_doubles"], t_t - t_u), last["spans"]
            ok, t, r = self.cli_query(spec, files, ledger, "q%03d" % len(times))
            times.append(t)
            rss = max(rss, r)
            good += ok
            # stop before a query that would, at the median pace, end after --seconds
            elapsed = time.perf_counter() - t_first
            if len(times) >= minimum and elapsed + statistics.median(times) > self.seconds:
                break
            if time.perf_counter() >= self.deadline:
                break
        ledger.save()
        elapsed = time.perf_counter() - t_first
        setup += self.setup_times(self.dir, "after")
        return end_to_end(times, elapsed, good, rss, setup), None

    # -- session -------------------------------------------------------------
    def session_worker(self, queries_file, tag, trace, seconds, round_size, min_rounds=1,
                       measured=True):
        args = ["session", "--queries", queries_file, "--workdir", self.dir,
                "--seconds", repr(seconds), "--round", str(round_size),
                "--min-rounds", str(min_rounds)]
        c = run_child(worker_command(*args, *(["--trace"] if trace else [])),
                      self.path("%s.out" % tag), self.deadline)
        lines = c.lines()
        recs = [x for x in lines if "i" in x]
        end = lines[-1] if lines and lines[-1].get("end") else None
        if not measured:
            if not (c.ok and end and all(x["ok"] for x in recs)):
                raise RuntimeError("%s session failed (code %s)" % (tag, c.code))
            return c, recs, end
        for x in recs:
            self.count(x["ok"], "%s query %d %s %s" % (tag, x["i"], x["kind"],
                                                      x.get("error", x.get("answer", ""))))
        # whole rounds, and at least the minimum
        planned = max(-(-len(recs) // round_size), min_rounds) * round_size
        for _ in range(max(0, planned - len(recs))):
            self.count(False, "%s: worker ended (code %s%s) before this query"
                       % (tag, c.code, ", killed" if c.killed else ""))
        if not c.ok and len(recs) >= planned:
            self.count(False, "%s: worker exit code %s" % (tag, c.code))
        return c, recs, end

    def run_session(self):
        if self.smoke:
            queries = workloads.session_queries(self.rng, 1, workloads.SMOKE_SESSION)
            n = len(queries)
        else:
            # later rounds run only while a round fits in --seconds
            queries = workloads.session_queries(self.rng, 8)
            n = len(workloads.SESSION_ROUND)
        qfile = workloads.write_json(self.path("queries.json"), queries)
        self.inputs["queries.json"] = workloads.sha256_file(qfile)
        warm = workloads.write_json(self.path("warmup.json"), workloads.session_queries(
            random.Random(0), 1, workloads.SMOKE_SESSION))
        self.session_worker(warm, "warmup", False, 0, len(workloads.SMOKE_SESSION),
                            measured=False)
        setup = None if self.trace else self.setup_times(self.dir, "before")
        if self.trace:
            c_t, recs_t, end = self.session_worker(qfile, "traced", True, 0, n)
            c_u, recs_u, _ = self.session_worker(qfile, "untraced", False, 0, n)
            if end is None or self.failed:
                return None
            overhead = (sum(x["end"] - x["start"] for x in recs_t)
                        - sum(x["end"] - x["start"] for x in recs_u))
            return layer_metrics(end["spans"], end["containment_s"],
                                 end["live_doubles"], overhead), end["spans"]
        c, recs, end = self.session_worker(qfile, "session", False, self.seconds, n,
                                           1 if self.smoke else workloads.SESSION_MIN_ROUNDS)
        if not recs:
            return None
        times = [x["end"] - x["start"] for x in recs]
        elapsed = recs[-1]["end"] - recs[0]["start"]
        good = sum(1 for x in recs if x["ok"])
        setup += self.setup_times(self.dir, "after")
        return end_to_end(times, elapsed, good, c.rss_mb, setup), None

    # -- the whole run ---------------------------------------------------------
    def execute(self):
        self.facts = machine_facts()
        self.calib = [calibration_s()]
        self.stdout_shas = {}
        if self.workload == "session":
            result = self.run_session()
        else:
            result = self.run_cli()
        self.calib.append(calibration_s())
        return result


def report(run: Run, result) -> dict:
    metrics, span_list = result
    units = PER_LAYER if run.trace else END_TO_END
    log("workload %s  seed %d  seconds %s  trace %d%s"
        % (run.workload, run.seed, run.seconds, run.trace, "  smoke" if run.smoke else ""))
    log("machine " + " ".join("%s=%s" % kv for kv in sorted(run.facts.items())))
    log("calibration_s before=%.4f after=%.4f (not used to scale any metric)"
        % tuple(run.calib))
    for name, sha in sorted(run.inputs.items()):
        log("input %s %s" % (name, sha))
    for argv, sha in sorted(run.stdout_shas.items()):
        log("stdout_sha256 %s  %s" % (sha, argv))
    for note in run.notes:
        log(note)
    for name in units:
        log("%-34s %14.6f %s" % (name, metrics[name], units[name]))
    log("%-34s %14.6f %s  (%d of %d)" % ("failed_share", run.failed / max(1, run.attempted),
                                         "ratio", run.failed, run.attempted))
    if span_list is not None:
        problems = spans.check_tree(span_list)
        for p in problems:
            log("span tree: " + p)
        with open(run.path("trace.json"), "w") as f:
            json.dump(span_list, f)
        log("trace %s (%d spans, tree %s)"
            % (run.path("trace.json"), len(span_list),
               "ok" if not problems else "BROKEN"))
        if problems:
            run.failed += 1
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def smoke() -> int:
    """Smallest inputs, every workload, both modes: every metric printed with
    its unit and a well-formed span tree.  The metric lists must match
    BENCHMARK.json."""
    bad = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if {m["name"]: m["unit"] for m in declared[key]} != ours:
            bad.append("BENCHMARK.json %s differs from run.py" % key)
    if [w["name"] for w in declared["workloads"]] != list(workloads.WORKLOADS):
        bad.append("BENCHMARK.json workloads differ from workloads.py")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            run = Run(workload, 1, 0, trace, smoke=True)
            result = run.execute()
            if result is None:
                bad.append("%s trace=%d: no result" % (workload, trace))
                continue
            out = report(run, result)
            want = PER_LAYER if trace else END_TO_END
            if set(out["metrics"]) != set(want) or any(
                    m["unit"] != want[k] for k, m in out["metrics"].items()):
                bad.append("%s trace=%d: metrics or units differ" % (workload, trace))
            if not out["correct"]:
                bad.append("%s trace=%d: %d of %d failed"
                           % (workload, trace, out["failed"], out["attempted"]))
    for b in bad:
        log("smoke: " + b)
    log("smoke: %s" % ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds run_child, which kills its child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hopfdy", "cli.py")):
        print("error: src/hopfdy not found under %s; run from a hopfdy checkout" % ROOT,
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(WORK, exist_ok=True)
    if args.smoke:
        return smoke()
    if not args.workload:
        ap.error("--workload is required")
    run = Run(args.workload, args.seed, args.seconds, args.trace, smoke=False)
    result = run.execute()
    if result is None:
        for note in run.notes:
            print(note, file=sys.stderr)
        print("error: %d of %d queries failed; no result" % (run.failed, run.attempted),
              file=sys.stderr)
        return 1
    print(json.dumps(report(run, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
