"""Child process of the benchmark: set-up probes, traced CLI replicas, and
the long-lived session.

Run with ``PYTHONPATH=src`` from the root of a checkout:

    python3 perfbench/worker.py setup   --workload W --workdir DIR
    python3 perfbench/worker.py replica --spec JSON --spawn T
    python3 perfbench/worker.py session --queries FILE --workdir DIR --round N
                                        [--min-rounds M] [--trace] [--seconds S]

Each mode writes JSON lines to standard output, one per finished query, so
that a run killed from outside still leaves the answers it finished.  The
replica repeats, call for call, what ``hopfdy.cli`` does for the spec, with
spans around each call into a hopfdy module.  Spans and the containment
re-measurement go into the last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

T_START = time.perf_counter()

from fractions import Fraction  # noqa: E402

from spans import Tracer  # noqa: E402
import workloads  # noqa: E402

from hopfdy.double import DoubleAlgebra, coeff_restriction, drinfeld_double  # noqa: E402
from hopfdy.dycomplex import (identity_complex, restriction_complex,  # noqa: E402
                              tensor_complex)
from hopfdy.hopfcore import bk_inclusion, catalog_hopf, verify_hopf  # noqa: E402
from hopfdy.hopffile import load_hopf, save_hopf  # noqa: E402
from hopfdy.relext import (ExtComputation, adjunction_crosscheck_restriction,  # noqa: E402
                           get_resolution, pair_from_double, trivial_module_over)
from hopfdy.rmatrix import bk_r_lambda, check_rmatrix, tangent_space  # noqa: E402

T_IMPORTED = time.perf_counter()


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def parse_bk(source: str) -> int:
    fam, _, arg = source.partition(":")
    if fam != "bk":
        raise ValueError("benchmark sources are bk:k, got %r" % source)
    return int(arg)


# ---------------------------------------------------------------------------
# layer calls, each in a span named after the module and function

def catalog(tr, source):
    with tr.span("hopfcore.catalog_hopf"):
        return catalog_hopf(source)


def checked_r(tr, H, R):
    with tr.span("rmatrix.check_rmatrix"):
        report = check_rmatrix(H, R)
    if not report.verified:
        raise ValueError("R-matrix fails its axioms")
    return report


def dy_ranks(tr, cx, degrees, remeasure) -> tuple:
    """Cochain bases, then differential images and rank per degree; returns
    ({degree: cochain dim}, {degree: rank})."""
    dims = {}
    for m in degrees:
        with tr.span("dycomplex.cochain_basis", degree=m) as c:
            dims[m] = len(cx.cochain_basis(m))
        c["dycomplex.cochain_dim"] = dims[m]
    out = {}
    for m in degrees:
        with tr.span("dycomplex.differential_images", degree=m) as c:
            images = cx.differential_images(m)
        if tr.enabled:
            c["dycomplex.image_nnz"] = sum(len(v.coeffs) for v in images)
        with tr.span("dycomplex.rank_delta", degree=m) as c:
            out[m] = cx.rank_delta(m)
        if tr.enabled:
            c["exactlin.rank_rows"] = sum(1 for v in images if not v.is_zero())
            c["exactlin.rank_cols"] = cx.H.dim ** cx.slots(m + 1)
            remeasure.append((cx, m, images))
    return dims, out


def dy_cohomology(tr, cx, n, remeasure) -> int:
    """cohomology_dim(n), one piece per span."""
    below = [n - 1] if n >= 1 else []
    dims, ranks = dy_ranks(tr, cx, [n] + below, remeasure)
    return dims[n] - ranks[n] - (ranks[n - 1] if n >= 1 else 0)


def ext_dims(tr, pair, V, W, maxdeg) -> list:
    """ExtComputation.ext_dims over the cover resolution, one piece per span."""
    with tr.span("relext.get_resolution", degree=maxdeg) as c:
        res = get_resolution(pair, V, "cover", maxdeg)
    if tr.enabled:
        c["relext.term_dim"] = sum(res.terms[m].dim for m in range(maxdeg + 1))
    ext = ExtComputation(res, W)
    out, prev_rank = [], 0
    for n in range(maxdeg + 1):
        with tr.span("relext.cochain_basis", degree=n) as c:
            dim_cn = len(ext.cochain_basis(n))
        c["relext.cochain_dim"] = dim_cn
        if n < maxdeg:
            with tr.span("relext.rank_delta", degree=n) as c:
                rk = ext.rank_delta(n)
            c["exactlin.rank_rows"] = dim_cn
            c["exactlin.rank_cols"] = W.dim * res.terms[n + 1].dim
            kdim = dim_cn - rk
        else:
            with tr.span("relext.kernel_dim_top", degree=n):
                kdim = ext.kernel_dim_top(n)
        out.append(kdim - prev_rank)
        if n < maxdeg:
            prev_rank = rk
    return out


def read_lambda(path):
    with open(path) as f:
        return [[Fraction(x) for x in row] for row in json.load(f)]


# ---------------------------------------------------------------------------
# replicas of the CLI subcommands

def replica(tr, spec, remeasure) -> dict:
    cmd = spec["cmd"]
    H = catalog(tr, spec["source"])
    k = parse_bk(spec["source"])
    if cmd == "dimension-formula":
        R = bk_r_lambda(k, read_lambda(spec["lambda"]), H)
        report = checked_r(tr, H, R)
        h2t = dy_cohomology(tr, tensor_complex(H, R, report.inverse), 2, remeasure)
        h2i = dy_cohomology(tr, identity_complex(H), 2, remeasure)
        with tr.span("rmatrix.tangent_space"):
            tdim = tangent_space(H, R, report).dim
        return {"h2_tensor": h2t, "h2_id": h2i, "tangent_dim": tdim,
                "consistent": h2t - 2 * h2i == tdim}
    raise ValueError("unknown CLI spec %r" % spec)


# ---------------------------------------------------------------------------
# session

class Session:
    """Algebras built once at set-up and shared by every query."""

    def __init__(self, tr, workdir):
        self.H = {}
        self.files = {}
        for k in (1, 2, 3):
            self.H[k] = catalog(tr, "bk:%d" % k)
            self.files[k] = os.path.join(workdir, "bk%d.hopf.json" % k)
            with tr.span("hopffile.save_hopf"):
                save_hopf(self.H[k], self.files[k])
        self.imap = bk_inclusion(1, 1)

    def load(self, tr, k):
        with tr.span("hopffile.load_hopf"):
            return load_hopf(self.files[k])

    def double(self, tr, k):
        with tr.span("double.drinfeld_double"):
            return drinfeld_double(self.H[k])

    def run(self, tr, q, remeasure) -> dict:
        kind = q["kind"]
        if kind == "hopf":
            H = self.load(tr, q["k"])
            with tr.span("hopfcore.verify_hopf"):
                violations = verify_hopf(H)
            return {"dim": H.dim, "valid": not violations}
        if kind == "double":
            H = self.load(tr, q["k"])
            with tr.span("double.drinfeld_double"):
                return {"dim": drinfeld_double(H).dim}
        if kind == "rmatrix":
            H = self.H[q["k"]]
            R = bk_r_lambda(q["k"], [[Fraction(x) for x in row] for row in q["lambda"]], H)
            report = checked_r(tr, H, R)
            with tr.span("rmatrix.tangent_space"):
                tdim = tangent_space(H, R, report).dim
            return {"verified": report.verified, "tangent_dim": tdim}
        if kind == "dy-id":
            cx = identity_complex(self.H[q["k"]])
            return {"cohomology_dim": dy_cohomology(tr, cx, q["n"], remeasure)}
        if kind == "dy-res":
            cx = restriction_complex(self.H[2], self.imap, self.H[1])
            return {"cohomology_dim": dy_cohomology(tr, cx, q["n"], remeasure)}
        if kind == "relext-cover":
            D = self.double(tr, q["k"])
            pair, V = pair_from_double(D), trivial_module_over(D)
            if q["coeff"] == "restriction":
                with tr.span("double.coeff_restriction"):
                    W = coeff_restriction(D, self.imap, self.H[1]).module
            else:
                W = V
            return {"ext_dims": ext_dims(tr, pair, V, W, q["n"])}
        if kind == "adjunction-res":
            D = self.double(tr, 2)
            with tr.span("relext.adjunction_crosscheck_restriction"):
                return adjunction_crosscheck_restriction(D, self.imap, self.H[1], q["n"])
        raise ValueError("unknown session query %r" % q)


def remeasure_containment(remeasure) -> float:
    """Re-time in_cochain_space over the cached images, outside the spans."""
    total = 0.0
    for cx, m, images in remeasure:
        t0 = time.perf_counter()
        ok = all(cx.in_cochain_space(m + 1, v) for v in images)
        total += time.perf_counter() - t0
        if not ok:
            raise AssertionError("containment failed on re-measurement")
    remeasure.clear()
    return total


def live_doubles() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, DoubleAlgebra))


def finish(tr, containment_s):
    emit({"end": True, "spans": tr.spans, "containment_s": containment_s,
          "live_doubles": live_doubles(), "imported_s": T_IMPORTED - T_START})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="worker.py")
    ap.add_argument("mode", choices=["setup", "replica", "session"])
    ap.add_argument("--workload")
    ap.add_argument("--workdir")
    ap.add_argument("--spec")
    ap.add_argument("--spawn", type=float)
    ap.add_argument("--queries")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--min-rounds", type=int, default=1)
    args = ap.parse_args(argv)

    if args.mode == "setup":
        tr = Tracer(False)
        if args.workload == "session":
            Session(tr, args.workdir)
        else:
            for source in workloads.setup_sources(args.workload):
                catalog(tr, source)
        return 0

    if args.mode == "replica":
        tr = Tracer(True)
        spec = json.loads(args.spec)
        remeasure = []
        with tr.root(0, "query", start=args.spawn):
            tr.add_span("startup", args.spawn, T_IMPORTED)
            answer = replica(tr, spec, remeasure)
        emit({"i": 0, "answer": answer})
        finish(tr, remeasure_containment(remeasure))
        return 0

    # session: set up, then issue queries one at a time (closed loop), in
    # whole rounds; after --min-rounds, no round starts that would, at the
    # pace so far, end after --seconds
    tr = Tracer(args.trace)
    with open(args.queries) as f:
        queries = json.load(f)
    with tr.root("setup", "setup", start=T_START):
        tr.add_span("startup", T_START, T_IMPORTED)
        session = Session(tr, args.workdir)
    emit({"setup_end": time.perf_counter()})
    remeasure = []
    containment_s = 0.0
    t_first = time.perf_counter()
    for i, q in enumerate(queries):
        if i and i % args.round == 0 and i // args.round >= args.min_rounds:
            elapsed = time.perf_counter() - t_first
            if elapsed * (i + args.round) / i > args.seconds:
                break
        t0 = time.perf_counter()
        rec = {"i": i, "kind": q["kind"]}
        with tr.root(i, "query", start=t0):
            try:
                answer = session.run(tr, q, remeasure)
                rec["ok"] = answer == workloads.session_expected(q)
                if not rec["ok"]:
                    rec["answer"] = answer
            except Exception as exc:  # a failed query is counted, the session goes on
                rec["ok"] = False
                rec["error"] = "%s: %s" % (type(exc).__name__, exc)
        rec["start"], rec["end"] = t0, time.perf_counter()
        emit(rec)
        if tr.enabled:
            containment_s += remeasure_containment(remeasure)
    finish(tr, containment_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
