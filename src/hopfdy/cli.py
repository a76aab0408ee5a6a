"""Command-line front end.

Subcommands: verify, double, rmatrix (check|tangent|family), dy (id|tensor|res),
relext, crosscheck (adjunction-tensor|adjunction-res|dimension-formula|kunneth),
catalog.  Algebra sources are catalog keys ("cyclic:n", "bk:k") or Hopf-file
paths, interchangeable everywhere.

Standard output carries exactly one deterministic JSON report; progress and
timing go to standard error.  Exit codes: 0 ok, 2 invalid algebra,
3 invalid R-matrix, 4 unsupported degree, 5 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

from .algcore import AlgebraMap
from .dycomplex import (UnsupportedDegreeError, identity_complex,
                        restriction_complex, tensor_complex)
from .exactlin import BudgetExceededError, TensorElement, unit_tensor
from .hopfcore import HopfError, bk_inclusion, catalog_hopf, is_hopf_map, verify_hopf
from .hopffile import (HopfFileError, load_hopf, parse_rational, tensor_from_json,
                       tensor_to_json)
from .rmatrix import (RMatrixError, bk_standard_tangent_basis, bk_r0, bk_r_lambda,
                      check_rmatrix, tangent_space, tangent_span_matches)

EXIT_OK = 0
EXIT_INVALID_ALGEBRA = 2
EXIT_INVALID_RMATRIX = 3
EXIT_UNSUPPORTED_DEGREE = 4
EXIT_BUDGET = 5


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def log(msg):
    print(msg, file=sys.stderr)
    sys.stderr.flush()


def source_digest(source: str) -> str:
    if os.path.exists(source):
        import hashlib
        with open(source, "rb") as f:
            return "sha256:" + hashlib.sha256(f.read()).hexdigest()
    return "catalog:" + source


def load_algebra(source: str):
    """Catalog key or file path -> HopfAlgebra."""
    if os.path.exists(source):
        return load_hopf(source)
    try:
        return catalog_hopf(source)
    except HopfError as exc:
        raise CliError("algebra source %r: not a file, and %s" % (source, exc),
                       EXIT_INVALID_ALGEBRA)


def parse_bk_k(source: str):
    """k of a catalog key bk:k; None for any other source, a Hopf file
    named like one included."""
    fam, _, arg = source.partition(":")
    if fam == "bk" and arg.isdecimal() and not os.path.exists(source):
        return int(arg)
    return None


def _read_json(flag: str, path: str):
    """The JSON value in the file given to `flag`, or a CliError (exit 3)
    naming the file when it cannot be read or is not JSON."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise CliError("%s %s: %s" % (flag, path, exc), EXIT_INVALID_RMATRIX)


def load_rmatrix(H, args) -> TensorElement:
    if getattr(args, "r0", False):
        k = parse_bk_k(args.source)
        if k is None:
            raise CliError("--r0 requires a bk:k source", EXIT_INVALID_RMATRIX)
        return bk_r0(k, H)
    if getattr(args, "trivial_r", False):
        return unit_tensor(H.algebra, 2)
    if getattr(args, "rmatrix", None):
        data = _read_json("--rmatrix", args.rmatrix)
        try:
            return tensor_from_json(H.algebra, 2, data)
        except HopfFileError as exc:
            raise CliError("--rmatrix %s: %s" % (args.rmatrix, exc), EXIT_INVALID_RMATRIX)
    if getattr(args, "lam", None):
        k = parse_bk_k(args.source)
        if k is None:
            raise CliError("--lambda requires a bk:k source", EXIT_INVALID_RMATRIX)
        lam = _read_json("--lambda", args.lam)
        if not (isinstance(lam, list) and len(lam) == k
                and all(isinstance(row, list) and len(row) == k for row in lam)):
            raise CliError("--lambda %s: %r is not a %dx%d matrix" % (args.lam, lam, k, k),
                           EXIT_INVALID_RMATRIX)
        try:
            lam = [[parse_rational(x, "lambda[%d][%d]" % (i, j)) for j, x in enumerate(row)]
                   for i, row in enumerate(lam)]
        except HopfFileError as exc:
            raise CliError("--lambda %s: %s" % (args.lam, exc), EXIT_INVALID_RMATRIX)
        return bk_r_lambda(k, lam, H)
    raise CliError("no R-matrix given (use --r0, --trivial-r, --lambda or --rmatrix)",
                   EXIT_INVALID_RMATRIX)


def verified_rmatrix(H, args):
    """(R, its check report) for the R-matrix that args name; an R that
    fails the axioms is a CliError (exit 3)."""
    R = load_rmatrix(H, args)
    report = check_rmatrix(H, R)
    if not report.verified:
        raise CliError("R-matrix fails axioms: %s" % report.witnesses[:2],
                       EXIT_INVALID_RMATRIX)
    return R, report


def emit(args, report: dict, exit_code: int) -> int:
    """Deterministic JSON on stdout; timing only on stderr.  The budget ends
    here, so a report is written whole or not at all."""
    if getattr(args, "max_seconds", 0):
        signal.setitimer(signal.ITIMER_REAL, 0)
    payload = json.dumps(report, sort_keys=True, indent=1)
    print(payload)
    if getattr(args, "json_out", None):
        with open(args.json_out, "w") as f:
            f.write(payload)
            f.write("\n")
    return exit_code


def base_report(args, command: str) -> dict:
    rep = {"command": command, "inputs": {}, "results": {},
           "flags": {"dd_zero": True, "image_containment": True,
                     "modular_prepass_agreement": True}}
    if getattr(args, "source", None):
        rep["inputs"]["source"] = args.source
        rep["inputs"]["source_digest"] = source_digest(args.source)
    if getattr(args, "sub", None):
        rep["inputs"]["sub"] = args.sub
        rep["inputs"]["sub_digest"] = source_digest(args.sub)
    return rep


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify(args) -> int:
    rep = base_report(args, "verify")
    try:
        H = load_algebra(args.source)
    except HopfFileError as exc:
        rep["results"]["valid"] = False
        rep["results"]["violations"] = exc.report or [str(exc)]
        return emit(args, rep, EXIT_INVALID_ALGEBRA)
    violations = verify_hopf(H)
    rep["results"]["dim"] = H.dim
    rep["results"]["valid"] = not violations
    rep["results"]["violations"] = violations
    return emit(args, rep, EXIT_OK if not violations else EXIT_INVALID_ALGEBRA)


def cmd_double(args) -> int:
    from .double import drinfeld_double
    rep = base_report(args, "double")
    H = load_algebra(args.source)
    log("building D(%s)..." % H.name)
    D = drinfeld_double(H)
    rep["results"]["dim"] = D.dim
    rep["results"]["base_dim"] = H.dim
    rep["results"]["hopf_axioms"] = "verified"
    return emit(args, rep, EXIT_OK)


def cmd_rmatrix(args) -> int:
    rep = base_report(args, "rmatrix " + args.action)
    H = load_algebra(args.source)
    R = load_rmatrix(H, args)
    report = check_rmatrix(H, R)
    rep["results"]["check"] = report.to_dict()
    if args.action == "check":
        return emit(args, rep, EXIT_OK if report.verified else EXIT_INVALID_RMATRIX)
    if not report.verified:
        return emit(args, rep, EXIT_INVALID_RMATRIX)
    if args.action == "tangent":
        tb = tangent_space(H, R, report)
        rep["results"]["dim"] = tb.dim
        rep["results"]["basis"] = [tensor_to_json(v) for v in tb.vectors]
        k = parse_bk_k(args.source)
        if k is not None and getattr(args, "r0", False):
            rep["results"]["span_matches_standard_basis"] = tangent_span_matches(
                H, tb, bk_standard_tangent_basis(k, H))
        return emit(args, rep, EXIT_OK)
    if parse_bk_k(args.source) is None:   # family
        raise CliError("family requires bk:k", EXIT_INVALID_RMATRIX)
    rep["results"]["r_lambda"] = tensor_to_json(R)
    return emit(args, rep, EXIT_OK)


def _dy_complex(args, H):
    if args.kind == "id":
        return identity_complex(H)
    if args.kind == "tensor":
        R, _ = verified_rmatrix(H, args)
        return tensor_complex(H, R)
    return restriction_complex(H, *_sub_inclusion(args, H))   # res


def _sub_inclusion(args, H):
    """(imap, Hsub): the --sub algebra Hsub and its canonical inclusion into H."""
    if not args.sub:
        raise CliError("this command needs --sub", EXIT_INVALID_ALGEBRA)
    Hsub = load_algebra(args.sub)
    kb, ks = parse_bk_k(args.source), parse_bk_k(args.sub)
    if kb is not None and ks is not None and kb > ks:
        return bk_inclusion(kb - ks, ks), Hsub
    if H.dim == Hsub.dim:
        ident = AlgebraMap(Hsub.algebra, H.algebra,
                           [{i: 1} for i in range(H.dim)])
        if not is_hopf_map(ident, Hsub, H):
            return ident, Hsub
    raise CliError("no canonical inclusion from %s into %s" % (args.sub, args.source),
                   EXIT_INVALID_ALGEBRA)


# `dy`, `relext` and `crosscheck` refuse a degree outside 0..DEGREE_BUDGET
# (exit 4) in `main`, before any work
DEGREE_BUDGET = 4
# a DY side refuses a degree n whose differential lands in an ambient
# H^{ox s}, s = slots(n + 1), of dimension above this (exit 5): 2^18 still
# admits the tensor complex of B_1 at degree 3 (4^8) and of B_2 at degree 2 (8^6).
MAX_AMBIENT = 1 << 18


def _check_ambient(cx, n: int):
    """Refuse (exit 5) degree n of the DY complex cx, before any basis work,
    when its differential lands in an ambient above MAX_AMBIENT."""
    if cx.ambient_dim(n + 1) > MAX_AMBIENT:
        raise CliError("degree %d needs an ambient of dimension %d, over the bound %d"
                       % (n, cx.ambient_dim(n + 1), MAX_AMBIENT), EXIT_BUDGET)


def cmd_dy(args) -> int:
    rep = base_report(args, "dy " + args.kind)
    H = load_algebra(args.source)
    cx = _dy_complex(args, H)
    n = args.degree
    _check_ambient(cx, n)
    log("cochain bases...")
    dims = [cx.cochain_dim(m) for m in range(n + 1)]
    log("differentials...")
    rank_below = cx.rank_delta(n - 1) if n >= 1 else 0
    rank_here = cx.rank_delta(n)
    hdim = dims[n] - rank_here - rank_below
    rep["results"]["cochain_dims"] = dims
    rep["results"]["rank_delta"] = {"below": rank_below, "here": rank_here}
    rep["results"]["cohomology_dim"] = hdim
    return emit(args, rep, EXIT_OK)


def cmd_relext(args) -> int:
    from .double import coeff_restriction, drinfeld_double
    from .relext import pair_from_double, relative_ext_dims, trivial_module_over
    rep = base_report(args, "relext")
    H = load_algebra(args.source)
    D = drinfeld_double(H)
    pair = pair_from_double(D)
    V = trivial_module_over(D)
    W = V if args.coeff == "trivial" else coeff_restriction(
        D, *_sub_inclusion(args, H)).module
    dims = relative_ext_dims(pair, V, W, args.degree, kind=args.resolution)
    rep["results"]["ext_dims"] = dims
    rep["results"]["resolution"] = args.resolution
    return emit(args, rep, EXIT_OK)


def cmd_crosscheck(args) -> int:
    rep = base_report(args, "crosscheck " + args.which)
    H = load_algebra(args.source)
    if args.which == "dimension-formula":
        R, rm = verified_rmatrix(H, args)
        h2t = tensor_complex(H, R).cohomology_dim(2)
        h2i = identity_complex(H).cohomology_dim(2)
        tdim = tangent_space(H, R, rm).dim
        out = {"h2_tensor": h2t, "h2_id": h2i, "tangent_dim": tdim,
               "consistent": h2t - 2 * h2i == tdim}
        rep["results"] = out
        return emit(args, rep, EXIT_OK if out["consistent"] else 1)
    # every other crosscheck compares against relative Ext over the double
    from .double import drinfeld_double
    from .relext import (adjunction_crosscheck_restriction, adjunction_crosscheck_tensor,
                         kunneth_check, pair_from_double, trivial_module_over)
    if args.which == "adjunction-tensor":
        R, _ = verified_rmatrix(H, args)
        D = drinfeld_double(H)
        out = adjunction_crosscheck_tensor(D, R, args.degree, kind=args.resolution)
        rep["results"] = out
        return emit(args, rep, EXIT_OK if out["equal"] else 1)
    if args.which == "adjunction-res":
        imap, Hsub = _sub_inclusion(args, H)
        _check_ambient(restriction_complex(H, imap, Hsub), args.degree)
        D = drinfeld_double(H)
        out = adjunction_crosscheck_restriction(D, imap, Hsub, args.degree,
                                                kind=args.resolution)
        rep["results"] = out
        return emit(args, rep, EXIT_OK if out["equal"] else 1)
    D = drinfeld_double(H)   # kunneth
    pair = pair_from_double(D)
    V = trivial_module_over(D)
    out = kunneth_check(pair, pair, V, V, V, V, args.degree, kind=args.resolution)
    rep["results"] = out
    return emit(args, rep, EXIT_OK if out["equal"] else 1)


def cmd_catalog(args) -> int:
    rep = {"command": "catalog", "results": {
        "keys": ["cyclic:n (group algebra QQ[Z/n])",
                 "bk:k (Lambda(QQ^k) x| QQ[Z/2], dim 2^{k+1})"],
        "flags": ["--r0", "--trivial-r", "--lambda FILE", "--rmatrix FILE",
                  "--sub KEY", "--degree N", "--resolution bar|cover",
                  "--coeff trivial|restriction", "--json-out PATH", "--max-seconds N"]}}
    return emit(args, rep, EXIT_OK)


# below 2^31 s, so that any platform's time_t holds the timer
MAX_BUDGET_SECONDS = 1e9


def budget_seconds(text: str) -> float:
    """--max-seconds: a finite number of seconds in 0..MAX_BUDGET_SECONDS;
    argparse turns the ValueError of a non-number into a usage error."""
    seconds = float(text)
    if not 0 <= seconds <= MAX_BUDGET_SECONDS:   # also refuses nan and inf
        raise argparse.ArgumentTypeError(
            "%r is not a number of seconds in 0..%g" % (text, MAX_BUDGET_SECONDS))
    return seconds


def json_out_path(path: str) -> str:
    """--json-out: a file path whose directory exists and is writable, so
    that the report is never computed for a path that cannot take it."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise argparse.ArgumentTypeError(
            "%r is not a writable file path in an existing directory" % path)
    return path


def _expire(signum, frame):
    # raised inside an import, the error would leave a half-initialised
    # module, or come out of a C extension as an ImportError: retry in 10 ms
    while frame is not None:
        if frame.f_code.co_filename.startswith("<frozen importlib"):
            signal.setitimer(signal.ITIMER_REAL, 0.01)
            return
        frame = frame.f_back
    raise BudgetExceededError("the budget of --max-seconds ran out")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hopfdy",
        description="exact Davydov-Yetter / R-matrix / relative-Ext computations "
                    "for finite-dimensional Hopf algebras over QQ")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, with_r=False, with_degree=False, with_resolution=False):
        p.add_argument("source", help="catalog key (bk:k, cyclic:n) or Hopf file")
        p.add_argument("--json-out", dest="json_out", type=json_out_path)
        p.add_argument("--max-seconds", dest="max_seconds", type=budget_seconds, default=0)
        if with_r:   # one R-matrix source per command
            r = p.add_mutually_exclusive_group()
            r.add_argument("--r0", action="store_true",
                           help="use the triangular R0 of bk:k")
            r.add_argument("--trivial-r", dest="trivial_r", action="store_true")
            r.add_argument("--lambda", dest="lam",
                           help="JSON file with a k x k rational matrix")
            r.add_argument("--rmatrix", help="JSON sparse degree-2 tensor")
        if with_degree:   # dy, relext and crosscheck, the commands that read --sub
            p.add_argument("--degree", type=int, default=2)
            p.add_argument("--sub", help="subalgebra catalog key or file")
        if with_resolution:
            p.add_argument("--resolution", choices=["bar", "cover"], default="cover")

    p = sub.add_parser("verify", help="check all Hopf axioms")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("double", help="build and verify the Drinfeld double")
    common(p)
    p.set_defaults(fn=cmd_double)

    p = sub.add_parser("rmatrix", help="R-matrix checks and tangent spaces")
    p.add_argument("action", choices=["check", "tangent", "family"])
    common(p, with_r=True)
    p.set_defaults(fn=cmd_rmatrix)

    p = sub.add_parser("dy", help="Davydov-Yetter cohomology dimensions")
    p.add_argument("kind", choices=["id", "tensor", "res"])
    common(p, with_r=True, with_degree=True)
    p.set_defaults(fn=cmd_dy)

    p = sub.add_parser("relext", help="relative Ext dimensions over (D(H), H)")
    common(p, with_degree=True, with_resolution=True)
    p.add_argument("--coeff", choices=["trivial", "restriction"], default="trivial")
    p.set_defaults(fn=cmd_relext)

    p = sub.add_parser("crosscheck", help="independent two-sided verifications")
    p.add_argument("which", choices=["adjunction-tensor", "adjunction-res",
                                     "dimension-formula", "kunneth"])
    common(p, with_r=True, with_degree=True, with_resolution=True)
    p.set_defaults(fn=cmd_crosscheck)

    p = sub.add_parser("catalog", help="list built-in algebras and flags")
    p.set_defaults(fn=cmd_catalog)
    return ap


def main(argv=None) -> int:
    # exact arithmetic only: numpy, imported later by the slot kernel, needs no BLAS threads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    t0 = time.time()
    max_seconds = getattr(args, "max_seconds", 0)
    # one deadline for the whole command: SIGALRM raises wherever it lands
    previous = signal.signal(signal.SIGALRM, _expire) if max_seconds else None
    try:
        try:
            if max_seconds:
                signal.setitimer(signal.ITIMER_REAL, max_seconds)
            degree = getattr(args, "degree", 0)
            if not 0 <= degree <= DEGREE_BUDGET:
                raise CliError("degree %d outside the supported range 0..%d"
                               % (degree, DEGREE_BUDGET), EXIT_UNSUPPORTED_DEGREE)
            code = args.fn(args)
        finally:
            if max_seconds:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
    except CliError as exc:
        log("error: %s" % exc)
        return exc.code
    except HopfFileError as exc:
        log("error: %s %s" % (exc, exc.report[:3]))
        return EXIT_INVALID_ALGEBRA
    except BudgetExceededError as exc:
        log("error: %s" % exc)
        return EXIT_BUDGET
    except UnsupportedDegreeError as exc:
        log("error: %s" % exc)
        return EXIT_UNSUPPORTED_DEGREE
    except RMatrixError as exc:
        log("error: %s" % exc)
        return EXIT_INVALID_RMATRIX
    log("done in %.2fs" % (time.time() - t0))
    return code


if __name__ == "__main__":
    sys.exit(main())
