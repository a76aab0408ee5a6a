"""JSON interchange format for Hopf algebras and sparse tensors.

A Hopf file looks like

    {
      "format_version": 1,
      "dim": 2,
      "basis_labels": ["1", "g"],
      "mult":    [[i, j, k, "p/q"], ...],   # coeff of e_k in e_i e_j
      "comult":  [[i, j, k, "p/q"], ...],   # coeff of e_j ox e_k in Delta(e_i)
      "unit":    [[i, "p/q"], ...],
      "counit":  [[i, "p/q"], ...],
      "antipode": [[i, j, "p/q"], ...],     # coeff of e_i in S(e_j)
      "generators": [[[i, "p/q"], ...], ...],       # optional
      "dual_generators": [[[i, "p/q"], ...], ...]   # optional
    }

Rationals travel as exact "p/q" strings (JSON integers are read too;
floats are refused, since their binary value is not the decimal written).  Sparse tensor elements serialize
as [[indices...], "p/q"] pairs sorted lexicographically.  Loading verifies
every Hopf axiom and rejects the file with the violation report otherwise.
The optional generators of H, and of (H*)^op in the dual basis, are hints:
checks re-certify their span and use every basis element where it fails.
"""

from __future__ import annotations

import json
import re

from .algcore import Algebra
from .exactlin import BudgetExceededError, SparseMatrix, TensorElement, fr
from .hopfcore import CATALOG_MAX, HopfAlgebra, verify_hopf

FORMAT_VERSION = 1
MAX_DIM = CATALOG_MAX["cyclic"]  # the catalog's largest dimension, as bk:9's


class HopfFileError(Exception):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or []


def rational_str(x) -> str:
    return str(fr(x))


def tensor_to_json(u: TensorElement) -> list:
    return [[list(k), rational_str(v)] for k, v in sorted(u.coeffs.items())]


def parse_rational(value, where: str):
    """A JSON integer or a "p/q" string, as `rational_str` writes it
    (-?digits, or -?digits/digits with a nonzero denominator), as an exact
    scalar (`fr`); HopfFileError naming `where` for anything else (a
    float, whose binary value is not the decimal it was written as, or a
    string such as "0.5", "1e3", "1_000", "+3/4" or " 3/4 ")."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        return fr(value)
    raise HopfFileError("%s: %r is not a rational number" % (where, value))


_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def tensor_from_json(ambient, degree: int, data) -> TensorElement:
    """A sparse tensor from [[indices...], "p/q"] pairs; each entry must
    have `degree` indices in 0..dim-1, or HopfFileError names it."""
    if not isinstance(data, list):
        raise HopfFileError("tensor %r is not a list of entries" % (data,))
    coeffs = {}
    for entry in data:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], list)
                and len(entry[0]) == degree):
            raise HopfFileError("tensor entry %r is not [[%d indices], value]"
                                % (entry, degree))
        _check_indices(entry[0], ambient.dim, "tensor", entry)
        key = tuple(entry[0])
        if key in coeffs:
            raise HopfFileError("tensor entry %r repeats an earlier index tuple" % (entry,))
        coeffs[key] = parse_rational(entry[1], "tensor entry %r" % (entry,))
    return TensorElement(ambient, degree, coeffs)


def vector_to_json(v: dict) -> list:
    return [[i, rational_str(c)] for i, c in sorted(v.items())]


def matrix_to_json(M: SparseMatrix) -> list:
    return [[r, c, rational_str(v)] for (r, c), v in sorted(M.items())]


def hopf_to_json(H: HopfAlgebra) -> dict:
    mult = []
    for (i, j), vec in sorted(H.algebra.mult.items()):
        for k, v in sorted(vec.items()):
            mult.append([i, j, k, rational_str(v)])
    comult = []
    for i, de in enumerate(H.comult):
        for (j, k), v in sorted(de.coeffs.items()):
            comult.append([i, j, k, rational_str(v)])
    out = {
        "format_version": FORMAT_VERSION,
        "dim": H.dim,
        "basis_labels": list(H.algebra.labels),
        "mult": mult,
        "comult": comult,
        "unit": vector_to_json(H.algebra.unit),
        "counit": vector_to_json(H.counit_row()),
        "antipode": matrix_to_json(H.antipode),
    }
    for field, vecs in (("generators", H.algebra.generators),
                        ("dual_generators", H.dual_generator_hint)):
        if vecs is not None:
            out[field] = [vector_to_json(v) for v in vecs]
    return out


def _check_indices(idx, dim: int, field: str, entry):
    """Each index a JSON integer in 0..dim-1, or HopfFileError naming the entry."""
    for i in idx:
        if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < dim:
            raise HopfFileError("%s entry %r: index %r is not in 0..%d"
                                % (field, entry, i, dim - 1))


def _entries(entries, field: str, dim: int, arity: int):
    """The entries of one sparse field: `arity` indices in 0..dim-1, a value;
    no index tuple twice."""
    if not isinstance(entries, list):
        raise HopfFileError("%s %r is not a list of entries" % (field, entries))
    seen = set()
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != arity + 1:
            raise HopfFileError("%s entry %r is not [%d indices, value]"
                                % (field, entry, arity))
        *idx, v = entry
        _check_indices(idx, dim, field, entry)
        key = tuple(idx)
        if key in seen:
            raise HopfFileError("%s entry %r repeats an earlier index tuple" % (field, entry))
        seen.add(key)
        yield (*idx, parse_rational(v, "%s entry %r" % (field, entry)))


def _vectors(data: dict, field: str, dim: int):
    """The optional list of sparse vectors in `field`; None when absent."""
    vecs = data.get(field)
    if vecs is None:
        return None
    if not isinstance(vecs, list):
        raise HopfFileError("%s %r is not a list of sparse vectors" % (field, vecs))
    return [{i: c for i, c in _entries(v, field, dim, 1) if c} for v in vecs]


def hopf_from_json(data: dict, name="file") -> HopfAlgebra:
    try:
        if data.get("format_version") != FORMAT_VERSION:
            raise HopfFileError("unsupported format_version %r"
                                % data.get("format_version"))
        dim = data["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int) or not 1 <= dim <= MAX_DIM:
            raise HopfFileError("dim %r is not an integer in 1..%d" % (dim, MAX_DIM))
        labels = data["basis_labels"] if "basis_labels" in data else [
            "e%d" % i for i in range(dim)]
        if (not isinstance(labels, list) or len(labels) != dim
                or not all(isinstance(x, str) for x in labels)):
            raise HopfFileError("basis_labels %r is not a list of %d strings"
                                % (labels, dim))
        mult: dict = {}
        for i, j, k, v in _entries(data["mult"], "mult", dim, 3):
            mult.setdefault((i, j), {})[k] = v
        unit = dict(_entries(data["unit"], "unit", dim, 1))
        A = Algebra(dim, labels, mult, unit, generators=_vectors(data, "generators", dim),
                    name=name)
        comult_entries = [dict() for _ in range(dim)]
        for i, j, k, v in _entries(data["comult"], "comult", dim, 3):
            comult_entries[i][(j, k)] = v
        comult = [TensorElement(A, 2, c) for c in comult_entries]
        counit_map = dict(_entries(data["counit"], "counit", dim, 1))
        counit = [counit_map.get(i, 0) for i in range(dim)]
        antipode = SparseMatrix(dim, dim, {(r, c): v for r, c, v
                                           in _entries(data["antipode"], "antipode", dim, 2)})
        dual_gens = _vectors(data, "dual_generators", dim)
    except (HopfFileError, BudgetExceededError):
        raise
    except Exception as exc:
        raise HopfFileError("unparseable Hopf file: %s" % exc)
    H = HopfAlgebra(A, comult, counit, antipode, name=name, dual_generator_hint=dual_gens)
    report = verify_hopf(H)
    if report:
        raise HopfFileError("file does not define a Hopf algebra", report)
    return H


def load_hopf(path: str) -> HopfAlgebra:
    with open(path) as f:
        try:
            data = json.load(f)
        except ValueError as exc:  # not JSON, or not text
            raise HopfFileError("unparseable Hopf file: %s" % exc)
    return hopf_from_json(data, name=path)


def save_hopf(H: HopfAlgebra, path: str):
    with open(path, "w") as f:
        json.dump(hopf_to_json(H), f, indent=1, sort_keys=True)
        f.write("\n")
