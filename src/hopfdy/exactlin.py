"""Exact rational sparse linear algebra and sparse tensor-element arithmetic.

Everything is computed over QQ in exact rationals, so results are exact:
an integral value is an `int` and any other a `fractions.Fraction`, the
form `fr` returns.  Vectors are dicts {index: scalar} with no stored zeros,
matrices are dicts {(row, col): scalar}.

Products are laid out a-major: e_a ox e_b of A ox B has flat index
a * dim B + b, the order `flatten_index` uses for tensor powers.  The
product structures built from two factors (tensor algebras and Hopf
algebras, tensor pairs, the double's unit, embeddings and coproduct,
intertwiner equations, the section, unit and maps of an induced module)
take that index from `vec_kron` or `kron_into`.

All elimination over QQ runs through one loop, `_eliminate`, with one
job: it clears the pivot columns of an integer row fraction-free
(cross-multiplication with gcd normalization, Bareiss flavour).
`Echelon` builds ranks and the reduced row echelon form on it.
`kernel_basis_marked` is the one reader of that form: every exact solve
of the package (matrix inverses, the rewrite table of induction,
submodule coordinates, cochain and tangent spaces) is read from the
canonical kernel basis of a list of rows.  RREF is unique, so every
reported rank and kernel is deterministic regardless of the pivot order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

FR0 = 0
FR1 = 1


class ExactlinError(Exception):
    pass


class BudgetExceededError(Exception):
    """A request exceeds a configured budget (the CLI's exit 5)."""


def _once(cache: dict, key, build):
    """cache[key], built on first use and published write-once: threads that
    race to build it all return the first value stored."""
    try:
        return cache[key]
    except KeyError:
        return cache.setdefault(key, build())


def fr(x):
    """The canonical exact scalar of an int, a 'p/q' string or a Fraction:
    an `int` when the value is integral, else a Fraction."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def fr_vec(v: dict) -> dict:
    """The sparse vector v with `fr` scalars and no stored zeros."""
    return {i: c for i, c in ((i, fr(c)) for i, c in v.items()) if c}


# ---------------------------------------------------------------------------
# sparse vectors: dict {index: scalar}, zero entries never stored

def vec_sub(u: dict, v: dict) -> dict:
    w = dict(u)
    for i, c in v.items():
        s = w.get(i, FR0) - c
        if s:
            w[i] = s
        else:
            w.pop(i, None)
    return w


def vec_addmul(w: dict, u: dict, c) -> dict:
    """w += c*u in place; returns w."""
    if not c:
        return w
    for i, x in u.items():
        s = w.get(i, FR0) + c * x
        if s:
            w[i] = s
        else:
            w.pop(i, None)
    return w


def vec_eq(u: dict, v: dict) -> bool:
    return not vec_sub(u, v)


# ---------------------------------------------------------------------------

class SparseMatrix:
    """Immutable-by-convention sparse matrix over QQ."""

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries: dict = {}
        self._cols = None  # lazy column cache
        if entries:
            for (r, c), v in entries.items():
                v = fr(v)
                if v:
                    assert 0 <= r < rows and 0 <= c < cols, (r, c, rows, cols)
                    self.entries[(r, c)] = v

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, {(i, i): FR1 for i in range(n)})

    @classmethod
    def from_columns(cls, rows: int, columns: list) -> "SparseMatrix":
        ent = {}
        for j, col in enumerate(columns):
            for i, v in col.items():
                if v:
                    ent[(i, j)] = fr(v)
        return cls(rows, len(columns), ent)

    def is_zero(self) -> bool:
        return not self.entries

    def columns(self) -> list:
        if self._cols is None:
            cols = [dict() for _ in range(self.cols)]
            for (r, c), v in self.entries.items():
                cols[c][r] = v
            self._cols = cols
        return self._cols

    def row_dicts(self) -> list:
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def transpose(self) -> "SparseMatrix":
        out = SparseMatrix(self.cols, self.rows)
        out.entries = {(c, r): v for (r, c), v in self.entries.items()}
        return out

    def mul_vec(self, v: dict) -> dict:
        """Matrix times column vector (vector indexed by columns)."""
        out: dict = {}
        cols = self.columns()
        for j, c in v.items():
            for r, m in cols[j].items():
                s = out.get(r, FR0) + m * c
                if s:
                    out[r] = s
                else:
                    out.pop(r, None)
        return out

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        assert self.cols == other.rows, (self.cols, other.rows)
        cols_self = self.columns()
        out = SparseMatrix(self.rows, other.cols)
        ent = out.entries
        other_cols = other.columns()
        for j, col in enumerate(other_cols):
            acc: dict = {}
            for k, v in col.items():
                for r, m in cols_self[k].items():
                    s = acc.get(r, FR0) + m * v
                    if s:
                        acc[r] = s
                    else:
                        acc.pop(r, None)
            for r, v in acc.items():
                ent[(r, j)] = v
        return out

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        out = SparseMatrix(self.rows, self.cols)
        out.entries = ent = dict(self.entries)
        for k, v in other.entries.items():
            s = ent.get(k, FR0) + v
            if s:
                ent[k] = s
            else:
                ent.pop(k, None)
        return out

    def scale(self, c) -> "SparseMatrix":
        c = fr(c)
        out = SparseMatrix(self.rows, self.cols)
        out.entries = {k: c * v for k, v in self.entries.items()} if c else {}
        return out

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return "SparseMatrix(%dx%d, %d entries)" % (self.rows, self.cols, len(self.entries))


def vec_kron(u: dict, v: dict, n: int) -> dict:
    """u ox v for v in a space of dimension n: entry (a, b) at a * n + b."""
    return {a * n + b: x * y for a, x in u.items() for b, y in v.items()}


def kron_into(ent: dict, A: SparseMatrix, B: SparseMatrix, row_off: int = 0,
              col_off: int = 0, scale=FR1) -> dict:
    """Add scale * (A ox B) into the entry dict `ent`, shifted by the offsets.

    Row (r1, r2) of A ox B is r1 * B.rows + r2, column (c1, c2) is
    c1 * B.cols + c2; an identity factor gives A ox id or id ox B.
    """
    nr, nc = B.rows, B.cols
    for (r1, c1), v1 in A.entries.items():
        v1 = v1 * scale
        for (r2, c2), v2 in B.entries.items():
            key = (row_off + r1 * nr + r2, col_off + c1 * nc + c2)
            p = v1 * v2
            if key in ent:
                p += ent[key]
            if p:
                ent[key] = p
            else:
                ent.pop(key, None)
    return ent


# ---------------------------------------------------------------------------
# the elimination engine

def _content(row: dict) -> int:
    """gcd of the entries of an integer row (0 for the empty row)."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    return g


def _int_row(row: dict) -> dict:
    """`row` scaled by a positive rational to coprime integers."""
    den = 1
    for v in row.values():
        d = v.denominator
        den = den * d // gcd(den, d)
    out = {i: v.numerator * (den // v.denominator) for i, v in row.items() if v}
    g = _content(out)
    if g > 1:
        out = {i: v // g for i, v in out.items()}
    return out


def _eliminate(row: dict, pivots: dict):
    """Clear every pivot column of the integer row `row`, fraction-free.

    This is the module's one elimination loop over QQ.  Each step takes a
    pivot column c still nonzero in the row, replaces the row by
    ma*row - mb*pivots[c] with ma/mb = pivots[c][c]/row[c] in lowest terms,
    and divides it by the gcd of its entries; fill-in on another pivot
    column joins the worklist.  `row` is updated in place and returned: a
    positive rational multiple of input - sum_c x_c * pivots[c] for some
    rationals x_c, vanishing at every pivot column.
    """
    hits = [c for c in row if c in pivots]
    pending = set(hits)
    while hits:
        hit = hits.pop()
        pending.discard(hit)
        b = row.get(hit)
        if b is None:
            continue
        prow = pivots[hit]
        a = prow[hit]
        g = gcd(a, b)
        ma, mb = a // g, b // g
        if ma != 1:
            for c in row:
                row[c] *= ma
        for c, v in prow.items():
            s = row.get(c, 0) - mb * v
            if s:
                row[c] = s
                if c in pivots and c not in pending:
                    hits.append(c)
                    pending.add(c)
            else:
                row.pop(c, None)
        g = _content(row)
        if g > 1:
            for c in row:
                row[c] //= g
    return row


class Echelon:
    """Incremental row echelon form over QQ on primitive integer rows.

    `pivot_rows` maps each pivot column to an integer row with coprime
    entries and a positive pivot entry.  `add_row` reduces the new row with
    `_eliminate` against the rows already present and takes as pivot the
    column with the smallest `key(col)`.  The default key is the column
    index; `submodule_on_basis` passes a reversed key so that the pivots
    sit at high columns.  Each pivot row thus vanishes at the pivot columns
    of the rows before it.  All arithmetic is on integers, so `add_row` and
    `to_rref` build no `Fraction` on integer rows.
    `to_rref` runs the same loop against the pivots already finished; RREF
    is unique, so it does not depend on the insertion order.  No row
    combinations are tracked: a solve reads the kernel basis
    (`kernel_basis_marked`).
    """

    def __init__(self, key=None):
        self.key = key if key is not None else (lambda c: c)
        self.pivot_rows: dict = {}   # pivot col -> primitive integer row
        self._rref_done = False

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def add_row(self, row: dict):
        """Insert a row (Fraction or int dict); returns the new pivot column,
        or None when the row already lies in the span."""
        row = _int_row(row)
        if not row:
            return None
        row = _eliminate(row, self.pivot_rows)
        if not row:
            return None
        piv = min(row, key=self.key)
        self._store(piv, row)
        self._rref_done = False
        return piv

    def _store(self, piv: int, row: dict):
        """Keep `row` under `piv`, pivot entry > 0."""
        if row[piv] < 0:
            row = {c: -v for c, v in row.items()}
        self.pivot_rows[piv] = row

    def to_rref(self):
        """Back-substitute so every pivot row is supported on its pivot and
        non-pivot columns only.  Idempotent."""
        if self._rref_done:
            return
        pivots = self.pivot_rows
        done: dict = {}
        for piv in sorted(pivots, key=self.key, reverse=True):
            row = _eliminate(pivots[piv], done)
            self._store(piv, row)
            done[piv] = pivots[piv]
        self._rref_done = True


def _check_columns(rows: list, ncols: int):
    for row in rows:
        for c in row:
            if not 0 <= c < ncols:
                raise ExactlinError("column %d out of range for %d columns" % (c, ncols))


def _sparse_first(rows: list) -> Echelon:
    """An Echelon of `rows`, inserted sparsest first (ties in list order):
    far less elimination fill-in, and the pivots and RREF are the same in
    any order."""
    ech = Echelon()
    for row in sorted(rows, key=len):
        ech.add_row(row)
    return ech


def rank_of_rows(rows: list) -> int:
    return _sparse_first(rows).rank


def rank_of_vectors(vecs: list, ambient: int) -> int:
    """Rank of a list of sparse vectors; transposes the system when the
    ambient is much larger than the vector count (rank(A) = rank(A^T))."""
    vecs = [v for v in vecs if v]
    if not vecs:
        return 0
    if ambient <= 4 * len(vecs):
        return rank_of_rows(vecs)
    byidx: dict = {}
    for j, v in enumerate(vecs):
        for f, c in v.items():
            byidx.setdefault(f, {})[j] = c
    return rank_of_rows(list(byidx.values()))


def kernel_basis_marked(rows: list, ncols: int):
    """Exact basis of the solutions x in QQ^ncols of row . x = 0 for every
    row (a dict of exact scalars), as vectors {index: scalar}, plus the
    free-column marker of each basis vector.

    Canonical: one vector per free column f, markers ascending, normalized
    with entry 1 at f and RREF-determined entries at the pivot columns.
    Coordinates of any v in the kernel span are read off at the markers:
    v = sum_j v[free_cols[j]] * basis[j].
    """
    _check_columns(rows, ncols)
    ech = _sparse_first(rows)
    ech.to_rref()
    free = [c for c in range(ncols) if c not in ech.pivot_rows]
    vecs = {f: {f: FR1} for f in free}
    for p, row in ech.pivot_rows.items():
        lead = row[p]
        for f, v in row.items():
            if f != p:
                vecs[f][p] = fr(Fraction(-v, lead))
    return [vecs[f] for f in free], free


def kernel_basis(rows: list, ncols: int) -> list:
    """kernel_basis_marked without the markers."""
    return kernel_basis_marked(rows, ncols)[0]


def span_equal(A: list, B: list, dim: int) -> bool:
    """True iff the two lists of vectors span the same subspace of QQ^dim."""
    _check_columns(A + B, dim)
    ra = rank_of_rows(A)
    rb = rank_of_rows(B)
    if ra != rb:
        return False
    return rank_of_rows(A + B) == ra


# ---------------------------------------------------------------------------
# tensor elements

def flatten_index(key: tuple, dim: int) -> int:
    f = 0
    for i in key:
        f = f * dim + i
    return f


def unflatten_index(f: int, dim: int, degree: int) -> tuple:
    out = []
    for _ in range(degree):
        out.append(f % dim)
        f //= dim
    return tuple(reversed(out))


def slotwise_mul_into(tab, a: dict, b: dict, out: dict, sign: int = 1):
    """out += sign * (a . b), the slotwise product of two tensors keyed by
    index tuples, over an `Algebra.fast_mult()` table.

    A pair of keys is dropped at its first zero slot product, before any
    coefficient is multiplied.  Single-term slot products, the rule in
    monomial bases, give one output key; general ones are expanded.
    """
    for ka, va in a.items():
        rows = [tab[i] for i in ka]
        for kb, vb in b.items():
            prods = []
            for row, j in zip(rows, kb):
                p = row[j]
                if p is None:
                    break
                prods.append(p)
            else:
                base = va * vb if sign > 0 else -(va * vb)
                coef = base
                key = []
                for p in prods:
                    if type(p) is not tuple:
                        terms = _expand_slots(prods, base)
                        break
                    key.append(p[0])
                    if p[1] is not FR1:
                        coef = coef * p[1]
                else:
                    terms = ((tuple(key), coef),)
                for tkey, tcoef in terms:
                    s0 = out.get(tkey, FR0) + tcoef
                    if s0:
                        out[tkey] = s0
                    else:
                        out.pop(tkey, None)


def _expand_slots(prods: list, coef) -> list:
    """(key, coefficient) terms of a product whose slot products are
    (k, c) pairs or sparse dicts."""
    terms = [((), coef)]
    for p in prods:
        items = (p,) if type(p) is tuple else p.items()
        terms = [(pref + (k,), c * cc) for pref, c in terms for k, cc in items]
    return terms


class TensorElement:
    """Sparse element of H^{otimes d} over a base algebra of dimension n.

    Coefficients are keyed by d-tuples of basis indices.  The ambient object
    needs `.dim`, `.unit` and `.fast_mult()` (see `Algebra`); slotwise
    products go through `slotwise_mul_into` on that table.
    """

    __slots__ = ("ambient", "degree", "coeffs")

    def __init__(self, ambient, degree: int, coeffs=None):
        self.ambient = ambient
        self.degree = degree
        self.coeffs: dict = {}
        if coeffs:
            n = ambient.dim
            for k, v in coeffs.items():
                v = fr(v)
                if not v:
                    continue
                assert len(k) == degree, (k, degree)
                assert all(0 <= i < n for i in k), (k, n)
                self.coeffs[k] = v

    def _assert_compatible(self, other: "TensorElement"):
        if self.ambient is not other.ambient:
            raise ExactlinError("tensor elements live over different ambient algebras")
        if self.degree != other.degree:
            raise ExactlinError("tensor degree mismatch: %d vs %d" % (self.degree, other.degree))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.ambient is other.ambient and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def add(self, other: "TensorElement") -> "TensorElement":
        self._assert_compatible(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k, FR0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return TensorElement(self.ambient, self.degree, out)

    def sub(self, other: "TensorElement") -> "TensorElement":
        return self.add(other.scale(-1))

    def scale(self, c) -> "TensorElement":
        c = fr(c)
        if not c:
            return TensorElement(self.ambient, self.degree, {})
        return TensorElement(self.ambient, self.degree,
                             {k: c * v for k, v in self.coeffs.items()})

    def mul(self, other: "TensorElement") -> "TensorElement":
        """Slotwise product using the ambient algebra's structure constants."""
        self._assert_compatible(other)
        out: dict = {}
        slotwise_mul_into(self.ambient.fast_mult(), self.coeffs, other.coeffs, out)
        return TensorElement(self.ambient, self.degree, out)

    def permute_slots(self, perm) -> "TensorElement":
        """Re-index along `perm`, 0-based: slot j of the input becomes slot
        perm[j] of the output."""
        d = self.degree
        if sorted(perm) != list(range(d)):
            raise ExactlinError("invalid permutation %r for degree %d" % (perm, d))
        out = {}
        for k, v in self.coeffs.items():
            nk = [0] * d
            for j, i in enumerate(k):
                nk[perm[j]] = i
            out[tuple(nk)] = v
        return TensorElement(self.ambient, d, out)

    def apply_matrix_at(self, slot: int, matrix: SparseMatrix) -> "TensorElement":
        """Apply a linear map (columns = images of basis vectors) in one slot."""
        cols = matrix.columns()
        out: dict = {}
        for k, v in self.coeffs.items():
            for i, c in cols[k[slot]].items():
                nk = k[:slot] + (i,) + k[slot + 1:]
                s = out.get(nk, FR0) + v * c
                if s:
                    out[nk] = s
                else:
                    out.pop(nk, None)
        return TensorElement(self.ambient, self.degree, out)

    def contract_at(self, slot: int, functional) -> "TensorElement":
        """Apply a functional {basis index: scalar} to one slot; degree drops."""
        out: dict = {}
        for k, v in self.coeffs.items():
            c = functional.get(k[slot]) if isinstance(functional, dict) else functional[k[slot]]
            if not c:
                continue
            nk = k[:slot] + k[slot + 1:]
            s = out.get(nk, FR0) + v * c
            if s:
                out[nk] = s
            else:
                out.pop(nk, None)
        return TensorElement(self.ambient, self.degree - 1, out)

    def insert_vector_at(self, slot: int, vec: dict) -> "TensorElement":
        """Insert an ambient element (sparse vector) as a new tensor slot."""
        out = {}
        for k, v in self.coeffs.items():
            for i, c in vec.items():
                out[k[:slot] + (i,) + k[slot:]] = v * c
        return TensorElement(self.ambient, self.degree + 1, out)

    def flat(self) -> dict:
        """Coefficients keyed by flattened (mixed-radix) integer index."""
        n = self.ambient.dim
        return {flatten_index(k, n): v for k, v in self.coeffs.items()}

    def __repr__(self):
        items = sorted(self.coeffs.items())[:6]
        body = ", ".join("%s: %s" % (k, v) for k, v in items)
        more = "" if len(self.coeffs) <= 6 else ", ..."
        return "TensorElement(deg=%d, {%s%s})" % (self.degree, body, more)


def unit_tensor(ambient, degree: int) -> TensorElement:
    """1^{otimes degree}; the unit may be a combination of basis elements."""
    out = TensorElement(ambient, 0, {(): FR1})
    for _ in range(degree):
        out = out.insert_vector_at(out.degree, ambient.unit)
    return out
