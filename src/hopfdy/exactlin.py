"""Exact rational sparse linear algebra and sparse tensor-element arithmetic.

Everything is computed over QQ in exact rationals, so results are exact:
an integral value is an `int` and any other a `fractions.Fraction`, the
form `fr` returns.  Vectors are dicts {index: scalar} with no stored zeros,
and a `SparseMatrix` keeps only its nonzero columns, {col: vector}.

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

`rank_of_rows` and `kernel_basis_marked` share one driver, `_echelon`,
which inserts rows sparsest first and stops at full rank.  A list of dict
rows is eliminated whole.  The slot kernel's systems come as `RowArrays`,
and of those only the rows that raise the rank are eliminated: once ncols
consecutive rows have raised no rank, the remaining rows are checked
against the kernel K of the rows inserted so far (`_certify`), and a row
that K violates is inserted in its turn.  When no row is violated, K is
the kernel of the whole system M, exactly: the inserted rows are rows of
M, so ker M lies in K; and every other integer row m satisfies m . x = 0
for each basis vector x of K scaled to integers, because
|m . x| <= B = |m|_1 |x|_inf and m . x vanishes modulo 2^64 and primes
whose product exceeds 2B.  So the rank and the canonical kernel basis are
those of M.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

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
    """Immutable-by-convention sparse matrix over QQ, stored as its nonzero
    columns (compressed sparse columns): `columns` maps each column j with
    a nonzero entry to its vector {row: scalar}.  No zero and no empty
    column is stored, so equal matrices have equal `columns`.  Column dicts
    may be shared between matrices, and are never modified."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, entries=None):   # {(row, col): scalar}
        self.rows, self.cols, self.columns = rows, cols, {}
        for (r, c), v in (entries or {}).items():
            v = fr(v)
            if v:
                assert 0 <= r < rows and 0 <= c < cols, (r, c, rows, cols)
                self.columns.setdefault(c, {})[r] = v

    @classmethod
    def of_columns(cls, rows: int, cols: int, columns: dict) -> "SparseMatrix":
        """The matrix whose nonzero columns are `columns`, taken as they are."""
        out = cls.__new__(cls)
        out.rows, out.cols, out.columns = rows, cols, columns
        return out

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls.of_columns(n, n, {i: {i: FR1} for i in range(n)})

    @classmethod
    def from_columns(cls, rows: int, columns: list) -> "SparseMatrix":
        """The matrix whose column j is the sparse vector columns[j]."""
        return cls.of_columns(rows, len(columns), _nonempty(
            (j, fr_vec(col)) for j, col in enumerate(columns)))

    def is_zero(self) -> bool:
        return not self.columns

    def column(self, j: int) -> dict:
        """Column j, empty when it is zero."""
        return self.columns.get(j, {})

    def items(self):
        """The nonzero entries as ((row, col), scalar) pairs."""
        return (((r, c), v) for c, col in self.columns.items() for r, v in col.items())

    def row_dicts(self) -> list:
        """One sparse vector {col: scalar} per row, row r at index r."""
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.items():
            rows[r][c] = v
        return rows

    def transpose(self) -> "SparseMatrix":
        out: dict = {}
        for (r, c), v in self.items():
            out.setdefault(r, {})[c] = v
        return SparseMatrix.of_columns(self.cols, self.rows, out)

    def mul_vec(self, v: dict) -> dict:
        """Matrix times column vector (vector indexed by columns)."""
        out: dict = {}
        get = self.columns.get
        for j, c in v.items():
            col = get(j)
            if col:
                vec_addmul(out, col, c)
        return out

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        assert self.cols == other.rows, (self.cols, other.rows)
        return SparseMatrix.of_columns(self.rows, other.cols, _nonempty(
            (j, self.mul_vec(col)) for j, col in other.columns.items()))

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        out = dict(self.columns)
        for j, col in other.columns.items():
            out[j] = vec_addmul(dict(out[j]), col, FR1) if j in out else col
        return SparseMatrix.of_columns(self.rows, self.cols, _nonempty(out.items()))

    def scale(self, c) -> "SparseMatrix":
        c = fr(c)
        out = {j: {r: c * v for r, v in col.items()}
               for j, col in self.columns.items()} if c else {}
        return SparseMatrix.of_columns(self.rows, self.cols, out)

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.columns == other.columns)

    def __repr__(self):
        return "SparseMatrix(%dx%d, %d entries)" % (
            self.rows, self.cols, sum(map(len, self.columns.values())))


def _nonempty(columns) -> dict:
    """{j: col} of the (j, col) pairs whose column is not empty."""
    return {j: col for j, col in columns if col}


def vec_kron(u: dict, v: dict, n: int) -> dict:
    """u ox v for v in a space of dimension n: entry (a, b) at a * n + b."""
    return {a * n + b: x * y for a, x in u.items() for b, y in v.items()}


def kron_into(ent: dict, A: SparseMatrix, B: SparseMatrix, row_off: int = 0,
              col_off: int = 0, scale=FR1) -> dict:
    """Add scale * (A ox B) into the entry dict {(row, col): scalar} `ent`,
    shifted by the offsets.

    Row (r1, r2) of A ox B is r1 * B.rows + r2, column (c1, c2) is
    c1 * B.cols + c2; an identity factor gives A ox id or id ox B.
    """
    nr, nc = B.rows, B.cols
    for (r1, c1), v1 in A.items():
        v1 = v1 * scale
        for (r2, c2), v2 in B.items():
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
    `_eliminate` against the rows already present and takes as pivot its
    lowest column, so each pivot row vanishes at the pivot columns of the
    rows before it.  All arithmetic is on integers, so `add_row` and
    `to_rref` build no `Fraction` on integer rows.
    `to_rref` runs the same loop against the pivots already finished; RREF
    is unique, so it does not depend on the insertion order.  No row
    combinations are tracked: a solve reads the kernel basis
    (`kernel_basis_marked`).
    """

    def __init__(self):
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
        piv = min(row)
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
        for piv in sorted(pivots, reverse=True):
            row = _eliminate(pivots[piv], done)
            self._store(piv, row)
            done[piv] = pivots[piv]
        self._rref_done = True


def _check_columns(rows, ncols: int):
    if isinstance(rows, RowArrays):
        ends = (int(rows.cols.min()), int(rows.cols.max())) if rows.cols.size else ()
        bad = [c for c in ends if not 0 <= c < ncols]
    else:
        bad = [c for row in rows for c in row if not 0 <= c < ncols]
    if bad:
        raise ExactlinError("column %d out of range for %d columns" % (bad[0], ncols))


class RowArrays:
    """Integer rows held as arrays (compressed sparse rows), in the order
    they are to be inserted: row i is {cols[k]: vals[k]} for k in
    starts[i]:starts[i + 1], with no stored zero and no empty row, and its
    columns lie in range(ncols).  `vals` is an int64 array or an object
    array of Python ints.  Iterating gives the rows as dicts of Python ints.
    """

    __slots__ = ("starts", "cols", "vals", "ncols")

    def __init__(self, starts, cols, vals, ncols: int):
        self.starts, self.cols, self.vals, self.ncols = starts, cols, vals, ncols

    def __len__(self):
        return len(self.starts) - 1

    def __iter__(self):
        return map(self.row, range(len(self)))

    def row(self, i: int) -> dict:
        a, b = self.starts[i], self.starts[i + 1]
        return dict(zip(self.cols[a:b].tolist(), self.vals[a:b].tolist()))

    def tail(self, start: int) -> "RowArrays":
        """The rows from position `start` on."""
        lo = self.starts[start]
        return RowArrays(self.starts[start:] - lo, self.cols[lo:], self.vals[lo:], self.ncols)


def _echelon(rows, ncols: int) -> Echelon:
    """An Echelon whose row space is that of `rows` (dicts of exact
    scalars, or `RowArrays`), for columns in range(ncols).

    Dict rows are inserted sparsest first (ties in list order), `RowArrays`
    in their order: far less fill-in, and the pivots and RREF are the same
    in any order.  Insertion stops at full rank.  Dict rows are otherwise
    inserted whole; `RowArrays` stop once ncols consecutive rows raised no
    rank, and then `_certify` eliminates only those remaining rows that do
    not vanish on the kernel of the rows so far.
    """
    certified = isinstance(rows, RowArrays)
    if not certified:
        rows = sorted(rows, key=len)
    ech, idle = Echelon(), 0
    for k, row in enumerate(rows):
        if ech.add_row(row) is not None:
            idle = 0
            if ech.rank == ncols:
                break
        elif certified:
            idle += 1
            if idle == ncols:
                _certify(ech, rows.tail(k + 1), ncols)
                break
    return ech


class _Certificate:
    """Residuals of the rows of a `RowArrays` modulo 2^64 (uint64 arithmetic
    wraps) or a prime below 2^31 (every product and partial sum stays below
    2^63), in uint64 buffers allocated once: `flagged` for one combination
    of kernel vectors, `violated` for a kernel basis checked exactly."""

    def __init__(self, rows: RowArrays):
        import numpy as np
        self.rows, self.np, self.modulus, self.state = rows, np, None, 1
        self.heads = rows.starts[:-1]
        self.buf = np.empty(rows.cols.size, np.uint64)    # one term per nonzero
        self.vmod = np.empty(rows.cols.size, np.uint64)   # vals modulo self.modulus
        self.res = np.empty(len(rows), np.uint64)         # one residual per row
        self.vec = np.empty(rows.ncols, np.uint64)        # a kernel vector, reduced
        self.norm = int(abs(rows.vals).max()) * int(np.diff(rows.starts).max())  # >= |row|_1

    def _nonzero(self, m: int):
        """Rows whose residual against self.vec is nonzero modulo m."""
        np, buf, res, vals = self.np, self.buf, self.res, self.rows.vals
        if self.modulus != m:
            if vals.dtype == object:
                self.vmod[...] = vals % m
            elif m == _WORD:
                np.copyto(self.vmod, vals, casting="unsafe")
            else:
                np.remainder(vals, m, out=self.vmod, casting="unsafe")
            self.modulus = m
        np.take(self.vec, self.rows.cols, out=buf, mode="clip")
        np.multiply(buf, self.vmod, out=buf)
        if m != _WORD:
            np.remainder(buf, m, out=buf)
        np.add.reduceat(buf, self.heads, out=res)
        if m != _WORD:
            np.remainder(res, m, out=res)
        return np.flatnonzero(res)

    def flagged(self, ech: Echelon, free: list):
        """Rows that a pseudo-random combination z of the kernel vectors of
        the RREF `ech` does not annihilate modulo a prime p: each violates
        the kernel.  z is read off the pivot rows: z_f = r_f at a free
        column f, and z_p = -sum_f row_p[f] r_f / row_p[p] at a pivot p; the
        r_f are the next states of the Park-Miller generator modulo p."""
        p = _PRIME
        z = [0] * len(self.vec)
        for f in free:
            self.state = z[f] = self.state * 48271 % p
        for piv, row in ech.pivot_rows.items():
            lead = row[piv] % p
            if not lead:
                return ()   # p divides a pivot: leave the rows to `violated`
            s = sum(v * z[f] for f, v in row.items() if f != piv)
            z[piv] = -s * pow(lead, -1, p) % p
        self.vec[:] = z
        return self._nonzero(p)

    def violated(self, ech: Echelon, free: list):
        """Rows m with m . x != 0 for a kernel vector x of the RREF `ech`,
        found exactly: with x scaled to integers, |m . x| <= the bound B
        below, so m . x = 0 when it vanishes modulo 2^64 and primes whose
        product with 2^64 exceeds 2B."""
        scaled = _scaled_kernel(ech, free)
        bound = 2 * self.norm * max(abs(v) for x in scaled.values() for v in x.values())
        modulus = 1
        for m in _moduli():
            for x in scaled.values():
                self.vec.fill(0)
                self.vec[list(x)] = [v % m for v in x.values()]
                hit = self._nonzero(m)
                if hit.size:
                    return hit
            modulus *= m
            if modulus > bound:
                return ()


def _scaled_kernel(ech: Echelon, free: list) -> dict:
    """{f: d_f x_f}: the kernel vector x_f of the RREF `ech` at free column f
    (1 at f, -row_p[f] / row_p[p] at each pivot p) times the least integer
    d_f > 0 that makes it integral."""
    den = dict.fromkeys(free, 1)
    for piv, row in ech.pivot_rows.items():
        lead = row[piv]
        for f, v in row.items():
            if f != piv:
                d = lead // gcd(lead, v)
                den[f] = den[f] * d // gcd(den[f], d)
    scaled = {f: {f: d} for f, d in den.items()}
    for piv, row in ech.pivot_rows.items():
        lead = row[piv]
        for f, v in row.items():
            if f != piv:
                scaled[f][piv] = -v * den[f] // lead
    return scaled


_WORD = 1 << 64
_PRIME = (1 << 31) - 1


def _moduli():
    """2^64, then the primes below 2^31, largest first: pairwise coprime.
    The exact check seldom needs a prime, so trial division suffices."""
    yield _WORD
    for n in range(_PRIME, 2, -2):
        if all(n % d for d in range(3, isqrt(n) + 1, 2)):
            yield n


def _certify(ech: Echelon, tail: RowArrays, ncols: int):
    """Insert into `ech` the rows of `tail` that do not vanish on its kernel
    K, until all of them do; then K is the kernel of every row.

    Each round reads K off the RREF.  The rows that `flagged` finds are
    inserted, sparsest first and at most dim K of them; when it finds none,
    `violated` checks every row against a basis of K exactly, and the loop
    ends once no row is violated.  Each round inserts a row outside the row
    space, so the rank grows and the loop ends.  Which rows are inserted
    changes only the speed: the row space ends as that of all rows.
    """
    if not len(tail):
        return
    cert = _Certificate(tail)
    while ech.rank < ncols:
        ech.to_rref()
        free = [c for c in range(ncols) if c not in ech.pivot_rows]
        hit = cert.flagged(ech, free)
        if not len(hit):
            hit = cert.violated(ech, free)
            if not len(hit):
                return
        for j in hit[:len(free)].tolist():
            ech.add_row(tail.row(j))


def rank_of_rows(rows) -> int:
    """Exact rank of a list of rows (dicts of exact scalars) or of
    `RowArrays`, by `_echelon`."""
    if isinstance(rows, RowArrays):
        ncols = rows.ncols
    else:
        ncols = 1 + max((max(row) for row in rows if row), default=-1)
    return _echelon(rows, ncols).rank


def kernel_basis_marked(rows, ncols: int):
    """Exact basis of the solutions x in QQ^ncols of row . x = 0 for every
    row (a dict of exact scalars, or a row of `RowArrays`), as vectors
    {index: scalar}, plus the free-column marker of each basis vector,
    read off the RREF that `_echelon` builds.

    Canonical: one vector per free column f, markers ascending, normalized
    with entry 1 at f and RREF-determined entries at the pivot columns.
    Coordinates of any v in the kernel span are read off at the markers:
    v = sum_j v[free_cols[j]] * basis[j].
    """
    _check_columns(rows, ncols)
    ech = _echelon(rows, ncols)
    ech.to_rref()
    free = [c for c in range(ncols) if c not in ech.pivot_rows]
    vecs = {f: {f: FR1} for f in free}
    for p, row in ech.pivot_rows.items():
        lead = row[p]
        for f, v in row.items():
            if f != p:
                vecs[f][p] = fr(Fraction(-v, lead))
    return [vecs[f] for f in free], free


def kernel_basis(rows, ncols: int) -> list:
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
        out: dict = {}
        for k, v in self.coeffs.items():
            for i, c in matrix.column(k[slot]).items():
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
