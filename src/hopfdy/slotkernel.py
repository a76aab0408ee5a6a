"""The slotwise kernel of the Davydov-Yetter complexes and the tangent space.

`dycomplex` and `rmatrix` import this module, and numpy with it, only when
a computation first needs the kernel, so that `import hopfdy` stays free of
both.  The kernel runs the batch operations that the cochain-space stages
and the linearized R-matrix conditions are written against (insert the
unit, coproduct at a slot, permute slots, slotwise product with a
multiplier, signed sum) on the arrays of every Hopf algebra, exactly.  Its
coefficients are int64, and every product, rescaling and sum is checked
against a bound below 2^63; where a check fails it raises `Fallback`, and
`run_exact` reruns the work on the same kernel over Python integers
(`big=True`: arrays of dtype object, no bound checks).  Flat indices are
int64 in both; an ambient too large for them is refused with
`UnsupportedDegreeError`, which no rerun would mend.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .dycomplex import UnsupportedDegreeError
from .exactlin import RowArrays, TensorElement, _once, flatten_index, fr


class Fallback(Exception):
    """The int64 kernel cannot compute this exactly; rerun on Python integers."""


LIMIT = 1 << 62  # every int64 the kernel forms, sums included, stays below this

# Nonzeros of a list of tensors of degree `deg`: tensor row[k] has coefficient
# coef[k] / den at the flat (mixed-radix) index flat[k]; den is one Python int.
Batch = namedtuple("Batch", "row flat coef den deg")


class SlotKernel:
    """Slotwise tensor arithmetic on arrays of flat indices, exact by bound
    checks (int64) or by Python integers (`big`).

    A product with a multiplier applies per-slot digit maps to whole arrays:
    e_a e_b = sum_j cst[j, p] / mden * e_{tgt[j, p]} at p = a * nd + b, built
    once from the multiplication table, scaled to integers by the lcm
    `mden` of the structure constants and zero-padded to the largest number
    of terms; the coproduct is compiled the same way, and the unit as a
    list of terms.  `combine` sums duplicate (row, flat index) keys with
    `np.unique` and `np.add.at`.

    The int64 kernel raises `Fallback` where a product, a rescaling or a sum
    would exceed its bound.  Flat indices are int64 in both kernels; where
    one would exceed the bound, both raise `UnsupportedDegreeError`.
    """

    def __init__(self, H, big: bool = False):
        self.H, self.nd, self.big = H, H.dim, big
        self.dtype = object if big else np.int64
        nd = self.nd
        mult = [(a * nd + b, list(v.items())) for (a, b), v in H.algebra.mult.items()]
        self.mden = _lcm(c.denominator for _, t in mult for _, c in t)
        self.tgt, self.cst = self._padded(nd * nd, mult, self.mden)
        self.cmax = _maxabs(self.cst)
        comult = [(d, [(a * nd + b, c) for (a, b), c in H.comult[d].coeffs.items()])
                  for d in range(nd)]
        self.dden = _lcm(c.denominator for _, t in comult for _, c in t)
        self.dkey, self.dcoef = self._padded(nd, comult, self.dden)
        self.uden = _lcm(c.denominator for c in H.unit.values())
        self.unit = [(i, self._scaled(c, self.uden)) for i, c in H.unit.items()]

    def _padded(self, size: int, columns, den: int):
        """(key, coef) arrays of shape (width, size): column p holds the
        terms (k, c) of its entry in `columns`, c scaled by den, and zeros
        past them."""
        width = max([len(t) for _, t in columns] + [1])
        key = np.zeros((width, size), np.int64)
        coef = np.zeros((width, size), self.dtype)
        for p, t in columns:
            for j, (k, c) in enumerate(t):
                key[j, p] = k
                coef[j, p] = self._scaled(c, den)
        return key, coef

    def _scaled(self, c, den: int) -> int:
        v = int(c * den)
        self._bound(abs(v))
        return v

    def _bound(self, bound: int):
        """Refuse a coefficient bound the int64 kernel cannot hold."""
        if not self.big and bound >= LIMIT:
            raise Fallback("int64 bound exceeded")

    # -- batches ---------------------------------------------------------------
    def encode(self, tensors, s: int) -> Batch:
        _check(self.nd ** (s + 2))  # flat indices up to two slots more (cofaces)
        rows, flats, vals = [], [], []
        for r, u in enumerate(tensors):
            for k, v in u.coeffs.items():
                rows.append(r)
                flats.append(flatten_index(k, self.nd))
                vals.append(v)
        den = _lcm(v.denominator for v in vals)
        nums = [v.numerator * (den // v.denominator) for v in vals]
        self._bound(max(map(abs, nums), default=0))
        return Batch(np.array(rows, np.int64), np.array(flats, np.int64),
                     np.array(nums, self.dtype), den, s)

    def decode(self, x: Batch, count: int) -> list:
        """The tensors of x, whose (row, flat index) keys must be distinct,
        as `combine` leaves them; a batch with a repeated key is refused."""
        out = [TensorElement(self.H.algebra, x.deg) for _ in range(count)]
        digits = zip(*(d.tolist() for d in self._digits(x)))
        values: dict = {}  # numerator -> scalar; few distinct values recur
        for r, k, c in zip(x.row.tolist(), digits, x.coef.tolist()):
            v = values.get(c)
            if v is None:
                v = values[c] = fr(Fraction(c, x.den))
            out[r].coeffs[k] = v
        if sum(len(t.coeffs) for t in out) != x.row.size:  # a key was overwritten
            raise ValueError("decode: repeated (row, flat index) keys; combine first")
        return out

    def all_basis(self, s: int) -> Batch:
        _check(self.nd ** s)
        t = np.arange(self.nd ** s, dtype=np.int64)
        return Batch(t, t, np.ones(t.size, self.dtype), 1, s)

    def is_zero(self, x: Batch) -> bool:
        return not x.coef.size  # x comes from combine, which drops zero sums

    def adopt(self, x: Batch) -> Batch:
        """x, computed on either kernel, with this kernel's coefficients."""
        self._bound(_maxabs(x.coef))
        return x._replace(coef=x.coef.astype(self.dtype, copy=False))

    def rows(self, conditions, ncols: int) -> RowArrays:
        """The condition matrix, one row per (j, f) with at column t the e_f
        coefficient of the j-th condition batch on the t-th tensor, as
        `RowArrays` for columns in range(ncols).  Rows run sparsest first;
        rows of one length keep the order of their first entry, in j, then
        t, then f, and each row's entries ascend in t."""
        none = np.zeros(0, np.int64)
        j, f, t, c = (np.concatenate(a) for a in zip(
            (none, none, none, none.astype(self.dtype)),
            *((np.full(d.row.size, i), d.flat, d.row, d.coef) for i, d in enumerate(conditions))))
        order = np.lexsort((t, f, j))  # by row (j, f), then t
        j, f, t, c = j[order], f[order], t[order], c[order]
        heads = np.flatnonzero(np.diff(j, prepend=-1) | np.diff(f, prepend=-1))
        sizes = np.diff(heads, append=t.size)
        by_size = np.lexsort((f[heads], t[heads], j[heads], sizes))
        starts = np.concatenate(([0], np.cumsum(sizes[by_size])))
        take = np.repeat(heads[by_size] - starts[:-1], sizes[by_size]) + np.arange(t.size)
        return RowArrays(starts, t[take], c[take], ncols)

    # -- linear maps -------------------------------------------------------------
    def _digits(self, x: Batch) -> list:
        """The slot digits of every entry, one array per slot."""
        nd = self.nd
        return [x.flat // nd ** (x.deg - 1 - j) % nd for j in range(x.deg)]

    def _join(self, parts, den: int, s: int) -> Batch:
        """The (row, flat, coef) parts as one batch, one after the other."""
        return Batch(*(np.concatenate(a) for a in zip(*parts)), den, s)

    def insert_unit(self, x: Batch, slot: int) -> Batch:
        self._bound(_maxabs(x.coef) * max(abs(c) for _, c in self.unit))
        p = self.nd ** (x.deg - slot)
        high, low = x.flat // p * self.nd, x.flat % p
        parts = [(x.row, (high + i) * p + low, x.coef * c) for i, c in self.unit]
        return self._join(parts, x.den * self.uden, x.deg + 1)

    def coproduct(self, x: Batch, slot: int) -> Batch:
        self._bound(_maxabs(x.coef) * _maxabs(self.dcoef))
        nd, p = self.nd, self.nd ** (x.deg - 1 - slot)
        d, high, low = x.flat // p % nd, x.flat // (p * nd) * nd * nd, x.flat % p
        parts = []
        for key, coef in zip(self.dkey, self.dcoef):
            c = coef[d]
            keep = c != 0
            parts.append((x.row[keep], (high[keep] + key[d[keep]]) * p + low[keep],
                          x.coef[keep] * c[keep]))
        return self._join(parts, x.den * self.dden, x.deg + 1)

    def permute(self, x: Batch, perm) -> Batch:
        nd, s = self.nd, x.deg
        flat = sum(d * nd ** (s - 1 - perm[j]) for j, d in enumerate(self._digits(x)))
        return x._replace(flat=flat)

    def mul(self, x: Batch, M: Batch, left: bool) -> Batch:
        """M x (left) or x M, slot by slot, for every tensor of x: a term of
        M and an entry of x give one entry per term of each slot product, on
        arrays of at most about 2^20 elements."""
        s, nd, n, width = x.deg, self.nd, x.coef.size, self.tgt.shape[0]
        self._bound(_maxabs(x.coef) * _maxabs(M.coef) * self.cmax ** s)
        xd, md = self._digits(x), self._digits(M)
        # flat digit-pair index a * nd + b of each slot product e_a e_b
        xd = [d[None, :] if left else d[None, :] * nd for d in xd]
        md = [d[:, None] * nd if left else d[:, None] for d in md]
        step = max(1, (1 << 20) // max(1, n * width ** s))
        parts = [(x.row[:0], x.flat[:0], x.coef[:0])]
        for lo in range(0, M.coef.size, step):
            coef = (M.coef[lo:lo + step, None] * x.coef[None, :]).ravel()
            flat = np.zeros(coef.size, np.int64)
            src = np.arange(coef.size)  # (M term, x entry) position of each entry
            for a, b in zip(md, xd):
                # one entry per nonzero term of each slot product
                pair = (a[lo:lo + step] + b).ravel()[src]
                term, e = np.nonzero(self.cst[:, pair])
                pair, src = pair[e], src[e]
                coef = coef[e] * self.cst[term, pair]
                flat = flat[e] * nd + self.tgt[term, pair]
            parts.append((x.row[src % n], flat, coef))
        return self._join(parts, x.den * M.den * self.mden ** s, s)

    def combine(self, parts) -> Batch:
        """sum of sign * x over the (x, sign) parts, duplicates summed and
        zeros dropped, with numerators and denominator divided by their gcd."""
        den, deg = _lcm(x.den for x, _ in parts), parts[0][0].deg
        amb = self.nd ** deg
        for x, _ in parts:
            self._bound(_maxabs(x.coef) * (den // x.den))
            _check((int(x.row.max()) + 1 if x.row.size else 0) * amb)
        # keys and coefficients are joined one array each, which keeps the
        # peak below that of joining rows, indices and coefficients first
        terms = np.concatenate([x.coef * (sign * (den // x.den)) for x, sign in parts])
        self._bound(_maxabs(terms) * terms.size)
        keys, inverse = np.unique(np.concatenate([x.row * amb + x.flat for x, _ in parts]),
                                  return_inverse=True)
        coef = np.zeros(keys.size, self.dtype)
        np.add.at(coef, inverse, terms)
        keys, coef = keys[coef != 0], coef[coef != 0]
        g = math.gcd(int(np.gcd.reduce(coef)) if coef.size else 0, den)
        if g > 1:
            coef //= g
            den //= g
        return Batch(keys // amb, keys % amb, coef, den, deg)


def slot_kernel(H, big: bool = False) -> SlotKernel:
    """The slot kernel of H, int64 or (`big`) Python-int, built once and
    kept in H's cache; every DY complex of H and `tangent_space` share it."""
    return _once(H._cache, ("slot_kernel", big), lambda: SlotKernel(H, big))


def run_exact(work, kernel, on_fallback=lambda: None):
    """work(kernel(False)) on the int64 kernel; where that raises `Fallback`,
    on_fallback() and work(kernel(True)) on the Python-int kernel."""
    try:
        return work(kernel(False))
    except Fallback:
        on_fallback()
        return work(kernel(True))


def _lcm(denominators) -> int:
    return math.lcm(1, *set(denominators))


def _check(bound: int):
    """Refuse a flat index (or row-scaled index) beyond the int64 bound."""
    if bound >= LIMIT:
        raise UnsupportedDegreeError("ambient too large: flat index bound %d "
                                     "is not below 2^62" % bound)


def _maxabs(a) -> int:
    return int(abs(a).max()) if a.size else 0
