"""The int64 slotwise kernel of the Davydov-Yetter complexes.

`dycomplex` imports this module, and numpy with it, only when a complex
first needs the kernel, so that `import hopfdy` stays free of both.  The
kernel runs the batch operations that `dycomplex` writes its stages
against (insert the unit, coproduct at a slot, permute slots, slotwise
product with a multiplier, signed sum) on int64 arrays, exactly: every
product, rescaling and sum is checked against a bound below 2^63, and
`Fallback` is raised where a check fails or the kernel does not apply, so
that the stage runs on the Fraction path instead.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .exactlin import TensorElement, flatten_index, unflatten_index


class Fallback(Exception):
    """The int64 kernel cannot compute this exactly; use the Fraction path."""


LIMIT = 1 << 62  # every int64 the kernel forms, sums included, stays below this
PIECE = 1 << 11  # nonzeros per containment piece; bounds its peak memory

# Nonzeros of a list of tensors of degree `deg`: tensor row[k] has coefficient
# coef[k] / den at the flat (mixed-radix) index flat[k]; den is one Python int.
Batch = namedtuple("Batch", "row flat coef den deg")


class SlotKernel:
    """Slotwise tensor arithmetic on int64 arrays of flat indices, exact by
    bound checks.

    A product with a multiplier applies per-slot digit maps to whole arrays:
    e_a e_b = cst[p] / mden * e_{tgt[p]} at p = a * nd + b, built once from
    `fast_mult()` and scaled to integers by the lcm `mden` of the structure
    constants; the coproduct and the unit are compiled the same way.
    `combine` sums duplicate (row, flat index) keys with `np.unique` and
    `np.add.at`.

    Raises `Fallback` where it does not apply: a basis product with more
    than one term, or an int64 bound that a product, a rescaling or a sum
    would exceed.
    """

    def __init__(self, H):
        self.H, self.nd = H, H.dim
        nd = self.nd
        prods = [(a, b, p) for a, row in enumerate(H.algebra.fast_mult())
                 for b, p in enumerate(row) if p is not None]
        if any(type(p) is not tuple for _, _, p in prods):
            raise Fallback("a basis product has more than one term")
        self.mden = _lcm(c.denominator for _, _, (_, c) in prods)
        self.tgt = np.zeros(nd * nd, np.int64)   # at a * nd + b
        self.cst = np.zeros(nd * nd, np.int64)
        for a, b, (k, c) in prods:
            self.tgt[a * nd + b] = k
            self.cst[a * nd + b] = _scaled(c, self.mden)
        self.cmax = _maxabs(self.cst)
        terms = [list(H.comult[d].coeffs.items()) for d in range(nd)]
        width = max(len(t) for t in terms)
        self.dden = _lcm(c.denominator for t in terms for _, c in t)
        self.dkey = np.zeros((width, nd), np.int64)  # flat index a * nd + b of term j
        self.dcoef = np.zeros((width, nd), np.int64)
        for d, t in enumerate(terms):
            for j, ((a, b), c) in enumerate(t):
                self.dkey[j, d] = a * nd + b
                self.dcoef[j, d] = _scaled(c, self.dden)
        self.uden = _lcm(c.denominator for c in H.unit.values())
        self.unit = [(i, _scaled(c, self.uden)) for i, c in H.unit.items()]
        self.compiled = {}  # multiplier key -> encoded batch, published write-once

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
        if nums and max(map(abs, nums)) >= LIMIT:
            raise Fallback("coefficient beyond the int64 bound")
        return Batch(np.array(rows, np.int64), np.array(flats, np.int64),
                      np.array(nums, np.int64), den, s)

    def prepare(self, key, T: TensorElement) -> Batch:
        """T encoded once per key; published write-once like the caches of
        `dycomplex.DYComplex`."""
        enc = self.compiled.get(key)
        return enc if enc is not None else self.compiled.setdefault(
            key, self.encode([T], T.degree))

    def decode(self, x: Batch, count: int) -> list:
        out = [TensorElement(self.H.algebra, x.deg) for _ in range(count)]
        digits = zip(*(d.tolist() for d in self._digits(x)))
        values: dict = {}  # numerator -> Fraction; few distinct values recur
        for r, k, c in zip(x.row.tolist(), digits, x.coef.tolist()):
            v = values.get(c)
            if v is None:
                v = values[c] = Fraction(c, x.den)
            out[r].coeffs[k] = v
        return out

    def all_basis(self, s: int) -> Batch:
        _check(self.nd ** s)
        t = np.arange(self.nd ** s, dtype=np.int64)
        return Batch(t, t, np.ones(t.size, np.int64), 1, s)

    def is_zero(self, x: Batch) -> bool:
        return not x.coef.size  # x comes from combine, which drops zero sums

    def pieces(self, x: Batch) -> list:
        """x cut at tensor boundaries into pieces of about PIECE nonzeros,
        which bounds the memory of products over a piece; x is sorted by
        row, as encode and combine leave it."""
        cuts = [0]
        for end in (np.flatnonzero(np.diff(x.row)) + 1).tolist():
            if end - cuts[-1] >= PIECE:
                cuts.append(end)
        cuts.append(x.row.size)
        return [Batch(x.row[a:b], x.flat[a:b], x.coef[a:b], x.den, x.deg)
                for a, b in zip(cuts, cuts[1:])]

    def entries(self, x: Batch):
        return zip(x.row.tolist(), x.flat.tolist(), x.coef.tolist())

    # -- linear maps -------------------------------------------------------------
    def _digits(self, x: Batch) -> list:
        """The slot digits of every entry, one array per slot."""
        nd = self.nd
        return [x.flat // nd ** (x.deg - 1 - j) % nd for j in range(x.deg)]

    def _join(self, parts, den: int, s: int) -> Batch:
        """The (row, flat, coef) parts as one batch, one after the other."""
        return Batch(*(np.concatenate(a) for a in zip(*parts)), den, s)

    def insert_unit(self, x: Batch, slot: int) -> Batch:
        _check(_maxabs(x.coef) * max(abs(c) for _, c in self.unit))
        p = self.nd ** (x.deg - slot)
        high, low = x.flat // p * self.nd, x.flat % p
        parts = [(x.row, (high + i) * p + low, x.coef * c) for i, c in self.unit]
        return self._join(parts, x.den * self.uden, x.deg + 1)

    def coproduct(self, x: Batch, slot: int) -> Batch:
        _check(_maxabs(x.coef) * _maxabs(self.dcoef))
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
        M and an entry of x give one entry, on (term, entry) arrays of at
        most about 2^20 elements."""
        s, nd = x.deg, self.nd
        _check(_maxabs(x.coef) * _maxabs(M.coef) * self.cmax ** s)
        xd, md = self._digits(x), self._digits(M)
        # flat digit-pair index a * nd + b of each slot product e_a e_b
        xd = [d[None, :] if left else d[None, :] * nd for d in xd]
        md = [d[:, None] * nd if left else d[:, None] for d in md]
        step = max(1, (1 << 20) // max(1, x.coef.size))
        parts = [(x.row[:0], x.flat[:0], x.coef[:0])]
        for lo in range(0, M.coef.size, step):
            coef = M.coef[lo:lo + step, None] * x.coef[None, :]
            flat = np.zeros(coef.shape, np.int64)
            for a, b in zip(md, xd):
                pair = a[lo:lo + step] + b
                coef = coef * self.cst[pair]
                flat = flat * nd + self.tgt[pair]
            keep = coef != 0
            parts.append((np.broadcast_to(x.row, keep.shape)[keep], flat[keep], coef[keep]))
        return self._join(parts, x.den * M.den * self.mden ** s, s)

    def combine(self, parts) -> Batch:
        """sum of sign * x over the (x, sign) parts, duplicates summed and
        zeros dropped, with numerators and denominator divided by their gcd."""
        den = _lcm(x.den for x, _ in parts)
        scaled = []
        for x, sign in parts:
            f = sign * (den // x.den)
            _check(_maxabs(x.coef) * abs(f))
            scaled.append((x.row, x.flat, x.coef * f))
        x = self._join(scaled, den, parts[0][0].deg)
        amb = self.nd ** x.deg
        _check(_maxabs(x.coef) * x.coef.size)
        _check((int(x.row.max()) + 1 if x.row.size else 0) * amb)
        keys, inverse = np.unique(x.row * amb + x.flat, return_inverse=True)
        coef = np.zeros(keys.size, np.int64)
        np.add.at(coef, inverse, x.coef)
        keys, coef = keys[coef != 0], coef[coef != 0]
        g = math.gcd(int(np.gcd.reduce(coef)) if coef.size else 0, den)
        if g > 1:
            coef //= g
            den //= g
        return Batch(keys // amb, keys % amb, coef, den, x.deg)


def _lcm(denominators) -> int:
    return math.lcm(1, *set(denominators))


def _scaled(c: Fraction, den: int) -> int:
    v = int(c * den)
    if abs(v) >= LIMIT:
        raise Fallback("structure constant beyond the int64 bound")
    return v


def _check(bound: int):
    if bound >= LIMIT:
        raise Fallback("int64 bound exceeded")


def _maxabs(a) -> int:
    return int(abs(a).max()) if a.size else 0
