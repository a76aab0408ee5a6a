"""The three Davydov-Yetter cochain complexes as finite exact linear algebra.

Three complex kinds are implemented, all with cochain spaces realized as
subspaces of tensor powers of a Hopf algebra H:

  identity     C^n = centralizer of Delta^{(n-1)}(H) in H^{ox n}
  tensor       C^n = {u in H^{ox 2n} :
                      sigma(Delta^{(2n-1)}(h)) u = u Delta^{(2n-1)}(h)}
               where sigma interleaves (1..n | n+1..2n) -> (X1 Y1 X2 Y2 ...),
               attached to an R-matrix R
  restriction  C^n = centralizer of Delta^{(n-1)}(i(K)) in H^{ox n}
               for a Hopf inclusion i: K -> H

Tensor-kind slot layout is interleaved: (X1, Y1, X2, Y2, ...).  Coface maps:

  identity / restriction (theta trivial):
      d_0(u) = 1 ox u,  d_i(u) = Delta at slot i,  d_{n+1}(u) = u ox 1
  tensor (theta twisted by R):
      d_0(u)    = [1 ox R1 ox Delta^{(n-1)}(R2) into the X-slots] (1 ox 1 ox u)
      d_i(u)    = Delta_{HoxH}(block i of u) * [R1 in Y_i, R2 in X_{i+1}]
      d_{n+1}(u)= [Delta^{(n-1)}(R1) into the Y-slots ox R2 in X_{n+1}] (u ox 1 ox 1)

The degree-1 and degree-2 tensor cofaces reproduce the explicit twisted
differentials verbatim (tests pin this), and d o d = 0 holds exactly at
every computed degree.  Codegeneracies apply the counit to slot i+1
(identity / restriction) or to block i+1 (tensor); the cosimplicial
identities hold, so the degree <= 3 normalization projectors
N^n = pi_0 ... pi_{n-1} with pi_i = id - d_i s_i are quasi-isomorphism
idempotents.
"""

from __future__ import annotations

from .exactlin import (FR0, FR1, SparseMatrix, TensorElement, flatten_index,
                       kernel_basis_marked, rank_of_vectors, slotwise_mul_into,
                       unflatten_index, unit_tensor)
from .hopfcore import HopfAlgebra, HopfError, iterated_coproduct
from .algcore import AlgebraMap


class UnsupportedDegreeError(HopfError):
    pass


class DYConsistencyError(HopfError):
    """A computed differential escaped the cochain space; results invalid."""


def _interleave_perm(n: int) -> list:
    """sigma_n: natural slots (1..n | n+1..2n) to interleaved X/Y layout."""
    perm = [0] * (2 * n)
    for j in range(n):
        perm[j] = 2 * j
        perm[n + j] = 2 * j + 1
    return perm


class DYComplex:
    """One of the three cochain complexes, with cached bases and maps."""

    def __init__(self, kind: str, H: HopfAlgebra, R: TensorElement = None,
                 imap: AlgebraMap = None, Hsub: HopfAlgebra = None):
        assert kind in ("identity", "tensor", "restriction")
        self.kind = kind
        self.H = H
        self.R = R
        self.imap = imap
        self.Hsub = Hsub
        if kind == "tensor":
            assert R is not None and R.degree == 2
        if kind == "restriction":
            assert imap is not None and Hsub is not None
        self._basis = {}
        self._markers = {}
        self._diff_images = {}

    # -- geometry ----------------------------------------------------------
    def slots(self, n: int) -> int:
        return 2 * n if self.kind == "tensor" else n

    def ambient_dim(self, n: int) -> int:
        return self.H.dim ** self.slots(n)

    # -- defining conditions -------------------------------------------------
    def _condition_vectors(self):
        """Elements of H (resp. i(K)) whose Delta-powers cut out the cochain
        spaces.  Certified generators suffice: both sides of the centralizing
        condition are multiplicative in the element."""
        from .algcore import _gens_usable
        H = self.H
        if self.kind == "restriction":
            K = self.Hsub.algebra
            if _gens_usable(K):
                return [self.imap.apply(g) for g in K.generators]
            return [self.imap.apply_basis(kk) for kk in range(K.dim)]
        if _gens_usable(H.algebra):
            return list(H.algebra.generators)
        return [{h: FR1} for h in range(H.dim)]

    def _condition_elements(self, n: int):
        """Pairs (L, R) of tensor multipliers: cochains satisfy L u = u R."""
        H = self.H
        s = self.slots(n)
        if s == 0:
            return []
        cached = getattr(self, "_cond_cache", None)
        if cached is None:
            self._cond_cache = cached = {}
        if n in cached:
            return cached[n]
        out = []
        if self.kind == "tensor":
            perm = _interleave_perm(n)
            for vec in self._condition_vectors():
                t = H.delta_power(vec, s)
                out.append((t.permute_slots(perm), t))
        else:
            for vec in self._condition_vectors():
                t = H.delta_power(vec, s)
                out.append((t, t))
        cached[n] = out
        return out

    def in_cochain_space(self, n: int, u: TensorElement) -> bool:
        if u.degree != self.slots(n):
            return False
        checker = self._vector_checker(n)
        if checker is not None:
            res = checker(u)
            if res is not None:
                return res
        tab = self.H.algebra.fast_mult()
        for L, Rm in self._condition_elements(n):
            if _fast_diff(tab, L.coeffs, u.coeffs, Rm.coeffs):
                return False
        return True

    def _vector_checker(self, n: int):
        """Integer-vectorized containment check; None when inapplicable."""
        cache = getattr(self, "_vc_cache", None)
        if cache is None:
            self._vc_cache = cache = {}
        if n not in cache:
            cache[n] = _build_vector_checker(self.H.algebra,
                                             self._condition_elements(n),
                                             self.slots(n))
        return cache[n]

    def cochain_basis(self, n: int) -> list:
        """Exact basis of C^n, canonical (kernel RREF over lex tuple order)."""
        if n < 0:
            raise UnsupportedDegreeError("negative degree")
        if n in self._basis:
            return self._basis[n]
        H = self.H
        s = self.slots(n)
        if n == 0:
            basis = [TensorElement(H.algebra, 0, {(): FR1})]
            self._basis[0] = basis
            self._markers[0] = [0]
            return basis
        nd = H.dim
        ncols = nd ** s
        # build rows column-by-column: for basis tensor e_t the condition
        # vector is L e_t - e_t R, scattered over the ambient index
        tab = H.algebra.fast_mult()
        rows: dict = {}
        for ci, (L, Rm) in enumerate(self._condition_elements(n)):
            for flat_t in range(ncols):
                key = unflatten_index(flat_t, nd, s)
                diff = _fast_diff(tab, L.coeffs, {key: FR1}, Rm.coeffs)
                for kk, c in diff.items():
                    f = flatten_index(kk, nd)
                    d = rows.setdefault((ci, f), {})
                    ss = d.get(flat_t, FR0) + c
                    if ss:
                        d[flat_t] = ss
                    else:
                        d.pop(flat_t, None)
        M = SparseMatrix.from_rows_list([r for r in rows.values() if r], ncols)
        vecs, markers = kernel_basis_marked(M)
        basis = [TensorElement(H.algebra, s,
                               {unflatten_index(f, nd, s): c for f, c in v.items()})
                 for v in vecs]
        self._basis[n] = basis
        self._markers[n] = markers
        return basis

    def cochain_dim(self, n: int) -> int:
        return len(self.cochain_basis(n))

    def coords(self, n: int, u: TensorElement) -> dict:
        """Coordinates of u in the cochain basis; exact, verified."""
        basis = self.cochain_basis(n)
        markers = self._markers[n]
        nd = self.H.dim
        flat = u.flat()
        out = {}
        for j, f in enumerate(markers):
            c = flat.get(f)
            if c:
                out[j] = c
        # verify reconstruction
        acc = TensorElement(self.H.algebra, u.degree, {})
        for j, c in out.items():
            acc = acc.add(basis[j].scale(c))
        if acc != u:
            raise DYConsistencyError("vector does not lie in the cochain space")
        return out

    # -- coface and codegeneracy maps ---------------------------------------
    def coface(self, n: int, i: int, u: TensorElement) -> TensorElement:
        """d_i^n: C^n -> C^{n+1} on raw tensor elements, 0 <= i <= n+1."""
        if not (0 <= i <= n + 1):
            raise UnsupportedDegreeError("coface index %d out of range" % i)
        H = self.H
        if self.kind != "tensor":
            if n == 0:
                return unit_tensor(H.algebra, 1).scale(u.coeffs.get((), FR0))
            if i == 0:
                return u.insert_vector_at(0, H.unit)
            if i == n + 1:
                return u.insert_vector_at(n, H.unit)
            return iterated_coproduct(H, u, i - 1)
        return self._coface_tensor(n, i, u)

    def _coface_tensor(self, n: int, i: int, u: TensorElement) -> TensorElement:
        H = self.H
        if n == 0:
            return unit_tensor(H.algebra, 2).scale(u.coeffs.get((), FR0))
        R = self.R
        if i == 0:
            # multiplier: X1 <- 1, Y1 <- R1, X-slots 2..n+1 <- Delta^{(n-1)}(R2)
            mult = self._front_multiplier(n)
            operand = u
            operand = operand.insert_vector_at(0, H.unit)
            operand = operand.insert_vector_at(0, H.unit)
            return mult.mul(operand)
        if i == n + 1:
            mult = self._back_multiplier(n)
            operand = u.insert_vector_at(2 * n, H.unit)
            operand = operand.insert_vector_at(2 * n, H.unit)
            return mult.mul(operand)
        # middle: expand block i via Delta_{HoxH}, then right-multiply by R
        x = 2 * (i - 1)
        v = iterated_coproduct(H, u, x)          # x -> (x1, x2) at positions x, x+1
        v = iterated_coproduct(H, v, x + 2)      # y -> (y1, y2) at x+2, x+3
        perm = list(range(v.degree))
        perm[x + 1], perm[x + 2] = perm[x + 2], perm[x + 1]
        v = v.permute_slots(perm)                # (x1, y1, x2, y2)
        ins = self._middle_multiplier(n, i)
        return v.mul(ins)

    def _front_multiplier(self, n: int) -> TensorElement:
        H = self.H
        key = ("front", n)
        cached = getattr(self, "_mult_cache", None)
        if cached is None:
            self._mult_cache = cached = {}
        if key in cached:
            return cached[key]
        # layout: pos0 unit, pos1 R1, pos 2j: Delta-component j of R2, odd pos unit
        coeffs = {}
        unit_expansions = _unit_expansions(H, n + 1)
        for (a, b), c in self.R.coeffs.items():
            t = H.delta_power({b: FR1}, n)
            for kk, cc in t.coeffs.items():
                for ukey, uc in unit_expansions.items():
                    full = [None] * (2 * (n + 1))
                    full[0] = ukey[0]
                    full[1] = a
                    for j in range(n):
                        full[2 * (j + 1)] = kk[j]
                        full[2 * (j + 1) + 1] = ukey[j + 1]
                    coeffs[tuple(full)] = coeffs.get(tuple(full), FR0) + c * cc * uc
        acc = TensorElement(H.algebra, 2 * (n + 1),
                            {k: v for k, v in coeffs.items() if v})
        cached[key] = acc
        return acc

    def _back_multiplier(self, n: int) -> TensorElement:
        H = self.H
        key = ("back", n)
        cached = getattr(self, "_mult_cache", None)
        if cached is None:
            self._mult_cache = cached = {}
        if key in cached:
            return cached[key]
        coeffs = {}
        unit_expansions = _unit_expansions(H, n + 1)
        for (a, b), c in self.R.coeffs.items():
            t = H.delta_power({a: FR1}, n)  # goes to Y-slots 1..n
            for kk, cc in t.coeffs.items():
                for ukey, uc in unit_expansions.items():
                    full = [None] * (2 * (n + 1))
                    for j in range(n):
                        full[2 * j] = ukey[j]
                        full[2 * j + 1] = kk[j]
                    full[2 * n] = b
                    full[2 * n + 1] = ukey[n]
                    coeffs[tuple(full)] = coeffs.get(tuple(full), FR0) + c * cc * uc
        acc = TensorElement(H.algebra, 2 * (n + 1),
                            {k: v for k, v in coeffs.items() if v})
        cached[key] = acc
        return acc

    def _middle_multiplier(self, n: int, i: int) -> TensorElement:
        """Unit everywhere except R1 in slot Y_i, R2 in slot X_{i+1}."""
        H = self.H
        coeffs = {}
        unit_expansions = _unit_expansions(H, 2 * n)
        for (a, b), c in self.R.coeffs.items():
            for ukey, uc in unit_expansions.items():
                full = [None] * (2 * (n + 1))
                ui = 0
                for pos in range(2 * (n + 1)):
                    if pos == 2 * i - 1:
                        full[pos] = a
                    elif pos == 2 * i:
                        full[pos] = b
                    else:
                        full[pos] = ukey[ui]
                        ui += 1
                coeffs[tuple(full)] = coeffs.get(tuple(full), FR0) + c * uc
        return TensorElement(H.algebra, 2 * (n + 1),
                             {k: v for k, v in coeffs.items() if v})

    def delta_raw(self, n: int, u: TensorElement) -> TensorElement:
        out = TensorElement(self.H.algebra, self.slots(n + 1), {})
        sign = FR1
        for i in range(n + 2):
            out = out.add(self.coface(n, i, u).scale(sign))
            sign = -sign
        return out

    def differential_images(self, n: int) -> list:
        """delta^n of every basis cochain, raw; containment is asserted."""
        if n in self._diff_images:
            return self._diff_images[n]
        images = [self.delta_raw(n, u) for u in self.cochain_basis(n)]
        for v in images:
            if not self.in_cochain_space(n + 1, v):
                raise DYConsistencyError(
                    "differential image escapes the degree-%d cochain space" % (n + 1))
        self._diff_images[n] = images
        return images

    def differential(self, n: int) -> SparseMatrix:
        """delta^n in cochain coordinates C^n -> C^{n+1}."""
        images = self.differential_images(n)
        self.cochain_basis(n + 1)
        cols = [self.coords(n + 1, v) for v in images]
        return SparseMatrix.from_columns(self.cochain_dim(n + 1), cols)

    def codegeneracy_raw(self, n: int, i: int, u: TensorElement) -> TensorElement:
        if not (0 <= i <= n - 1):
            raise UnsupportedDegreeError("codegeneracy index %d out of range" % i)
        H = self.H
        if self.kind != "tensor":
            return u.contract_at(i, H.counit)
        v = u.contract_at(2 * i, H.counit)
        return v.contract_at(2 * i, H.counit)

    def codegeneracy(self, n: int, i: int) -> SparseMatrix:
        basis = self.cochain_basis(n)
        self.cochain_basis(n - 1)
        cols = []
        for u in basis:
            v = self.codegeneracy_raw(n, i, u)
            cols.append(self.coords(n - 1, v))
        return SparseMatrix.from_columns(self.cochain_dim(n - 1), cols)

    # -- cohomology ----------------------------------------------------------
    def rank_delta(self, n: int) -> int:
        images = self.differential_images(n)
        nd = self.H.dim
        rows = [v.flat() for v in images if not v.is_zero()]
        return rank_of_vectors(rows, nd ** self.slots(n + 1))

    def cohomology_dim(self, n: int) -> int:
        """dim ker delta^n - rank delta^{n-1} (at n = 0: dim ker delta^0)."""
        if n < 0:
            raise UnsupportedDegreeError("negative degree")
        dim_cn = self.cochain_dim(n)
        kernel_dim = dim_cn - self.rank_delta(n)
        if n == 0:
            return kernel_dim
        return kernel_dim - self.rank_delta(n - 1)

    # -- normalization (degrees 1..3) -----------------------------------------
    def normalize(self, n: int, u: TensorElement) -> TensorElement:
        """N^n = pi_0 ... pi_{n-1} with pi_i = id - d_i s_i; degrees 1..3."""
        if n not in (1, 2, 3):
            raise UnsupportedDegreeError("normalization implemented for degrees 1..3")
        if u.degree != self.slots(n):
            raise UnsupportedDegreeError("degree mismatch")
        out = u
        for i in reversed(range(n)):
            si = self.codegeneracy_raw(n, i, out)
            out = out.sub(self.coface(n - 1, i, si))
        return out


def _fast_diff(tab, L: dict, u: dict, Rm: dict) -> dict:
    """L.u - u.Rm as a plain dict (empty = zero)."""
    out: dict = {}
    slotwise_mul_into(tab, L, u, out)
    slotwise_mul_into(tab, u, Rm, out, -1)
    return out


_VEC_BOUND = 1 << 40  # keeps every accumulated int64 far from overflow


def _build_vector_checker(A, conditions, degree: int):
    """Compile the centralizing conditions to per-slot integer digit maps.

    Applicable when every needed basis product is single-term with a
    one-or-minus-one structure constant and the condition coefficients scale
    to small integers (true for the monomial catalog algebras).  All the
    arithmetic is int64 with explicit bound checks, so the result is exact;
    returns None (caller falls back to the dict path) otherwise.
    """
    try:
        import numpy as np
    except ImportError:
        return None
    if degree == 0 or not conditions:
        return lambda u: True
    nd = A.dim
    if nd ** degree > 1 << 22:
        return None
    tab = A.fast_mult()

    def digit_maps(k_idx, side):
        # product tables for a fixed multiplier digit: d -> (target, sign)
        tgt = np.full(nd, -1, dtype=np.int64)
        sgn = np.zeros(nd, dtype=np.int64)
        for d in range(nd):
            prod = tab[k_idx][d] if side == "left" else tab[d][k_idx]
            if prod is None:
                continue
            if type(prod) is not tuple:
                return None, None
            kk, cc = prod
            # keep every per-slot factor in {0, 1, -1} so the accumulated
            # int64 bound below stays valid
            if cc.denominator != 1 or abs(cc.numerator) > 1:
                return None, None
            tgt[d] = kk
            sgn[d] = cc.numerator
        return tgt, sgn

    compiled = []
    from math import gcd
    for L, Rm in conditions:
        denom = 1
        for v in list(L.coeffs.values()) + list(Rm.coeffs.values()):
            denom = denom * v.denominator // gcd(denom, v.denominator)
        sides = []
        for elt, side in ((L, "left"), (Rm, "right")):
            terms = []
            for key, coef in elt.coeffs.items():
                c = int(coef * denom)
                if abs(c) > 1 << 10:
                    return None
                maps = []
                for s in range(degree):
                    tgt, sgn = digit_maps(key[s], side)
                    if tgt is None:
                        return None
                    maps.append((tgt, sgn))
                terms.append((c, maps))
            sides.append(terms)
        compiled.append(tuple(sides))

    import numpy as np
    powers = np.array([nd ** (degree - 1 - s) for s in range(degree)],
                      dtype=np.int64)
    size = nd ** degree

    def checker(u):
        items = sorted(u.coeffs.items())
        if not items:
            return True
        vden = 1
        for _, v in items:
            vden = vden * v.denominator // gcd(vden, v.denominator)
        vals = np.array([int(v * vden) for _, v in items], dtype=object)
        if max(abs(int(x)) for x in vals) * (1 << 11) > _VEC_BOUND:
            return None  # out of the safe integer range; use the exact path
        vals = vals.astype(np.int64)
        digits = np.array([k for k, _ in items], dtype=np.int64)
        for (lterms, rterms) in compiled:
            acc = np.zeros(size, dtype=np.int64)
            for terms, sign in ((lterms, 1), (rterms, -1)):
                for c, maps in terms:
                    flat = np.zeros(len(items), dtype=np.int64)
                    coe = np.full(len(items), sign * c, dtype=np.int64)
                    alive = np.ones(len(items), dtype=bool)
                    for s in range(degree):
                        tgt, sgn = maps[s]
                        ds = digits[:, s]
                        t = tgt[ds]
                        alive &= t >= 0
                        flat += np.where(alive, t, 0) * powers[s]
                        coe *= sgn[ds]
                    if alive.any():
                        np.add.at(acc, flat[alive], coe[alive] * vals[alive])
            if acc.any():
                return False
        return True

    return checker


def _unit_expansions(H: HopfAlgebra, count: int) -> dict:
    """All keys of 1^{ox count} with coefficients (the unit may be a sum)."""
    return dict(unit_tensor(H.algebra, count).coeffs)


def identity_complex(H: HopfAlgebra) -> DYComplex:
    return DYComplex("identity", H)


def tensor_complex(H: HopfAlgebra, R: TensorElement, Rinv=None) -> DYComplex:
    """The R-twisted tensor complex.  `Rinv` is ignored: the complex never
    uses the inverse R-matrix, and the parameter stays only so that calls
    passing it keep working."""
    return DYComplex("tensor", H, R=R)


def restriction_complex(H: HopfAlgebra, imap: AlgebraMap, Hsub: HopfAlgebra) -> DYComplex:
    return DYComplex("restriction", H, imap=imap, Hsub=Hsub)


# ---------------------------------------------------------------------------
# degree-2 decomposition for the tensor complex

def decompose_h2_tensor(cx: DYComplex, u: TensorElement):
    """Split a degree-2 tensor-kind cocycle into (a, b, T):

    a = (id ox eps)^{ox 2}(u), b = (eps ox id)^{ox 2}(u),
    T = (eps ox id ox id ox eps)(u) - tau((id ox eps ox eps ox id)(u)) R.

    a and b are degree-2 cocycles of the identity complex; T satisfies the
    tangent-space conditions at R.
    """
    assert cx.kind == "tensor"
    H = cx.H
    if u.degree != 4:
        raise UnsupportedDegreeError("decompose_h2_tensor expects degree-2 cochains")
    if not cx.delta_raw(2, u).is_zero():
        raise DYConsistencyError("decompose_h2_tensor expects a cocycle")
    eps = H.counit
    a = u.contract_at(1, eps).contract_at(2, eps)   # kill Y1 (pos1), Y2 (pos3->2)
    b = u.contract_at(0, eps).contract_at(1, eps)   # kill X1 (pos0), X2 (pos2->1)
    t1 = u.contract_at(0, eps).contract_at(2, eps)  # keep (Y1, X2)
    mid = u.contract_at(1, eps).contract_at(1, eps)  # keep (X1, Y2)
    t2 = mid.permute_slots([1, 0]).mul(cx.R)
    T = t1.sub(t2)
    return a, b, T


def cocycle_from_tangent(cx: DYComplex, T: TensorElement) -> TensorElement:
    """u = 1 ox T ox 1 (interleaved: T1 in Y1, T2 in X2); a degree-2 cocycle
    with vanishing a/b parts whenever (eps ox eps)(T) = 0."""
    assert cx.kind == "tensor"
    H = cx.H
    if T.degree != 2:
        raise UnsupportedDegreeError("tangent vectors are degree-2 tensors")
    u = T.insert_vector_at(0, H.unit)
    u = u.insert_vector_at(3, H.unit)
    if not cx.in_cochain_space(2, u):
        raise DYConsistencyError("1 ox T ox 1 is not a degree-2 cochain; "
                                 "T fails the tangent conditions")
    if not cx.delta_raw(2, u).is_zero():
        raise DYConsistencyError("1 ox T ox 1 is not a cocycle; "
                                 "T fails the tangent conditions")
    return u
