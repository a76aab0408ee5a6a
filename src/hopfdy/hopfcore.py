"""Hopf algebra structures, Sweedler-style tensor calculus, duals, catalog.

Conventions used throughout:
  * Delta(h) = h(1) ox h(2); iterated coproducts expand the last slot.
  * coregular actions on the dual: (h |> f)(h') = f(h' h),
    (f <| h)(h') = f(h h').
  * the dual with opposite product (H*)^op multiplies by
    (phi psi)(x) = psi(x(1)) phi(x(2)) and keeps the transposed coproduct
    phi(1)(x) phi(2)(y) = phi(x y); its antipode is the inverse-transpose
    of S.

The built-in catalog covers group algebras QQ[Z/n] and the family
B_k = Lambda(QQ^k) x| QQ[Z/2] with presentation
x_i x_j = -x_j x_i, g x_i = -x_i g, x_i^2 = 0, g^2 = 1,
Delta(x_i) = 1 ox x_i + x_i ox g, Delta(g) = g ox g,
eps(x_i) = 0, eps(g) = 1, S(x_i) = g x_i, S(g) = g,
on the monomial basis x_1^{e_1} ... x_k^{e_k} g^{e_{k+1}}.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .algcore import (Algebra, AlgebraMap, ModuleRep, module_from_character,
                      multiplicative_failures, verify_algebra)
from .exactlin import (FR0, FR1, SparseMatrix, TensorElement, _once, fr, kron_into,
                       unit_tensor, vec_addmul, vec_eq)


class HopfError(Exception):
    pass


class HopfAlgebra:
    """Finite-dimensional Hopf algebra over QQ with explicit structure maps.

    comult[i] is Delta(e_i) as a degree-2 TensorElement over the underlying
    algebra; counit is a list of exact rationals (an integral value is an
    `int`, as `fr` gives it); antipode a matrix whose columns are the images
    S(e_i).  `dual_generator_hint`: generators of (H*)^op in the dual basis,
    or None; D(H) certifies their span before use.
    """

    def __init__(self, algebra: Algebra, comult, counit, antipode: SparseMatrix,
                 antipode_inv=None, name="", dual_generator_hint=None):
        self.algebra = algebra
        self.comult = list(comult)
        self.counit = [fr(c) for c in counit]
        self.antipode = antipode
        self.name = name or algebra.name
        self.dual_generator_hint = dual_generator_hint
        # "double": D(H), filled by drinfeld_double; "antipode_inv": S^{-1};
        # "report": the violations found by verify_hopf; the identity and
        # restriction DY complexes of H
        self._cache: dict = {} if antipode_inv is None else {"antipode_inv": antipode_inv}

    # convenience passthroughs
    @property
    def dim(self):
        return self.algebra.dim

    @property
    def unit(self):
        return self.algebra.unit

    def mul_vec(self, u, v):
        return self.algebra.mul_vec(u, v)

    def comult_vec(self, v: dict) -> TensorElement:
        """Delta(v); a basis vector's stored coproduct, as in `matrix_sum`."""
        if len(v) == 1 and next(iter(v.values())) == 1:
            return self.comult[next(iter(v))]
        out: dict = {}
        for i, c in v.items():
            vec_addmul(out, self.comult[i].coeffs, c)
        return TensorElement(self.algebra, 2, out)

    def counit_vec(self, v: dict):
        s = FR0
        for i, c in v.items():
            s += self.counit[i] * c
        return s

    def counit_row(self) -> dict:
        return {i: c for i, c in enumerate(self.counit) if c}

    def antipode_vec(self, v: dict) -> dict:
        return self.antipode.mul_vec(v)

    def antipode_inverse(self) -> SparseMatrix:
        def build():
            from .algcore import _invert_columns
            cols = _invert_columns(self.antipode)
            if cols is None:
                raise HopfError("antipode is not invertible; corrupt input")
            return SparseMatrix.from_columns(self.dim, cols)
        return _once(self._cache, "antipode_inv", build)

    def element(self, v: dict) -> TensorElement:
        return TensorElement(self.algebra, 1, {(i,): c for i, c in v.items()})

    def delta_power(self, v: dict, n: int) -> TensorElement:
        """Delta^{(n-1)}: H -> H^{ox n} (n >= 1), expanding the last slot."""
        assert n >= 1
        out = self.element(v)
        while out.degree < n:
            out = iterated_coproduct(self, out, out.degree - 1)
        return out

    def __repr__(self):
        return "HopfAlgebra(%s, dim=%d)" % (self.name, self.dim)


def iterated_coproduct(H: HopfAlgebra, u: TensorElement, slot: int) -> TensorElement:
    """Apply Delta to one slot of a tensor element (0-based slot)."""
    if not (0 <= slot < u.degree):
        raise HopfError("slot %d out of range for degree %d" % (slot, u.degree))
    out_coeffs: dict = {}
    for k, v in u.coeffs.items():
        for (a, b), c in H.comult[k[slot]].coeffs.items():
            nk = k[:slot] + (a, b) + k[slot + 1:]
            s = out_coeffs.get(nk, FR0) + v * c
            if s:
                out_coeffs[nk] = s
            else:
                out_coeffs.pop(nk, None)
    return TensorElement(H.algebra, u.degree + 1, out_coeffs)


def verify_hopf(H: HopfAlgebra) -> list:
    """All bialgebra and antipode axioms, witnessed per basis element.

    Delta and eps are checked multiplicative through
    `multiplicative_failures`, the loop that checks associativity too.
    Checked once per H (the report is cached write-once); each call returns
    a copy.
    """
    return list(_once(H._cache, "report", lambda: tuple(_hopf_violations(H))))


def _hopf_violations(H: HopfAlgebra) -> list:
    A = H.algebra
    report = verify_algebra(A)
    # unit and counit normalizations
    if H.comult_vec(A.unit) != unit_tensor(A, 2):
        report.append("Delta(1) != 1 ox 1")
    if H.counit_vec(A.unit) != FR1:
        report.append("eps(1) != 1")
    s_cols = H.antipode.columns()
    for i in range(A.dim):
        de = H.comult[i]
        # coassociativity
        if iterated_coproduct(H, de, 0) != iterated_coproduct(H, de, 1):
            report.append("coassociativity fails at %s" % A.labels[i])
        # counit axiom
        ei = H.element({i: FR1})
        if de.contract_at(0, H.counit) != ei or de.contract_at(1, H.counit) != ei:
            report.append("counit axiom fails at %s" % A.labels[i])
        # antipode axiom: sum c S(e_x) e_y = eps(e_i) 1 = sum c e_x S(e_y) over Delta(e_i)
        s_left, s_right = {}, {}
        for (x, y), c in de.coeffs.items():
            vec_addmul(s_left, A.mul_vec(s_cols[x], {y: FR1}), c)
            vec_addmul(s_right, A.mul_vec({x: FR1}, s_cols[y]), c)
        eps1 = vec_addmul({}, A.unit, H.counit[i])
        if s_left != eps1:
            report.append("antipode axiom (S ox id) fails at %s" % A.labels[i])
        if s_right != eps1:
            report.append("antipode axiom (id ox S) fails at %s" % A.labels[i])
    # Delta and eps are algebra maps
    for aname, j, _, _ in multiplicative_failures(A, H.comult_vec, TensorElement.mul):
        report.append("Delta not multiplicative on (%s, %s)" % (aname, A.labels[j]))
    for aname, j, _, _ in multiplicative_failures(A, H.counit_vec, operator.mul):
        report.append("eps not multiplicative on (%s, %s)" % (aname, A.labels[j]))
    return report


# ---------------------------------------------------------------------------
# catalog: group algebras and B_k

@lru_cache(maxsize=None)
def build_cyclic(n: int) -> HopfAlgebra:
    """Group algebra QQ[Z/n] with basis g^0..g^{n-1}."""
    if n < 1:
        raise HopfError("cyclic order must be >= 1")
    labels = ["1" if i == 0 else ("g" if i == 1 else "g^%d" % i) for i in range(n)]
    mult = {(i, j): {(i + j) % n: FR1} for i in range(n) for j in range(n)}
    gens = [{1 % n: FR1}]
    A = Algebra(n, labels, mult, {0: FR1}, generators=gens, name="QQ[Z/%d]" % n)
    comult = [TensorElement(A, 2, {(i, i): FR1}) for i in range(n)]
    counit = [FR1] * n
    antipode = SparseMatrix(n, n, {((-i) % n, i): FR1 for i in range(n)})
    return HopfAlgebra(A, comult, counit, antipode, antipode_inv=antipode,
                       name="QQ[Z/%d]" % n)


def _bk_mul_masks(mask1: int, t1: int, mask2: int, t2: int, k: int):
    """Product of monomials (x-mask, g-power); None when it vanishes."""
    if mask1 & mask2:
        return None
    # move g^t1 across the second x-word
    sign = -1 if (t1 and bin(mask2).count("1") % 2) else 1
    # sort the concatenated word: count inversions between word1 and word2
    inv = 0
    for i in range(k):
        if mask2 & (1 << i):
            inv += bin(mask1 >> (i + 1)).count("1")
    if inv % 2:
        sign = -sign
    return mask1 | mask2, (t1 + t2) % 2, sign


@lru_cache(maxsize=None)
def build_bk(k: int) -> HopfAlgebra:
    """The 2^{k+1}-dimensional algebra Lambda(QQ^k) x| QQ[Z/2]."""
    if k < 1:
        raise HopfError("k must be >= 1")
    dim = 1 << (k + 1)

    def label(idx):
        mask, t = idx & ((1 << k) - 1), idx >> k
        word = "".join("x%d" % (i + 1) for i in range(k) if mask & (1 << i))
        word += "g" if t else ""
        return word or "1"

    labels = [label(i) for i in range(dim)]
    mult = {}
    for i in range(dim):
        m1, t1 = i & ((1 << k) - 1), i >> k
        for j in range(dim):
            m2, t2 = j & ((1 << k) - 1), j >> k
            res = _bk_mul_masks(m1, t1, m2, t2, k)
            if res is None:
                continue
            mask, t, sign = res
            mult[(i, j)] = {mask | (t << k): fr(sign)}
    gens = [{(1 << i): FR1} for i in range(k)] + [{(1 << k): FR1}]
    A = Algebra(dim, labels, mult, {0: FR1}, generators=gens, name="B_%d" % k)

    g_idx = 1 << k
    # coproducts of monomials: products of generator coproducts inside H ox H
    dx = [TensorElement(A, 2, {(0, 1 << i): FR1, (1 << i, g_idx): FR1})
          for i in range(k)]
    dg = TensorElement(A, 2, {(g_idx, g_idx): FR1})
    comult = []
    for idx in range(dim):
        mask, t = idx & ((1 << k) - 1), idx >> k
        out = unit_tensor(A, 2)
        for i in range(k):
            if mask & (1 << i):
                out = out.mul(dx[i])
        if t:
            out = out.mul(dg)
        comult.append(out)
    counit = [FR1 if (i & ((1 << k) - 1)) == 0 else FR0 for i in range(dim)]
    # antipode: S(x_i) = g x_i, S(g) = g, extended antimultiplicatively
    sx = [A.mul_basis(g_idx, 1 << i) for i in range(k)]
    sg = {g_idx: FR1}
    ant_cols = []
    for idx in range(dim):
        mask, t = idx & ((1 << k) - 1), idx >> k
        # reversed word: S(x_{i1}...x_{im} g^t) = S(g)^t S(x_{im})...S(x_{i1})
        vec = {0: FR1}
        if t:
            vec = A.mul_vec(vec, sg)
        for i in reversed(range(k)):
            if mask & (1 << i):
                vec = A.mul_vec(vec, sx[i])
        ant_cols.append(vec)
    antipode = SparseMatrix.from_columns(dim, ant_cols)
    # generators of (H*)^op = {y_i, h}; used to certify checks on D(B_k)
    return HopfAlgebra(A, comult, counit, antipode, name="B_%d" % k,
                       dual_generator_hint=bk_dual_generators(k))


def dual_hopf(H: HopfAlgebra, opposite_product: bool) -> HopfAlgebra:
    """Dual-basis Hopf algebra H* (or (H*)^op when `opposite_product`)."""
    n = H.dim
    A = H.algebra
    mult = {}
    for m in range(n):
        for (a, b), c in H.comult[m].coeffs.items():
            i, j = (b, a) if opposite_product else (a, b)
            mult.setdefault((i, j), {})[m] = mult.setdefault((i, j), {}).get(m, FR0) + c
    mult = {k: {m: c for m, c in v.items() if c} for k, v in mult.items()}
    unit = {i: c for i, c in enumerate(H.counit) if c}
    labels = ["(%s)*" % lab for lab in A.labels]
    op = "op" if opposite_product else ""
    DA = Algebra(n, labels, mult, unit, name="%s*%s" % (H.name, op))
    comult = []
    for m in range(n):
        cc = {}
        for (i, j), v in A.mult.items():
            c = v.get(m)
            if c:
                cc[(i, j)] = c
        comult.append(TensorElement(DA, 2, cc))
    counit = [A.unit.get(i, FR0) for i in range(n)]
    if opposite_product:
        base = H.antipode_inverse()
    else:
        base = H.antipode
    antipode = base.transpose()
    Hd = HopfAlgebra(DA, comult, counit, antipode, name=DA.name)
    return Hd


def tensor_hopf(H1: HopfAlgebra, H2: HopfAlgebra) -> HopfAlgebra:
    """Tensor product Hopf algebra with componentwise structure (a-major):
    Delta(e_i ox e_j) is Delta(e_i) ox Delta(e_j) with both coproducts
    taken as matrices, and S = S_1 ox S_2."""
    from .algcore import tensor_algebra
    A = tensor_algebra(H1.algebra, H2.algebra)
    comult = [TensorElement(A, 2, kron_into({}, SparseMatrix(H1.dim, H1.dim, d1.coeffs),
                                            SparseMatrix(H2.dim, H2.dim, d2.coeffs)))
              for d1 in H1.comult for d2 in H2.comult]
    counit = [a * b for a in H1.counit for b in H2.counit]
    antipode = SparseMatrix(A.dim, A.dim, kron_into({}, H1.antipode, H2.antipode))
    return HopfAlgebra(A, comult, counit, antipode,
                       name="%s(x)%s" % (H1.name, H2.name))


@lru_cache(maxsize=None)
def bk_inclusion(l: int, k: int) -> AlgebraMap:
    """Hopf inclusion B_k -> B_{l+k}, g -> g and x_i -> x_{l+i}."""
    Hs = build_bk(k)
    Ht = build_bk(l + k)
    cols = []
    for idx in range(Hs.dim):
        mask, t = idx & ((1 << k) - 1), idx >> k
        cols.append({(mask << l) | (t << (l + k)): FR1})
    return AlgebraMap(Hs.algebra, Ht.algebra, cols, name="B_%d->B_%d" % (k, l + k))


def is_hopf_map(imap: AlgebraMap, Hs: HopfAlgebra, Ht: HopfAlgebra) -> list:
    """Check an algebra map also preserves Delta, eps and S."""
    report = imap.verify()
    incl = SparseMatrix.from_columns(Ht.dim, imap.columns)
    incl_t = incl.transpose()
    for i in range(Hs.dim):
        img = imap.apply_basis(i)
        # (i ox i) Delta(e_i) = I C I^T, C = Delta(e_i) taken as a matrix
        rhs = incl.matmul(SparseMatrix(Hs.dim, Hs.dim, Hs.comult[i].coeffs)).matmul(incl_t)
        if Ht.comult_vec(img) != TensorElement(Ht.algebra, 2, rhs.entries):
            report.append("coproduct not preserved at %s" % Hs.algebra.labels[i])
        if Ht.counit_vec(img) != Hs.counit[i]:
            report.append("counit not preserved at %s" % Hs.algebra.labels[i])
        if not vec_eq(Ht.antipode_vec(img), imap.apply(Hs.antipode_vec({i: FR1}))):
            report.append("antipode not preserved at %s" % Hs.algebra.labels[i])
    return report


def trivial_module(H: HopfAlgebra) -> ModuleRep:
    """The ground field through the counit."""
    return module_from_character(H.algebra, H.counit_row(), name="k(%s)" % H.name)


def bk_dual_generators(k: int) -> list:
    """The elements y_i = x_i* - (x_i g)* and h = 1* - g* of (B_k*)^op,
    as dual-coordinate vectors; they generate the dual algebra."""
    g_bit = 1 << k
    gens = []
    for i in range(k):
        gens.append({(1 << i): FR1, (1 << i) | g_bit: -1})
    gens.append({0: FR1, g_bit: -1})
    return gens


# ---------------------------------------------------------------------------
# catalog keys: "cyclic:n", "bk:k"

# largest parameters, both dimension 1024: structure constants cost ~dim^2 (B_9: 3 s)
CATALOG_MAX = {"cyclic": 1024, "bk": 9}

def catalog_hopf(key: str) -> HopfAlgebra:
    fam, _, arg = key.partition(":")
    try:
        n = int(arg)
    except ValueError:
        raise HopfError("catalog key %r needs an integer parameter, e.g. bk:2" % key)
    if fam not in CATALOG_MAX:
        raise HopfError("unknown catalog key %r" % key)
    if n > CATALOG_MAX[fam]:
        raise HopfError("%s is over the catalog bound %s:%d" % (key, fam, CATALOG_MAX[fam]))
    return build_cyclic(n) if fam == "cyclic" else build_bk(n)

