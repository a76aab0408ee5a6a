"""Drinfeld double D(H) = (H*)^op ox H and the attached coefficient modules.

The double's basis is the set of pairs phi^i h_j, ordered dual-major
(flat = i*dim(H) + j).  Products are computed from the straightening
relation

    h phi = (h(3) |> phi <| S(h(1))) h(2)

with the coregular actions (h |> f)(x) = f(x h), (f <| h)(x) = f(h x).
The coproduct is Delta(phi h) = phi(1) h(1) ox phi(2) h(2) where
phi(1)(x) phi(2)(y) = phi(xy).  The antipode is S(phi h) = S(h) S(phi),
the product of the images of the antipodes of H and (H*)^op under the two
embeddings; `verify_hopf` checks both antipode axioms on every basis
element, and antipodes are unique, so the check is a proof.  Only the
untwisted setting is supported: coefficient modules for restriction
functors insist on J = 1 ox 1.
"""

from __future__ import annotations

from .algcore import (Algebra, AlgebraMap, ModuleRep, _act_matrix, check_elements,
                      left_span, submodule_on_basis, verify_module)
from .exactlin import (FR0, FR1, SparseMatrix, TensorElement, _once, kernel_basis,
                       vec_addmul)
from .hopfcore import HopfAlgebra, HopfError, bk_dual_generators, dual_hopf, verify_hopf


class TwistNotSupportedError(HopfError):
    """Raised for Drinfeld twists other than 1 ox 1."""


class DoubleAlgebra:
    """D(H) with its Hopf structure and the two canonical embeddings."""

    def __init__(self, hopf: HopfAlgebra, base: HopfAlgebra, dual: HopfAlgebra,
                 inclusion_base: AlgebraMap, inclusion_dual: AlgebraMap):
        self.hopf = hopf
        self.base = base
        self.dual = dual
        self.inclusion_base = inclusion_base
        self.inclusion_dual = inclusion_dual
        # caches owned by this double, released with it and filled by
        # `_once`: the coefficient modules, keyed by their inputs, and for
        # relext "pair" ((D(H), H) as a resolvent pair), "trivial" and
        # "trivial_sq" (the trivial D(H)- and D(H) ox D(H)-modules)
        self._cache: dict = {}

    @property
    def algebra(self) -> Algebra:
        return self.hopf.algebra

    @property
    def dim(self) -> int:
        return self.hopf.dim

    def pair_index(self, i_dual: int, j_h: int) -> int:
        return i_dual * self.base.dim + j_h

    def split_index(self, flat: int):
        return divmod(flat, self.base.dim)

    def dual_part_basis(self) -> list:
        """The elements phi^i ox 1_H of D(H); a free right-H-module basis."""
        out = []
        for i in range(self.base.dim):
            vec: dict = {}
            for j, c in self.base.unit.items():
                vec[self.pair_index(i, j)] = c
            out.append(vec)
        return out

    def __repr__(self):
        return "DoubleAlgebra(D(%s), dim=%d)" % (self.base.name, self.dim)


def drinfeld_double(H: HopfAlgebra) -> DoubleAlgebra:
    """Build D(H) = (H*)^op ox H with full Hopf structure (cached on H);
    H (once: `verify_hopf` caches its report), the double and both
    embeddings are verified."""
    return _once(H._cache, "double", lambda: _double_build(H))


def _double_build(H: HopfAlgebra) -> DoubleAlgebra:
    rep = verify_hopf(H)
    if rep:
        raise HopfError("input of drinfeld_double fails Hopf axioms: %s" % rep[:3])
    n = H.dim
    dual = dual_hopf(H, opposite_product=True)
    H.antipode_inverse()  # force existence; S of a f.d. Hopf algebra is bijective

    # Delta^{(2)} of every basis element of H, as (a, b, c) -> coeff
    delta2 = [H.delta_power({j: FR1}, 3) for j in range(n)]

    # straighten[j][k] = h_j phi^k expanded as {(m_dual, b_h): coeff}
    # using (h(3) |> phi^k <| S(h(1)))(e_m) = phi^k(S(h(1)) e_m h(3))
    straighten = [dict() for _ in range(n)]
    for j in range(n):
        acc: dict = {}
        for (a, b, c), coef in delta2[j].coeffs.items():
            sa = H.antipode_vec({a: FR1})
            for m in range(n):
                right = H.mul_basis(m, c)
                if not right:
                    continue
                vec: dict = {}
                for p, cp in right.items():
                    for i, ci in sa.items():
                        vec_addmul(vec, H.mul_basis(i, p), ci * cp)
                for kk, ck in vec.items():
                    key = (kk, m, b)
                    acc[key] = acc.get(key, FR0) + coef * ck
        byk: dict = {}
        for (kk, m, b), v in acc.items():
            if v:
                byk.setdefault(kk, []).append((m, b, v))
        straighten[j] = byk

    dim = n * n
    labels = []
    for i in range(n):
        for j in range(n):
            labels.append("%s.%s" % (dual.algebra.labels[i], H.algebra.labels[j]))
    mult = {}
    dual_mult = dual.algebra.mult
    h_mult = H.algebra.mult
    for i in range(n):
        for j in range(n):
            for k in range(n):
                terms = straighten[j].get(k)
                if not terms:
                    continue
                for l in range(n):
                    # (phi^i h_j)(phi^k h_l) = phi^i (h_j phi^k) h_l
                    acc: dict = {}
                    for (m, b, c) in terms:
                        dprod = dual_mult.get((i, m))
                        if not dprod:
                            continue
                        hprod = h_mult.get((b, l))
                        if not hprod:
                            continue
                        for r, cr in dprod.items():
                            for s, cs in hprod.items():
                                flat = r * n + s
                                val = acc.get(flat, FR0) + c * cr * cs
                                if val:
                                    acc[flat] = val
                                else:
                                    acc.pop(flat, None)
                    if acc:
                        mult[(i * n + j, k * n + l)] = acc
    unit = {}
    for i, ci in dual.algebra.unit.items():
        for j, cj in H.algebra.unit.items():
            unit[i * n + j] = ci * cj
    gens = None
    if H.dual_generator_hint is not None and H.algebra.generators is not None:
        gens = []
        for g in H.dual_generator_hint:
            gens.append({i * n + j: ci * cj for i, ci in g.items()
                         for j, cj in H.algebra.unit.items()})
        for g in H.algebra.generators:
            gens.append({i * n + j: ci * cj for i, ci in dual.algebra.unit.items()
                         for j, cj in g.items()})
    DAlg = Algebra(dim, labels, mult, unit, generators=gens, name="D(%s)" % H.name)

    # coproduct: Delta_D(phi^i h_j) = sum m_{ab}^i Delta(h_j)_{(c,d)}
    #            (phi^a h_c) ox (phi^b h_d)
    comult = []
    for i in range(n):
        for j in range(n):
            cc: dict = {}
            for (a, b), vmap in H.algebra.mult.items():
                ci = vmap.get(i)
                if not ci:
                    continue
                for (c, d), cd in H.comult[j].coeffs.items():
                    key = (a * n + c, b * n + d)
                    s = cc.get(key, FR0) + ci * cd
                    if s:
                        cc[key] = s
                    else:
                        cc.pop(key, None)
            comult.append(TensorElement(DAlg, 2, cc))
    counit = []
    for i in range(n):
        for j in range(n):
            counit.append(H.algebra.unit.get(i, FR0) * H.counit[j])

    incl_base = AlgebraMap(H.algebra, DAlg,
                           [{i * n + j: ci for i, ci in dual.algebra.unit.items()}
                            for j in range(n)], name="H->D(H)")
    incl_dual = AlgebraMap(dual.algebra, DAlg,
                           [{i * n + j: cj for j, cj in H.algebra.unit.items()}
                            for i in range(n)], name="H*op->D(H)")
    # S is an anti-algebra map and both embeddings are bialgebra maps
    s_base = [incl_base.apply(H.antipode_vec({j: FR1})) for j in range(n)]
    s_dual = [incl_dual.apply(dual.antipode_vec({i: FR1})) for i in range(n)]
    antipode = SparseMatrix.from_columns(dim, [DAlg.mul_vec(s_base[j], s_dual[i])
                                               for i in range(n) for j in range(n)])
    Dhopf = HopfAlgebra(DAlg, comult, counit, antipode, name=DAlg.name)
    D = DoubleAlgebra(Dhopf, H, dual, incl_base, incl_dual)
    rep = verify_hopf(Dhopf)
    if rep:
        raise HopfError("constructed double fails Hopf axioms: %s" % rep[:3])
    for emb in (incl_base, incl_dual):
        rep = emb.verify()
        if rep:
            raise HopfError("embedding %s fails: %s" % (emb.name, rep[:3]))
    return D


# ---------------------------------------------------------------------------
# the l+ / l- maps attached to an R-matrix

def ell_plus(H: HopfAlgebra, R: TensorElement, alpha: dict) -> dict:
    """(id ox alpha)(R) for a dual functional alpha."""
    out: dict = {}
    for (a, b), c in R.coeffs.items():
        f = alpha.get(b)
        if f:
            s = out.get(a, FR0) + c * f
            if s:
                out[a] = s
            else:
                out.pop(a, None)
    return out


def ell_minus(H: HopfAlgebra, Rinv: TensorElement, beta: dict) -> dict:
    """(beta ox id)(R^{-1})."""
    out: dict = {}
    for (a, b), c in Rinv.coeffs.items():
        f = beta.get(a)
        if f:
            s = out.get(b, FR0) + c * f
            if s:
                out[b] = s
            else:
                out.pop(b, None)
    return out


def ell_maps(D: DoubleAlgebra, R: TensorElement, Rinv: TensorElement):
    """The algebra maps D(H) -> H, phi h -> l+(phi) h and phi h -> l-(phi) h."""
    H = D.base
    n = H.dim
    plus_cols = []
    minus_cols = []
    for flat in range(D.dim):
        i, j = D.split_index(flat)
        lp = ell_plus(H, R, {i: FR1})
        lm = ell_minus(H, Rinv, {i: FR1})
        plus_cols.append(H.mul_vec(lp, {j: FR1}))
        minus_cols.append(H.mul_vec(lm, {j: FR1}))
    pi_plus = AlgebraMap(D.algebra, H.algebra, plus_cols, name="ell+(D->H)")
    pi_minus = AlgebraMap(D.algebra, H.algebra, minus_cols, name="ell-(D->H)")
    return pi_plus, pi_minus


# ---------------------------------------------------------------------------
# coefficient modules

class CoefficientModule:
    """A module of functionals together with its provenance tag."""

    def __init__(self, module: ModuleRep, provenance: str):
        self.module = module
        self.provenance = provenance

    def __repr__(self):
        return "CoefficientModule(%s, dim=%d)" % (self.provenance, self.module.dim)


def coeff_tensor_product(D: DoubleAlgebra, R: TensorElement, Rinv: TensorElement,
                         E: Algebra) -> CoefficientModule:
    """H* as a module over E = D(H) ox D(H):

        (alpha a ox beta b) . psi = l-(beta) b |> psi <| S(l+(alpha) a).
    """
    return _once(D._cache, ("tensor", E, tuple(sorted(R.flat().items()))),
                 lambda: _coeff_tensor_build(D, R, Rinv, E))


def _coeff_tensor_build(D: DoubleAlgebra, R: TensorElement, Rinv: TensorElement,
                        E: Algebra) -> CoefficientModule:
    H = D.base
    n = H.dim
    nd = D.dim
    assert E.dim == nd * nd

    # precompute, per D-basis element, the H-elements l+(phi)h and l-(phi)h
    pi_plus, pi_minus = ell_maps(D, R, Rinv)
    s_plus = [H.antipode_vec(pi_plus.apply_basis(t)) for t in range(nd)]
    m_minus = [pi_minus.apply_basis(t) for t in range(nd)]

    def action(flat):
        t1, t2 = divmod(flat, nd)
        u = m_minus[t2]       # acts by |>
        v = s_plus[t1]        # acts by <|
        ent = {}
        # new psi'_m = (u |> psi <| v)(e_m) = psi(v e_m u) = sum_r [v e_m u]_r psi_r
        for m in range(n):
            vec: dict = {}
            for i, ci in v.items():
                mid = H.mul_basis(i, m)
                for p, cp in mid.items():
                    for j, cj in u.items():
                        vec_addmul(vec, H.mul_basis(p, j), ci * cp * cj)
            for r, c in vec.items():
                ent[(m, r)] = c
        return SparseMatrix(n, n, ent)

    mod = ModuleRep(E, n, action_fn=action, name="H*-coeff(ox)")
    rep = verify_module(mod)
    if rep:
        raise HopfError("tensor coefficient module fails axioms: %s" % rep[:3])
    return CoefficientModule(mod, "tensor_product_coeff")


def coeff_restriction(D: DoubleAlgebra, imap: AlgebraMap, Hs: HopfAlgebra,
                      twist=None) -> CoefficientModule:
    """Hom_K(H, k) = {f in H*: f <| i(k) = eps(k) f} as a D(H)-module:

        <(phi h).f, x> = phi(S(x(1)) x(3)) f(x(2) h).

    Only the trivial twist is supported; the Hopf-inclusion property of
    `imap` is verified.
    """
    if twist is not None:
        H = D.base
        if twist != _unit_twist(H):
            raise TwistNotSupportedError("only the trivial twist 1 ox 1 is supported")
    return _once(D._cache, ("restriction", imap), lambda: _coeff_restriction_build(D, imap, Hs))


def _coeff_restriction_build(D: DoubleAlgebra, imap: AlgebraMap,
                             Hs: HopfAlgebra) -> CoefficientModule:
    from .hopfcore import is_hopf_map
    H = D.base
    n = H.dim
    rep = is_hopf_map(imap, Hs, H)
    if rep:
        raise HopfError("restriction inclusion is not a Hopf map: %s" % rep[:3])

    # subspace {f : f(i(k) x) = eps_K(k) f(x)} of H*, for k in
    # `check_elements`: the k with that property form a subalgebra
    rows = []
    for k, _ in check_elements(Hs.algebra):
        ik = imap.apply(k)
        epsk = Hs.counit_vec(k)
        for m in range(n):
            rows.append(vec_addmul(H.mul_vec(ik, {m: FR1}), {m: FR1}, -epsk))
    basis = kernel_basis(rows, n)
    delta2 = [H.delta_power({m: FR1}, 3) for m in range(n)]

    def act_row(flat, f):
        """(phi^i h_j) . f evaluated as a new functional on H."""
        i, j = D.split_index(flat)
        out: dict = {}
        for m in range(n):
            s = FR0
            for (a, b, c), coef in delta2[m].coeffs.items():
                # phi^i(S(e_a) e_c) f(e_b h_j)
                sa = H.antipode_vec({a: FR1})
                w: dict = {}
                for p, cp in sa.items():
                    vec_addmul(w, H.mul_basis(p, c), cp)
                phi_val = w.get(i)
                if not phi_val:
                    continue
                fv = FR0
                for q, cq in H.mul_basis(b, j).items():
                    fq = f.get(q)
                    if fq is not None:
                        fv += cq * fq
                s += coef * phi_val * fv
            if s:
                out[m] = s
        return out

    mod = submodule_on_basis(D.algebra, basis, act_row, name="Hom_K(H,k)")
    rep = verify_module(mod)
    if rep:
        raise HopfError("restriction coefficient module fails axioms: %s" % rep[:3])
    return CoefficientModule(mod, "restriction_coeff")


def _unit_twist(H: HopfAlgebra) -> TensorElement:
    from .exactlin import unit_tensor
    return unit_tensor(H.algebra, 2)


def center_module_from_rmatrix(D: DoubleAlgebra, R: TensorElement, Rinv: TensorElement,
                               M: ModuleRep, variant: str) -> ModuleRep:
    """Promote an H-module to a D(H)-module along an R-matrix.

    variant "braiding":         pullback along phi h -> l+(phi) h
    variant "inverse_braiding": pullback along phi h -> l-(phi) h
    variant "dual_braiding":    on M*, <(phi h).f, x> = <f, S(l+(phi) h) x>
    """
    H = D.base
    if M.algebra is not H.algebra:
        raise HopfError("module is not over the base Hopf algebra")
    pi_plus, pi_minus = ell_maps(D, R, Rinv)
    if variant == "braiding":
        pi = pi_plus
    elif variant == "inverse_braiding":
        pi = pi_minus
    elif variant == "dual_braiding":
        pi = pi_plus
    else:
        raise HopfError("unknown variant %r" % variant)

    if variant in ("braiding", "inverse_braiding"):
        mod = ModuleRep(D.algebra, M.dim,
                        action_fn=lambda flat: _act_matrix(M, pi.apply_basis(flat)),
                        name="center(%s,%s)" % (M.name, variant))
    else:
        def action(flat):
            return _act_matrix(M, H.antipode_vec(pi.apply_basis(flat))).transpose()
        mod = ModuleRep(D.algebra, M.dim, action_fn=action,
                        name="center(%s,dual)" % M.name)
    rep = verify_module(mod)
    if rep:
        raise HopfError("center module fails axioms: %s" % rep[:3])
    return mod


def build_c_pm(D: DoubleAlgebra, sign: int) -> ModuleRep:
    """The D(B_k)-modules C_+ / C_-: free cyclic duals with x_i acting by 0
    and g acting as h = 1* - g*."""
    H = D.base
    n = H.dim
    k = n.bit_length() - 2  # dim = 2^{k+1}
    assert (1 << (k + 1)) == n, "C_pm requires a B_k base"
    g_bit = 1 << k
    assert sign in (1, -1)
    # f_+ = 1*, f_- = g* as dual coordinates
    f0 = {0: FR1} if sign == 1 else {g_bit: FR1}
    dual = D.dual

    # closure of f0 under left multiplication in (B_k*)^op
    basis = left_span(dual.algebra, f0, [{i: FR1} for i in range(n)])
    h_vec = bk_dual_generators(k)[-1]  # h = 1* - g*

    def act(flat, b):
        i, j = D.split_index(flat)
        # rho(phi^i h_j) = rho_dual(phi^i) rho_H(h_j); x-letters kill, g acts as h
        mask, t = j & ((1 << k) - 1), j >> k
        if mask:
            return {}
        mult_elt = dual.algebra.mul_vec({i: FR1}, h_vec) if t else {i: FR1}
        return dual.algebra.mul_vec(mult_elt, b)

    mod = submodule_on_basis(D.algebra, basis, act,
                             name="C%s(B_%d)" % ("+" if sign == 1 else "-", k))
    rep = verify_module(mod)
    if rep:
        raise HopfError("C_pm fails module axioms: %s" % rep[:3])
    return mod
