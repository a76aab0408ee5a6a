"""Drinfeld double D(H) = (H*)^op ox H and the attached coefficient modules.

The double's basis is the set of pairs phi^i h_j, ordered dual-major
(flat = i*dim(H) + j).  Products come from the straightening relation

    h phi = (h(3) |> phi <| S(h(1))) h(2)

with the coregular actions (h |> f)(x) = f(x h), (f <| h)(x) = f(h x),
which on dual coordinates are R_h^T and L_h^T, the transposed right and
left multiplication matrices of H.  Every Hopf-side action here is a
product of such matrices: the left multiplications of D(H), the tensor
and restriction coefficient modules and the l+/l- maps.
The coproduct is Delta(phi h) = phi(1) h(1) ox phi(2) h(2) where
phi(1)(x) phi(2)(y) = phi(xy).  The antipode is S(phi h) = S(h) S(phi),
the product of the images of the antipodes of H and (H*)^op under the two
embeddings; `verify_hopf` checks both antipode axioms on every basis
element, and antipodes are unique, so the check is a proof.  Only the
untwisted setting is supported: coefficient modules for restriction
functors use J = 1 ox 1.
"""

from __future__ import annotations

from .algcore import (Algebra, AlgebraMap, ModuleRep, check_elements, matrix_sum,
                      submodule_on_basis, verify_module)
from .exactlin import (FR0, FR1, SparseMatrix, TensorElement, _once, kernel_basis,
                       kron_into, vec_addmul, vec_kron)
from .hopfcore import HopfAlgebra, HopfError, dual_hopf, verify_hopf
from .rmatrix import RMatrixError, check_rmatrix


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

    def split_index(self, flat: int):
        return divmod(flat, self.base.dim)

    def dual_part_basis(self) -> list:
        """The elements phi^i ox 1_H of D(H), the images of the dual basis
        under the dual embedding; a free right-H-module basis."""
        return list(self.inclusion_dual.columns)

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

    labels = ["%s.%s" % (di, hj) for di in dual.algebra.labels for hj in H.algebra.labels]
    eps, one = dual.algebra.unit, H.algebra.unit
    gens = None
    if H.dual_generator_hint is not None and H.algebra.generators is not None:
        gens = ([vec_kron(g, one, n) for g in H.dual_generator_hint]
                + [vec_kron(eps, g, n) for g in H.algebra.generators])
    DAlg = Algebra(n * n, labels, _double_mult(H, dual), vec_kron(eps, one, n),
                   generators=gens, name="D(%s)" % H.name)

    # Delta_D(phi^i h_j) = Delta(phi^i) Delta(h_j) = sum m_{ab}^i Delta(h_j)_{(c,d)}
    # (phi^a h_c) ox (phi^b h_d): the two coproducts taken as matrices, tensored
    comult = [TensorElement(DAlg, 2, kron_into({}, SparseMatrix(n, n, dual.comult[i].coeffs),
                                               SparseMatrix(n, n, H.comult[j].coeffs)))
              for i in range(n) for j in range(n)]
    counit = [a * b for a in dual.counit for b in H.counit]
    incl_base = AlgebraMap(H.algebra, DAlg, [vec_kron(eps, {j: FR1}, n) for j in range(n)],
                           name="H->D(H)")
    incl_dual = AlgebraMap(dual.algebra, DAlg, [vec_kron({i: FR1}, one, n) for i in range(n)],
                           name="H*op->D(H)")
    # S is an anti-algebra map and both embeddings are bialgebra maps
    s_base = [incl_base.apply(H.antipode_vec({j: FR1})) for j in range(n)]
    s_dual = [incl_dual.apply(dual.antipode_vec({i: FR1})) for i in range(n)]
    antipode = SparseMatrix.from_columns(n * n, [DAlg.mul_vec(s_base[j], s_dual[i])
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


def _double_mult(H: HopfAlgebra, dual: HopfAlgebra) -> dict:
    """Structure constants of D(H), read from the left multiplications

        L_{phi^i h_j} = (L*_i ox 1) M_j,
        M_j = sum_{(a,b,c) in Delta^(2)(h_j)} c (L_{S(e_a)} R_{e_c})^T ox L_{e_b},

    with L* the multiplication of (H*)^op.  M_j is the straightening
    h_j phi^k = sum phi^m h_b: the coefficient of phi^m in
    h(3) |> phi^k <| S(h(1)) is phi^k(S(h(1)) e_m h(3)) = (L_{S(e_a)} R_{e_c})[k, m].
    """
    n, A = H.dim, H.algebra
    left_s = [matrix_sum(A.left_mult_matrix, H.antipode_vec({a: FR1}), n) for a in range(n)]
    one = SparseMatrix.identity(n)
    mult: dict = {}
    for j in range(n):
        ent: dict = {}
        for (a, b, c), coef in H.delta_power({j: FR1}, 3).coeffs.items():
            kron_into(ent, left_s[a].matmul(A.right_mult_matrix(c)).transpose(),
                      A.left_mult_matrix(b), scale=coef)
        straighten = SparseMatrix(n * n, n * n, ent)
        for i in range(n):
            dual_left = SparseMatrix(n * n, n * n,
                                     kron_into({}, dual.algebra.left_mult_matrix(i), one))
            for (r, col), c in dual_left.matmul(straighten).entries.items():
                mult.setdefault((i * n + j, col), {})[r] = c
    return mult


# ---------------------------------------------------------------------------
# the l+ / l- maps attached to an R-matrix

def ell_plus(R: TensorElement, alpha: dict) -> dict:
    """(id ox alpha)(R) for a dual functional alpha."""
    return {a: c for (a,), c in R.contract_at(1, alpha).coeffs.items()}


def ell_minus(Rinv: TensorElement, beta: dict) -> dict:
    """(beta ox id)(R^{-1})."""
    return {b: c for (b,), c in Rinv.contract_at(0, beta).coeffs.items()}


def ell_maps(D: DoubleAlgebra, R: TensorElement):
    """The algebra maps D(H) -> H, phi h -> l+(phi) h and phi h -> l-(phi) h.

    R^{-1} is the inverse that `check_rmatrix` certifies; an unverified R
    raises RMatrixError.  The images of phi^i h_j, j = 0..dim H - 1, are
    the columns of L_{l(phi^i)}.
    """
    H = D.base
    rep = check_rmatrix(H, R)
    if not rep.verified:
        raise RMatrixError("ell maps need a verified R-matrix: %s" % rep.witnesses[:3])
    n, A = H.dim, H.algebra

    def as_map(ell, name):
        return AlgebraMap(D.algebra, A, [
            col for i in range(n)
            for col in matrix_sum(A.left_mult_matrix, ell({i: FR1}), n).columns()], name=name)

    return (as_map(lambda a: ell_plus(R, a), "ell+(D->H)"),
            as_map(lambda b: ell_minus(rep.inverse, b), "ell-(D->H)"))


# ---------------------------------------------------------------------------
# coefficient modules

class CoefficientModule:
    """A module of functionals together with its provenance tag."""

    def __init__(self, module: ModuleRep, provenance: str):
        self.module = module
        self.provenance = provenance

    def __repr__(self):
        return "CoefficientModule(%s, dim=%d)" % (self.provenance, self.module.dim)


def coeff_tensor_product(D: DoubleAlgebra, R: TensorElement, E: Algebra) -> CoefficientModule:
    """H* as a module over E = D(H) ox D(H):

        (alpha a ox beta b) . psi = l-(beta) b |> psi <| S(l+(alpha) a),

    that is psi -> psi(v . u) with v = S(l+(alpha) a), u = l-(beta) b: the
    matrix (L_v R_u)^T.
    """
    return _once(D._cache, ("tensor", E, tuple(sorted(R.flat().items()))),
                 lambda: _coeff_tensor_build(D, R, E))


def _coeff_tensor_build(D: DoubleAlgebra, R: TensorElement, E: Algebra) -> CoefficientModule:
    H = D.base
    n, nd, A = H.dim, D.dim, H.algebra
    assert E.dim == nd * nd
    pi_plus, pi_minus = ell_maps(D, R)
    lefts = [matrix_sum(A.left_mult_matrix, H.antipode_vec(pi_plus.apply_basis(t)), n)
             for t in range(nd)]
    rights = [matrix_sum(A.right_mult_matrix, pi_minus.apply_basis(t), n) for t in range(nd)]

    def action(flat):
        t1, t2 = divmod(flat, nd)
        return lefts[t1].matmul(rights[t2]).transpose()

    mod = ModuleRep(E, n, action_fn=action, name="H*-coeff(ox)")
    rep = verify_module(mod)
    if rep:
        raise HopfError("tensor coefficient module fails axioms: %s" % rep[:3])
    return CoefficientModule(mod, "tensor_product_coeff")


def coeff_restriction(D: DoubleAlgebra, imap: AlgebraMap, Hs: HopfAlgebra) -> CoefficientModule:
    """Hom_K(H, k) = {f in H*: f <| i(k) = eps(k) f} as a D(H)-module:

        <(phi h).f, x> = phi(S(x(1)) x(3)) f(x(2) h).

    Only the trivial twist J = 1 ox 1 is implemented; the Hopf-inclusion
    property of `imap` is verified.
    """
    return _once(D._cache, ("restriction", imap), lambda: _coeff_restriction_build(D, imap, Hs))


def _coeff_restriction_build(D: DoubleAlgebra, imap: AlgebraMap,
                             Hs: HopfAlgebra) -> CoefficientModule:
    from .hopfcore import is_hopf_map
    H = D.base
    n, A = H.dim, H.algebra
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

    # phi^i h_j acts on H* by T_i R_{h_j}^T: f -> f(- h_j), then
    # T_i[m, b] = sum_{(a,b,c) in Delta^(2)(e_m)} c [S(e_a) e_c]_i
    tabs = [dict() for _ in range(n)]
    for m in range(n):
        for (a, b, c), coef in H.delta_power({m: FR1}, 3).coeffs.items():
            for i, x in A.right_mult_matrix(c).mul_vec(H.antipode_vec({a: FR1})).items():
                tabs[i][(m, b)] = tabs[i].get((m, b), FR0) + coef * x
    T = [SparseMatrix(n, n, t) for t in tabs]

    def action(flat):
        i, j = D.split_index(flat)
        return T[i].matmul(A.right_mult_matrix(j).transpose())

    hstar = ModuleRep(D.algebra, n, action_fn=action, name="H*")
    mod = submodule_on_basis(D.algebra, basis, hstar.act_basis, name="Hom_K(H,k)")
    rep = verify_module(mod)
    if rep:
        raise HopfError("restriction coefficient module fails axioms: %s" % rep[:3])
    return CoefficientModule(mod, "restriction_coeff")

