"""Relative homological algebra for an algebra inclusion B -> A.

Induction along the inclusion is left adjoint to restriction, and the
comonad G = Ind o Res yields two relatively projective allowable
resolutions of any A-module V:

  bar resolution        P_n = G^{n+1}(V),  d_n = sum (-1)^i G^{n-i}(eps_{G^i V})
  iterated-cover        K_0 = V, P_n = G(K_n) --eps--> K_n,
                        K_{n+1} = ker(eps), d_n = incl o eps

Each term P = Ind X is an `algcore.InducedModule` on the pair's free
A-basis over B.  Its section S : P -> A ox X and class map Q : A ox X -> P
are the only access to it: every map on a term is one product
`induced_map(left, P, f)` = left (1 ox f) S, with left = Q of another term
or the evaluation E_M(a ox m) = a.m of a module M:

  counit       eps_M = E_M S
  bar          d_n = Q_{n-1} (1 ox d_{n-1}) S_n + (-1)^n E_{P_{n-1}} S_n
  Ext cochain  E_W (1 ox g) S for a mate g : X -> Res W
  unit         eta = Q (1 ox 1) : X -> P, x -> [1 ox x] (`InducedModule.unit`)

Both kinds come with contracting homotopies h built from the adjunction
unit (`Resolution.homotopies`), and so does the tensor product of two
resolutions over a tensor pair (`TensorResolution`).
`verify_resolution` certifies either kind exactly: d o d = 0, A-linear
d, d h + h d = id and B-linear h.  A B-linear contracting homotopy proves
exactness and B-splitness at once (Hochschild, "Relative homological
algebra", Trans. AMS 82, 1956), so neither is assumed.  A tensor product
is certified on its total complex and through its factor resolutions.

Relative Ext of (V, W) is the cohomology of Hom_A(P_*, W).  Each cochain
space is computed through the adjunction mate Hom_A(Ind(X), W) =
Hom_B(X, Res W), which keeps the intertwiner systems at the size of the
small algebra; the resulting bases are converted back to genuine
A-intertwiners on the terms, so differentials are plain precompositions
with d.  The kernel of delta^n never needs the next term: an A-linear
cochain on P_n is a cocycle iff it vanishes on A-module generators of
im d_{n+1}, which are the K_{n+1} basis (cover) or the images
d_{n+1}[1 ox p] = [1 ox d_n(p)] + (-1)^{n+1} p (bar).
"""

from __future__ import annotations

import threading

from .algcore import (Algebra, AlgebraMap, ModuleRep, _act_matrix, check_elements,
                      evaluation, free_rewrite, hom_space, induced_map, induced_module,
                      module_from_character, restrict_module, submodule_on_basis,
                      tensor_algebra, tensor_module, verify_module)
from .exactlin import (FR1, BudgetExceededError, SparseMatrix, _once, fr_vec,
                       kernel_basis_marked, kron_into, rank_of_rows, vec_kron)


class RelextError(Exception):
    pass


class ResolventPair:
    """An algebra inclusion B -> A with a free A-basis over B.  The basis is
    certified when its rewrite table is first built (`rewrite_table` raises
    AlgebraError unless A is free over B on it).  Nothing here verifies the
    inclusion: `drinfeld_double` verifies the embedding that
    `pair_from_double` takes, and `tensor_pair` takes i_1 ox i_2."""

    def __init__(self, big: Algebra, small: Algebra, inclusion: AlgebraMap,
                 free_basis: list, name=""):
        assert inclusion.source is small and inclusion.target is big
        self.big = big
        self.small = small
        self.inclusion = inclusion
        self.free_basis = [fr_vec(u) for u in free_basis]
        self.name = name or "(%s <= %s)" % (big.name, small.name)
        self._tensor: dict = {}       # tensor_pair(self, p2), keyed by p2
        self._products: dict = {}     # product_module(V, V'), keyed by (V, V')
        self._rewrite: dict = {}      # "table": free_rewrite(inclusion, free_basis)
        self._resolutions: dict = {}  # keyed by (V, kind)
        self._lock = threading.Lock()  # guards _resolutions and their growth

    def rewrite_table(self):
        """The free basis with its rewrite table (`algcore.free_rewrite`, the
        table built once), as `induced_module` takes them."""
        return self.free_basis, _once(self._rewrite, "table",
                                      lambda: free_rewrite(self.inclusion, self.free_basis))

    def product_module(self, V: ModuleRep, Vp: ModuleRep) -> ModuleRep:
        """V ox V' over `big` = A1 ox A2 of a tensor pair, built once per
        (V, V'), so that its resolutions and Ext data are found again."""
        return _once(self._products, (V, Vp), lambda: tensor_module(V, Vp, self.big))

    def __repr__(self):
        return "ResolventPair%s" % self.name


def pair_from_double(D) -> ResolventPair:
    """(D(H), H) along the canonical embedding, with the dual free basis
    (cached on D)."""
    return _once(D._cache, "pair", lambda: ResolventPair(
        D.algebra, D.base.algebra, D.inclusion_base, free_basis=D.dual_part_basis(),
        name="(D(%s), %s)" % (D.base.name, D.base.name)))


def trivial_module_over(D) -> ModuleRep:
    """The trivial D(H)-module through the counit of the double (cached on D)."""
    return _once(D._cache, "trivial", lambda: module_from_character(
        D.algebra, {i: c for i, c in enumerate(D.hopf.counit) if c}, name="k"))


def tensor_pair(p1: ResolventPair, p2: ResolventPair) -> ResolventPair:
    """The tensor-product pair (A1 ox A2, B1 ox B2) (cached on p1)."""
    return _once(p1._tensor, p2, lambda: _tensor_pair_build(p1, p2))


def _tensor_pair_build(p1: ResolventPair, p2: ResolventPair) -> ResolventPair:
    big = tensor_algebra(p1.big, p2.big)
    small = tensor_algebra(p1.small, p2.small)
    incl = AlgebraMap(small, big, SparseMatrix(big.dim, small.dim, kron_into(
        {}, p1.inclusion.matrix, p2.inclusion.matrix)), name="incl(x)incl")
    free = [vec_kron(u, v, p2.big.dim) for u in p1.free_basis for v in p2.free_basis]
    return ResolventPair(big, small, incl, free,
                         name="(%s)(x)(%s)" % (p1.name, p2.name))


class Resolution:
    """A relatively projective resolution of V up to a degree budget.

    terms[n] is P_n (an InducedModule over pair.big); diffs[0] is the
    augmentation P_0 -> V and diffs[n] is d_n : P_n -> P_{n-1}.  For the
    cover kind, kernels[n] holds the K_n basis inside P_{n-1} (K_0 = V) and
    kernel_modules[n] the corresponding submodule representation.
    """

    def __init__(self, pair: ResolventPair, target: ModuleRep, kind: str):
        self.pair = pair
        self.target = target
        self.kind = kind
        self.terms: list = []
        self.diffs: list = []
        self.sources: list = []        # the B-modules the terms were induced from
        self.eps_matrices: list = []   # cover: the counit epis P_n -> K_n
        self.kernel_modules: list = [target]  # cover: K_0 = V
        self.kernel_bases: list = [None]      # cover: K_n basis vectors in P_{n-1}
        self.kernel_markers: list = [None]    # free coordinates of those bases
        self._res_small: dict = {}
        self._generators: dict = {}   # n -> image_generators(n)
        # (W, n) -> Hom_A(P_n, W) basis, (W, n, "ker") -> kernel_dim_top(n)
        self._ext: dict = {}

    @property
    def maxdeg(self) -> int:
        return len(self.terms) - 1

    def res_small(self, M: ModuleRep) -> ModuleRep:
        return _once(self._res_small, M, lambda: restrict_module(self.pair.inclusion, M))

    def image_generators(self, n: int) -> SparseMatrix:
        """G^T, row k the k-th A-module generator g_k of im d_{n+1} in P_n,
        built once per degree: the K_{n+1} basis (cover), or the images
        d_{n+1}[1 ox p] = [1 ox d_n(p)] + (-1)^{n+1} p, one per basis vector
        p of P_n, since the [1 ox p] generate P_{n+1} = Ind(Res P_n) (bar)."""
        def build():
            if self.kind == "cover":
                return SparseMatrix.from_columns(self.terms[n].dim,
                                                 self.kernel_bases[n + 1]).transpose()
            one = SparseMatrix.identity(self.terms[n].dim)   # eta d_n + (-1)^{n+1}
            return self.terms[n].unit().matmul(self.diffs[n]).add(
                one if n % 2 else one.scale(-FR1)).transpose()
        return _once(self._generators, n, build)

    def homotopies(self) -> list:
        """B-linear maps [h_{-1}, h_0, ..., h_{maxdeg-1}] with d h + h d = id,
        from the adjunction unit eta_n : X_n -> P_n = Ind(X_n):

        bar:   h_n = (-1)^{n+1} eta_{n+1}
        cover: h_n(p) = eta_{n+1}(p - eta_n eps_n p), the unit applied to the
               K_{n+1}-component of p in kernel-basis coordinates.
        verify_resolution checks the identities and B-linearity exactly.
        """
        out = [self.terms[0].unit()]   # V -> P_0
        for n in range(self.maxdeg):
            eta_next = self.terms[n + 1].unit()
            if self.kind == "bar":
                out.append(eta_next.scale(FR1 if n % 2 else -FR1))
                continue
            # p - eta_n eps_n p lies in K_{n+1}, and its kernel-basis
            # coordinates are its entries at the markers
            term = self.terms[n]
            markers = self.kernel_markers[n + 1]
            read = SparseMatrix(len(markers), term.dim,
                                {(j, f): FR1 for j, f in enumerate(markers)})
            out.append(eta_next.matmul(read.add(
                read.matmul(term.unit()).matmul(self.eps_matrices[n]).scale(-FR1))))
        return out


def _extend_bar(res: Resolution, upto: int):
    pair = res.pair
    while res.maxdeg < upto:
        n = res.maxdeg + 1
        base = res.target if n == 0 else res.terms[n - 1]
        X = res.res_small(base)
        P = induced_module(pair.inclusion, X, pair.rewrite_table(), name="bar%d" % n)
        eps = induced_map(evaluation(base), P)
        if n == 0:
            d = eps
        else:   # G(d_{n-1}) + (-1)^n eps_{P_{n-1}}
            d = induced_map(base.classes, P, f=res.diffs[n - 1]).add(
                eps if n % 2 == 0 else eps.scale(-FR1))
        # a degree is published whole, so an exception above leaves res as it was
        res.sources.append(X)
        res.diffs.append(d)
        res.terms.append(P)


def _extend_cover(res: Resolution, upto: int):
    pair = res.pair
    while res.maxdeg < upto:
        n = res.maxdeg + 1
        K = res.kernel_modules[n]
        X = res.res_small(K)
        P = induced_module(pair.inclusion, X, pair.rewrite_table(), name="cover%d" % n)
        eps = induced_map(evaluation(K), P)
        d = eps if n == 0 else SparseMatrix.from_columns(
            res.terms[n - 1].dim, res.kernel_bases[n]).matmul(eps)
        kbasis, kmarkers = kernel_basis_marked(eps.row_dicts(), eps.cols)
        Knext = submodule_on_basis(P, kbasis, kmarkers, name="K%d" % (n + 1))
        # a degree is published whole, so an exception above leaves res as it was
        res.sources.append(X)
        res.eps_matrices.append(eps)
        res.diffs.append(d)
        res.kernel_bases.append(kbasis)
        res.kernel_markers.append(kmarkers)
        res.kernel_modules.append(Knext)
        res.terms.append(P)


def get_resolution(pair: ResolventPair, V: ModuleRep, kind: str, maxdeg: int) -> Resolution:
    """The `kind` ("bar" or "cover") resolution of V up to maxdeg, cached
    on the pair and extended on demand under the pair's lock, so that two
    threads never grow one resolution at the same time.  Its terms are
    induced on the pair's free basis."""
    if kind not in ("bar", "cover"):
        raise RelextError("unknown resolution kind %r" % kind)
    extend = _extend_bar if kind == "bar" else _extend_cover
    with pair._lock:
        res = pair._resolutions.get((V, kind))
        if res is None:
            res = pair._resolutions[(V, kind)] = Resolution(pair, V, kind)
        extend(res, maxdeg)
    return res


# ---------------------------------------------------------------------------
# verification

def verify_resolution(res) -> list:
    """Certify a Resolution or a TensorResolution up to res.maxdeg.

    Checks d o d = 0, that every d_n is A-linear, the module axioms of the
    terms when none exceeds dimension 600, and that the maps
    h_n = res.homotopies()[n + 1] : C_n -> P_{n+1} (C_{-1} = V, C_n = P_n)
    are B-linear and satisfy d_{n+1} h_n + h_{n-1} d_n = id on C_n for
    n = -1 .. maxdeg-1.  A B-linear contracting homotopy proves both that
    V <- P_0 <- ... <- P_maxdeg is exact up to P_{maxdeg-1} and that it
    splits over B, so the resolution is allowable for the pair
    (Hochschild, "Relative homological algebra", Trans. AMS 82, 1956).
    A- and B-linearity are checked on `check_elements` of A and B: the
    elements a with rho(a) f = f rho(a) form a subalgebra.  A
    TensorResolution instead certifies each factor (once if both are one
    object; its lines prefixed "factor k: "): term n is the sum of the
    P_i ox P'_j acting by rho_i(a) ox rho'_j(b), and a Kronecker product of
    module actions satisfies the module axioms when its factors do.
    """
    pair = res.pair
    acts = check_elements(pair.big)
    bacts = [(pair.inclusion.apply(b), name) for b, name in check_elements(pair.small)]

    def commutes(f, dom, cod, a):
        return _act_matrix(cod, a).matmul(f) == f.matmul(_act_matrix(dom, a))

    factors = dict.fromkeys(res.factors) if isinstance(res, TensorResolution) else {}
    report = ["factor %d: %s" % (k, line) for k, f in enumerate(factors, 1)
              for line in verify_resolution(f)]
    check_terms = not factors and max(t.dim for t in res.terms) <= 600
    chain = [res.target] + list(res.terms)   # chain[n + 1] = C_n
    for n, d in enumerate(res.diffs):
        if n and not res.diffs[n - 1].matmul(d).is_zero():
            report.append("d_%d o d_%d != 0" % (n - 1, n))
        for a, name in acts:
            if not commutes(d, chain[n + 1], chain[n], a):
                report.append("d_%d is not A-linear at %s" % (n, name))
                break
        if check_terms:
            rep = verify_module(res.terms[n])
            if rep:
                report.append("term P_%d fails module axioms: %s" % (n, rep[0]))
    h = res.homotopies()
    for k, hk in enumerate(h):   # hk = h_{k-1} : C_{k-1} -> P_k
        lhs = res.diffs[k].matmul(hk)
        if k:
            lhs = lhs.add(h[k - 1].matmul(res.diffs[k - 1]))
        if lhs != SparseMatrix.identity(chain[k].dim):
            report.append("d h + h d != id on C_%d" % (k - 1))
        for b, name in bacts:
            if not commutes(hk, chain[k], chain[k + 1], b):
                report.append("h_%d is not B-linear at %s" % (k - 1, name))
                break
    return report


# ---------------------------------------------------------------------------
# relative Ext

class ExtComputation:
    """Hom_A(P_*, W) with mate-computed cochain bases: a view onto the
    cochain data that the resolution keeps for W, so every computation on
    one (res, W) shares it."""

    def __init__(self, res: Resolution, W: ModuleRep):
        assert W.algebra is res.pair.big
        self.res = res
        self.W = W
        self.resW = res.res_small(W)

    def cochain_basis(self, n: int) -> list:
        """Basis of Hom_A(P_n, W) as full W.dim x P_n.dim matrices: the
        A-linear extensions E_W (1 ox g) S of the mates g : X_n -> Res W.
        Built once per (W, n) and kept on the resolution, keyed by W, so it
        lives as long as the resolution (and so the pair) does."""
        def build():
            left, term = evaluation(self.W), self.res.terms[n]
            return [induced_map(left, term, f=g)
                    for g in hom_space(self.res.sources[n], self.resW)]
        return _once(self.res._ext, (self.W, n), build)

    def kernel_dim_top(self, n: int) -> int:
        """dim ker delta^n, at every degree and for both resolution kinds.

        f in Hom_A(P_n, W) is a cocycle iff it vanishes on im d_{n+1}, and
        being A-linear it does so iff it vanishes on the A-module generators
        g_k of im d_{n+1} inside P_n (`Resolution.image_generators`), so
        P_{n+1} is never needed.  Each cochain is evaluated by walking its
        nonzeros: the (k, w) entry of G^T f^T is f(g_k)_w, at column
        k * dim W + w of the cochain's row.  Kept on the resolution beside
        the basis.
        """
        def build():
            basis = self.cochain_basis(n)
            if not basis:
                return 0
            gt, nw = self.res.image_generators(n), self.W.dim
            rows = [{k * nw + w: c for (k, w), c in gt.matmul(f.transpose()).items()}
                    for f in basis]
            return len(basis) - rank_of_rows(rows)
        return _once(self.res._ext, (self.W, n, "ker"), build)

    def rank_delta(self, n: int) -> int:
        """rank of delta^n : C^n -> C^{n+1}."""
        return len(self.cochain_basis(n)) - self.kernel_dim_top(n)

    def ext_dims(self, maxdeg: int) -> list:
        out = []
        prev_rank = 0
        for n in range(maxdeg + 1):
            rk = self.rank_delta(n)
            out.append(len(self.cochain_basis(n)) - rk - prev_rank)
            prev_rank = rk
        return out


def relative_ext_dims(pair: ResolventPair, V: ModuleRep, W: ModuleRep,
                      maxdeg: int, kind: str = "cover") -> list:
    """[dim Ext^0, ..., dim Ext^maxdeg] for the pair, via the chosen resolution."""
    res = get_resolution(pair, V, kind, maxdeg)
    return ExtComputation(res, W).ext_dims(maxdeg)


# ---------------------------------------------------------------------------
# cross-checks

TENSOR_SQUARE_MAXDEG = 2   # highest degree of the tensor-square crosscheck

def adjunction_crosscheck_tensor(D, R, n: int, kind: str = "cover") -> dict:
    """H^n of the R-twisted tensor complex against Ext over the square pair;
    an unverified R raises RMatrixError."""
    from .double import coeff_tensor_product
    from .dycomplex import tensor_complex
    if n > TENSOR_SQUARE_MAXDEG:
        raise BudgetExceededError(
            "degree %d exceeds the budget %d for the tensor-square pair"
            % (n, TENSOR_SQUARE_MAXDEG))
    H = D.base
    cx = tensor_complex(H, R)
    lhs = cx.cohomology_dim(n)
    p = pair_from_double(D)
    psq = tensor_pair(p, p)
    W = coeff_tensor_product(D, R, psq.big).module
    eps = D.hopf.counit_row()
    V = _once(D._cache, "trivial_sq", lambda: module_from_character(
        psq.big, vec_kron(eps, eps, D.dim), name="k"))
    rhs = relative_ext_dims(psq, V, W, n, kind=kind)[n]
    return {"degree": n, "dy_dim": lhs, "ext_dim": rhs, "equal": lhs == rhs}


def adjunction_crosscheck_restriction(D, imap, Hsub, n: int, kind: str = "bar") -> dict:
    """H^n of the restriction complex against Ext_{D(H),H}(k, Hom_K(H,k))."""
    from .double import coeff_restriction
    from .dycomplex import restriction_complex
    H = D.base
    cx = restriction_complex(H, imap, Hsub)
    lhs = cx.cohomology_dim(n)
    p = pair_from_double(D)
    W = coeff_restriction(D, imap, Hsub).module
    V = trivial_module_over(D)
    rhs = relative_ext_dims(p, V, W, n, kind=kind)[n]
    return {"degree": n, "dy_dim": lhs, "ext_dim": rhs, "equal": lhs == rhs}


def kunneth_check(pairA: ResolventPair, pairB: ResolventPair,
                  V: ModuleRep, Vp: ModuleRep, W: ModuleRep, Wp: ModuleRep,
                  n: int, kind: str = "cover") -> dict:
    """Ext^n over the tensor pair of V ox V', W ox W' against the convolution
    sum of the factor Ext dimensions, with the certificate
    (`verify_resolution`) that the tensor product of the two factor
    resolutions is itself a relatively projective resolution."""
    pt = tensor_pair(pairA, pairB)
    extA = relative_ext_dims(pairA, V, W, n, kind=kind)
    extB = relative_ext_dims(pairB, Vp, Wp, n, kind=kind)
    expected = sum(extA[i] * extB[n - i] for i in range(n + 1))
    got = relative_ext_dims(pt, pt.product_module(V, Vp), pt.product_module(W, Wp), n,
                            kind=kind)[n]
    rep = verify_resolution(TensorResolution(get_resolution(pairA, V, kind, n),
                                             get_resolution(pairB, Vp, kind, n), pt, n))
    return {"degree": n, "product_ext": got, "kunneth_sum": expected,
            "factor_ext_a": extA, "factor_ext_b": extB, "equal": got == expected,
            "product_resolution_violations": rep, "product_resolution_ok": not rep}


# ---------------------------------------------------------------------------
# tensor products of resolutions

class TensorResolution:
    """Total complex of resA ox resB over the tensor pair, up to maxdeg.

    Term n is the sum of the blocks P_i ox P'_j with i + j = n, in order of
    i; D = d ox id + (-1)^i id ox d', and the augmentation is aug ox aug'.
    """

    def __init__(self, resA: Resolution, resB: Resolution, pair: ResolventPair,
                 maxdeg: int):
        assert resA.maxdeg >= maxdeg and resB.maxdeg >= maxdeg
        self.pair = pair
        self.maxdeg = maxdeg
        self.factors = (resA, resB)
        self.target = pair.product_module(resA.target, resB.target)
        self.offsets = []  # per level: {(i, j): offset of the block P_i ox P'_j}
        self.terms = []
        for n in range(maxdeg + 1):
            offs, off = {}, 0
            for i in range(n + 1):
                offs[(i, n - i)] = off
                off += resA.terms[i].dim * resB.terms[n - i].dim
            self.offsets.append(offs)
            self.terms.append(self._term(n, off))
        self.diffs = [self._diff(n) for n in range(maxdeg + 1)]

    def _term(self, n, total):
        resA, resB = self.factors
        dbB = resB.pair.big.dim

        def action(flat):
            a_idx, b_idx = divmod(flat, dbB)
            ent = {}
            for (i, j), off in self.offsets[n].items():
                kron_into(ent, resA.terms[i].action(a_idx),
                          resB.terms[j].action(b_idx), off, off)
            return SparseMatrix(total, total, ent)

        return ModuleRep(self.pair.big, total, action_fn=action,
                         name="(PxP')_%d" % n)

    def _diff(self, n):
        """D_n; for n = 0 the augmentation into V ox V'."""
        resA, resB = self.factors
        if n == 0:
            return SparseMatrix(self.target.dim, self.terms[0].dim,
                                kron_into({}, resA.diffs[0], resB.diffs[0]))
        tgt = self.offsets[n - 1]
        ent = {}
        for (i, j), off in self.offsets[n].items():
            if i >= 1:
                kron_into(ent, resA.diffs[i], SparseMatrix.identity(resB.terms[j].dim),
                          tgt[(i - 1, j)], off)
            if j >= 1:
                kron_into(ent, SparseMatrix.identity(resA.terms[i].dim), resB.diffs[j],
                          tgt[(i, j - 1)], off, FR1 if i % 2 == 0 else -FR1)
        return SparseMatrix(self.terms[n - 1].dim, self.terms[n].dim, ent)

    def homotopies(self) -> list:
        """H_{-1} .. H_{maxdeg-1} built from the factor homotopies:
        H_{-1} = h_{-1} ox h'_{-1}; above it h ox id on every block, plus
        kappa ox h' on the i = 0 blocks, kappa = h_{-1} aug."""
        resA, resB = self.factors
        hA, hB = resA.homotopies(), resB.homotopies()
        kappa = hA[0].matmul(resA.diffs[0])
        out = [SparseMatrix(self.terms[0].dim, self.target.dim,
                            kron_into({}, hA[0], hB[0]))]
        for n in range(self.maxdeg):
            tgt = self.offsets[n + 1]
            ent = {}
            for (i, j), off in self.offsets[n].items():
                kron_into(ent, hA[i + 1], SparseMatrix.identity(resB.terms[j].dim),
                          tgt[(i + 1, j)], off)
                if i == 0:
                    kron_into(ent, kappa, hB[j + 1], tgt[(0, j + 1)], off)
            out.append(SparseMatrix(self.terms[n + 1].dim, self.terms[n].dim, ent))
        return out
