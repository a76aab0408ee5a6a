"""Relative homological algebra for an algebra inclusion B -> A.

Induction along the inclusion is left adjoint to restriction, and the
comonad G = Ind o Res yields two relatively projective allowable
resolutions of any A-module V:

  bar resolution        P_n = G^{n+1}(V),  d_n = sum (-1)^i G^{n-i}(eps_{G^i V})
  iterated-cover        K_0 = V, P_n = G(K_n) --eps--> K_n,
                        K_{n+1} = ker(eps), d_n = incl o eps

Each term is an `algcore.InducedModule`, built on the pair's free basis
when it has one and as a quotient otherwise; this module reads a term
only through its `gens` ((u, v) with basis vector pos = [u ox e_v]),
`class_of`, `act` and `unit_section`, so it never asks which it is.
Both come with contracting homotopies h built from the adjunction unit
x -> [1 ox x] (`Resolution.homotopies`), and so does the tensor product
of two resolutions over a tensor pair (`TensorResolution`).
`verify_resolution` certifies either kind exactly: d o d = 0, A-linear
d, d h + h d = id and B-linear h.  A B-linear contracting homotopy proves
exactness and B-splitness at once (Hochschild, "Relative homological
algebra", Trans. AMS 82, 1956), so neither is assumed.

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

from .algcore import (Algebra, AlgebraMap, InducedModule, ModuleRep, _act_matrix,
                      check_elements, hom_space, induced_module, restrict_module,
                      module_from_character, submodule_on_basis, tensor_algebra,
                      tensor_module, verify_module)
from .exactlin import (FR1, BudgetExceededError, SparseMatrix, _once, kernel_basis_marked,
                       kron_into, rank_of_vectors, vec_addmul)


class RelextError(Exception):
    pass


class ResolventPair:
    """A verified algebra inclusion B -> A with optional free A-basis over B."""

    def __init__(self, big: Algebra, small: Algebra, inclusion: AlgebraMap,
                 free_basis=None, name=""):
        assert inclusion.source is small and inclusion.target is big
        self.big = big
        self.small = small
        self.inclusion = inclusion
        self.free_basis = free_basis
        self.name = name or "(%s <= %s)" % (big.name, small.name)
        self._tensor: dict = {}       # tensor_pair(self, p2), keyed by p2
        self._resolutions: dict = {}  # keyed by (V, kind)
        self._lock = threading.Lock()  # guards _resolutions and their growth

    def verify(self) -> list:
        return self.inclusion.verify()

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
    db2 = p2.big.dim
    cols = []
    for i in range(p1.small.dim):
        ci = p1.inclusion.apply_basis(i)
        for j in range(p2.small.dim):
            cj = p2.inclusion.apply_basis(j)
            col = {}
            for a, ca in ci.items():
                for b, cb in cj.items():
                    col[a * db2 + b] = ca * cb
            cols.append(col)
    incl = AlgebraMap(small, big, cols, name="incl(x)incl")
    free = None
    if p1.free_basis is not None and p2.free_basis is not None:
        free = []
        for u in p1.free_basis:
            for v in p2.free_basis:
                free.append({a * db2 + b: ca * cb
                             for a, ca in u.items() for b, cb in v.items()})
    return ResolventPair(big, small, incl, free_basis=free,
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

    @property
    def maxdeg(self) -> int:
        return len(self.terms) - 1

    def res_small(self, M: ModuleRep) -> ModuleRep:
        return _once(self._res_small, M, lambda: restrict_module(self.pair.inclusion, M))

    # counit epi of the comonad: P_n = Ind(X) -> target module over A
    def counit_matrix(self, term: InducedModule, target: ModuleRep) -> SparseMatrix:
        cols = [target.act(u, {v: FR1}) for u, v in term.gens]
        return SparseMatrix.from_columns(target.dim, cols)

    def unit_section_matrix(self, term: InducedModule) -> SparseMatrix:
        """eta: X -> P_n = Ind(X), x -> [1 ox x]."""
        cols = [term.unit_section({v: FR1}) for v in range(term.source.dim)]
        return SparseMatrix.from_columns(term.dim, cols)

    def homotopies(self) -> list:
        """B-linear maps [h_{-1}, h_0, ..., h_{maxdeg-1}] with d h + h d = id,
        from the adjunction unit eta_n : X_n -> P_n = Ind(X_n):

        bar:   h_n = (-1)^{n+1} eta_{n+1}
        cover: h_n(p) = eta_{n+1}(p - eta_n eps_n p), the unit applied to the
               K_{n+1}-component of p in kernel-basis coordinates.
        verify_resolution checks the identities and B-linearity exactly.
        """
        out = [self.unit_section_matrix(self.terms[0])]   # V -> P_0
        for n in range(self.maxdeg):
            eta_next = self.unit_section_matrix(self.terms[n + 1])
            if self.kind == "bar":
                out.append(eta_next.scale(FR1 if n % 2 else -FR1))
                continue
            term, eps = self.terms[n], self.eps_matrices[n]
            eta_here = self.unit_section_matrix(term)     # K_n -> P_n
            cols = []
            for p in range(term.dim):
                proj = vec_addmul({p: FR1}, eta_here.mul_vec(eps.col(p)), -FR1)
                col: dict = {}
                for j, f in enumerate(self.kernel_markers[n + 1]):
                    if f in proj:
                        vec_addmul(col, eta_next.col(j), proj[f])
                cols.append(col)
            out.append(SparseMatrix.from_columns(self.terms[n + 1].dim, cols))
        return out


def _extend_bar(res: Resolution, upto: int):
    pair = res.pair
    while res.maxdeg < upto:
        n = res.maxdeg + 1
        base = res.target if n == 0 else res.terms[n - 1]
        X = res.res_small(base)
        P = induced_module(pair.inclusion, X, free_basis=pair.free_basis,
                           name="bar%d" % n)
        res.terms.append(P)
        res.sources.append(X)
        if n == 0:
            res.diffs.append(res.counit_matrix(P, res.target))
            continue
        prev = res.terms[n - 1]
        dprev_cols = res.diffs[n - 1].columns()
        sign = FR1 if n % 2 == 0 else -FR1
        cols = []
        for u, p_idx in P.gens:
            col: dict = {}
            # G(d_{n-1}): [u ox p] -> [u ox d_{n-1}(p)] in P_{n-1}
            for q, c in dprev_cols[p_idx].items():
                vec_addmul(col, prev.class_of(u, q), c)
            # (-1)^n eps: u . p inside P_{n-1}
            vec_addmul(col, prev.act(u, {p_idx: FR1}), sign)
            cols.append(col)
        res.diffs.append(SparseMatrix.from_columns(prev.dim, cols))


def _extend_cover(res: Resolution, upto: int):
    pair = res.pair
    while res.maxdeg < upto:
        n = res.maxdeg + 1
        K = res.kernel_modules[n]
        X = res.res_small(K)
        P = induced_module(pair.inclusion, X, free_basis=pair.free_basis,
                           name="cover%d" % n)
        res.terms.append(P)
        res.sources.append(X)
        eps = res.counit_matrix(P, K)
        res.eps_matrices.append(eps)
        if n == 0:
            res.diffs.append(eps)
        else:
            incl = SparseMatrix.from_columns(res.terms[n - 1].dim,
                                             res.kernel_bases[n])
            res.diffs.append(incl.matmul(eps))
        kbasis, kmarkers = kernel_basis_marked(eps.row_dicts(), eps.cols)
        res.kernel_bases.append(kbasis)
        res.kernel_markers.append(kmarkers)
        res.kernel_modules.append(submodule_on_basis(pair.big, kbasis, P.act_basis,
                                                     name="K%d" % (n + 1)))


def get_resolution(pair: ResolventPair, V: ModuleRep, kind: str, maxdeg: int) -> Resolution:
    """The `kind` ("bar" or "cover") resolution of V up to maxdeg, cached
    on the pair and extended on demand under the pair's lock, so that two
    threads never grow one resolution at the same time.  Its terms are
    induced on the pair's free basis when it has one, and as quotients
    otherwise."""
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
    terms (when no term exceeds dimension 600), and that the maps
    h_n = res.homotopies()[n + 1] : C_n -> P_{n+1} (C_{-1} = V, C_n = P_n)
    are B-linear and satisfy d_{n+1} h_n + h_{n-1} d_n = id on C_n for
    n = -1 .. maxdeg-1.  A B-linear contracting homotopy proves both that
    V <- P_0 <- ... <- P_maxdeg is exact up to P_{maxdeg-1} and that it
    splits over B, so the resolution is allowable for the pair
    (Hochschild, "Relative homological algebra", Trans. AMS 82, 1956).
    A- and B-linearity are checked on `check_elements` of A and B: the
    elements a with rho(a) f = f rho(a) form a subalgebra.
    """
    pair = res.pair
    top = max(t.dim for t in res.terms)
    acts = check_elements(pair.big)
    bacts = [(pair.inclusion.apply(b), name) for b, name in check_elements(pair.small)]

    def commutes(f, dom, cod, a):
        return _act_matrix(cod, a).matmul(f) == f.matmul(_act_matrix(dom, a))

    report = []
    chain = [res.target] + list(res.terms)   # chain[n + 1] = C_n
    for n, d in enumerate(res.diffs):
        if n and not res.diffs[n - 1].matmul(d).is_zero():
            report.append("d_%d o d_%d != 0" % (n - 1, n))
        for a, name in acts:
            if not commutes(d, chain[n + 1], chain[n], a):
                report.append("d_%d is not A-linear at %s" % (n, name))
                break
        if top <= 600:
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
    """Hom_A(P_*, W) with mate-computed cochain bases."""

    def __init__(self, res: Resolution, W: ModuleRep):
        assert W.algebra is res.pair.big
        self.res = res
        self.W = W
        self.resW = res.res_small(W)
        self._cochains: dict = {}

    def cochain_basis(self, n: int) -> list:
        """Basis of Hom_A(P_n, W) as full W.dim x P_n.dim matrices."""
        got = self._cochains.get(n)
        if got is not None:
            return got
        res = self.res
        X = res.sources[n]
        mates = hom_space(X, self.resW)
        term = res.terms[n]
        out = []
        for g in mates:
            gcols = g.columns()
            ent = {}
            for pos, (u, v) in enumerate(term.gens):
                for r, c in self.W.act(u, gcols[v]).items():
                    ent[(r, pos)] = c
            out.append(SparseMatrix(self.W.dim, term.dim, ent))
        self._cochains[n] = out
        return out

    def kernel_dim_top(self, n: int) -> int:
        """dim ker delta^n, at every degree and for both resolution kinds.

        f in Hom_A(P_n, W) is a cocycle iff it vanishes on im d_{n+1}, and
        being A-linear it does so iff it vanishes on A-module generators of
        im d_{n+1} inside P_n, so P_{n+1} is never needed:
          cover: the K_{n+1} basis;
          bar:   d_{n+1}[1 ox p] = [1 ox d_n(p)] + (-1)^{n+1} p, one per
                 basis vector p of P_n, since the [1 ox p] generate
                 P_{n+1} = Ind(Res P_n).
        """
        basis = self.cochain_basis(n)
        if not basis:
            return 0
        gens = self._image_generators(n)
        nw = self.W.dim
        vecs = []
        for f in basis:
            vec = {}
            for k, g in enumerate(gens):
                for w, c in f.mul_vec(g).items():
                    vec[k * nw + w] = c
            vecs.append(vec)
        return len(basis) - rank_of_vectors(vecs, len(gens) * nw)

    def _image_generators(self, n: int) -> list:
        """A-module generators of im d_{n+1} as vectors in P_n."""
        res = self.res
        if res.kind == "cover":
            return res.kernel_bases[n + 1]
        term = res.terms[n]
        sign = FR1 if (n + 1) % 2 == 0 else -FR1
        gens = []
        for p, dp in enumerate(res.diffs[n].columns()):
            g = term.unit_section(dp)
            vec_addmul(g, {p: FR1}, sign)
            gens.append(g)
        return gens

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

def adjunction_crosscheck_tensor(D, R, Rinv, n: int, kind: str = "cover") -> dict:
    """H^n of the R-twisted tensor complex against Ext over the square pair."""
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
    W = coeff_tensor_product(D, R, Rinv, psq.big).module
    V = _once(D._cache, "trivial_sq", lambda: module_from_character(
        psq.big, _double_sq_counit(D, psq.big), name="k"))
    rhs = relative_ext_dims(psq, V, W, n, kind=kind)[n]
    return {"degree": n, "dy_dim": lhs, "ext_dim": rhs, "equal": lhs == rhs}


def _double_sq_counit(D, E: Algebra) -> dict:
    nd = D.dim
    eps = D.hopf.counit
    out = {}
    for i in range(nd):
        if not eps[i]:
            continue
        for j in range(nd):
            if eps[j]:
                out[i * nd + j] = eps[i] * eps[j]
    return out


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
                  n: int, kind: str = "cover", verify_product: bool = True) -> dict:
    """Ext^n over the tensor pair of V ox V', W ox W' against the convolution
    sum of the factor Ext dimensions; optionally verifies that the tensor
    product of the two factor resolutions is itself a relatively projective
    resolution."""
    pt = tensor_pair(pairA, pairB)
    extA = relative_ext_dims(pairA, V, W, n, kind=kind)
    extB = relative_ext_dims(pairB, Vp, Wp, n, kind=kind)
    expected = sum(extA[i] * extB[n - i] for i in range(n + 1))
    VT = tensor_module(V, Vp, pt.big)
    WT = tensor_module(W, Wp, pt.big)
    got = relative_ext_dims(pt, VT, WT, n, kind=kind)[n]
    out = {"degree": n, "product_ext": got, "kunneth_sum": expected,
           "factor_ext_a": extA, "factor_ext_b": extB, "equal": got == expected}
    if verify_product:
        resA = get_resolution(pairA, V, kind, n)
        resB = get_resolution(pairB, Vp, kind, n)
        rep = verify_resolution(TensorResolution(resA, resB, pt, n))
        out["product_resolution_report"] = rep
        out["product_resolution_ok"] = not rep
    return out


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
        self.target = tensor_module(resA.target, resB.target, pair.big)
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
