"""Relative homological algebra for an algebra inclusion B -> A.

Induction along the inclusion is left adjoint to restriction, and the
comonad G = Ind o Res yields two relatively projective allowable
resolutions of any A-module V:

  bar resolution        P_n = G^{n+1}(V),  d_n = sum (-1)^i G^{n-i}(eps_{G^i V})
  iterated-cover        K_0 = V, P_n = G(K_n) --eps--> K_n,
                        K_{n+1} = ker(eps), d_n = incl o eps

Both come with explicit adjunction-unit contracting homotopies over B, so
exactness and B-splitness are verified by exhibiting the splittings and
checking the equations exactly, never by assumption.

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

from .algcore import (Algebra, AlgebraMap, InducedModule, ModuleRep,
                      hom_space, induced_module, restrict_module,
                      module_from_character, submodule_on_basis, tensor_algebra,
                      tensor_module, verify_module)
from .exactlin import (FR0, FR1, Echelon, SparseMatrix, kernel_basis_marked,
                       rank, rank_of_vectors, vec_addmul)


class RelextError(Exception):
    pass


class BudgetExceededError(RelextError):
    """A degree request exceeds the configured budget for this pair."""


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
        self._resolutions: dict = {}  # keyed by (V, kind, use_free)

    def verify(self, pairs="auto") -> list:
        from .double import check_algebra_map
        return check_algebra_map(self.inclusion, pairs=pairs)

    def __repr__(self):
        return "ResolventPair%s" % self.name


def pair_from_double(D) -> ResolventPair:
    """(D(H), H) along the canonical embedding, with the dual free basis
    (cached on D)."""
    if D._pair is None:
        D._pair = ResolventPair(D.algebra, D.base.algebra, D.inclusion_base,
                                free_basis=D.dual_part_basis(),
                                name="(D(%s), %s)" % (D.base.name, D.base.name))
    return D._pair


def trivial_module_over(D) -> ModuleRep:
    """The trivial D(H)-module through the counit of the double (cached on D)."""
    if D._trivial is None:
        D._trivial = module_from_character(
            D.algebra, {i: c for i, c in enumerate(D.hopf.counit) if c}, name="k")
    return D._trivial


def tensor_pair(p1: ResolventPair, p2: ResolventPair) -> ResolventPair:
    got = p1._tensor.get(p2)
    if got is None:
        got = p1._tensor[p2] = _tensor_pair_build(p1, p2)
    return got


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
        got = self._res_small.get(M)
        if got is None:
            got = self._res_small[M] = restrict_module(self.pair.inclusion, M)
        return got

    # counit epi of the comonad: P_n = Ind(X) -> target module over A
    def counit_matrix(self, term: InducedModule, target_over_big: ModuleRep) -> SparseMatrix:
        cols = []
        if term.mode == "free":
            nv = term.source.dim
            for pos in range(term.dim):
                alpha, v = divmod(pos, nv)
                cols.append(target_over_big.act(term.free_cols[alpha], {v: FR1}))
        else:
            for (a_idx, v_idx) in term.reps:
                cols.append(target_over_big.act_basis(a_idx, {v_idx: FR1}))
        return SparseMatrix.from_columns(target_over_big.dim, cols)

    def unit_section_matrix(self, term: InducedModule) -> SparseMatrix:
        """eta: X -> P_n = Ind(X), x -> [1 ox x]."""
        cols = [term.unit_section({v: FR1}) for v in range(term.source.dim)]
        return SparseMatrix.from_columns(term.dim, cols)


def _extend_bar(res: Resolution, upto: int, use_free: bool):
    pair = res.pair
    while res.maxdeg < upto:
        n = res.maxdeg + 1
        base = res.target if n == 0 else res.terms[n - 1]
        X = res.res_small(base)
        fb = pair.free_basis if use_free else None
        P = induced_module(pair.inclusion, X, free_basis=fb,
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
        for pos in range(P.dim):
            a_label, p_idx = _label_of(P, pos)
            col: dict = {}
            # G(d_{n-1}): [a ox p] -> [a ox d_{n-1}(p)] in P_{n-1}
            for q, c in dprev_cols[p_idx].items():
                vec_addmul(col, _pair_class(prev, a_label, q), c)
            # (-1)^n eps: a . p inside P_{n-1}
            if isinstance(a_label, int):
                act = prev.act_basis(a_label, {p_idx: FR1})
            else:
                act = prev.act(a_label, {p_idx: FR1})
            vec_addmul(col, act, sign)
            cols.append(col)
        res.diffs.append(SparseMatrix.from_columns(prev.dim, cols))


def _label_of(term: InducedModule, pos: int):
    """(a_label, source_idx) of a canonical basis position; a_label is a
    basis index (quotient mode) or a sparse A-vector (free mode)."""
    if term.mode == "free":
        alpha, v = divmod(pos, term.source.dim)
        return term.free_cols[alpha], v
    return term.reps[pos]


def _pair_class(term: InducedModule, a_label, src_idx: int) -> dict:
    if isinstance(a_label, int):
        return term.pair_vec(a_label, src_idx)
    out: dict = {}
    for a_idx, c in a_label.items():
        vec_addmul(out, term.pair_vec(a_idx, src_idx), c)
    return out


def _extend_cover(res: Resolution, upto: int, use_free: bool):
    pair = res.pair
    while res.maxdeg < upto:
        n = res.maxdeg + 1
        K = res.kernel_modules[n]
        X = res.res_small(K)
        fb = pair.free_basis if use_free else None
        P = induced_module(pair.inclusion, X, free_basis=fb, name="cover%d" % n)
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
        kbasis, kmarkers = kernel_basis_marked(eps)
        res.kernel_bases.append(kbasis)
        res.kernel_markers.append(kmarkers)
        res.kernel_modules.append(submodule_on_basis(P, kbasis, name="K%d" % (n + 1)))


def get_resolution(pair: ResolventPair, V: ModuleRep, kind: str, maxdeg: int,
                   use_free: bool = True) -> Resolution:
    """The `kind` ("bar" or "cover") resolution of V up to maxdeg, cached
    on the pair and extended on demand."""
    if kind not in ("bar", "cover"):
        raise RelextError("unknown resolution kind %r" % kind)
    if pair.free_basis is None:
        use_free = False
    key = (V, kind, use_free)
    res = pair._resolutions.get(key)
    if res is None:
        res = pair._resolutions[key] = Resolution(pair, V, kind)
    extend = _extend_bar if kind == "bar" else _extend_cover
    extend(res, maxdeg, use_free)
    return res


# ---------------------------------------------------------------------------
# verification

def verify_resolution(res: Resolution, level: str = "auto", module_axioms=None) -> list:
    """Complex property, exactness, A-linearity of the differentials, and
    B-splitness of every spliced epimorphism (splittings exhibited from the
    adjunction unit and checked exactly)."""
    report = []
    pair = res.pair
    big_small = pair.big.dim * max(t.dim for t in res.terms)
    if level == "auto":
        from .algcore import _gens_usable
        level = "full" if (big_small <= 30000 or not _gens_usable(pair.big)) else "gens"
    if module_axioms is None:
        module_axioms = (max(t.dim for t in res.terms) <= 600)

    # d o d = 0 (including the augmentation edge)
    for n in range(1, res.maxdeg + 1):
        if not res.diffs[n - 1].matmul(res.diffs[n]).is_zero():
            report.append("d_%d o d_%d != 0" % (n - 1, n))

    # vector-space exactness via rank bookkeeping
    ranks = [rank(d) for d in res.diffs]
    if ranks[0] != res.target.dim:
        report.append("augmentation is not surjective")
    for n in range(1, res.maxdeg + 1):
        if ranks[n] != res.terms[n - 1].dim - ranks[n - 1]:
            report.append("complex is not exact at P_%d" % (n - 1))

    # differentials are A-linear (generator level suffices once the terms
    # are verified modules: {a : rho(a) d = d rho(a)} is a subalgebra)
    if level == "full":
        acts = [({i: FR1}, pair.big.labels[i]) for i in range(pair.big.dim)]
    else:
        acts = [(g, "gen%d" % k) for k, g in enumerate(pair.big.generators)]
    from .algcore import _act_matrix
    for n in range(res.maxdeg + 1):
        tgt = res.target if n == 0 else res.terms[n - 1]
        d = res.diffs[n]
        for a, aname in acts:
            lhs = _act_matrix(tgt, a).matmul(d)
            rhs = d.matmul(_act_matrix(res.terms[n], a))
            if lhs != rhs:
                report.append("d_%d is not A-linear at %s" % (n, aname))
                break

    if module_axioms:
        for n, t in enumerate(res.terms):
            rep = verify_module(t, level=level)
            if rep:
                report.append("term P_%d fails module axioms: %s" % (n, rep[0]))

    report.extend(_verify_splitness(res, level))
    return report


def _verify_splitness(res: Resolution, level: str) -> list:
    """Exhibit a B-linear splitting of each spliced epi and verify it."""
    report = []
    pair = res.pair
    bgens = (pair.small.generators
             if level == "gens" and pair.small.generators is not None
             else [{i: FR1} for i in range(pair.small.dim)])
    from .algcore import _act_matrix

    def b_linear_on(section_cols, domain: ModuleRep, codomain: ModuleRep, what):
        # section given as columns over domain basis; check B-linearity
        S = SparseMatrix.from_columns(codomain.dim, section_cols)
        for b in bgens:
            ib = pair.inclusion.apply(b)
            lhs = S.matmul(_act_matrix(domain, ib))
            rhs = _act_matrix(codomain, ib).matmul(S)
            if lhs != rhs:
                report.append("splitting of %s is not B-linear" % what)
                return

    if res.kind == "cover":
        for n in range(res.maxdeg + 1):
            term = res.terms[n]
            K = res.kernel_modules[n]
            eps = res.eps_matrices[n]
            cols = [term.unit_section({v: FR1}) for v in range(K.dim)]
            ok = True
            for v in range(K.dim):
                if eps.mul_vec(cols[v]) != {v: FR1}:
                    report.append("unit section fails eps o s = id at level %d" % n)
                    ok = False
                    break
            if ok:
                b_linear_on(cols, K, term, "eps_%d" % n)
    else:
        # bar: the epi P_n ->> im(d_n) is split by z -> (-1)^n [1 ox z]
        for n in range(res.maxdeg + 1):
            term = res.terms[n]
            d = res.diffs[n]
            sign = FR1 if n % 2 == 0 else -FR1
            if n == 0:
                zmodule = res.target
                ambient_of = [{i: FR1} for i in range(res.target.dim)]
            else:
                prev = res.terms[n - 1]
                ech = Echelon(prev.dim)
                zvecs = []
                for j in range(term.dim):
                    v = d.col(j)
                    if ech.add_row(v) is not None:
                        zvecs.append(v)
                zmodule = submodule_on_basis(prev, zvecs, name="im(d_%d)" % n)
                ambient_of = zvecs
            cols = []
            ok = True
            for j, zvec in enumerate(ambient_of):
                s_col: dict = {}
                for v_idx, c in zvec.items():
                    vec_addmul(s_col, term.unit_section({v_idx: FR1}), c * sign)
                cols.append(s_col)
                if d.mul_vec(s_col) != zvec:
                    report.append("bar splitting fails d o s = id at level %d" % n)
                    ok = False
                    break
            if ok:
                b_linear_on(cols, zmodule, term, "d_%d" % n)
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
            if term.mode == "free":
                nv = term.source.dim
                for pos in range(term.dim):
                    alpha, v = divmod(pos, nv)
                    col = self.W.act(term.free_cols[alpha], gcols[v])
                    for r, c in col.items():
                        ent[(r, pos)] = c
            else:
                for pos, (a_idx, v_idx) in enumerate(term.reps):
                    col = self.W.act_basis(a_idx, gcols[v_idx])
                    for r, c in col.items():
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
                      maxdeg: int, kind: str = "cover", use_free: bool = True) -> list:
    """[dim Ext^0, ..., dim Ext^maxdeg] for the pair, via the chosen resolution."""
    res = get_resolution(pair, V, kind, maxdeg, use_free)
    return ExtComputation(res, W).ext_dims(maxdeg)


# ---------------------------------------------------------------------------
# cross-checks

def adjunction_crosscheck_tensor(D, R, Rinv, n: int, kind: str = "cover",
                                 maxdeg_budget: int = 2) -> dict:
    """H^n of the R-twisted tensor complex against Ext over the square pair."""
    from .double import coeff_tensor_product
    from .dycomplex import tensor_complex
    if n > maxdeg_budget:
        raise BudgetExceededError(
            "degree %d exceeds the budget %d for the tensor-square pair"
            % (n, maxdeg_budget))
    H = D.base
    cx = tensor_complex(H, R)
    lhs = cx.cohomology_dim(n)
    p = pair_from_double(D)
    psq = tensor_pair(p, p)
    W = coeff_tensor_product(D, R, Rinv, psq.big).module
    if D._trivial_sq is None:
        D._trivial_sq = module_from_character(psq.big, _double_sq_counit(D, psq.big),
                                              name="k")
    rhs = relative_ext_dims(psq, D._trivial_sq, W, n, kind=kind)[n]
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
        rep = verify_resolution_tensor(resA, resB, pt, n)
        out["product_resolution_report"] = rep
        out["product_resolution_ok"] = not rep
    return out


# ---------------------------------------------------------------------------
# contracting homotopies and tensor products of resolutions

def contracting_homotopy(res: Resolution) -> list:
    """B-linear maps [h_{-1}, h_0, ..., h_{maxdeg-1}] with d h + h d = id.

    bar:   h_n = (-1)^{n+1} eta_{n+1}
    cover: h_n(p) = eta_{n+1}(p - s_n eps_n p), the unit applied to the
           K_{n+1}-component of p.
    The identities are checked exactly by the caller.
    """
    out = []
    if res.kind == "bar":
        out.append(res.unit_section_matrix(res.terms[0]))  # V -> P_0
        for nn in range(res.maxdeg):
            sign = FR1 if (nn + 1) % 2 == 0 else -FR1
            out.append(res.unit_section_matrix(res.terms[nn + 1]).scale(sign))
        return out
    out.append(res.unit_section_matrix(res.terms[0]))
    for nn in range(res.maxdeg):
        term = res.terms[nn]
        eps = res.eps_matrices[nn]
        eta_here = res.unit_section_matrix(term)           # K_n -> P_n
        kb = res.kernel_bases[nn + 1]
        markers = res.kernel_markers[nn + 1]
        eta_next = res.unit_section_matrix(res.terms[nn + 1])  # K_{n+1} -> P_{n+1}
        cols = []
        for p in range(term.dim):
            v = {p: FR1}
            proj = vec_addmul(dict(v), eta_here.mul_vec(eps.mul_vec(v)), -FR1)
            # coordinates of proj in the K_{n+1} kernel basis
            coords = {j: proj[f] for j, f in enumerate(markers) if f in proj}
            check: dict = {}
            for j, c in coords.items():
                vec_addmul(check, kb[j], c)
            if check != proj:
                raise RelextError("kernel coordinates failed; corrupt resolution")
            col: dict = {}
            for j, c in coords.items():
                vec_addmul(col, eta_next.col(j), c)
            cols.append(col)
        out.append(SparseMatrix.from_columns(res.terms[nn + 1].dim, cols))
    return out


def verify_homotopy(res: Resolution) -> list:
    """Check d_{n+1} h_n + h_{n-1} d_n = id exactly, n = -1 .. maxdeg-1."""
    report = []
    h = contracting_homotopy(res)
    if res.diffs[0].matmul(h[0]) != SparseMatrix.identity(res.target.dim):
        report.append("homotopy fails at the augmentation")
    for nn in range(res.maxdeg):
        lhs = res.diffs[nn + 1].matmul(h[nn + 1]).add(h[nn].matmul(res.diffs[nn]))
        if lhs != SparseMatrix.identity(res.terms[nn].dim):
            report.append("homotopy identity fails at level %d" % nn)
    return report


class TensorResolution:
    """Total complex of resA ox resB over the tensor pair, up to maxdeg."""

    def __init__(self, resA: Resolution, resB: Resolution, pt: ResolventPair,
                 maxdeg: int):
        assert resA.maxdeg >= maxdeg and resB.maxdeg >= maxdeg
        self.pt = pt
        self.maxdeg = maxdeg
        self.target = tensor_module(resA.target, resB.target, pt.big)
        self.blocks = []   # per level: list of (i, j, offset)
        self.terms = []
        dimsA = [t.dim for t in resA.terms]
        dimsB = [t.dim for t in resB.terms]
        for n in range(maxdeg + 1):
            blocks = []
            off = 0
            for i in range(n + 1):
                j = n - i
                blocks.append((i, j, off))
                off += dimsA[i] * dimsB[j]
            self.blocks.append(blocks)
            self.terms.append(self._term(resA, resB, n, blocks, off))
        self.diffs = [self._diff(resA, resB, n) for n in range(maxdeg + 1)]
        self.homotopies = self._homotopies(resA, resB)

    def _term(self, resA, resB, n, blocks, total):
        pt = self.pt
        dbB = resB.pair.big.dim
        dimsB = [t.dim for t in resB.terms]

        def action(flat):
            a_idx, b_idx = divmod(flat, dbB)
            ent = {}
            for (i, j, off) in blocks:
                ma = resA.terms[i].action(a_idx)
                mb = resB.terms[j].action(b_idx)
                nb = dimsB[j]
                for (r1, c1), v1 in ma.entries.items():
                    for (r2, c2), v2 in mb.entries.items():
                        ent[(off + r1 * nb + r2, off + c1 * nb + c2)] = v1 * v2
            return SparseMatrix(total, total, ent)

        return ModuleRep(pt.big, total, action_fn=action,
                         name="(PxP')_%d" % n)

    def _diff(self, resA, resB, n):
        """D_n; for n = 0 the augmentation into V ox V'."""
        dimsA = [t.dim for t in resA.terms]
        dimsB = [t.dim for t in resB.terms]
        if n == 0:
            # aug ox aug' on the single block (0, 0)
            augA, augB = resA.diffs[0], resB.diffs[0]
            ent = {}
            nb = dimsB[0]
            nvB = resB.target.dim
            for (r1, c1), v1 in augA.entries.items():
                for (r2, c2), v2 in augB.entries.items():
                    ent[(r1 * nvB + r2, c1 * nb + c2)] = v1 * v2
            return SparseMatrix(self.target.dim, self.terms[0].dim, ent)
        src_blocks = self.blocks[n]
        tgt_blocks = {(i, j): off for (i, j, off) in self.blocks[n - 1]}
        ent = {}
        for (i, j, off) in src_blocks:
            nbj = dimsB[j]
            if i >= 1:
                toff = tgt_blocks[(i - 1, j)]
                dA = resA.diffs[i]
                for (r, c), v in dA.entries.items():
                    for y in range(nbj):
                        ent[(toff + r * nbj + y, off + c * nbj + y)] = v
            if j >= 1:
                toff = tgt_blocks[(i, j - 1)]
                dB = resB.diffs[j]
                sign = FR1 if i % 2 == 0 else -FR1
                nbj1 = dimsB[j - 1]
                for x in range(dimsA[i]):
                    for (r, c), v in dB.entries.items():
                        ent[(toff + x * nbj1 + r, off + x * nbj + c)] = sign * v
        return SparseMatrix(self.terms[n - 1].dim, self.terms[n].dim, ent)

    def _homotopies(self, resA, resB):
        """H_{-1} .. H_{maxdeg-1} built from the factor homotopies:
        H = h ox id on blocks with i >= 1, plus kappa ox h' on i = 0 blocks,
        kappa = h_{-1} aug."""
        hA = contracting_homotopy(resA)
        hB = contracting_homotopy(resB)
        kappaA = hA[0].matmul(resA.diffs[0])
        dimsA = [t.dim for t in resA.terms]
        dimsB = [t.dim for t in resB.terms]
        out = []
        # H_{-1}: V ox V' -> P_0 ox P'_0
        ent = {}
        nvB = resB.target.dim
        nb0 = dimsB[0]
        for (r1, c1), v1 in hA[0].entries.items():
            for (r2, c2), v2 in hB[0].entries.items():
                ent[(r1 * nb0 + r2, c1 * nvB + c2)] = v1 * v2
        out.append(SparseMatrix(self.terms[0].dim, self.target.dim, ent))
        for n in range(self.maxdeg):
            src_blocks = self.blocks[n]
            tgt_blocks = {(i, j): off for (i, j, off) in self.blocks[n + 1]}
            ent = {}
            for (i, j, off) in src_blocks:
                nbj = dimsB[j]
                toff = tgt_blocks[(i + 1, j)]
                for (r, c), v in hA[i + 1].entries.items():
                    for y in range(nbj):
                        ent[(toff + r * nbj + y, off + c * nbj + y)] = v
                if i == 0:
                    toff2 = tgt_blocks[(0, j + 1)]
                    nbj1 = dimsB[j + 1]
                    for (r1, c1), v1 in kappaA.entries.items():
                        for (r2, c2), v2 in hB[j + 1].entries.items():
                            key = (toff2 + r1 * nbj1 + r2, off + c1 * nbj + c2)
                            ent[key] = ent.get(key, FR0) + v1 * v2
            out.append(SparseMatrix(self.terms[n + 1].dim, self.terms[n].dim,
                                    {k: v for k, v in ent.items() if v}))
        return out


def verify_resolution_tensor(resA: Resolution, resB: Resolution,
                             pt: ResolventPair, maxdeg: int) -> list:
    """Verify d o d = 0, exactness, A-linearity and B-splitness for the
    tensor product of two resolutions over the tensor pair."""
    report = []
    tr = TensorResolution(resA, resB, pt, maxdeg)
    for n in range(1, maxdeg + 1):
        if not tr.diffs[n - 1].matmul(tr.diffs[n]).is_zero():
            report.append("tensor resolution: d_%d o d_%d != 0" % (n - 1, n))
    ranks = [rank(d) for d in tr.diffs]
    if ranks[0] != tr.target.dim:
        report.append("tensor resolution: augmentation not surjective")
    for n in range(1, maxdeg + 1):
        if ranks[n] != tr.terms[n - 1].dim - ranks[n - 1]:
            report.append("tensor resolution: not exact at level %d" % (n - 1))
    # A-linearity of the differentials, generator level
    from .algcore import _act_matrix, _gens_usable
    if _gens_usable(pt.big):
        acts = [(g, "gen%d" % k) for k, g in enumerate(pt.big.generators)]
    else:
        acts = [({i: FR1}, pt.big.labels[i]) for i in range(pt.big.dim)]
    for n in range(maxdeg + 1):
        tgt = tr.target if n == 0 else tr.terms[n - 1]
        d = tr.diffs[n]
        for a, aname in acts:
            if _act_matrix(tgt, a).matmul(d) != d.matmul(_act_matrix(tr.terms[n], a)):
                report.append("tensor resolution: d_%d not A-linear at %s" % (n, aname))
                break
    # homotopy identities prove exactness and exhibit B-linear splittings
    if tr.diffs[0].matmul(tr.homotopies[0]) != SparseMatrix.identity(tr.target.dim):
        report.append("tensor homotopy fails at the augmentation")
    for n in range(maxdeg):
        lhs = tr.diffs[n + 1].matmul(tr.homotopies[n + 1]).add(
            tr.homotopies[n].matmul(tr.diffs[n]))
        if lhs != SparseMatrix.identity(tr.terms[n].dim):
            report.append("tensor homotopy identity fails at level %d" % n)
    # B-linearity of the homotopies (they are the exhibited splittings)
    if _gens_usable(pt.small):
        bgens = pt.small.generators
    else:
        bgens = [{i: FR1} for i in range(pt.small.dim)]
    for n, H in enumerate(tr.homotopies):
        dom = tr.target if n == 0 else tr.terms[n - 1]
        cod = tr.terms[n]
        for b in bgens:
            ib = pt.inclusion.apply(b)
            if H.matmul(_act_matrix(dom, ib)) != _act_matrix(cod, ib).matmul(H):
                report.append("tensor homotopy H_%d is not B-linear" % (n - 1))
                break
    return report
