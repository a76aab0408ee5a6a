from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfdy.algcore import (Algebra, AlgebraError, AlgebraMap, ModuleRep, check_elements,
                            check_generators_span, free_rewrite, hom_space, induced_module,
                            is_intertwiner, left_span, module_from_character, module_map_kernel,
                            regular_module, submodule_on_basis, tensor_algebra,
                            tensor_module, verify_algebra, verify_module)
from hopfdy.exactlin import FR1, SparseMatrix, rank
from hopfdy.hopfcore import build_bk, build_cyclic, bk_inclusion, trivial_module
from hopfdy.double import drinfeld_double

from freebases import rebased
from oracles import (dense_column, dense_kron, dense_rank, densify_matrix, induced_dense,
                     intertwiner_basis_dense)


def z2_algebra():
    return build_cyclic(2).algebra


class TestVerifyAlgebra:
    def test_group_algebra_clean(self):
        assert verify_algebra(z2_algebra()) == []

    def test_bk_clean(self):
        assert verify_algebra(build_bk(2).algebra) == []

    @pytest.mark.parametrize("gens", ["kept", "stripped"])
    def test_corrupted_mult_named(self, gens):
        A = build_bk(1).algebra
        bad_mult = dict(A.mult)
        bad_mult[(1, 1)] = {0: FR1}  # x*x = 1 breaks associativity
        B = Algebra(A.dim, A.labels, bad_mult, A.unit,
                    generators=A.generators if gens == "kept" else None)
        assert check_generators_span(B) == (gens == "kept")
        rep = verify_algebra(B)
        assert rep and any("associativity" in line for line in rep)
        # the witness names a generator on the generator path, a label otherwise
        assert any("(gen" in line for line in rep) == (gens == "kept")

    def test_gens_level_matches_full(self):
        A = build_bk(2).algebra
        plain = Algebra(A.dim, A.labels, A.mult, A.unit)
        assert [name for _, name in check_elements(A)] == ["gen0", "gen1", "gen2"]
        assert [name for _, name in check_elements(plain)] == A.labels
        assert verify_algebra(A) == verify_algebra(plain) == []

    def test_non_spanning_generators_use_the_basis(self):
        A = build_bk(2).algebra
        x1_only = Algebra(A.dim, A.labels, A.mult, A.unit, generators=[{1: FR1}])
        assert not check_generators_span(x1_only)
        assert check_elements(x1_only) == [({i: FR1}, A.labels[i]) for i in range(8)]


class TestHomSpace:
    def test_hom_trivial_trivial(self):
        H = build_bk(2)
        k = trivial_module(H)
        assert len(hom_space(k, k)) == 1

    def test_regular_z2_dimension(self):
        # commutative algebra acting on itself: End = the algebra, dim 2
        A = z2_algebra()
        reg = regular_module(A)
        basis = hom_space(reg, reg)
        assert len(basis) == 2
        for f in basis:
            assert is_intertwiner(f, reg, reg)

    def test_matches_dense_oracle(self):
        """The canonical basis equals the dense one over the full basis, on
        the generator path (regular B_1) and the basis path (regular to
        trivial over B_1 without generators)."""
        H = build_bk(1)
        plain = Algebra(H.dim, H.algebra.labels, H.algebra.mult, H.algebra.unit)
        reg = regular_module(H.algebra)
        pairs = [(reg, reg),
                 (regular_module(plain), module_from_character(plain, H.counit_row()))]
        for M, N in pairs:
            want = intertwiner_basis_dense(
                [densify_matrix(M.action(i)) for i in range(H.dim)],
                [densify_matrix(N.action(i)) for i in range(H.dim)])
            assert [densify_matrix(f) for f in hom_space(M, N)] == want

    @pytest.mark.parametrize("good, bad", [(2, 1), (1, 2)], ids=["g", "x1"])
    def test_is_intertwiner_checks_every_generator(self, good, bad):
        # on regular B_1, left multiplication by g (index 2) or x1 (index 1)
        # commutes with its own action and anticommutes with the other's
        reg = regular_module(build_bk(1).algebra)
        f = reg.action(good)
        assert f.matmul(reg.action(good)) == reg.action(good).matmul(f)
        assert f.matmul(reg.action(bad)) != reg.action(bad).matmul(f)
        assert not is_intertwiner(f, reg, reg)

    def test_hom_from_zero_module(self):
        H = build_bk(1)
        k = trivial_module(H)
        Z, _ = module_map_kernel(SparseMatrix.identity(1), k, k)
        assert Z.dim == 0
        assert hom_space(Z, k) == []

    def test_dimension_invariant_under_basis_permutation(self):
        # hom dimension does not change when the bases of M and N are permuted
        A = z2_algebra()
        reg = regular_module(A)
        perm = SparseMatrix(2, 2, {(0, 1): FR1, (1, 0): FR1})
        perm_inv = perm
        permuted = ModuleRep(
            A, 2, action_fn=lambda i: perm.matmul(reg.action(i)).matmul(perm_inv),
            name="permuted")
        assert len(hom_space(reg, reg)) == len(hom_space(permuted, permuted)) \
            == len(hom_space(reg, permuted))

    def test_c_plus_to_restriction_coeff(self):
        # Hom over D(B_2) from C_+ is one-dimensional, from C_- it vanishes
        from hopfdy.double import build_c_pm, coeff_restriction
        D = drinfeld_double(build_bk(2))
        W = coeff_restriction(D, bk_inclusion(1, 1), build_bk(1)).module
        cp = build_c_pm(D, +1)
        cm = build_c_pm(D, -1)
        assert len(hom_space(cp, W)) == 1
        assert len(hom_space(cm, W)) == 0


def _free(imap, basis):
    """A free basis of imap.target over imap.source with its rewrite table."""
    return basis, free_rewrite(imap, basis)


def _dual_free(D):
    """The dual free basis of D(H) over H with its rewrite table."""
    return _free(D.inclusion_base, D.dual_part_basis())


def _classes(ind, M):
    """Q M for the class map Q of an induced module."""
    return SparseMatrix.from_columns(ind.dim, [ind.classes.apply(x) for x in M.columns()])


class TestInducedModule:
    def test_from_scalars_is_regular(self):
        A = build_bk(1).algebra
        k = Algebra(1, ["1"], {(0, 0): {0: FR1}}, {0: FR1})
        emb = AlgebraMap(k, A, [dict(A.unit)])
        triv = ModuleRep(k, 1, action=[SparseMatrix.identity(1)])
        ind = induced_module(emb, triv, _free(emb, [{i: FR1} for i in range(A.dim)]))
        assert ind.dim == A.dim
        reg = regular_module(A)
        # full-rank intertwiner exists: the section [u ox 1] -> u ox 1 = u
        f = ind.section()
        assert is_intertwiner(f, ind, reg)

    def test_double_over_base_dimension(self):
        # D(H) ox_H k has dimension dim H
        H = build_bk(1)
        D = drinfeld_double(H)
        emb = D.inclusion_base
        k = trivial_module(H)
        ind = induced_module(emb, k, _dual_free(D))
        assert ind.dim == H.dim

    def test_b2_over_b1_dimension(self):
        imap = bk_inclusion(1, 1)
        k = trivial_module(build_bk(1))
        ind = induced_module(imap, k, _free(imap, [{0: FR1}, {1: FR1}]))
        assert ind.dim == 2
        assert verify_module(ind) == []

    def test_free_path_agrees_with_quotient(self):
        """Induction on the dual free basis and on its rebasing (q, whose
        rewrite table has non-unit coefficients) give isomorphic modules."""
        H = build_bk(1)
        D = drinfeld_double(H)
        k = trivial_module(H)
        emb = D.inclusion_base
        rebased_free = _free(emb, rebased(D.dual_part_basis()))
        q = induced_module(emb, k, rebased_free)
        f = induced_module(emb, k, _dual_free(D))
        assert q.dim == f.dim == 4
        assert verify_module(q) == [] and verify_module(f) == []
        # the hom space to a common target has the same dimension either way
        triv_D = module_from_character(
            D.algebra, {i: c for i, c in enumerate(D.hopf.counit) if c})
        assert len(hom_space(q, triv_D)) == len(hom_space(f, triv_D))
        # on the trivial and the regular B_1-module, the free section u ox e_v
        # sent to its class [u ox e_v] in the rebased coordinates, Q_q S_f,
        # is an isomorphism
        for V in (k, regular_module(H.algebra)):
            q = induced_module(emb, V, rebased_free)
            f = induced_module(emb, V, _dual_free(D))
            iso = _classes(q, f.section())
            assert is_intertwiner(iso, f, q)
            assert rank(iso) == q.dim == f.dim == H.dim * V.dim

    def test_induced_along_identity_keeps_dimension(self):
        A = build_bk(1).algebra
        ident = AlgebraMap(A, A, [{i: FR1} for i in range(A.dim)])
        reg = regular_module(A)
        ind = induced_module(ident, reg, _free(ident, [dict(A.unit)]))
        assert ind.dim == reg.dim
        f = ind.unit()
        assert rank(f) == reg.dim
        assert is_intertwiner(f, reg, ind)


def _dense_mul(X, Y):
    cols = [{k: y for k, y in enumerate(col) if y} for col in zip(*Y)]
    return [[sum((row[k] * y for k, y in col.items()), Fraction(0)) for col in cols]
            for row in X]


def dense_left(A, i):
    """The dense matrix of x -> e_i x, read from A's structure constants."""
    return [[A.mult.get((i, j), {}).get(k, Fraction(0)) for j in range(A.dim)]
            for k in range(A.dim)]


def _left_mult_dense(A, a, X, nv):
    """(L_a ox 1) X for a dense matrix X with rows on A ox V (a * nv + v)."""
    out = [[Fraction(0)] * len(X[0]) for _ in X]
    for (i, j), prod in A.mult.items():
        if i == a:
            for k, c in prod.items():
                for v in range(nv):
                    out[k * nv + v] = [o + c * x for o, x in zip(out[k * nv + v], X[j * nv + v])]
    return out


# pairs B -> A with a free basis of A over i(B)
_INDUCTION_PAIRS = {
    "(D(B_1), B_1)": (drinfeld_double(build_bk(1)).inclusion_base,
                      drinfeld_double(build_bk(1)).dual_part_basis()),
    # 1 + x_1 and 2 x_1: the rewrite table then has coefficients other than 1
    "(B_2, B_1)": (bk_inclusion(1, 1), [{0: FR1, 1: FR1}, {1: Fraction(2)}]),
}


@settings(max_examples=15, deadline=None)
@given(data=st.data(), pair=st.sampled_from(sorted(_INDUCTION_PAIRS)))
def test_induced_module_matches_dense_oracle(data, pair):
    """Induction of a random B-module V (a cyclic submodule of the regular
    module, on a random basis of it) on the given free basis and on its
    rebasing agrees with the dense quotient (A ox V) / relations of
    `induced_dense`: pi S is an isomorphism that intertwines the
    actions, pi Q = pi S Q is the class map, the unit is [1 ox v], and Q S = 1.
    V itself is checked first: B rho_V(e_b) = rho_reg(e_b) B for its basis B."""
    imap, free_basis = _INDUCTION_PAIRS[pair]
    A, B = imap.target, imap.source
    coef = st.integers(-3, 3).map(Fraction)
    start = data.draw(st.dictionaries(st.integers(0, B.dim - 1), coef.filter(bool), min_size=1))
    span = left_span(B, start, [{i: FR1} for i in range(B.dim)])
    basis = [dict(v) for v in span]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            x = data.draw(coef)
            for k, c in span[j].items():
                basis[i][k] = basis[i].get(k, 0) + x * c
    basis = [{k: c for k, c in v.items() if c} for v in basis]
    V = submodule_on_basis(B, basis, regular_module(B).act_basis)
    nv = V.dim
    # V's coordinates, read at the pivots of a basis not in marker form
    Bmat = densify_matrix(SparseMatrix.from_columns(B.dim, basis))
    for b in range(B.dim):
        assert _dense_mul(Bmat, densify_matrix(V.action(b))) == _dense_mul(dense_left(B, b), Bmat)
    pi = induced_dense(A.mult, A.dim, [imap.apply_basis(b) for b in range(B.dim)],
                       [densify_matrix(V.action(b)) for b in range(B.dim)])
    for u_basis in (free_basis, rebased(free_basis)):
        ind = induced_module(imap, V, _free(imap, u_basis))
        assert _classes(ind, ind.section()) == SparseMatrix.identity(ind.dim)
        S = densify_matrix(ind.section())
        T = _dense_mul(pi, S)
        assert len(pi) == ind.dim == dense_rank(T)
        Q = densify_matrix(_classes(ind, SparseMatrix.identity(A.dim * nv)))
        assert _dense_mul(T, Q) == pi
        one = [[A.unit.get(i // nv, 0) * (i % nv == v) for v in range(nv)]
               for i in range(A.dim * nv)]
        assert _dense_mul(T, densify_matrix(ind.unit())) == _dense_mul(pi, one)
        for a in range(A.dim):
            assert (_dense_mul(T, densify_matrix(ind.action(a)))
                    == _dense_mul(pi, _left_mult_dense(A, a, S, nv)))


class TestModuleMapKernel:
    def test_identity_map_zero_kernel(self):
        H = build_bk(1)
        k = trivial_module(H)
        K, incl = module_map_kernel(SparseMatrix.identity(1), k, k)
        assert K.dim == 0

    def test_zero_map_full_kernel(self):
        H = build_bk(1)
        reg = regular_module(H.algebra)
        K, incl = module_map_kernel(SparseMatrix(H.dim, H.dim, {}), reg, reg)
        assert K.dim == H.dim

    def test_counit_kernel_of_induced(self):
        # ker(eps: D(B_1) ox_{B_1} k -> k) has dimension 3
        H = build_bk(1)
        D = drinfeld_double(H)
        k = trivial_module(H)
        ind = induced_module(D.inclusion_base, k, _dual_free(D))
        kD = module_from_character(
            D.algebra, {i: c for i, c in enumerate(D.hopf.counit) if c})
        eps_cols = []
        for u in ind.section().columns():  # u ox 1, flat index u
            e = D.hopf.counit_vec(u)
            eps_cols.append({0: e} if e else {})
        f = SparseMatrix.from_columns(1, eps_cols)
        K, incl = module_map_kernel(f, ind, kD)
        assert K.dim == 3
        assert f.matmul(incl).is_zero()

    def test_submodule_on_unstable_subspace_raises(self):
        # span{1} in the regular B_1-module: x . 1 = x leaves it
        A = build_bk(1).algebra
        sub = submodule_on_basis(A, [dict(A.unit)], regular_module(A).act_basis)
        with pytest.raises(AlgebraError, match="not stable"):
            [sub.action(i) for i in range(A.dim)]

    def test_rejects_non_intertwiner(self):
        H = build_bk(1)
        reg = regular_module(H.algebra)
        bad = SparseMatrix(H.dim, H.dim, {(0, 1): FR1})
        with pytest.raises(Exception):
            module_map_kernel(bad, reg, reg)

    def test_rank_nullity_of_intertwiner(self):
        H = build_bk(1)
        D = drinfeld_double(H)
        k = trivial_module(H)
        ind = induced_module(D.inclusion_base, k, _dual_free(D))
        kD = module_from_character(
            D.algebra, {i: c for i, c in enumerate(D.hopf.counit) if c})
        (f,) = hom_space(ind, kD) and hom_space(ind, kD)[:1]
        K, incl = module_map_kernel(f, ind, kD)
        assert K.dim + rank(f) == ind.dim
        assert f.matmul(incl).is_zero()


def test_tensor_algebra_layout_matches_dense_kron():
    """e_a ox e_b of B_1 ox QQ[Z/3] sits at a * 3 + b and multiplies by
    L_a ox L_b; the unit is 1 ox 1 and the generators are g ox 1, 1 ox g.
    The factors differ in dimension, so a b-major layout fails."""
    A, B = build_bk(1).algebra, build_cyclic(3).algebra
    T = tensor_algebra(A, B)
    for a in range(A.dim):
        for b in range(B.dim):
            assert dense_left(T, a * B.dim + b) == dense_kron(dense_left(A, a), dense_left(B, b))
    assert dense_column(T.unit, T.dim) == dense_kron(dense_column(A.unit, A.dim),
                                                     dense_column(B.unit, B.dim))
    want = ([dense_kron(dense_column(g, A.dim), dense_column(B.unit, B.dim))
             for g in A.generators]
            + [dense_kron(dense_column(A.unit, A.dim), dense_column(g, B.dim))
               for g in B.generators])
    assert [dense_column(g, T.dim) for g in T.generators] == want


class TestTensorAlgebra:
    def test_tensor_with_scalars(self):
        A = build_bk(1).algebra
        k = Algebra(1, ["1"], {(0, 0): {0: FR1}}, {0: FR1})
        T = tensor_algebra(A, k)
        assert T.dim == A.dim
        assert verify_algebra(T) == []
        assert T.mult == A.mult

    def test_b1_squared_dimension(self):
        T = tensor_algebra(build_bk(1).algebra, build_bk(1).algebra)
        assert T.dim == 16
        assert verify_algebra(T) == []

    def test_tensor_module_axioms(self):
        H = build_bk(1)
        T = tensor_algebra(H.algebra, H.algebra)
        M = tensor_module(trivial_module(H), regular_module(H.algebra), T)
        assert M.dim == 4
        assert verify_module(M) == []
