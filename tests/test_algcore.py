from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfdy.algcore import (Algebra, AlgebraError, AlgebraMap, ModuleRep, check_elements,
                            check_generators_span, evaluation, free_rewrite, hom_space,
                            induced_map, induced_module, left_span, module_from_character,
                            submodule_on_basis, tensor_algebra, tensor_module, verify_algebra,
                            verify_module)
from hopfdy.exactlin import FR1, SparseMatrix, rank_of_rows
from hopfdy.hopfcore import build_bk, build_cyclic, bk_inclusion, trivial_module
from hopfdy.double import drinfeld_double

from freebases import rebased
from oracles import (dense_column, dense_kron, dense_rank, dense_rref, densify_matrix,
                     induced_dense, intertwiner_basis_dense)


def regular_module(A):
    """The left regular A-module."""
    return ModuleRep(A, A.dim, action_fn=A.left_mult_matrix, name="regular(%s)" % A.name)


def is_intertwiner(f, M, N):
    """f rho_M(e_a) = rho_N(e_a) f for every basis element e_a."""
    return all(f.matmul(M.action(a)) == N.action(a).matmul(f) for a in range(M.algebra.dim))


def z2_algebra():
    return build_cyclic(2).algebra


def b1_algebra(gens, mult=None, unit=None):
    """The algebra of B_1 (basis 1, x1, g, x1g), optionally with corrupted
    products or unit, its generators "kept" or "stripped"."""
    A = build_bk(1).algebra
    return Algebra(A.dim, A.labels, mult or A.mult, unit or A.unit,
                   generators=A.generators if gens == "kept" else None)


class TestVerifyAlgebra:
    def test_group_algebra_clean(self):
        assert verify_algebra(z2_algebra()) == []

    def test_bk_clean(self):
        assert verify_algebra(build_bk(2).algebra) == []

    @pytest.mark.parametrize("gens", ["kept", "stripped"])
    def test_corrupted_mult_named(self, gens):
        bad_mult = dict(build_bk(1).algebra.mult)
        bad_mult[(1, 1)] = {0: FR1}  # x*x = 1 breaks associativity
        B = b1_algebra(gens, mult=bad_mult)
        assert check_generators_span(B) == (gens == "kept")
        # the witness names a generator on the generator path, a label otherwise
        a, b = ("gen0", "gen1") if gens == "kept" else ("x1", "g")
        want = ["(%s, g, x1g)" % a, "(%s, x1, g)" % a, "(%s, x1, x1g)" % a,
                "(%s, x1g, g)" % a, "(%s, x1, x1)" % b, "(%s, x1g, x1)" % b]
        if gens == "stripped":
            want += ["(x1g, g, x1)", "(x1g, x1, x1)"]
        assert sorted(verify_algebra(B)) == sorted(
            "associativity fails on triple " + w for w in want)

    @pytest.mark.parametrize("gens", ["kept", "stripped"])
    def test_corrupted_unit_named(self, gens):
        B = b1_algebra(gens, unit={0: FR1, 2: FR1})  # 1 + g is no unit
        assert sorted(verify_algebra(B)) == sorted(
            line % (i, i, label) for i, label in enumerate(B.labels)
            for line in ("unit law fails: 1*e_%d != e_%d (%s)",
                         "unit law fails: e_%d*1 != e_%d (%s)"))

    @pytest.mark.parametrize("gens", ["kept", "stripped"])
    def test_corrupted_map_column_named(self, gens):
        # B_1 -> B_2 with x -> x2 g (index 6) in place of x -> x2
        f = bk_inclusion(1, 1)
        cols = [f.apply_basis(i) for i in range(f.source.dim)]
        cols[1] = {6: FR1}
        rep = AlgebraMap(b1_algebra(gens), f.target, cols).verify()
        want = (["(gen0, g)", "(gen1, x1)", "(gen1, x1g)"] if gens == "kept" else
                ["(g, x1)", "(g, x1g)", "(x1, g)", "(x1g, g)"])
        assert sorted(rep) == ["product not preserved on " + w for w in want]

    @pytest.mark.parametrize("gens", ["kept", "stripped"])
    def test_corrupted_action_named(self, gens):
        # the regular module of B_1 with rho(x1) = L_x1 + E_00
        B = b1_algebra(gens)
        mats = [B.left_mult_matrix(i) for i in range(B.dim)]
        mats[1] = mats[1].add(SparseMatrix(4, 4, {(0, 0): FR1}))
        rep = verify_module(ModuleRep(B, 4, action=mats))
        want = (["(gen0, g)", "(gen0, x1)", "(gen1, x1)", "(gen1, x1g)"] if gens == "kept"
                else ["(g, x1)", "(g, x1g)", "(x1, g)", "(x1, x1)", "(x1g, g)", "(x1g, x1)"])
        assert sorted(rep) == ["action violates structure constants on " + w for w in want]

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

    def test_hom_from_zero_module(self):
        H = build_bk(1)
        k = trivial_module(H)
        Z = submodule_on_basis(k, [], [], name="zero")
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


def _free(imap, basis):
    """A free basis of imap.target over imap.source with its rewrite table."""
    return basis, free_rewrite(imap, basis)


def _dual_free(D):
    """The dual free basis of D(H) over H with its rewrite table."""
    return _free(D.inclusion_base, D.dual_part_basis())


def _classes(ind, M):
    """Q M for the class map Q of an induced module."""
    return SparseMatrix.from_columns(ind.dim, [ind.classes.apply(M.column(j))
                                                 for j in range(M.cols)])


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
            assert rank_of_rows(iso.row_dicts()) == q.dim == f.dim == H.dim * V.dim

    def test_induced_along_identity_keeps_dimension(self):
        A = build_bk(1).algebra
        ident = AlgebraMap(A, A, [{i: FR1} for i in range(A.dim)])
        reg = regular_module(A)
        ind = induced_module(ident, reg, _free(ident, [dict(A.unit)]))
        assert ind.dim == reg.dim
        f = ind.unit()
        assert rank_of_rows(f.row_dicts()) == reg.dim
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
    module, on its RREF basis, which is in marker form) on the given free
    basis and on its rebasing agrees with the dense quotient
    (A ox V) / relations of `induced_dense`: pi S is an isomorphism that
    intertwines the actions, pi Q = pi S Q is the class map, the unit is
    [1 ox v], and Q S = 1.
    V itself is checked first: B rho_V(e_b) = rho_reg(e_b) B for its basis B."""
    imap, free_basis = _INDUCTION_PAIRS[pair]
    A, B = imap.target, imap.source
    coef = st.integers(-3, 3).map(Fraction)
    start = data.draw(st.dictionaries(st.integers(0, B.dim - 1), coef.filter(bool), min_size=1))
    span = left_span(B, start, [{i: FR1} for i in range(B.dim)])
    rref, markers = dense_rref([[v.get(i, 0) for i in range(B.dim)] for v in span])
    basis = [{k: c for k, c in enumerate(row) if c} for row in rref[:len(markers)]]
    V = submodule_on_basis(regular_module(B), basis, markers)
    nv = V.dim
    # V's coordinates, read at the markers
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


@pytest.mark.parametrize("pair", sorted(_INDUCTION_PAIRS))
def test_induced_map_matches_dense_oracle(pair):
    """induced_map(left, P, f, L) = left (L ox f) S for an f whose columns 1
    and last are zero and a matrix L on A that is no multiplication.  With
    left = Q of P = Ind V (f : V -> V), read through the dense quotient pi
    of `induced_dense`: T M = pi (L ox f) S for T = pi S.  With left = E_A,
    the evaluation of the regular A-module (f : V -> A), read from A's
    structure constants.  Either result keeps all P.dim columns."""
    imap, free_basis = _INDUCTION_PAIRS[pair]
    A, B = imap.target, imap.source
    V = regular_module(B)
    nv = V.dim
    L = SparseMatrix(A.dim, A.dim, {(i, j): Fraction((3 * i + 5 * j) % 7 - 3)
                                    for i in range(A.dim) for j in range(A.dim)})
    dL = densify_matrix(L)

    def with_zero_columns(rows):
        return SparseMatrix(rows, nv, {(i, j): Fraction(i + j + 1) * (-1) ** i
                                       for i in range(rows) for j in range(nv)
                                       if j not in (1, nv - 1)})

    E = [[A.mult.get((a, m), {}).get(k, 0) for a in range(A.dim) for m in range(A.dim)]
         for k in range(A.dim)]
    pi = induced_dense(A.mult, A.dim, [imap.apply_basis(b) for b in range(B.dim)],
                       [densify_matrix(V.action(b)) for b in range(B.dim)])
    for u_basis in (free_basis, rebased(free_basis)):
        P = induced_module(imap, V, _free(imap, u_basis))
        S = densify_matrix(P.section())
        f = with_zero_columns(nv)
        M = induced_map(P.classes, P, f=f, L=L)
        lhs = _dense_mul(_dense_mul(pi, S), densify_matrix(M))
        assert lhs == _dense_mul(pi, _dense_mul(dense_kron(dL, densify_matrix(f)), S))
        f = with_zero_columns(A.dim)
        M = induced_map(evaluation(regular_module(A)), P, f=f, L=L)
        assert densify_matrix(M) == _dense_mul(E, _dense_mul(dense_kron(dL, densify_matrix(f)),
                                                             S))


class TestModuleMapKernel:
    def test_submodule_on_unstable_subspace_raises(self):
        # span{1} in the regular B_1-module: x . 1 = x leaves it
        A = build_bk(1).algebra
        sub = submodule_on_basis(regular_module(A), [dict(A.unit)], [0])
        with pytest.raises(AlgebraError, match="not stable"):
            [sub.action(i) for i in range(A.dim)]

    @pytest.mark.parametrize("basis,markers", [
        ([{0: FR1, 1: FR1}, {1: FR1}], [0, 1]),   # basis[0] is nonzero at marker 1
        ([{0: 2 * FR1}], [0]),                      # entry 2 at its own marker
        ([{0: FR1}, {1: FR1}], [0, 0]),             # a repeated marker
        ([{0: FR1}], [0, 1]),                       # more markers than vectors
    ])
    def test_submodule_refuses_a_basis_not_in_marker_form(self, basis, markers):
        A = build_bk(1).algebra
        with pytest.raises(AlgebraError, match="marker form"):
            submodule_on_basis(regular_module(A), basis, markers)


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
