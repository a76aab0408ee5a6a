from fractions import Fraction

import pytest

from hopfdy.exactlin import FR1, TensorElement
from hopfdy.algcore import Algebra
from hopfdy.hopfcore import (HopfAlgebra, HopfError, bk_dual_generators, bk_inclusion,
                             build_bk, build_cyclic, catalog_hopf, dual_hopf, is_hopf_map,
                             iterated_coproduct, tensor_hopf, verify_hopf)
from hopfdy.exactlin import SparseMatrix

from oracles import dense_kron, densify_matrix

HALF = Fraction(1, 2)


def b1_violations(gens, comult=None, counit=None, antipode=None):
    """verify_hopf of B_1 (basis 1, x1, g, x1g) with one structure map
    replaced, its generators "kept" or "stripped"."""
    H = build_bk(1)
    A = H.algebra
    B = Algebra(A.dim, A.labels, A.mult, A.unit,
                generators=A.generators if gens == "kept" else None)
    return verify_hopf(HopfAlgebra(B, [TensorElement(B, 2, d.coeffs) for d in comult or H.comult],
                                   counit or H.counit, antipode or H.antipode))


class TestVerifyHopf:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cyclic_clean(self, n):
        assert verify_hopf(build_cyclic(n)) == []

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bk_clean(self, k):
        assert verify_hopf(build_bk(k)) == []

    def test_fault_injection_names_antipode(self):
        H = build_bk(1)
        ent = dict(H.antipode.entries)
        # replace S(x) = gx by x
        ent.pop((3, 1), None)
        ent[(1, 1)] = FR1
        bad = SparseMatrix(H.dim, H.dim, ent)
        # S(g) = g + 1 breaks the two sides at different basis elements
        lopsided = SparseMatrix(H.dim, H.dim, {**H.antipode.entries, (0, 2): FR1})
        for gens in ("kept", "stripped"):
            assert sorted(b1_violations(gens, antipode=bad)) == [
                "antipode axiom (S ox id) fails at x1", "antipode axiom (id ox S) fails at x1"]
            assert sorted(b1_violations(gens, antipode=lopsided)) == [
                "antipode axiom (S ox id) fails at g", "antipode axiom (S ox id) fails at x1g",
                "antipode axiom (id ox S) fails at g", "antipode axiom (id ox S) fails at x1"]

    @pytest.mark.parametrize("gens", ["kept", "stripped"])
    def test_fault_injection_coproduct_entry(self, gens):
        H = build_bk(1)
        comult = list(H.comult)
        comult[1] = TensorElement(H.algebra, 2, {(0, 1): Fraction(2), (1, 2): FR1})  # 2 ox x
        want = (["(gen0, g)", "(gen0, x1g)", "(gen1, x1)", "(gen1, x1g)"] if gens == "kept"
                else ["(g, x1)", "(g, x1g)", "(x1, g)", "(x1, x1g)", "(x1g, g)", "(x1g, x1)"])
        assert sorted(b1_violations(gens, comult=comult)) == sorted(
            ["Delta not multiplicative on " + w for w in want]
            + ["antipode axiom (S ox id) fails at x1", "antipode axiom (id ox S) fails at x1",
               "coassociativity fails at x1", "counit axiom fails at x1"])

    def test_corrupted_coproduct_off_the_generators(self):
        """Delta(x1x2) doubled in one term, on B_2 with its generators:
        coassociativity and the counit axiom run on the generators only
        after Delta is multiplicative, so the fault is still named."""
        H = build_bk(2)
        A = H.algebra
        B = Algebra(A.dim, A.labels, A.mult, A.unit, generators=A.generators)
        comult = [TensorElement(B, 2, d.coeffs) for d in H.comult]
        assert A.labels[3] == "x1x2" and comult[3].coeffs[(0, 3)] == 1
        comult[3] = TensorElement(B, 2, {**comult[3].coeffs, (0, 3): 2})
        report = verify_hopf(HopfAlgebra(B, comult, H.counit, H.antipode))
        assert "Delta not multiplicative on (gen0, x2)" in report
        assert "coassociativity fails at x1x2" in report
        assert "counit axiom fails at x1x2" in report

    @pytest.mark.parametrize("gens", ["kept", "stripped"])
    def test_fault_injection_counit_entry(self, gens):
        H = build_bk(1)
        counit = list(H.counit)
        counit[2] = Fraction(2)  # eps(g) = 2
        assert sorted(b1_violations(gens, counit=counit)) == [
            "antipode axiom (S ox id) fails at g", "antipode axiom (id ox S) fails at g",
            "counit axiom fails at g", "counit axiom fails at x1", "counit axiom fails at x1g",
            "eps not multiplicative on (%s, g)" % ("gen1" if gens == "kept" else "g")]

    def test_singular_antipode_has_no_inverse(self):
        H = build_bk(1)
        ent = dict(H.antipode.entries)
        ent.pop((3, 1))  # S(x) = 0 instead of gx
        bad = HopfAlgebra(H.algebra, H.comult, H.counit, SparseMatrix(H.dim, H.dim, ent))
        with pytest.raises(HopfError):
            bad.antipode_inverse()

    def test_antipode_inverse_published_write_once(self):
        """Two threads that invert one fresh antipode at the same time get
        the very same matrix."""
        import sys
        import threading
        H = build_bk(3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                fresh = HopfAlgebra(H.algebra, H.comult, H.counit, H.antipode)
                start = threading.Barrier(2)
                results = []

                def run():
                    start.wait()
                    results.append(fresh.antipode_inverse())

                threads = [threading.Thread(target=run) for _ in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert len(results) == 2 and results[0] is results[1]
        finally:
            sys.setswitchinterval(interval)


class TestBk:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_dimension(self, k):
        assert build_bk(k).dim == 2 ** (k + 1)

    def test_coproduct_of_x1(self):
        H = build_bk(2)
        g = 1 << 2
        assert H.comult[1].coeffs == {(0, 1): FR1, (1, g): FR1}

    def test_g_anticommutes_with_x(self):
        H = build_bk(2)
        g = 1 << 2
        assert H.algebra.mul_basis(g, 1) == {1 | g: Fraction(-1)}
        assert H.algebra.mul_basis(1, g) == {1 | g: FR1}

    def test_x_square_zero(self):
        H = build_bk(3)
        for i in range(3):
            assert H.algebra.mul_basis(1 << i, 1 << i) == {}

    def test_antipode_on_generators(self):
        H = build_bk(2)
        g = 1 << 2
        assert H.antipode_vec({1: FR1}) == H.algebra.mul_basis(g, 1)  # S(x) = g x
        assert H.antipode_vec({g: FR1}) == {g: FR1}


class TestDual:
    def test_dual_op_is_hopf(self):
        assert verify_hopf(dual_hopf(build_bk(1), True)) == []
        assert verify_hopf(dual_hopf(build_bk(2), True)) == []
        assert verify_hopf(dual_hopf(build_bk(1), False)) == []
        assert verify_hopf(dual_hopf(build_cyclic(3), True)) == []

    def test_dual_generators_satisfy_presentation(self):
        # y_i y_j = -y_j y_i, h y_i = -y_i h, y_i^2 = 0, h^2 = 1
        k = 2
        Hd = dual_hopf(build_bk(k), True)
        gens = bk_dual_generators(k)
        y1, y2, h = gens[0], gens[1], gens[2]
        mul = Hd.algebra.mul_vec
        assert mul(y1, y1) == {}
        assert mul(y2, y2) == {}
        s = dict(mul(y1, y2))
        for i, c in mul(y2, y1).items():
            s[i] = s.get(i, Fraction(0)) + c
        assert not {i: c for i, c in s.items() if c}
        s = dict(mul(h, y1))
        for i, c in mul(y1, h).items():
            s[i] = s.get(i, Fraction(0)) + c
        assert not {i: c for i, c in s.items() if c}
        assert mul(h, h) == Hd.algebra.unit

    def test_double_dual_is_isomorphic_as_algebra(self):
        H = build_bk(1)
        dd = dual_hopf(dual_hopf(H, False), False)
        # the canonical pairing gives an invertible intertwiner of regular reps
        # over the double dual; here both algebras have equal structure constants
        assert dd.algebra.mult == H.algebra.mult
        assert dd.algebra.unit == H.algebra.unit


class TestTensorHopf:
    def test_b1_squared(self):
        T = tensor_hopf(build_bk(1), build_bk(1))
        assert T.dim == 16
        assert verify_hopf(T) == []

    def test_layout_matches_dense_kron(self):
        """On B_1 ox QQ[Z/3] (unequal factors, so a b-major layout fails):
        Delta(e_i ox e_j) is Delta(e_i) ox Delta(e_j) as matrices, the counit
        eps_1 ox eps_2 and the antipode S_1 ox S_2."""
        H1, H2 = build_bk(1), build_cyclic(3)
        T = tensor_hopf(H1, H2)
        assert verify_hopf(T) == []
        for i in range(H1.dim):
            for j in range(H2.dim):
                got = densify_matrix(SparseMatrix(T.dim, T.dim, T.comult[i * H2.dim + j].coeffs))
                assert got == dense_kron(
                    densify_matrix(SparseMatrix(H1.dim, H1.dim, H1.comult[i].coeffs)),
                    densify_matrix(SparseMatrix(H2.dim, H2.dim, H2.comult[j].coeffs)))
        assert [T.counit] == dense_kron([H1.counit], [H2.counit])
        assert densify_matrix(T.antipode) == dense_kron(densify_matrix(H1.antipode),
                                                        densify_matrix(H2.antipode))


class TestCoproductCalculus:
    def test_grouplike(self):
        H = build_cyclic(2)
        u = H.element({1: FR1})
        assert iterated_coproduct(H, u, 0).coeffs == {(1, 1): FR1}

    def test_x_primitive_like(self):
        H = build_bk(2)
        u = H.element({1: FR1})
        g = 1 << 2
        assert iterated_coproduct(H, u, 0).coeffs == {(0, 1): FR1, (1, g): FR1}

    def test_coassociative_bracketing(self):
        H = build_bk(2)
        u = TensorElement(H.algebra, 1, {(7,): Fraction(2), (3,): Fraction(-1, 3)})
        d = iterated_coproduct(H, u, 0)
        assert iterated_coproduct(H, d, 0) == iterated_coproduct(H, d, 1)

    def test_counit_axiom_matrixwise(self):
        for H in (build_bk(2), build_cyclic(3), dual_hopf(build_bk(1), True)):
            for i in range(H.dim):
                d = H.comult[i]
                e = H.element({i: FR1})
                assert d.contract_at(0, H.counit) == e
                assert d.contract_at(1, H.counit) == e

    def test_counit_kills_x(self):
        H = build_bk(1)
        u = TensorElement(H.algebra, 2, {(0, 1): FR1})  # 1 ox x
        assert u.contract_at(1, H.counit).is_zero()

    def test_counit_squared_on_r0(self):
        from hopfdy.rmatrix import bk_r0
        H = build_bk(1)
        R = bk_r0(1, H)
        scalar = R.contract_at(0, H.counit).contract_at(0, H.counit)
        assert scalar.coeffs == {(): FR1}

    def test_antipode_at_slot(self):
        H = build_bk(1)
        g = 1 << 1
        u = TensorElement(H.algebra, 2, {(1, 0): FR1})  # x ox 1
        # S(x) = g x = -(x g) in the normal-ordered monomial basis
        assert u.apply_matrix_at(0, H.antipode).coeffs == {(1 | g, 0): Fraction(-1)}


class TestHopfInclusion:
    def test_bk_inclusion_is_hopf_map(self):
        assert is_hopf_map(bk_inclusion(1, 1), build_bk(1), build_bk(2)) == []
        assert is_hopf_map(bk_inclusion(2, 1), build_bk(1), build_bk(3)) == []

    def test_non_hopf_map_detected(self):
        from hopfdy.algcore import AlgebraMap
        Hs, Ht = build_bk(1), build_bk(2)
        cols = [dict() for _ in range(Hs.dim)]
        cols[0] = dict(Ht.algebra.unit)
        cols[1] = {2: FR1}
        cols[2] = {0: FR1}   # g -> 1 is an algebra map but not a coalgebra map
        cols[3] = {2: FR1}
        bad = AlgebraMap(Hs.algebra, Ht.algebra, cols)
        assert is_hopf_map(bad, Hs, Ht) != []


class TestCatalog:
    def test_keys(self):
        assert catalog_hopf("cyclic:4").dim == 4
        assert catalog_hopf("bk:2").dim == 8
        with pytest.raises(Exception):
            catalog_hopf("nope:1")

    def test_trivial_group(self):
        H = catalog_hopf("cyclic:1")
        assert H.dim == 1
        assert verify_hopf(H) == []

