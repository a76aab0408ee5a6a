from fractions import Fraction

import pytest

from hopfdy.exactlin import FR1, TensorElement
from hopfdy.hopfcore import (HopfAlgebra, HopfError, apply_antipode_at, apply_counit_at,
                             bk_dual_generators, bk_inclusion, bk_monomial_index,
                             build_bk, build_cyclic, catalog_hopf, coreg_left,
                             coreg_right, dual_hopf, is_hopf_map, iterated_coproduct,
                             tensor_hopf, verify_hopf)
from hopfdy.exactlin import SparseMatrix

HALF = Fraction(1, 2)


class TestVerifyHopf:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cyclic_clean(self, n):
        assert verify_hopf(build_cyclic(n)) == []

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bk_clean(self, k):
        assert verify_hopf(build_bk(k)) == []

    def test_fault_injection_names_antipode(self):
        H = build_bk(1)
        bad = SparseMatrix(H.dim, H.dim, dict(H.antipode.entries))
        ent = dict(bad.entries)
        # replace S(x) = gx by x
        ent.pop((3, 1), None)
        ent[(1, 1)] = FR1
        bad = SparseMatrix(H.dim, H.dim, ent)
        rep = verify_hopf(HopfAlgebra(H.algebra, H.comult, H.counit, bad))
        assert any("antipode" in line for line in rep)

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
        assert H.mul_basis(g, 1) == {1 | g: Fraction(-1)}
        assert H.mul_basis(1, g) == {1 | g: FR1}

    def test_x_square_zero(self):
        H = build_bk(3)
        for i in range(3):
            assert H.mul_basis(1 << i, 1 << i) == {}

    def test_antipode_on_generators(self):
        H = build_bk(2)
        g = 1 << 2
        assert H.antipode_vec({1: FR1}) == H.mul_basis(g, 1)  # S(x) = g x
        assert H.antipode_vec({g: FR1}) == {g: FR1}

    def test_monomial_index_helper(self):
        assert bk_monomial_index(2, [1, 2], 1) == 0b111


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
                assert apply_counit_at(H, d, 0) == e
                assert apply_counit_at(H, d, 1) == e

    def test_counit_kills_x(self):
        H = build_bk(1)
        u = TensorElement(H.algebra, 2, {(0, 1): FR1})  # 1 ox x
        assert apply_counit_at(H, u, 1).is_zero()

    def test_counit_squared_on_r0(self):
        from hopfdy.rmatrix import bk_r0
        H = build_bk(1)
        R = bk_r0(1, H)
        scalar = apply_counit_at(H, apply_counit_at(H, R, 0), 0)
        assert scalar.coeffs == {(): FR1}

    def test_antipode_at_slot(self):
        H = build_bk(1)
        g = 1 << 1
        u = TensorElement(H.algebra, 2, {(1, 0): FR1})  # x ox 1
        # S(x) = g x = -(x g) in the normal-ordered monomial basis
        assert apply_antipode_at(H, u, 0).coeffs == {(1 | g, 0): Fraction(-1)}


class TestCoregular:
    def test_unit_acts_trivially(self):
        H = build_bk(2)
        f = {3: FR1, 0: Fraction(-2)}
        assert coreg_left(H, H.unit, f) == f
        assert coreg_right(H, f, H.unit) == f

    def test_x_on_dual_basis(self):
        # in B_1: (x |> (xg)*)(g) = (xg)*(g x) = -1
        H = build_bk(1)
        g = 1 << 1
        f = coreg_left(H, {1: FR1}, {1 | g: FR1})
        assert f.get(g) == Fraction(-1)

    def test_g_fixes_w_pm(self):
        for k in (1, 2):
            H = build_bk(k)
            g = 1 << k
            xall = (1 << k) - 1
            wp = {xall: FR1, xall | g: FR1}
            wm = {xall: FR1, xall | g: Fraction(-1)}
            assert coreg_left(H, {g: FR1}, wp) == wp
            assert coreg_left(H, {g: FR1}, wm) == {i: -c for i, c in wm.items()}


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

    def test_module_keys(self):
        from hopfdy.hopfcore import catalog_module
        assert catalog_module("cplus:1").dim == 2
        assert catalog_module("cminus:2").dim == 4
        with pytest.raises(Exception):
            catalog_module("bk:1")

    def test_c_pm_via_catalog(self):
        from hopfdy.hopfcore import build_c_pm
        for k in (1, 2):
            cp = build_c_pm(k, +1)
            cm = build_c_pm(k, -1)
            assert cp.dim == 2 ** k and cm.dim == 2 ** k
