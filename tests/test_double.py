from fractions import Fraction
from pathlib import Path

import pytest

from hopfdy.algcore import (Algebra, AlgebraMap, _act_matrix, check_generators_span,
                            tensor_algebra, verify_module)
from hopfdy.double import (TwistNotSupportedError, build_c_pm, center_module_from_rmatrix,
                           coeff_restriction, coeff_tensor_product,
                           drinfeld_double, ell_maps, ell_minus, ell_plus)
from hopfdy.exactlin import FR1, TensorElement, unit_tensor, vec_eq, vec_scale
from hopfdy.hopfcore import (bk_dual_generators, bk_inclusion, build_bk, build_cyclic,
                             trivial_module, verify_hopf)
from hopfdy.hopffile import load_hopf
from hopfdy.rmatrix import bk_r0, check_rmatrix

from oracles import antipode_dense

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def D1():
    return drinfeld_double(build_bk(1))


@pytest.fixture(scope="module")
def D2():
    return drinfeld_double(build_bk(2))


class TestDrinfeldDouble:
    def test_dimension_squares(self, D1, D2):
        assert D1.dim == 16
        assert D2.dim == 64

    def test_double_is_hopf(self, D1):
        assert verify_hopf(D1.hopf) == []

    def test_double_of_cyclic(self):
        D = drinfeld_double(build_cyclic(2))
        assert D.dim == 4
        assert verify_hopf(D.hopf) == []

    @pytest.mark.parametrize("make", [
        lambda: build_cyclic(3), lambda: build_bk(1),
        lambda: load_hopf(str(Path(__file__).parent / "data" / "bk_1_basis_f3.json"))],
        ids=["cyclic_3", "bk_1", "bk_1_basis_f3"])
    def test_antipode_matches_dense_solve(self, make):
        """S(phi h) = S(h) S(phi) is the unique solution of the antipode
        axiom, solved densely from the double's structure tables."""
        D = drinfeld_double(make())
        assert D.hopf.antipode.entries == antipode_dense(D.hopf)

    def test_embeddings_are_algebra_maps(self, D1, D2):
        for D in (D1, D2):
            assert D.inclusion_base.verify() == []
            assert D.inclusion_dual.verify() == []

    def test_straightening_closes(self, D2):
        # h y_i products close inside D and the axioms hold (checked above);
        # spot-check that x1 and y1 do not commute
        y1 = D2.inclusion_dual.apply(bk_dual_generators(2)[0])
        x1 = D2.inclusion_base.apply_basis(1)
        A = D2.algebra
        assert A.mul_vec(x1, y1) != A.mul_vec(y1, x1)


class TestEllMaps:
    def test_ell_of_counit_is_unit(self, D1):
        H = D1.base
        R = bk_r0(1, H)
        eps_row = H.counit_row()
        assert ell_plus(H, R, eps_row) == H.unit
        assert ell_minus(H, R, eps_row) == H.unit

    @pytest.mark.parametrize("k", [1, 2])
    def test_ell_on_dual_generators(self, k):
        # l(h) = g and l(y_i) = 0 for R0
        D = drinfeld_double(build_bk(k))
        H = D.base
        R = bk_r0(k, H)
        gens = bk_dual_generators(k)
        g_idx = 1 << k
        assert ell_plus(H, R, gens[-1]) == {g_idx: FR1}
        assert ell_minus(H, R, gens[-1]) == {g_idx: FR1}
        for y in gens[:-1]:
            assert ell_plus(H, R, y) == {}
            assert ell_minus(H, R, y) == {}

    @staticmethod
    def _check_both_paths(D, k):
        """AlgebraMap.verify on the certified generators of D(B_k), and on a
        copy of D(B_k) without generators, which checks every basis pair."""
        H = D.base
        R = bk_r0(k, H)
        rep = check_rmatrix(H, R)
        A = D.algebra
        plain = Algebra(A.dim, A.labels, A.mult, A.unit)
        assert check_generators_span(A)
        for pi in ell_maps(D, R, rep.inverse):
            assert pi.verify() == []
            assert AlgebraMap(plain, pi.target, pi.columns).verify() == []

    def test_extended_maps_are_algebra_maps(self, D1):
        self._check_both_paths(D1, 1)

    def test_extended_maps_b2_generator_level(self, D2):
        self._check_both_paths(D2, 2)


@pytest.fixture(scope="module")
def W1(D1):
    H = D1.base
    R = bk_r0(1, H)
    rep = check_rmatrix(H, R)
    E = tensor_algebra(D1.algebra, D1.algebra)
    return coeff_tensor_product(D1, R, rep.inverse, E)


class TestCoeffTensorProduct:
    def test_dimension_is_dim_h(self, W1, D1):
        assert W1.module.dim == D1.base.dim

    def test_unit_acts_as_identity(self, W1, D1):
        E = W1.module.algebra
        from hopfdy.exactlin import SparseMatrix
        assert _act_matrix(W1.module, E.unit) == SparseMatrix.identity(W1.module.dim)

    def test_w_pm_actions(self, W1, D1):
        # the printed basis action: (1 ox g) w_pm = pm w_pm,
        # (y ox 1) w_pm = 0, (x ox 1) w_+ = -(x |> w_-)
        H = D1.base
        k = 1
        g = 1 << k
        xall = (1 << k) - 1
        wp = {xall: FR1, xall | g: FR1}
        wm = {xall: FR1, xall | g: Fraction(-1)}
        nd = D1.dim
        embH = D1.inclusion_base
        embD = D1.inclusion_dual

        def embE(da, db):
            return {i * nd + j: ci * cj for i, ci in da.items() for j, cj in db.items()}

        one_D = D1.algebra.unit
        act = lambda e, v: _act_matrix(W1.module, e).mul_vec(v)
        gD = embH.apply_basis(g)
        assert act(embE(one_D, gD), wp) == wp
        assert vec_eq(act(embE(one_D, gD), wm), vec_scale(wm, Fraction(-1)))
        y = embD.apply(bk_dual_generators(k)[0])
        assert act(embE(y, one_D), wp) == {}
        assert act(embE(one_D, y), wm) == {}
        xD = embH.apply_basis(1)
        from hopfdy.hopfcore import coreg_left
        want = vec_scale(coreg_left(H, {1: FR1}, wm), Fraction(-1))
        assert vec_eq(act(embE(xD, one_D), wp), want)


class TestCoeffRestriction:
    def test_full_subalgebra_dimension_one(self, D1):
        # K = H: the integral-like functionals; for B_1 dimension 1
        H = D1.base
        from hopfdy.algcore import AlgebraMap
        ident = AlgebraMap(H.algebra, H.algebra, [{i: FR1} for i in range(H.dim)])
        W = coeff_restriction(D1, ident, H)
        assert W.module.dim == 1

    def test_trivial_subalgebra_full_dual(self, D1):
        from hopfdy.algcore import Algebra, AlgebraMap
        from hopfdy.exactlin import SparseMatrix
        from hopfdy.hopfcore import HopfAlgebra
        H = D1.base
        k = Algebra(1, ["1"], {(0, 0): {0: FR1}}, {0: FR1})
        kh = HopfAlgebra(k, [TensorElement(k, 2, {(0, 0): FR1})], [FR1],
                         SparseMatrix.identity(1))
        emb = AlgebraMap(k, H.algebra, [dict(H.algebra.unit)])
        W = coeff_restriction(D1, emb, kh)
        assert W.module.dim == H.dim

    def test_b1_in_b2_printed_action(self, D2):
        W = coeff_restriction(D2, bk_inclusion(1, 1), build_bk(1))
        M = W.module
        assert M.dim == 2
        g = 1 << 2
        mg = _act_matrix(M, D2.inclusion_base.apply_basis(g))
        assert mg.entries == {(0, 0): FR1, (1, 1): Fraction(-1)}
        h_vec = {0: FR1, g: Fraction(-1)}
        mh = _act_matrix(M, D2.inclusion_dual.apply(h_vec))
        assert mh == mg
        for i in range(2):
            y = bk_dual_generators(2)[i]
            assert _act_matrix(M, D2.inclusion_dual.apply(y)).is_zero()

    def test_twist_rejected(self, D2):
        H = D2.base
        J = TensorElement(H.algebra, 2, {(0, 0): FR1, (1, 2): FR1})
        with pytest.raises(TwistNotSupportedError):
            coeff_restriction(D2, bk_inclusion(1, 1), build_bk(1), twist=J)

    def test_trivial_twist_accepted(self, D2):
        J = unit_tensor(D2.base.algebra, 2)
        W = coeff_restriction(D2, bk_inclusion(1, 1), build_bk(1), twist=J)
        assert W.module.dim == 2


class TestCenterModules:
    def test_trivial_module_inverse_braiding(self, D1):
        H = D1.base
        R = bk_r0(1, H)
        rep = check_rmatrix(H, R)
        M = center_module_from_rmatrix(D1, R, rep.inverse, trivial_module(H),
                                       "inverse_braiding")
        # trivial D-module: counit action
        for flat in range(D1.dim):
            assert M.action(flat).entries.get((0, 0), Fraction(0)) == \
                D1.hopf.counit[flat]

    def test_y_kills_regular_pullback(self, D1):
        from hopfdy.algcore import regular_module
        H = D1.base
        R = bk_r0(1, H)
        rep = check_rmatrix(H, R)
        M = center_module_from_rmatrix(D1, R, rep.inverse, regular_module(H.algebra),
                                       "inverse_braiding")
        y = D1.inclusion_dual.apply(bk_dual_generators(1)[0])
        assert _act_matrix(M, y).is_zero()

    def test_restriction_back_to_h_is_original(self, D1):
        from hopfdy.algcore import regular_module
        H = D1.base
        R = bk_r0(1, H)
        rep = check_rmatrix(H, R)
        for variant in ("braiding", "inverse_braiding"):
            M = center_module_from_rmatrix(D1, R, rep.inverse,
                                           regular_module(H.algebra), variant)
            for j in range(H.dim):
                emb = D1.inclusion_base.apply_basis(j)
                assert _act_matrix(M, emb) == H.algebra.left_mult_matrix(j)

    def test_dual_braiding_module_axioms(self, D1):
        from hopfdy.algcore import regular_module
        H = D1.base
        R = bk_r0(1, H)
        rep = check_rmatrix(H, R)
        M = center_module_from_rmatrix(D1, R, rep.inverse,
                                       regular_module(H.algebra), "dual_braiding")
        assert verify_module(M) == []


class TestCPM:
    @pytest.mark.parametrize("k", [1, 2])
    def test_dimensions(self, k):
        D = drinfeld_double(build_bk(k))
        assert build_c_pm(D, +1).dim == 2 ** k
        assert build_c_pm(D, -1).dim == 2 ** k

    def test_x_acts_by_zero(self, D2):
        cp = build_c_pm(D2, +1)
        for i in range(2):
            x = D2.inclusion_base.apply_basis(1 << i)
            assert _act_matrix(cp, x).is_zero()

    def test_h_eigenvector(self, D2):
        g = 1 << 2
        h_vec = {0: FR1, g: Fraction(-1)}
        for sign in (+1, -1):
            c = build_c_pm(D2, sign)
            mh = _act_matrix(c, D2.inclusion_dual.apply(h_vec))
            # f_pm is basis vector 0 and an h-eigenvector of eigenvalue pm 1
            assert mh.col(0) == {0: Fraction(sign)}


def test_reloaded_algebra_releases_its_double(tmp_path):
    """Caches live on their owners: once a loaded algebra and its double are
    dropped, nothing keeps the double (or what relext built on it) alive."""
    import gc
    import weakref

    from hopfdy.hopffile import load_hopf, save_hopf
    from hopfdy.relext import pair_from_double, relative_ext_dims, trivial_module_over

    path = str(tmp_path / "bk1.json")
    save_hopf(build_bk(1), path)
    refs = []
    for _ in range(3):
        H = load_hopf(path)
        D = drinfeld_double(H)
        assert drinfeld_double(H) is D
        p, k = pair_from_double(D), trivial_module_over(D)
        for kind in ("bar", "cover"):
            assert relative_ext_dims(p, k, k, 1, kind=kind) == [1, 0]
        refs.append((weakref.ref(D), weakref.ref(p)))
        del H, D, p, k
        gc.collect()
        assert all(rd() is None and rp() is None for rd, rp in refs)


def test_loaded_algebra_verified_once(tmp_path, monkeypatch):
    """load_hopf, verify_hopf and drinfeld_double check the axioms of the
    loaded H once; the double is checked on its own."""
    from hopfdy import hopfcore
    from hopfdy.hopffile import save_hopf

    checked = []
    verify_algebra = hopfcore.verify_algebra

    def counting(A):
        checked.append(A.name)
        return verify_algebra(A)

    monkeypatch.setattr(hopfcore, "verify_algebra", counting)
    path = str(tmp_path / "bk1.json")
    save_hopf(build_bk(1), path)
    H = load_hopf(path)
    assert verify_hopf(H) == []
    D = drinfeld_double(H)
    assert checked == [path, D.algebra.name]
