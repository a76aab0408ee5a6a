import json
from fractions import Fraction
from pathlib import Path

import pytest

from hopfdy import double
from hopfdy.algcore import Algebra, AlgebraMap, _act_matrix, check_generators_span, tensor_algebra
from hopfdy.double import (DoubleAlgebra, _double_violations, coeff_restriction,
                           coeff_tensor_product, drinfeld_double, ell_maps, ell_minus, ell_plus)
from hopfdy.exactlin import FR1, SparseMatrix, TensorElement, unit_tensor, vec_eq
from hopfdy.hopfcore import (HopfAlgebra, _hopf_violations, bk_dual_generators, bk_inclusion,
                             build_bk, build_cyclic, verify_hopf)
from hopfdy.hopffile import load_hopf
from hopfdy.relext import adjunction_crosscheck_tensor
from hopfdy.rmatrix import RMatrixError, bk_r0, bk_r_lambda, check_rmatrix

from oracles import antipode_dense, dense_column, dense_kron, densify_matrix, double_mult_dense

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

    def test_layout_matches_dense_kron(self, D1):
        """phi^i h_j sits at i * dim H + j: the unit is eps ox 1, the
        embeddings are eps ox 1_H and 1_H* ox 1, the generators g ox 1 and
        eps ox g, the dual part basis is phi^i ox 1, and Delta(phi^i h_j) is
        Delta(phi^i) ox Delta(h_j) as matrices, Delta(phi^i)_{ab} being the
        coefficient of e_i in e_a e_b."""
        H, n = D1.base, D1.base.dim
        eps = {i: c for i, c in enumerate(H.counit) if c}
        ident = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]

        def cols(vectors):
            return densify_matrix(SparseMatrix.from_columns(D1.dim, vectors))

        assert dense_column(D1.algebra.unit, D1.dim) == dense_kron(
            dense_column(eps, n), dense_column(H.unit, n))
        assert cols(D1.inclusion_base.columns) == dense_kron(dense_column(eps, n), ident)
        assert cols(D1.inclusion_dual.columns) == dense_kron(ident, dense_column(H.unit, n))
        assert cols(D1.dual_part_basis()) == dense_kron(ident, dense_column(H.unit, n))
        want = ([dense_kron(dense_column(g, n), dense_column(H.unit, n))
                 for g in H.dual_generator_hint]
                + [dense_kron(dense_column(eps, n), dense_column(g, n))
                   for g in H.algebra.generators])
        assert [dense_column(g, D1.dim) for g in D1.algebra.generators] == want
        for i in range(n):
            dphi = [[H.algebra.mult.get((a, b), {}).get(i, Fraction(0)) for b in range(n)]
                    for a in range(n)]
            for j in range(n):
                dh = [[H.comult[j].coeffs.get((a, b), Fraction(0)) for b in range(n)]
                      for a in range(n)]
                got = [[D1.hopf.comult[i * n + j].coeffs.get((r, c), Fraction(0))
                        for c in range(D1.dim)] for r in range(D1.dim)]
                assert got == dense_kron(dphi, dh)

    @pytest.mark.parametrize("make", [
        lambda: build_bk(1), lambda: build_bk(2),
        lambda: load_hopf(str(Path(__file__).parent / "data" / "bk_1_basis_f3.json"))],
        ids=["bk_1", "bk_2", "bk_1_basis_f3"])
    def test_product_matches_dense_straightening(self, make):
        """Every structure constant of D(H) against h phi = (h(3) |> phi <|
        S(h(1))) h(2) written out over H's tables; a double with hphi = phih
        is the tensor-product Hopf algebra, which verify_hopf accepts."""
        D = drinfeld_double(make())
        assert D.algebra.mult == double_mult_dense(D.base)

    def test_straightening_closes(self, D2):
        # h y_i products close inside D and the axioms hold (checked above);
        # spot-check that x1 and y1 do not commute
        y1 = D2.inclusion_dual.apply(bk_dual_generators(2)[0])
        x1 = D2.inclusion_base.apply_basis(1)
        A = D2.algebra
        assert A.mul_vec(x1, y1) != A.mul_vec(y1, x1)


def _fresh_hopf(K, **replace):
    """K on a fresh copy of its algebra (same tables and generators, empty
    caches), with any of mult, comult, counit, antipode replaced."""
    A = K.algebra
    B = Algebra(A.dim, A.labels, replace.get("mult", A.mult), A.unit,
                generators=A.generators, name=A.name)
    comult = [TensorElement(B, 2, d.coeffs) for d in replace.get("comult", K.comult)]
    return HopfAlgebra(B, comult, replace.get("counit", K.counit),
                       replace.get("antipode", K.antipode), name=K.name)


def _hintless_bk1(tmp_path):
    from hopfdy.hopffile import hopf_to_json, load_hopf
    data = hopf_to_json(build_bk(1))
    del data["generators"], data["dual_generators"]
    path = tmp_path / "bk1_plain.json"
    path.write_text(json.dumps(data))
    return load_hopf(str(path))


class TestDoubleCertificate:
    """`drinfeld_double` certifies D through its factors
    (`_double_violations`); the generic `_hopf_violations`, run on a fresh
    copy of D that certifies its own generators, is the oracle."""

    @pytest.mark.parametrize("make", [
        lambda tmp: build_bk(1), lambda tmp: build_bk(2), lambda tmp: build_cyclic(3),
        _hintless_bk1], ids=["bk_1", "bk_2", "cyclic_3", "bk_1_without_hints"])
    def test_generic_loop_agrees(self, make, tmp_path):
        D = drinfeld_double(make(tmp_path))
        assert verify_hopf(D.hopf) == []
        assert _hopf_violations(_fresh_hopf(D.hopf)) == []

    def test_file_without_hints_uses_the_dual_basis(self, tmp_path):
        D = drinfeld_double(_hintless_bk1(tmp_path))
        n = D.base.dim
        assert D.algebra.generators == ([D.inclusion_dual.apply_basis(a) for a in range(n)]
                                        + [D.inclusion_base.apply_basis(j) for j in range(n)])

    def test_non_generating_dual_hint_falls_back_to_the_dual_basis(self):
        B = build_bk(1)
        eps = B.counit_row()
        H = HopfAlgebra(B.algebra, B.comult, B.counit, B.antipode, name="B_1 eps hint",
                        dual_generator_hint=[eps])
        D = drinfeld_double(H)
        assert not check_generators_span(D.dual.algebra)
        assert D.algebra.generators[:H.dim] == [D.inclusion_dual.apply_basis(a)
                                                for a in range(H.dim)]
        assert verify_hopf(D.hopf) == []

    @staticmethod
    def _mutant(D1, mutant):
        """D(B_1) with one entry of its tables changed, as a DoubleAlgebra
        over the same factors and embeddings; "none" changes nothing."""
        n = D1.dim
        Dh = D1.hopf
        mult, comult, counit = dict(D1.algebra.mult), list(Dh.comult), list(Dh.counit)
        antipode = Dh.antipode
        if mutant == "straightening":
            # e_(0, x1) e_(1, 0), a product h phi, with one coefficient changed
            assert mult[(1, 4)] == {0: 1, 13: 1, 2: -1}
            mult[(1, 4)] = {0: 1, 13: 2, 2: -1}
        elif mutant == "factorization":
            # e_(1, 0) e_(0, x1) = i((x1)*) j(x1), a product phi h, doubled
            assert mult[(4, 1)] == {5: 1}
            mult[(4, 1)] = {5: 2}
        elif mutant == "coproduct":
            (key, c), *_ = sorted(comult[5].coeffs.items())
            comult[5] = TensorElement(D1.algebra, 2, {**comult[5].coeffs, key: c + 1})
        elif mutant == "counit":
            counit[0] += 1
        elif mutant == "antipode":
            antipode = SparseMatrix(n, n, {**antipode.entries, (0, 6): FR1})
        K = _fresh_hopf(Dh, mult=mult, comult=comult, counit=counit, antipode=antipode)
        base = AlgebraMap(D1.base.algebra, K.algebra, D1.inclusion_base.columns)
        dual = AlgebraMap(D1.dual.algebra, K.algebra, D1.inclusion_dual.columns)
        return DoubleAlgebra(K, D1.base, D1.dual, base, dual)

    @pytest.mark.parametrize("mutant", ["none", "straightening", "factorization", "coproduct",
                                        "counit", "antipode"])
    def test_mutants_are_caught(self, D1, mutant):
        """The unchanged copy ("none") passes, so each report comes from the
        changed entry."""
        assert (_double_violations(self._mutant(D1, mutant)) == []) == (mutant == "none")

    @pytest.mark.parametrize("mutant, line", [
        ("straightening", "Delta not multiplicative on (j(gen0), i((x1)*))"),
        ("coproduct", "Delta not multiplicative on (j(gen0), i((x1g)*))"),
        ("factorization", "i((x1)*) j(x1) != (x1)*.x1"),
        ("counit", "eps not multiplicative on (gen1, (1)*.1)")],
        ids=["straightening", "coproduct", "factorization", "counit"])
    def test_each_part_catches_its_mutant(self, D1, mutant, line, monkeypatch):
        """With associativity and the antipode axioms out of the certificate,
        the straightening check, the factorization check and the counit
        check each still report their mutant, so none of them can go
        unnoticed behind the parts that overlap it."""
        monkeypatch.setattr(double, "verify_algebra", lambda A: [])
        monkeypatch.setattr(double, "antipode_violations", lambda H: [])
        assert line in _double_violations(self._mutant(D1, mutant))


class TestEllMaps:
    def test_ell_of_counit_is_unit(self, D1):
        H = D1.base
        R = bk_r0(1, H)
        eps_row = H.counit_row()
        assert ell_plus(R, eps_row) == H.unit
        assert ell_minus(R, eps_row) == H.unit

    @pytest.mark.parametrize("k", [1, 2])
    def test_ell_on_dual_generators(self, k):
        # l(h) = g and l(y_i) = 0 for R0
        D = drinfeld_double(build_bk(k))
        H = D.base
        R = bk_r0(k, H)
        gens = bk_dual_generators(k)
        g_idx = 1 << k
        assert ell_plus(R, gens[-1]) == {g_idx: FR1}
        assert ell_minus(R, gens[-1]) == {g_idx: FR1}
        for y in gens[:-1]:
            assert ell_plus(R, y) == {}
            assert ell_minus(R, y) == {}

    @staticmethod
    def _check_both_paths(D, k):
        """AlgebraMap.verify on the certified generators of D(B_k), and on a
        copy of D(B_k) without generators, which checks every basis pair."""
        H = D.base
        R = bk_r0(k, H)
        A = D.algebra
        plain = Algebra(A.dim, A.labels, A.mult, A.unit)
        assert check_generators_span(A)
        for pi in ell_maps(D, R):
            assert pi.verify() == []
            assert AlgebraMap(plain, pi.target, pi.columns).verify() == []

    def test_extended_maps_are_algebra_maps(self, D1):
        self._check_both_paths(D1, 1)

    def test_extended_maps_b2_generator_level(self, D2):
        self._check_both_paths(D2, 2)


def test_non_involutive_r_tells_r_from_its_inverse(D1):
    """R_{3/7} on B_1 has R^{-1} != R (R_0 squares to 1): both ell maps are
    algebra maps, l-(beta) = (beta ox id)(R^{-1}) on every dual basis
    element, and the tensor crosscheck holds with either resolution."""
    H = D1.base
    R = bk_r_lambda(1, [[Fraction(3, 7)]], H)
    inverse = check_rmatrix(H, R).inverse
    assert inverse != R
    pi_plus, pi_minus = ell_maps(D1, R)
    assert pi_plus.verify() == [] and pi_minus.verify() == []
    for i, phi in enumerate(D1.dual_part_basis()):
        want = {b: c for (b,), c in inverse.contract_at(0, {i: FR1}).coeffs.items()}
        assert pi_minus.apply(phi) == want
    for kind in ("cover", "bar"):
        out = adjunction_crosscheck_tensor(D1, R, 2, kind=kind)
        assert out["dy_dim"] == out["ext_dim"] == 3


def test_unverified_r_is_refused(D1):
    H = D1.base
    R = unit_tensor(H.algebra, 2)  # B_1 is not cocommutative
    with pytest.raises(RMatrixError):
        ell_maps(D1, R)
    with pytest.raises(RMatrixError):
        coeff_tensor_product(D1, R, tensor_algebra(D1.algebra, D1.algebra))


@pytest.fixture(scope="module")
def W1(D1):
    H = D1.base
    R = bk_r0(1, H)
    E = tensor_algebra(D1.algebra, D1.algebra)
    return coeff_tensor_product(D1, R, E)


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
        assert vec_eq(act(embE(one_D, gD), wm), {i: -c for i, c in wm.items()})
        y = embD.apply(bk_dual_generators(k)[0])
        assert act(embE(y, one_D), wp) == {}
        assert act(embE(one_D, y), wm) == {}
        xD = embH.apply_basis(1)
        # x |> w_- = R_x^T w_-
        want = {i: -c for i, c in H.algebra.right_mult_matrix(1).transpose().mul_vec(wm).items()}
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
    loaded H once; the double's certificate checks (H*)^op once and the
    double on its own generators."""
    from hopfdy import hopfcore
    from hopfdy.hopffile import save_hopf

    checked = []
    verify_algebra = hopfcore.verify_algebra

    def counting(A):
        checked.append(A.name)
        return verify_algebra(A)

    monkeypatch.setattr(hopfcore, "verify_algebra", counting)
    monkeypatch.setattr(double, "verify_algebra", counting)
    path = str(tmp_path / "bk1.json")
    save_hopf(build_bk(1), path)
    H = load_hopf(path)
    assert verify_hopf(H) == []
    D = drinfeld_double(H)
    assert verify_hopf(D.hopf) == []
    assert checked == [path, D.dual.algebra.name, D.algebra.name]


def test_integral_hopf_data_stays_int(tmp_path):
    """B_2 and D(B_2) have integer structure: after a save/load round trip
    and the double's build, every structure constant, unit, coproduct,
    counit and antipode entry is an `int`, never an integral Fraction."""
    from hopfdy.hopffile import save_hopf

    path = str(tmp_path / "bk2.json")
    save_hopf(build_bk(2), path)
    H = load_hopf(path)
    for K in (H, drinfeld_double(H).hopf):
        values = [c for v in K.algebra.mult.values() for c in v.values()]
        values += list(K.algebra.unit.values()) + list(K.counit)
        values += [c for t in K.comult for c in t.coeffs.values()]
        values += list(K.antipode.entries.values())
        assert values and all(type(c) is int for c in values), K.name
