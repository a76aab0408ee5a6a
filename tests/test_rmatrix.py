import random
from fractions import Fraction

import pytest

from hopfdy.algcore import Algebra
from hopfdy.exactlin import TensorElement, unit_tensor
from hopfdy.hopfcore import HopfAlgebra, build_bk, build_cyclic
from hopfdy.rmatrix import (RMatrixError, _tangent_rows, bk_standard_tangent_basis, bk_r0,
                            bk_r_lambda, check_rmatrix, tangent_space,
                            tangent_span_matches)
from hopfdy.slotkernel import Fallback, SlotKernel

from oracles import dense_nullspace, densify_vec, tangent_conditions_dense

HALF = Fraction(1, 2)


class TestCheckRMatrix:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_r0_passes_and_squares_to_one(self, k):
        H = build_bk(k)
        R = bk_r0(k, H)
        rep = check_rmatrix(H, R)
        assert rep.verified, rep.witnesses
        assert R.mul(R) == unit_tensor(H.algebra, 2)
        assert rep.inverse == R

    def test_r0_explicit_coordinates(self):
        H = build_bk(1)
        g = 1 << 1
        assert bk_r0(1, H).coeffs == {
            (0, 0): HALF, (g, 0): HALF, (0, g): HALF, (g, g): -HALF}

    def test_cocommutative_trivial_r(self):
        H = build_cyclic(2)
        rep = check_rmatrix(H, unit_tensor(H.algebra, 2))
        assert rep.verified

    def test_b1_trivial_r_fails_with_witness(self):
        H = build_bk(1)
        rep = check_rmatrix(H, unit_tensor(H.algebra, 2))
        assert not rep.verified
        assert any("x1" in w for w in rep.witnesses)

    def test_witness_names_a_multi_term_generator(self):
        """Quasi-cocommutativity runs on the generators x1 + g and g of B_1;
        the one that is not a single basis vector is named gen<k>."""
        B = build_bk(1)
        A = B.algebra
        A2 = Algebra(A.dim, A.labels, A.mult, A.unit, generators=[{1: 1, 2: 1}, {2: 1}])
        H = HopfAlgebra(A2, [TensorElement(A2, 2, d.coeffs) for d in B.comult], B.counit,
                        B.antipode)
        rep = check_rmatrix(H, unit_tensor(A2, 2))
        assert rep.witnesses == ["quasi-cocommutativity fails at gen0"]

    def test_inverse_is_two_sided(self):
        H = build_bk(2)
        lam = [[Fraction(1), Fraction(-2)], [Fraction(0), Fraction(1, 3)]]
        R = bk_r_lambda(2, lam, H)
        rep = check_rmatrix(H, R)
        assert rep.verified
        one = unit_tensor(H.algebra, 2)
        assert rep.inverse.mul(R) == one
        assert R.mul(rep.inverse) == one


class TestTangentSpace:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_dimension_k_squared(self, k):
        H = build_bk(k)
        R = bk_r0(k, H)
        tb = tangent_space(H, R)
        assert tb.dim == k * k

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_span_matches_standard_basis(self, k):
        H = build_bk(k)
        tb = tangent_space(H, bk_r0(k, H))
        assert tangent_span_matches(H, tb, bk_standard_tangent_basis(k, H))

    def test_semisimple_zero(self):
        H = build_cyclic(2)
        tb = tangent_space(H, unit_tensor(H.algebra, 2))
        assert tb.dim == 0

    def test_requires_verified_r(self):
        H = build_bk(1)
        with pytest.raises(RMatrixError):
            tangent_space(H, unit_tensor(H.algebra, 2))

    def test_counit_vanishing_asserted(self):
        H = build_bk(2)
        tb = tangent_space(H, bk_r0(2, H))
        zero = TensorElement(H.algebra, 1, {})
        for T in tb.vectors:
            assert T.contract_at(0, H.counit) == zero
            assert T.contract_at(1, H.counit) == zero


def _random_lambda(k, rng):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(k)]
            for _ in range(k)]


class TestRLambdaFamily:
    def test_zero_lambda_is_r0(self):
        H = build_bk(2)
        zero = [[Fraction(0)] * 2 for _ in range(2)]
        assert bk_r_lambda(2, zero, H) == bk_r0(2, H)

    @pytest.mark.parametrize("k", [1, 2])
    def test_three_random_lambdas_pass(self, k):
        rng = random.Random(20240 + k)
        H = build_bk(k)
        for _ in range(3):
            R = bk_r_lambda(k, _random_lambda(k, rng), H)
            assert check_rmatrix(H, R).verified

    @pytest.mark.parametrize("k", [1, 2])
    def test_addition_law(self, k):
        rng = random.Random(777 + k)
        H = build_bk(k)
        lam = _random_lambda(k, rng)
        mu = _random_lambda(k, rng)
        lam_plus_mu = [[lam[i][j] + mu[i][j] for j in range(k)] for i in range(k)]
        R0 = bk_r0(k, H)
        lhs = bk_r_lambda(k, lam_plus_mu, H)
        rhs = bk_r_lambda(k, lam, H).mul(R0).mul(bk_r_lambda(k, mu, H))
        assert lhs == rhs

    def test_tangent_dim_at_r_lambda(self):
        rng = random.Random(13)
        H = build_bk(1)
        for _ in range(2):
            R = bk_r_lambda(1, _random_lambda(1, rng), H)
            assert tangent_space(H, R).dim == 1


@pytest.mark.parametrize("case", ["bk_2_seed_5", "bk_2_seed_6", "cyclic_2_trivial",
                                  "bk_1_huge"])
def test_tangent_space_matches_dense_oracle(case):
    """The slot-kernel conditions give, entry for entry, the kernel of the
    dense conditions built from the structure tables.  At lambda = 2^70/3
    the int64 kernel refuses them, and the Python-int rerun answers."""
    if case == "cyclic_2_trivial":
        H = build_cyclic(2)
        R = unit_tensor(H.algebra, 2)
    elif case == "bk_1_huge":
        H = build_bk(1)
        R = bk_r_lambda(1, [[Fraction(2 ** 70, 3)]], H)
    else:
        H = build_bk(2)
        R = bk_r_lambda(2, _random_lambda(2, random.Random(int(case[-1]))), H)
    ncols = H.dim ** 2
    got = [densify_vec(T.flat(), ncols) for T in tangent_space(H, R).vectors]
    assert got == dense_nullspace(tangent_conditions_dense(H, R), ncols)
    if case == "bk_1_huge":
        with pytest.raises(Fallback):
            _tangent_rows(SlotKernel(H), H, R)
    else:
        _tangent_rows(SlotKernel(H), H, R)  # the int64 kernel suffices


def test_tangent_batches_without_r_compiled_once(monkeypatch):
    """Two R-matrices on one H: each tangent space matches the dense
    oracle, and the conditions that do not depend on R (coproducts, unit
    insertions, quasi-cocommutativity) are built on H's slot kernel once."""
    B = build_bk(2)
    H = HopfAlgebra(B.algebra, B.comult, B.counit, B.antipode, name="B_2 copy")
    calls = []
    for name in ("coproduct", "insert_unit"):
        op = getattr(SlotKernel, name)
        monkeypatch.setattr(SlotKernel, name,
                            lambda self, *a, _op=op, _name=name: calls.append(_name) or _op(self, *a))
    ncols = H.dim ** 2
    rng = random.Random(11)
    for R in (bk_r0(2, H), bk_r_lambda(2, _random_lambda(2, rng), H)):
        got = [densify_vec(T.flat(), ncols) for T in tangent_space(H, R).vectors]
        assert got == dense_nullspace(tangent_conditions_dense(H, R), ncols)
    assert sorted(calls) == ["coproduct"] * 2 + ["insert_unit"] * 3
