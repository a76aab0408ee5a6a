"""Acceptance suite: one test per criterion, every equality exact.

Shared objects are module-scoped so repeated criteria reuse cached bases,
differentials and resolutions.  Criteria flagged slow in their docstrings
carry the `slow` marker; deselect with `-m "not slow"` for a quick pass.
"""

import random
from fractions import Fraction

import pytest

from hopfdy.algcore import module_from_character
from hopfdy.double import (coeff_restriction, coeff_tensor_product,
                           drinfeld_double)
from hopfdy.dycomplex import (cocycle_from_tangent, decompose_h2_tensor,
                              identity_complex, restriction_complex,
                              tensor_complex)
from hopfdy.exactlin import rank_of_vectors, unit_tensor
from hopfdy.hopfcore import (bk_inclusion, build_bk, build_cyclic, dual_hopf,
                             tensor_hopf, verify_hopf)
from hopfdy.relext import (adjunction_crosscheck_tensor, get_resolution,
                           kunneth_check, pair_from_double, relative_ext_dims,
                           tensor_pair, trivial_module_over, verify_resolution)
from hopfdy.rmatrix import (bk_standard_tangent_basis, bk_r0, bk_r_lambda,
                            check_rmatrix, tangent_space, tangent_span_matches)

from freebases import rebased_pair


@pytest.fixture(scope="module")
def B1():
    return build_bk(1)


@pytest.fixture(scope="module")
def B2():
    return build_bk(2)


@pytest.fixture(scope="module")
def D1(B1):
    return drinfeld_double(B1)


@pytest.fixture(scope="module")
def D2(B2):
    return drinfeld_double(B2)


@pytest.fixture(scope="module")
def R1(B1):
    R = bk_r0(1, B1)
    rep = check_rmatrix(B1, R)
    assert rep.verified
    return R, rep.inverse


@pytest.fixture(scope="module")
def tensor_cx_b1(B1, R1):
    R, _ = R1
    return tensor_complex(B1, R)


@pytest.fixture(scope="module")
def res_cx_b2_b1(B2, B1):
    return restriction_complex(B2, bk_inclusion(1, 1), B1)


@pytest.fixture(scope="module")
def W_res_b2_b1(D2, B1):
    return coeff_restriction(D2, bk_inclusion(1, 1), B1).module


def test_criterion_01_axiom_suite():
    """verify_hopf is empty for cyclic:n (n <= 4), bk:k (k <= 3), their duals,
    B_1 ox B_1, D(B_1) and D(B_2)."""
    for n in (1, 2, 3, 4):
        assert verify_hopf(build_cyclic(n)) == []
        assert verify_hopf(dual_hopf(build_cyclic(n), True)) == []
        assert verify_hopf(dual_hopf(build_cyclic(n), False)) == []
    for k in (1, 2, 3):
        assert verify_hopf(build_bk(k)) == []
        assert verify_hopf(dual_hopf(build_bk(k), True)) == []
        assert verify_hopf(dual_hopf(build_bk(k), False)) == []
    assert verify_hopf(tensor_hopf(build_bk(1), build_bk(1))) == []
    assert verify_hopf(drinfeld_double(build_bk(1)).hopf) == []
    assert verify_hopf(drinfeld_double(build_bk(2)).hopf) == []


def test_criterion_02_r0_passes_and_squares_to_unit():
    """check_rmatrix(B_k, R0) passes and R0^2 = 1 ox 1 for k <= 3."""
    for k in (1, 2, 3):
        H = build_bk(k)
        R = bk_r0(k, H)
        rep = check_rmatrix(H, R)
        assert rep.verified, rep.witnesses
        assert R.mul(R) == unit_tensor(H.algebra, 2)


def test_criterion_03_tangent_dimension_and_span():
    """dim T_{R0} RMat(B_k) = k^2 for k in {1,2,3}, spanned by R0(x_i ox x_j g)."""
    for k in (1, 2, 3):
        H = build_bk(k)
        R = bk_r0(k, H)
        tb = tangent_space(H, R)
        assert tb.dim == k * k
        assert tangent_span_matches(H, tb, bk_standard_tangent_basis(k, H))


def test_criterion_04_dy_identity_dimensions():
    """dim H^2 of the identity complex is k(k+1)/2 for k in {1, 2}."""
    for k, want in ((1, 1), (2, 3)):
        assert identity_complex(build_bk(k)).cohomology_dim(2) == want


def test_criterion_05_dy_tensor_b1(tensor_cx_b1):
    """For B_1 with R0: dim H^2 = 3 and dim H^3 = 0."""
    assert tensor_cx_b1.cohomology_dim(2) == 3
    assert tensor_cx_b1.cohomology_dim(3) == 0


@pytest.fixture(scope="module")
def tensor_cx_b2(B2):
    R = bk_r0(2, B2)
    rep = check_rmatrix(B2, R)
    return tensor_complex(B2, R, rep.inverse)


def test_criterion_05b_dy_tensor_b2_slow(tensor_cx_b2):
    """For B_2 with R0: dim H^2 = 10 (a few seconds on the int64 slot
    kernel; the `_slow` in the name predates it)."""
    assert tensor_cx_b2.cohomology_dim(2) == 10


def test_criterion_06_dimension_formula(tensor_cx_b1):
    """k^2 = dim H^2(tensor) - 2 dim H^2(identity) for k in {1, 2}."""
    assert tensor_cx_b1.cohomology_dim(2) - 2 * identity_complex(
        build_bk(1)).cohomology_dim(2) == 1


def test_criterion_06b_dimension_formula_b2(B2, tensor_cx_b2):
    h2t = tensor_cx_b2.cohomology_dim(2)
    h2i = identity_complex(B2).cohomology_dim(2)
    assert h2t - 2 * h2i == 4


def test_criterion_07_restriction_dimensions(res_cx_b2_b1):
    """dim H^n of the restriction complex for B_2 > B_1: 0, 3, 0 at n = 1, 2, 3."""
    assert res_cx_b2_b1.cohomology_dim(1) == 0
    assert res_cx_b2_b1.cohomology_dim(2) == 3
    assert res_cx_b2_b1.cohomology_dim(3) == 0


def test_criterion_08_adjunction_restriction_side(D2, B1, W_res_b2_b1, res_cx_b2_b1):
    """Ext^n_{D(B_2),B_2}(k, Hom_{B_1}(B_2,k)) via the bar resolution equals
    the restriction-complex dimensions at n = 1, 2, 3."""
    p = pair_from_double(D2)
    k = trivial_module_over(D2)
    dims = relative_ext_dims(p, k, W_res_b2_b1, 3, kind="bar")
    assert dims[1:] == [0, 3, 0]
    assert dims[1] == res_cx_b2_b1.cohomology_dim(1)
    assert dims[2] == res_cx_b2_b1.cohomology_dim(2)
    assert dims[3] == res_cx_b2_b1.cohomology_dim(3)


@pytest.mark.slow
def test_criterion_09_adjunction_braiding_side(D1, B1, R1, tensor_cx_b1):
    """Ext^2 over (D(B_1) ox D(B_1), B_1 ox B_1) with the twisted dual
    coefficient equals dim H^2 = 3, and 3 - 2 Ext^2_{D,H}(k,k) = 1 recovers
    the tangent dimension (iterated-cover resolution)."""
    R, _ = R1
    out = adjunction_crosscheck_tensor(D1, R, 2, kind="cover")
    assert out["equal"] and out["ext_dim"] == 3
    p = pair_from_double(D1)
    k = trivial_module_over(D1)
    ext2 = relative_ext_dims(p, k, k, 2, kind="cover")[2]
    assert out["ext_dim"] - 2 * ext2 == 1
    assert tangent_space(B1, R).dim == 1


def test_criterion_10_property_suite(B1, B2, tensor_cx_b1, res_cx_b2_b1):
    """d o d = 0 for all three kinds at degrees <= 3; the normalization is an
    idempotent chain map fixing cocycle classes; cosimplicial identities."""
    id_cx = identity_complex(B1)
    complexes = [(id_cx, 2), (tensor_cx_b1, 2), (res_cx_b2_b1, 2)]
    for cx, top in complexes:
        for n in range(top + 1):
            for img in cx.differential_images(n):
                assert cx.delta_raw(n + 1, img).is_zero()
    # normalization: idempotent at degree 2, chain map 2 -> 3,
    # and N(cocycle) cohomologous to the cocycle
    for cx in (id_cx, tensor_cx_b1):
        for u in cx.cochain_basis(2):
            nu = cx.normalize(2, u)
            assert cx.normalize(2, nu) == nu
            assert cx.delta_raw(2, nu) == cx.normalize(3, cx.delta_raw(2, u))
        cob = [v.flat() for v in cx.differential_images(1)]
        ambient = cx.H.dim ** cx.slots(2)
        base = rank_of_vectors(cob, ambient)
        for z in cx.cochain_basis(2):
            if not cx.delta_raw(2, z).is_zero():
                continue
            diff = cx.normalize(2, z).sub(z)
            if not diff.is_zero():
                assert rank_of_vectors(cob + [diff.flat()], ambient) == base
    # cosimplicial identities s_j d_i = id for i = j, j+1 on basis cochains
    for cx, top in complexes:
        for n in (1, 2):
            for u in cx.cochain_basis(n):
                for j in range(n):
                    assert cx.codegeneracy_raw(n + 1, j, cx.coface(n, j, u)) == u
                    assert cx.codegeneracy_raw(n + 1, j, cx.coface(n, j + 1, u)) == u


def test_criterion_11_tangent_cocycle_roundtrip(B1, B2, tensor_cx_b1):
    """For every basis tangent vector T of B_1 and B_2, 1 ox T ox 1 is a
    degree-2 cocycle whose tangent component is exactly T."""
    cases = [(B1, tensor_cx_b1)]
    R2 = bk_r0(2, B2)
    rep2 = check_rmatrix(B2, R2)
    cases.append((B2, tensor_complex(B2, R2, rep2.inverse)))
    for H, cx in cases:
        tb = tangent_space(H, cx.R)
        for T in tb.vectors:
            u = cocycle_from_tangent(cx, T)
            assert cx.delta_raw(2, u).is_zero()
            a, b, T2 = decompose_h2_tensor(cx, u)
            assert T2 == T


def test_criterion_12_lambda_family():
    """R_lambda passes the axioms for three random rational lambda at
    k in {1, 2}; R_{lambda+mu} = R_lambda R0 R_mu; tangent dim at R_lambda
    stays 1 at k = 1."""
    for k in (1, 2):
        rng = random.Random(1000 + k)
        H = build_bk(k)
        R0 = bk_r0(k, H)

        def rand_lam():
            return [[Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                     for _ in range(k)] for _ in range(k)]

        lams = [rand_lam() for _ in range(3)]
        for lam in lams:
            assert check_rmatrix(H, bk_r_lambda(k, lam, H)).verified
        lam, mu = lams[0], lams[1]
        lam_mu = [[lam[i][j] + mu[i][j] for j in range(k)] for i in range(k)]
        assert bk_r_lambda(k, lam_mu, H) == \
            bk_r_lambda(k, lam, H).mul(R0).mul(bk_r_lambda(k, mu, H))
        if k == 1:
            for lam in lams[:2]:
                assert tangent_space(H, bk_r_lambda(k, lam, H)).dim == 1


def test_criterion_13_semisimple_sanity():
    """cyclic:2 with R = 1 ox 1: tangent space 0 and H^2 identity = 0."""
    H = build_cyclic(2)
    R = unit_tensor(H.algebra, 2)
    assert tangent_space(H, R).dim == 0
    assert identity_complex(H).cohomology_dim(2) == 0


@pytest.mark.slow
def test_criterion_14_kunneth(D1):
    """Ext^2 over (D(B_1) ox D(B_1), B_1 ox B_1) of trivial modules equals
    the convolution sum 1*1 + 0*0 + 1*1 = 2, both sides independent, and the
    tensor product of the factor resolutions verifies as a resolution."""
    p = pair_from_double(D1)
    k = trivial_module_over(D1)
    out = kunneth_check(p, p, k, k, k, k, 2, kind="cover", verify_product=True)
    assert out["equal"] and out["product_ext"] == 2 and out["kunneth_sum"] == 2
    assert out["factor_ext_a"] == [1, 0, 1]
    assert out["product_resolution_ok"], out["product_resolution_report"]


@pytest.mark.slow
def test_criterion_15_resolution_independence(D1, D2, R1, W_res_b2_b1):
    """bar and iterated-cover give identical Ext dimensions on the instances
    of criteria 8 and 9, and verify_resolution passes on all eight
    resolutions (each kind, on the pair's free basis and on its rebasing,
    whose rewrite table has non-unit coefficients): d o d = 0, A-linear
    differentials, and a B-linear contracting homotopy with d h + h d = id,
    which certifies exactness and B-splitness at once (Hochschild 1956)."""
    # criterion 8 instance: (D(B_2), B_2) with the restriction coefficient
    p2 = pair_from_double(D2)
    k2 = trivial_module_over(D2)
    bar8 = relative_ext_dims(p2, k2, W_res_b2_b1, 3, kind="bar")
    cov8 = relative_ext_dims(p2, k2, W_res_b2_b1, 3, kind="cover")
    assert bar8 == cov8 == [1, 0, 3, 0]
    for kind in ("bar", "cover"):
        for pair in (p2, rebased_pair(p2)):
            res = get_resolution(pair, k2, kind, 3)
            assert verify_resolution(res) == [], (kind, pair.name)

    # criterion 9 instance: the tensor-square pair with the H* coefficient
    R, _ = R1
    p1 = pair_from_double(D1)
    psq = tensor_pair(p1, p1)
    E = psq.big
    W9 = coeff_tensor_product(D1, R, E).module
    ksq = module_from_character(E, _sq_counit(D1), name="k")
    bar9 = relative_ext_dims(psq, ksq, W9, 2, kind="bar")
    cov9 = relative_ext_dims(psq, ksq, W9, 2, kind="cover")
    assert bar9 == cov9
    assert bar9[2] == 3
    for kind in ("bar", "cover"):
        for pair in (psq, rebased_pair(psq)):
            res = get_resolution(pair, ksq, kind, 2)
            assert verify_resolution(res) == [], (kind, pair.name)


def _sq_counit(D):
    nd = D.dim
    eps = D.hopf.counit
    out = {}
    for i in range(nd):
        if eps[i]:
            for j in range(nd):
                if eps[j]:
                    out[i * nd + j] = eps[i] * eps[j]
    return out
