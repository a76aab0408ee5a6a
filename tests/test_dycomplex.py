import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfdy.algcore import Algebra, AlgebraMap
from hopfdy.dycomplex import (DYConsistencyError, UnsupportedDegreeError,
                              cocycle_from_tangent, decompose_h2_tensor,
                              identity_complex, restriction_complex, tensor_complex)
from hopfdy.exactlin import (FR1, SparseMatrix, TensorElement, rank_of_rows,
                             slotwise_mul_into, unit_tensor)
from hopfdy.hopfcore import (HopfAlgebra, build_bk, build_cyclic, bk_inclusion,
                             iterated_coproduct, verify_hopf)
from hopfdy.rmatrix import bk_r0, bk_r_lambda, check_rmatrix, tangent_space
from hopfdy.slotkernel import Fallback
from oracles import coface_dense, delta_dense, dense_rank, densify_vec

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def idB1():
    return identity_complex(build_bk(1))


@pytest.fixture(scope="module")
def txB1():
    H = build_bk(1)
    R = bk_r0(1, H)
    rep = check_rmatrix(H, R)
    return tensor_complex(H, R, rep.inverse)


@pytest.fixture(scope="module")
def resB2B1():
    return restriction_complex(build_bk(2), bk_inclusion(1, 1), build_bk(1))


class TestCochainBases:
    def test_degree_zero_scalar_line(self, idB1, txB1):
        assert idB1.cochain_dim(0) == 1
        assert txB1.cochain_dim(0) == 1

    def test_commutative_cocommutative_full_space(self):
        cx = identity_complex(build_cyclic(2))
        for n in range(4):
            assert cx.cochain_dim(n) == 2 ** n

    def test_sweedler_center_is_scalars(self, idB1):
        assert idB1.cochain_dim(1) == 1
        (u,) = idB1.cochain_basis(1)
        assert u.coeffs == {(0,): FR1}

    def test_tensor_cochain_unit_degree_one(self, txB1):
        # 1 ox 1 centralizes Delta(H), so it is a degree-1 cochain; from
        # degree 2 on the interleaved condition is genuinely asymmetric for
        # non-cocommutative H and the plain unit tensor drops out, while the
        # monoidal-structure element 1 ox R ox 1 = delta^1(1 ox 1) stays in.
        H = txB1.H
        assert txB1.in_cochain_space(1, unit_tensor(H.algebra, 2))
        assert not txB1.in_cochain_space(2, unit_tensor(H.algebra, 4))
        u_phi = txB1.delta_raw(1, unit_tensor(H.algebra, 2))
        assert txB1.in_cochain_space(2, u_phi)

    def test_tensor_cochain_unit_all_degrees_cocommutative(self):
        # for a cocommutative Hopf algebra the unit tensor is a cochain in
        # every degree
        H = build_cyclic(2)
        R = unit_tensor(H.algebra, 2)
        cx = tensor_complex(H, R, R)
        for n in (1, 2):
            assert cx.in_cochain_space(n, unit_tensor(H.algebra, 2 * n))

    def test_restriction_of_identity_map_equals_identity_complex(self):
        H = build_bk(1)
        ident = AlgebraMap(H.algebra, H.algebra, [{i: FR1} for i in range(H.dim)])
        rcx = restriction_complex(H, ident, H)
        icx = identity_complex(H)
        for n in range(4):
            assert [u.coeffs for u in rcx.cochain_basis(n)] == \
                [u.coeffs for u in icx.cochain_basis(n)]
        assert [rcx.cohomology_dim(n) for n in range(3)] == \
            [icx.cohomology_dim(n) for n in range(3)]


class TestDifferentials:
    def test_identity_delta1_on_grouplike(self):
        cx = identity_complex(build_cyclic(2))
        u = TensorElement(cx.H.algebra, 1, {(1,): FR1})
        img = cx.delta_raw(1, u)
        assert img.coeffs == {(0, 1): FR1, (1, 1): Fraction(-1), (1, 0): FR1}

    def test_tensor_delta1_of_unit(self, txB1):
        # delta^1(1 ox 1) = (1 ox R ox 1)(1 ox 1 ox u) - Delta(u)(1 ox R ox 1)
        #                 + (1 ox R ox 1)(u ox 1 ox 1) = 1 ox R ox 1 for u = 1 ox 1
        H = txB1.H
        u = unit_tensor(H.algebra, 2)
        img = txB1.delta_raw(1, u)
        want = {}
        for (a, b), c in txB1.R.coeffs.items():
            for (p,), cp in unit_tensor(H.algebra, 1).coeffs.items():
                for (q,), cq in unit_tensor(H.algebra, 1).coeffs.items():
                    want[(p, a, b, q)] = c * cp * cq
        assert img.coeffs == want

    def test_dd_zero_all_kinds_b1(self, idB1, txB1, resB2B1):
        for cx, tops in ((idB1, 3), (txB1, 2), (resB2B1, 3)):
            for n in range(tops):
                images = cx.differential_images(n)
                for u in images:
                    assert cx.delta_raw(n + 1, u).is_zero()

    def test_explicit_low_degree_twisted_differentials(self, txB1):
        """The general coface machinery agrees with the explicit closed-form
        degree-1 and degree-2 twisted differentials on every basis cochain."""
        H = txB1.H
        R = txB1.R

        def delta1_printed(u):
            one = unit_tensor(H.algebra, 1)
            t1 = _ins(one, R, one).mul(_concat(unit_tensor(H.algebra, 2), u))
            du = _delta_hh(H, u)
            t2 = du.mul(_ins(one, R, one))
            t3 = _ins(one, R, one).mul(_concat(u, unit_tensor(H.algebra, 2)))
            return t1.sub(t2).add(t3)

        def delta2_printed(u):
            one = unit_tensor(H.algebra, 1)
            # (1 ox R1 ox R2(1) ox 1 ox R2(2) ox 1) (1 ox 1 ox u)
            m0 = {}
            for (a, b), c in R.coeffs.items():
                db = H.comult[b]
                for (b1, b2), cb in db.coeffs.items():
                    for (p,), cp in one.coeffs.items():
                        for (q,), cq in one.coeffs.items():
                            for (r,), cr in one.coeffs.items():
                                key = (p, a, b1, q, b2, r)
                                m0[key] = m0.get(key, Fraction(0)) + c * cb * cp * cq * cr
            t1 = TensorElement(H.algebra, 6, m0).mul(
                _concat(unit_tensor(H.algebra, 2), u))
            big = _concat(_delta_hh_block(H, u, 0), unit_tensor(H.algebra, 0))
            t2 = big.mul(_concat(_ins(one, R, one), unit_tensor(H.algebra, 2)))
            t3 = _delta_hh_block(H, u, 1).mul(
                _concat(unit_tensor(H.algebra, 3), _r_elt(H, R), one_elt(H)))
            m3 = {}
            for (a, b), c in R.coeffs.items():
                da = H.comult[a]
                for (a1, a2), ca in da.coeffs.items():
                    for (p,), cp in one.coeffs.items():
                        for (q,), cq in one.coeffs.items():
                            for (r,), cr in one.coeffs.items():
                                key = (p, a1, q, a2, b, r)
                                m3[key] = m3.get(key, Fraction(0)) + c * ca * cp * cq * cr
            t4 = TensorElement(H.algebra, 6, m3).mul(
                _concat(u, unit_tensor(H.algebra, 2)))
            return t1.sub(t2).add(t3).sub(t4)

        for u in txB1.cochain_basis(1):
            assert txB1.delta_raw(1, u) == delta1_printed(u)
        for u in txB1.cochain_basis(2):
            assert txB1.delta_raw(2, u) == delta2_printed(u)

    def test_images_stay_in_cochain_space(self, txB1):
        M = txB1.differential(1)
        assert M.cols == txB1.cochain_dim(1)
        assert M.rows == txB1.cochain_dim(2)


def one_elt(H):
    return unit_tensor(H.algebra, 1)


def _r_elt(H, R):
    return R


def _concat(*factors):
    """The juxtaposition f_1 ox f_2 ox ... of tensor elements over one algebra."""
    out = factors[0]
    for v in factors[1:]:
        out = TensorElement(out.ambient, out.degree + v.degree,
                            {ka + kb: a * b for ka, a in out.coeffs.items()
                             for kb, b in v.coeffs.items()})
    return out


def _ins(one, R, one2):
    """1 ox R ox 1 as a degree-4 element."""
    return _concat(one, R, one2)


def _delta_hh(H, u):
    """Delta_{HoxH}: x ox y -> x1 ox y1 ox x2 ox y2 on a degree-2 element."""
    v = iterated_coproduct(H, u, 0)
    v = iterated_coproduct(H, v, 2)
    return v.permute_slots([0, 2, 1, 3])


def _delta_hh_block(H, u, block):
    """Delta_{HoxH} applied to block `block` of a degree-4 element."""
    x = 2 * block
    v = iterated_coproduct(H, u, x)
    v = iterated_coproduct(H, v, x + 2)
    perm = list(range(6))
    perm[x + 1], perm[x + 2] = perm[x + 2], perm[x + 1]
    return v.permute_slots(perm)


class TestVectorCheckerFallback:
    def test_import_hopfdy_leaves_numpy_unimported(self):
        # numpy and the kernel module load at the first kernel use only, and
        # every other module at the first use of a name it exports
        import subprocess
        import sys
        code = ("import sys, hopfdy\n"
                "for m in ('numpy', 'hopfdy.slotkernel', 'hopfdy.double', 'hopfdy.relext',\n"
                "          'hopfdy.rmatrix'):\n"
                "    assert m not in sys.modules, m\n"
                "import hopfdy.cli\n"  # cli.main() sets the BLAS threads before numpy loads
                "assert 'numpy' not in sys.modules\n"
                "for name in hopfdy.__all__:\n"
                "    getattr(hopfdy, name)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr


class TestCohomologyDims:
    @pytest.mark.parametrize("k,expect", [(1, 1), (2, 3)])
    def test_identity_h2(self, k, expect):
        cx = identity_complex(build_bk(k))
        assert cx.cohomology_dim(2) == expect  # k(k+1)/2

    def test_identity_semisimple_h2_zero(self):
        assert identity_complex(build_cyclic(2)).cohomology_dim(2) == 0

    def test_tensor_b1_h2(self, txB1):
        assert txB1.cohomology_dim(2) == 3

    def test_restriction_b2_b1(self, resB2B1):
        assert resB2B1.cohomology_dim(1) == 0
        assert resB2B1.cohomology_dim(2) == 3
        assert resB2B1.cohomology_dim(3) == 0

    def test_restriction_b3_families(self):
        # the even-degree binomial pattern at two more subalgebra pairs:
        # dim H^n = C(k+l+n-1, n) for even n, 0 for odd n
        cx = restriction_complex(build_bk(3), bk_inclusion(2, 1), build_bk(1))
        assert [cx.cohomology_dim(n) for n in range(4)] == [1, 0, 6, 0]
        cx = restriction_complex(build_bk(3), bk_inclusion(1, 2), build_bk(2))
        assert [cx.cohomology_dim(n) for n in range(3)] == [1, 0, 6]

    def test_h0_is_one(self, idB1, txB1, resB2B1):
        for cx in (idB1, txB1, resB2B1):
            assert cx.cohomology_dim(0) == 1


class TestCodegeneracies:
    def test_s0_of_unit(self, idB1):
        u = unit_tensor(idB1.H.algebra, 1)
        out = idB1.codegeneracy_raw(1, 0, u)
        assert out.coeffs == {(): FR1}

    def test_s0_counit_contraction(self, idB1):
        H = idB1.H
        u = TensorElement(H.algebra, 2, {(0, 1): FR1})  # 1 ox x
        out = idB1.codegeneracy_raw(2, 0, u)
        assert out.coeffs == {(1,): FR1}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cosimplicial_identities(self, idB1, n):
        # s_j d_i = id for i = j and i = j + 1, on every basis cochain
        for u in idB1.cochain_basis(n):
            for j in range(n):
                assert idB1.codegeneracy_raw(n + 1, j, idB1.coface(n, j, u)) == u
                assert idB1.codegeneracy_raw(n + 1, j, idB1.coface(n, j + 1, u)) == u

    @pytest.mark.parametrize("n", [1, 2])
    def test_cosimplicial_identities_tensor(self, txB1, n):
        for u in txB1.cochain_basis(n):
            for j in range(n):
                assert txB1.codegeneracy_raw(n + 1, j, txB1.coface(n, j, u)) == u
                assert txB1.codegeneracy_raw(n + 1, j, txB1.coface(n, j + 1, u)) == u

    @pytest.mark.parametrize("cxname", ["id", "tx"])
    def test_cosimplicial_mixed_cases(self, idB1, txB1, cxname):
        # s_j d_i = d_i s_{j-1} for i < j and s_j d_i = d_{i-1} s_j for
        # i > j + 1, on every degree-2 basis cochain
        cx = {"id": idB1, "tx": txB1}[cxname]
        n = 2
        for u in cx.cochain_basis(n):
            for i in range(n + 2):
                for j in range(n + 1):
                    lhs = cx.codegeneracy_raw(n + 1, j, cx.coface(n, i, u))
                    if i < j:
                        want = cx.coface(n - 1, i, cx.codegeneracy_raw(n, j - 1, u))
                    elif i in (j, j + 1):
                        want = u
                    else:
                        want = cx.coface(n - 1, i - 1, cx.codegeneracy_raw(n, j, u))
                    assert lhs == want, (cxname, i, j)

    def test_codegeneracy_matrix_lands_in_cochains(self, txB1):
        M = txB1.codegeneracy(2, 0)
        assert M.rows == txB1.cochain_dim(1)
        assert M.cols == txB1.cochain_dim(2)


class TestNormalization:
    def test_degree_bound(self, idB1):
        u = unit_tensor(idB1.H.algebra, 4)
        with pytest.raises(UnsupportedDegreeError):
            idB1.normalize(4, u)

    def test_n1_fixes_cocycles(self, idB1):
        # degree-1 cocycles: ker delta^1
        basis = idB1.cochain_basis(1)
        for u in basis:
            if idB1.delta_raw(1, u).is_zero():
                assert idB1.normalize(1, u) == u

    def test_idempotent_on_degree2(self, idB1):
        for u in idB1.cochain_basis(2):
            nu = idB1.normalize(2, u)
            assert idB1.normalize(2, nu) == nu

    def test_idempotent_on_degree2_tensor(self, txB1):
        for u in txB1.cochain_basis(2):
            nu = txB1.normalize(2, u)
            assert txB1.normalize(2, nu) == nu

    def test_chain_map_2_to_3(self, idB1):
        for u in idB1.cochain_basis(2):
            lhs = idB1.delta_raw(2, idB1.normalize(2, u))
            rhs = idB1.normalize(3, idB1.delta_raw(2, u))
            assert lhs == rhs

    def test_normalized_cocycle_is_cohomologous(self, idB1):
        # N^2(z) - z lies in the image of delta^1
        images = [v.flat() for v in idB1.differential_images(1)]
        base_rank = rank_of_rows(images)
        for z in idB1.cochain_basis(2):
            if not idB1.delta_raw(2, z).is_zero():
                continue
            diff = idB1.normalize(2, z).sub(z)
            assert rank_of_rows(images + [diff.flat()]) == base_rank

    def test_n2_of_cocycle_formula(self, idB1):
        # for a cocycle y: N^2(y) = y - delta^1(s_0 y)
        for z in idB1.cochain_basis(2):
            if not idB1.delta_raw(2, z).is_zero():
                continue
            want = z.sub(idB1.delta_raw(1, idB1.codegeneracy_raw(2, 0, z)))
            assert idB1.normalize(2, z) == want


class TestH2Decomposition:
    def test_coboundary_of_unit(self, txB1):
        # u = delta^1(1 ox 1) = 1 ox R ox 1 decomposes to unit classes and a
        # vanishing tangent part (coboundaries map to zero on cohomology)
        H = txB1.H
        u = txB1.delta_raw(1, unit_tensor(H.algebra, 2))
        a, b, T = decompose_h2_tensor(txB1, u)
        one2 = unit_tensor(H.algebra, 2)
        assert a == one2 and b == one2
        assert T.is_zero()

    def test_unit_cocycle_cocommutative(self):
        # over a cocommutative algebra the unit tensor is a cocycle, and the
        # plain substitution values come out: a = b = 1 ox 1, T = 1 ox 1 - R
        H = build_cyclic(2)
        Rtriv = unit_tensor(H.algebra, 2)
        cx = tensor_complex(H, Rtriv, Rtriv)
        u = unit_tensor(H.algebra, 4)
        a, b, T = decompose_h2_tensor(cx, u)
        one2 = unit_tensor(H.algebra, 2)
        assert a == one2 and b == one2
        assert T == one2.sub(one2.mul(Rtriv))  # zero for R = 1 ox 1
        assert T.is_zero()

    def test_tangent_insertion_roundtrip(self, txB1):
        H = txB1.H
        tb = tangent_space(H, txB1.R)
        for T in tb.vectors:
            u = cocycle_from_tangent(txB1, T)
            a, b, T2 = decompose_h2_tensor(txB1, u)
            assert a.is_zero() and b.is_zero()
            assert T2 == T

    def test_b2_roundtrip(self):
        H = build_bk(2)
        R = bk_r0(2, H)
        rep = check_rmatrix(H, R)
        cx = tensor_complex(H, R, rep.inverse)
        for T in tangent_space(H, R, rep).vectors:
            u = cocycle_from_tangent(cx, T)
            a, b, T2 = decompose_h2_tensor(cx, u)
            assert a.is_zero() and b.is_zero() and T2 == T

    def test_zero_tangent(self, txB1):
        T = TensorElement(txB1.H.algebra, 2, {})
        assert cocycle_from_tangent(txB1, T).is_zero()

    def test_non_tangent_rejected(self, txB1):
        bad = TensorElement(txB1.H.algebra, 2, {(1, 0): FR1})
        with pytest.raises(DYConsistencyError):
            cocycle_from_tangent(txB1, bad)

    def test_decomposition_injective_on_h2(self, txB1):
        """The induced map on degree-2 cohomology classes kills coboundaries
        and has rank dim H^2 = 3 on a cocycle basis."""
        H = txB1.H
        n2 = H.dim ** 2
        basis = txB1.cochain_basis(2)
        # coordinate kernel of delta^2 = cocycle space in C^2 coordinates
        images = txB1.differential_images(2)
        from hopfdy.exactlin import kernel_basis
        rows = {}
        for j, v in enumerate(images):
            for f2, c in v.flat().items():
                rows.setdefault(f2, {})[j] = c
        Z = kernel_basis(list(rows.values()), len(basis))

        # B^2(id) in each of the two H^2(id) summands of H^2(id)^2 + T, dense
        id_cob = [v.flat() for v in identity_complex(H).differential_images(1)]
        cob = [densify_vec({off + i: c for i, c in v.items()}, 3 * n2)
               for off in (0, n2) for v in id_cob]

        def mapped(coords):
            u = TensorElement(H.algebra, 4, {})
            for j, c in coords.items():
                u = u.add(basis[j].scale(c))
            a, b, T = decompose_h2_tensor(txB1, u)
            merged = a.flat()
            for off, part in ((n2, b), (2 * n2, T)):
                merged.update((off + i, c) for i, c in part.flat().items())
            return densify_vec(merged, 3 * n2)

        # a class is zero iff it adds no rank to the coboundaries:
        # coboundaries map to zero classes
        base = dense_rank(cob)
        for col in txB1.differential(1).columns.values():
            assert dense_rank(cob + [mapped(col)]) == base
        # and the rank over a cocycle basis is dim H^2
        assert dense_rank(cob + [mapped(z) for z in Z]) - base == txB1.cohomology_dim(2)


# ---------------------------------------------------------------------------
# the slot kernel against the Fraction path

def _basis_changed(H, N):
    """H in the basis f_i = sum_k P[k][i] e_k, P = 1 + N, N nilpotent."""
    n = H.dim
    one = SparseMatrix.identity(n)
    P = one.add(N)
    Pinv, power = one, one
    for _ in range(1, n):
        power = power.matmul(N).scale(-1)
        Pinv = Pinv.add(power)
    assert Pinv.matmul(P) == one
    A = H.algebra

    def to_f(v):
        return Pinv.mul_vec(v)

    cols = [P.column(i) for i in range(n)]
    mult = {(i, j): to_f(A.mul_vec(cols[i], cols[j])) for i in range(n) for j in range(n)}
    B = Algebra(n, A.labels, mult, to_f(A.unit), generators=[to_f(g) for g in A.generators])

    def transport(t):
        for slot in range(t.degree):
            t = t.apply_matrix_at(slot, Pinv)
        return TensorElement(B, t.degree, t.coeffs)

    comult = [transport(H.comult_vec(cols[i])) for i in range(n)]
    counit = [H.counit_vec(cols[i]) for i in range(n)]
    antipode = SparseMatrix.from_columns(n, [to_f(H.antipode_vec(cols[i])) for i in range(n)])
    return HopfAlgebra(B, comult, counit, antipode, name="B_1 in another basis"), transport


F2 = {(0, 2): HALF}  # f_2 = g + 1/2
F3 = {(1, 3): HALF}  # f_3 = xg + x/2


def _b1_in_basis(N):
    return _basis_changed(build_bk(1), SparseMatrix(4, 4, N))


# identity complexes, for their kernels; f3 has basis products with two terms
_CX = {k: identity_complex(H) for k, H in
       (("bk:1", build_bk(1)), ("bk:2", build_bk(2)), ("f3", _b1_in_basis(F3)[0]))}


def _kernel_product(K, u, M, left):
    """M u (left) or u M through the kernel K, or None where it falls back."""
    try:
        x = K.mul(K.encode([u], u.degree), K.encode([M], M.degree), left)
        return K.decode(K.combine([(x, 1)]), 1)[0].coeffs
    except Fallback:
        return None


def _tensors(nd, s, big):
    """Random rational tensors of degree s.  Small values have denominators
    up to 12, so every scaled product and sum stays far below 2^62; `big`
    values exceed 2^34."""
    num = st.integers(2 ** 40, 2 ** 70) if big else st.integers(-99, 99)
    coef = st.builds(Fraction, num, st.integers(1, 12 if not big else 60))
    key = st.tuples(*[st.integers(0, nd - 1)] * s)
    return st.dictionaries(key, coef, min_size=1, max_size=8)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), k=st.sampled_from(sorted(_CX)), s=st.integers(1, 3),
       left=st.booleans(), big=st.booleans())
def test_kernel_products_match_slotwise_mul_into(data, k, s, left, big):
    cx = _CX[k]
    A = cx.H.algebra
    u = TensorElement(A, s, data.draw(_tensors(A.dim, s, big)))
    M = TensorElement(A, s, data.draw(_tensors(A.dim, s, big)))
    want: dict = {}
    slotwise_mul_into(A.fast_mult(), *((M.coeffs, u.coeffs) if left else (u.coeffs, M.coeffs)),
                      want)
    want = {key: v for key, v in want.items() if v}
    got = _kernel_product(cx._slot_kernel(), u, M, left)
    if big:
        # values of both factors exceed 2^34, so every product is over
        # the int64 bound: the int64 kernel must refuse rather than wrap
        assert got is None
    else:
        assert got == want
    assert _kernel_product(cx._slot_kernel(big=True), u, M, left) == want


def test_decode_refuses_repeated_keys():
    # (1 + g)(1 + g) in B_1: the products 1 g and g 1 both land on g (index 2),
    # so the uncombined batch holds that key twice
    K = _CX["bk:1"]._slot_kernel()
    u = TensorElement(K.H.algebra, 1, {(0,): FR1, (2,): FR1})
    x = K.mul(K.encode([u], 1), K.encode([u], 1), True)
    with pytest.raises(ValueError, match="repeated"):
        K.decode(x, 1)
    assert K.decode(K.combine([(x, 1)]), 1)[0].coeffs == {(0,): 2, (2,): 2}


@pytest.mark.parametrize("big", [False, True], ids=["int64", "python-int"])
def test_condition_rows_run_sparsest_first(big):
    """One row per (batch j, flat index f), its entries ascending in the
    tensor index t; rows of one length keep the order of their first entry
    (j, then t, then f), as a stable sort of the rows by length would."""
    import numpy as np
    from hopfdy.slotkernel import Batch
    K = _CX["bk:1"]._slot_kernel(big)

    def batch(entries):   # (t, f, c), sorted by (t, f) as combine leaves them
        t, f, c = zip(*entries)
        return Batch(np.array(t), np.array(f), np.array(c, K.dtype), 1, 2)
    rows = K.rows([batch([(0, 5, 1), (0, 7, 2), (1, 5, 3), (2, 1, 4)]),
                   batch([(0, 5, 9), (1, 2, 1), (1, 5, 2)])], 3)
    assert [list(r.items()) for r in rows] == [
        [(0, 2)], [(2, 4)], [(1, 1)], [(0, 1), (1, 3)], [(0, 9), (1, 2)]]
    assert rows.ncols == 3 and rows.vals.dtype == K.dtype
    assert len(K.rows([], 1)) == 0


def test_containment_falls_back_beyond_int64():
    H = build_bk(1)
    cx = tensor_complex(H, bk_r0(1, H))
    z = cx.cochain_basis(2)[0].scale(2 ** 70)
    assert cx.in_cochain_space(2, z)
    assert not cx.in_cochain_space(2, z.add(unit_tensor(H.algebra, 4)))
    assert cx.fallbacks == ["containment", "containment"]


def test_coface_falls_back_beyond_int64():
    H = build_bk(1)
    cx = tensor_complex(H, bk_r0(1, H))
    z = next(u for u in cx.cochain_basis(2) if not cx.delta_raw(2, u).is_zero())
    assert cx.delta_raw(2, z.scale(2 ** 70)) == cx.delta_raw(2, z).scale(2 ** 70)
    assert cx.fallbacks == ["coface"]


def test_image_check_falls_back_beyond_int64():
    # delta is linear in R, so 2^28 R gives the same ranks; the delta^1
    # images carry 2^28, and delta^2 of them 2^56, past the int64 bound
    H = build_bk(1)
    cx = tensor_complex(H, bk_r0(1, H).scale(2 ** 28))
    assert cx.cohomology_dim(2) == 3
    assert cx.fallbacks == ["image_check"]


def test_r21_middle_multiplier_stops_at_dd_zero():
    # built from R21 in place of R, the middle multiplier keeps every image
    # in the cochain spaces on bk:1 at lambda = 37/41; delta o delta != 0
    H = build_bk(1)
    R = bk_r_lambda(1, [[Fraction(37, 41)]], H)
    cx, swapped = tensor_complex(H, R), tensor_complex(H, R.permute_slots([1, 0]))
    multiplier = cx._multiplier
    cx._multiplier = lambda ops, side, n, i=0: (
        swapped._multiplier if side == "middle" else multiplier)(ops, side, n, i)
    with pytest.raises(DYConsistencyError, match=r"delta\^2 o delta\^1 is not zero"):
        cx.cohomology_dim(2)


def test_middle_coface_without_slot_swap_stops_at_containment():
    from hopfdy.slotkernel import SlotKernel

    class NoSwap(SlotKernel):
        def permute(self, x, perm):
            return x
    H = build_bk(1)
    cx = tensor_complex(H, bk_r0(1, H))
    kernels = {big: NoSwap(H, big) for big in (False, True)}
    cx._slot_kernel = lambda big=False: kernels[big]
    with pytest.raises(DYConsistencyError, match="escapes the degree-2 cochain space"):
        cx.cohomology_dim(2)


def test_coords_rejects_non_cochains(txB1):
    z = txB1.cochain_basis(2)[1]
    assert txB1.coords(2, z) == {1: FR1}
    with pytest.raises(DYConsistencyError, match="does not lie in the cochain space"):
        txB1.coords(2, z.add(unit_tensor(txB1.H.algebra, 4)))


def test_index_bound_is_refused_not_rerun():
    # 4^31 = 2^62 flat indices: both kernels refuse them, and the stage is
    # not rerun, since Python-int coefficients keep int64 flat indices
    cx = identity_complex(build_bk(1))
    for big in (False, True):
        with pytest.raises(UnsupportedDegreeError, match="ambient too large"):
            cx._slot_kernel(big).all_basis(31)
    with pytest.raises(UnsupportedDegreeError, match="ambient too large"):
        cx._run("cochain_basis", lambda K: K.all_basis(31))
    assert cx.fallbacks == []


def _check_images_against_delta_dense(cx, n):
    """delta^n of the basis, batched and one cochain at a time, against the
    dense oracle."""
    want = [delta_dense(cx.H, cx.R, n, u.coeffs) for u in cx.cochain_basis(n)]
    assert [v.coeffs for v in cx.differential_images(n)] == want
    assert [cx.delta_raw(n, u).coeffs for u in cx.cochain_basis(n)] == want


def test_kernel_images_match_delta_raw(idB1, txB1, resB2B1):
    lam = tensor_complex(build_bk(1), bk_r_lambda(1, [[Fraction(37, 41)]]))
    for cx, tops in ((idB1, 3), (txB1, 2), (resB2B1, 2), (lam, 2)):
        for n in range(tops + 1):
            _check_images_against_delta_dense(cx, n)
        assert cx.fallbacks == []


def _b1_complexes():
    B1, B2 = build_bk(1), build_bk(2)
    Z2 = build_cyclic(2)
    g = AlgebraMap(Z2.algebra, B1.algebra, [{0: FR1}, {2: FR1}])  # Z/2 -> <g> in B_1
    return {"id": identity_complex(B1), "r0": tensor_complex(B1, bk_r0(1, B1)),
            "lambda": tensor_complex(B1, bk_r_lambda(1, [[Fraction(-5, 7)]], B1)),
            "res": restriction_complex(B1, g, Z2),
            "res2": restriction_complex(B2, bk_inclusion(1, 1), B1)}


_COFACE_CX = _b1_complexes()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.sampled_from(sorted(_COFACE_CX)), n=st.integers(0, 2))
def test_coface_matches_dense_oracle(data, k, n):
    # random rational tensors, cochains or not
    cx = _COFACE_CX[k]
    s = cx.slots(n)
    u = TensorElement(cx.H.algebra, s, data.draw(_tensors(cx.H.dim, s, False)))
    i = data.draw(st.integers(0, n + 1))
    assert cx.coface(n, i, u).coeffs == coface_dense(cx.H, cx.R, n, i, u.coeffs)


def test_kernel_on_multi_term_products():
    H = build_bk(1)
    for N in (F2, F3):
        Hb, transport = _b1_in_basis(N)
        assert verify_hopf(Hb) == []
        tab = Hb.algebra.fast_mult()
        assert any(isinstance(p, dict) for row in tab for p in row)  # multi-term products
        R = transport(bk_r0(1, H))
        assert check_rmatrix(Hb, R).verified
        idc, txc = identity_complex(Hb), tensor_complex(Hb, R)
        assert idc.cohomology_dim(2) == 1
        assert txc.cohomology_dim(2) == 3
        for cx in (idc, txc):
            for n in (0, 1):
                _check_images_against_delta_dense(cx, n)
            assert cx.fallbacks == []


def test_shared_complex_is_thread_safe():
    H = build_bk(1)
    cx = tensor_complex(H, bk_r0(1, H))
    results, errors = [], []

    def work():
        try:
            results.append(cx.cohomology_dim(2))
        except Exception as exc:  # recorded for the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and results == [3, 3]


def test_identity_and_restriction_complexes_are_owned_by_h():
    """identity_complex and restriction_complex return the complex cached on
    H, one per (imap, Hsub); tensor_complex builds a new one per call."""
    B1, B2 = build_bk(1), build_bk(2)
    assert identity_complex(B2) is identity_complex(B2)
    assert identity_complex(B1) is not identity_complex(B2)
    imap = bk_inclusion(1, 1)
    assert restriction_complex(B2, imap, B1) is restriction_complex(B2, imap, B1)
    other = AlgebraMap(imap.source, imap.target, imap.matrix)
    assert restriction_complex(B2, other, B1) is not restriction_complex(B2, imap, B1)
    R = bk_r0(1, B1)
    assert tensor_complex(B1, R) is not tensor_complex(B1, R)
