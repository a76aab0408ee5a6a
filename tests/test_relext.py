import copy
import gc
import re
import sys
import threading
import weakref

import pytest

from hopfdy.algcore import (Algebra, AlgebraError, AlgebraMap, hom_space,
                            module_from_character)
from hopfdy.double import coeff_restriction, drinfeld_double
from hopfdy.dycomplex import identity_complex, restriction_complex
from hopfdy.exactlin import FR1, SparseMatrix, TensorElement, vec_kron
from hopfdy.hopfcore import HopfAlgebra, bk_inclusion, build_bk, verify_hopf
from hopfdy.relext import (BudgetExceededError, ExtComputation, ResolventPair,
                           TensorResolution, adjunction_crosscheck_restriction,
                           adjunction_crosscheck_tensor, get_resolution,
                           kunneth_check, pair_from_double, relative_ext_dims,
                           tensor_pair, trivial_module_over, verify_resolution)
from hopfdy.rmatrix import bk_r0, check_rmatrix

from freebases import rebased_pair
from oracles import (cocycle_count_dense, dense_column, dense_kron, dense_rank,
                     densify_matrix)


def trivial_over(D):
    return module_from_character(
        D.algebra, {i: c for i, c in enumerate(D.hopf.counit) if c}, name="k")


@pytest.fixture(scope="module")
def D1():
    return drinfeld_double(build_bk(1))


@pytest.fixture(scope="module")
def P1(D1):
    return pair_from_double(D1)


@pytest.fixture(scope="module")
def Q1(P1):
    """P1 on the rebased free basis: a rewrite table with non-unit,
    mixed coefficients."""
    return rebased_pair(P1)


@pytest.fixture(scope="module")
def k1(D1):
    return trivial_over(D1)


def test_tensor_pair_layout_matches_dense_kron(P1):
    """(D(B_1), B_1) ox (B_2, B_1): the inclusion is i_1 ox i_2 and the free
    basis the u ox v, a-major; the big factors differ in dimension, so a
    b-major layout fails."""
    p2 = ResolventPair(build_bk(2).algebra, build_bk(1).algebra, bk_inclusion(1, 1),
                       free_basis=[{0: FR1, 1: FR1}, {1: 2 * FR1}])
    pt = tensor_pair(P1, p2)
    assert densify_matrix(pt.inclusion.matrix) == dense_kron(
        densify_matrix(P1.inclusion.matrix), densify_matrix(p2.inclusion.matrix))
    assert [dense_column(f, pt.big.dim) for f in pt.free_basis] == [
        dense_kron(dense_column(u, P1.big.dim), dense_column(v, p2.big.dim))
        for u in P1.free_basis for v in p2.free_basis]


class TestResolutions:
    def test_bar_term_dimensions(self, P1, k1):
        res = get_resolution(P1, k1, "bar", 2)
        assert [t.dim for t in res.terms] == [4, 16, 64]

    def test_cover_term_dimensions(self, P1, k1):
        res = get_resolution(P1, k1, "cover", 2)
        assert [t.dim for t in res.terms] == [4, 12, 36]
        assert res.kernel_modules[1].dim == 3  # ker(counit) inside P_0

    # "quotient": the rebased pair Q1, whose class map Q rewrites through a
    # table with non-unit coefficients
    @pytest.mark.parametrize("use_free", [True, False], ids=["free", "quotient"])
    def test_bar_verifies(self, P1, Q1, k1, use_free):
        assert verify_resolution(get_resolution(P1 if use_free else Q1, k1, "bar", 2)) == []

    @pytest.mark.parametrize("use_free", [True, False], ids=["free", "quotient"])
    def test_cover_verifies(self, P1, Q1, k1, use_free):
        assert verify_resolution(get_resolution(P1 if use_free else Q1, k1, "cover", 2)) == []

    @pytest.mark.parametrize("kind", ["bar", "cover"])
    def test_verifier_sees_a_corrupted_differential(self, P1, k1, kind):
        res = get_resolution(P1, k1, kind, 2)
        bad = copy.copy(res)
        bad.diffs = list(res.diffs)
        ent = dict(res.diffs[1].items())
        key = next(iter(ent))
        ent[key] += 1
        bad.diffs[1] = SparseMatrix(res.diffs[1].rows, res.diffs[1].cols, ent)
        assert verify_resolution(bad)

    @pytest.mark.parametrize("kind,s_index", [("bar", 3), ("cover", 2)])
    def test_verifier_sees_a_homotopy_that_is_not_b_linear(self, P1, k1, kind, s_index):
        """h' = h + d s - s d, for s : V -> P_1 sending 1 to a basis vector
        that B does not fix, still satisfies d h' + h' d = id but is not a
        B-linear splitting; only the B-linearity check can reject it."""
        res = get_resolution(P1, k1, kind, 2)
        h = res.homotopies()
        s = SparseMatrix(res.terms[1].dim, 1, {(s_index, 0): FR1})
        bad_h = [h[0].add(res.diffs[1].matmul(s)),
                 h[1].add(s.matmul(res.diffs[0]).scale(-FR1))] + h[2:]
        bad = copy.copy(res)
        bad.homotopies = lambda: bad_h
        report = verify_resolution(bad)
        assert report and all("not B-linear" in line for line in report), report

    def test_tensor_certificate_checks_the_factor_terms(self, P1, k1):
        """verify_resolution on a tensor product certifies each factor: with
        the action of the second factor's P_1 doubled (rho(1) = 2), the
        report names that factor's term, and no line blames the first."""
        res = get_resolution(P1, k1, "cover", 2)
        good = res.terms[1]
        term = copy.copy(good)
        term._matrices = {}
        term._action_fn = lambda i: good.action(i).scale(2 * FR1)
        bad = copy.copy(res)
        bad.terms = list(res.terms)
        bad.terms[1] = term
        report = verify_resolution(TensorResolution(res, bad, tensor_pair(P1, P1), 2))
        assert "factor 2: term P_1 fails module axioms: rho(1) != id" in report
        assert not any(line.startswith("factor 1") for line in report), report
        assert verify_resolution(TensorResolution(res, res, tensor_pair(P1, P1), 2)) == []

    def test_augmentation_composes_to_zero(self, P1, k1):
        res = get_resolution(P1, k1, "bar", 2)
        assert res.diffs[0].matmul(res.diffs[1]).is_zero()

    def test_quotient_mode_matches_free_mode(self, P1, Q1, k1):
        """The rebased pair gives the same Ext dimensions and term dimensions
        as the dual free basis; its sections are the u'_alpha ox e_v, and its
        rewrite table has coefficients other than 0 and +-1."""
        dims_free = relative_ext_dims(P1, k1, k1, 2, kind="bar")
        dims_quot = relative_ext_dims(Q1, k1, k1, 2, kind="bar")
        assert dims_free == dims_quot
        res_q = get_resolution(Q1, k1, "bar", 2)
        for t in res_q.terms:
            nv = t.source.dim
            assert [t.section().column(j) for j in range(t.dim)] == [
                vec_kron(u, {v: FR1}, nv) for u in Q1.free_basis for v in range(nv)]
        assert [t.dim for t in res_q.terms] == [4, 16, 64]
        assert any(abs(c) not in (0, 1) for row in Q1.rewrite_table()[1] for *_, c in row)

    @pytest.mark.parametrize("case", ["wrong-cardinality", "not-free"])
    def test_pair_without_a_free_basis_raises(self, P1, k1, case):
        """A basis of the wrong size, or of the right size with u_1 twice,
        is refused when the first term is induced, naming the inclusion."""
        u = P1.free_basis
        basis = u[:-1] if case == "wrong-cardinality" else [u[0], u[1], u[1]] + u[3:]
        pair = ResolventPair(P1.big, P1.small, P1.inclusion, basis)
        for kind in ("bar", "cover"):
            with pytest.raises(AlgebraError, match="^" + re.escape(P1.inclusion.name + ": ")):
                get_resolution(pair, k1, kind, 1)

    def test_relatively_projective_target_truncates(self, P1, k1):
        # V = G(W) relatively projective: Ext^n(V, anything) = 0 for n >= 1
        from hopfdy.algcore import induced_module, restrict_module
        W = restrict_module(P1.inclusion, k1)
        V = induced_module(P1.inclusion, W, P1.rewrite_table())
        dims = relative_ext_dims(P1, V, k1, 2, kind="cover")
        assert dims[1] == 0 and dims[2] == 0


def test_get_resolution_is_thread_safe(P1, k1):
    """Three threads that extend the bar resolution of one fresh pair at
    the same time all get the right Ext dimensions."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            pair = ResolventPair(P1.big, P1.small, P1.inclusion, P1.free_basis)
            results, errors = [], []

            def run():
                try:
                    results.append(relative_ext_dims(pair, k1, k1, 3, kind="bar"))
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=run) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
            assert errors == [] and results == [[1, 0, 1, 0]] * 3
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind,step", [("cover", "kernel_basis_marked"),
                                       ("bar", "induced_map")])
def test_interrupted_extension_leaves_the_resolution_usable(P1, k1, monkeypatch,
                                                              kind, step):
    """An exception in the middle of degree 1 (a deadline, Ctrl-C or an
    AlgebraError) publishes no piece of it: the same pair then gives the
    right Ext dimensions, and its resolution verifies."""
    import hopfdy.relext as relext
    pair = ResolventPair(P1.big, P1.small, P1.inclusion, P1.free_basis)
    real, calls = getattr(relext, step), []

    def second_call_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise BudgetExceededError("deadline")
        return real(*args, **kwargs)

    monkeypatch.setattr(relext, step, second_call_fails)
    with pytest.raises(BudgetExceededError):
        get_resolution(pair, k1, kind, 2)
    monkeypatch.setattr(relext, step, real)
    assert relative_ext_dims(pair, k1, k1, 2, kind=kind) == [1, 0, 1]
    assert verify_resolution(get_resolution(pair, k1, kind, 2)) == []


def test_owner_caches_publish_write_once(tmp_path, monkeypatch):
    """Two threads that fill the caches of one freshly loaded bk:1 at the
    same time get the very same objects from every call: the doubles, pairs,
    modules, DY complexes and their ranks.  Each thread also runs
    cochain_basis and kernel_dim_top on one fresh bar resolution through its
    own ExtComputation: every build of kernel_dim_top must read the same
    image generators, and both threads get the same cochain basis."""
    from hopfdy.hopffile import load_hopf, save_hopf
    from hopfdy.relext import Resolution

    path = str(tmp_path / "bk1.json")
    save_hopf(build_bk(1), path)
    read = []   # the generators each build of kernel_dim_top read
    image_generators = Resolution.image_generators

    def spy(res, n):
        read.append(image_generators(res, n))
        return read[-1]

    monkeypatch.setattr(Resolution, "image_generators", spy)

    def calls(H, ident, Hv, ext):
        mine = ExtComputation(ext.res, ext.W)   # a view of its own per thread
        basis, kdim = mine.cochain_basis(1), mine.kernel_dim_top(1)
        cx = restriction_complex(H, ident, H)
        D = drinfeld_double(H)
        p = pair_from_double(D)
        W = coeff_restriction(D, ident, H).module
        assert verify_hopf(Hv) == []
        return (D, p, trivial_module_over(D), tensor_pair(p, p), W,
                W.action(1), H.algebra.fast_mult(), D.algebra.left_mult_matrix(1),
                Hv._cache["report"], p.rewrite_table()[1], ext.cochain_basis(1),
                basis, kdim, identity_complex(H), cx, cx.rank_delta(2), cx.cochain_basis(2))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            H = load_hopf(path)
            # the same structure, not yet verified
            Hv = HopfAlgebra(H.algebra, H.comult, H.counit, H.antipode)
            ident = AlgebraMap(H.algebra, H.algebra, [{i: FR1} for i in range(H.dim)])
            # a shared Ext computation over a second copy, its cochains not built yet
            De = drinfeld_double(load_hopf(path))
            ke = trivial_module_over(De)
            ext = ExtComputation(get_resolution(pair_from_double(De), ke, "bar", 1), ke)
            start = threading.Barrier(2)
            results, errors = [], []
            read.clear()

            def run():
                try:
                    start.wait()
                    results.append(calls(H, ident, Hv, ext))
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=run) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
            assert errors == [] and len(results) == 2
            assert all(a is b for a, b in zip(*results))
            assert read and all(g is read[0] for g in read)
    finally:
        sys.setswitchinterval(interval)


def _loaded_bk1(tmp_path):
    """A copy of bk:1 read from a Hopf file: unlike build_bk(1), it is not
    shared with other tests, and nothing keeps it alive."""
    from hopfdy.hopffile import load_hopf, save_hopf
    path = str(tmp_path / "bk1.json")
    save_hopf(build_bk(1), path)
    return load_hopf(path)


def test_cohomology_is_not_recomputed(tmp_path, monkeypatch):
    """A second identity_complex(H).cohomology_dim(3), and a second
    relative_ext_dims on the same (pair, V, W), run no elimination: the
    complex lives on H, its ranks on the complex and the Ext cochain data on
    the resolution."""
    from hopfdy import algcore, dycomplex, relext
    H = _loaded_bk1(tmp_path)
    D = drinfeld_double(H)
    pair, V = pair_from_double(D), trivial_module_over(D)
    W = coeff_restriction(D, _identity_map(H), H).module

    def dims():
        return ([identity_complex(H).cohomology_dim(3)]
                + [relative_ext_dims(pair, V, M, 2) for M in (V, W)])

    first, calls = dims(), []

    def spy(mod, name):
        real = getattr(mod, name)

        def counted(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(mod, name, counted)

    spy(dycomplex, "rank_of_rows")
    spy(dycomplex, "kernel_basis_marked")
    spy(algcore, "hom_space")
    spy(relext, "hom_space")
    spy(relext, "rank_of_rows")
    assert dims() == first and calls == []


def _identity_map(H):
    return AlgebraMap(H.algebra, H.algebra, [{i: FR1} for i in range(H.dim)])


def test_cohomology_caches_die_with_their_algebra(tmp_path):
    """DY complexes, their ranks, the double, its resolutions and their Ext
    cochain data all hang off H: once the caller drops H, gc frees it."""
    H = _loaded_bk1(tmp_path)
    ident = _identity_map(H)
    assert identity_complex(H).cohomology_dim(3) == 0
    assert restriction_complex(H, ident, H).cohomology_dim(2) == 1
    D = drinfeld_double(H)
    W = coeff_restriction(D, ident, H).module
    assert relative_ext_dims(pair_from_double(D), trivial_module_over(D), W, 2) == [1, 0, 1]
    ref = weakref.ref(H)
    del H, ident, D, W
    gc.collect()
    assert ref() is None


class TestExtDims:
    def test_ext_of_trivials(self, P1, k1):
        # Ext^0 = Hom(k, k) = 1; pattern 1, 0, 1, 0 matches the DY identity
        # complex of B_1
        for kind in ("bar", "cover"):
            assert relative_ext_dims(P1, k1, k1, 3, kind=kind) == [1, 0, 1, 0]

    def test_resolution_kinds_agree_on_b2_restriction(self):
        D2 = drinfeld_double(build_bk(2))
        p = pair_from_double(D2)
        W = coeff_restriction(D2, bk_inclusion(1, 1), build_bk(1)).module
        k2 = trivial_over(D2)
        bar_dims = relative_ext_dims(p, k2, W, 3, kind="bar")
        cover_dims = relative_ext_dims(p, k2, W, 3, kind="cover")
        assert bar_dims == cover_dims == [1, 0, 3, 0]

    def test_hom_complex_dimension_against_direct_hom(self, P1, k1):
        # the mate-computed cochain spaces agree with direct hom_space on
        # the materialized terms
        res = get_resolution(P1, k1, "bar", 2)
        ext = ExtComputation(res, k1)
        for n in range(3):
            mates = ext.cochain_basis(n)
            direct = hom_space(res.terms[n], k1)
            assert len(mates) == len(direct)
            T = res.terms[n]
            for f in mates:
                for a in range(T.algebra.dim):
                    assert f.matmul(T.action(a)) == k1.action(a).matmul(f)


# "quotient": the pair on the rebased free basis
@pytest.mark.parametrize("use_free", [True, False], ids=["free", "quotient"])
@pytest.mark.parametrize("kind", ["bar", "cover"])
@pytest.mark.parametrize("k,coeff", [(1, "trivial"), (2, "trivial"), (2, "restriction")],
                         ids=["B1-trivial", "B2-trivial", "B2-restriction"])
def test_kernel_dim_top_against_composites_on_next_term(k, coeff, kind, use_free):
    """dim ker delta^n from image generators in P_n equals dim C^n minus the
    dense rank of {f o d_{n+1}} on the materialized P_{n+1}."""
    D = drinfeld_double(build_bk(k))
    p = pair_from_double(D) if use_free else rebased_pair(pair_from_double(D))
    V = trivial_module_over(D)
    W = V if coeff == "trivial" else coeff_restriction(D, bk_inclusion(1, 1),
                                                       build_bk(1)).module
    res = get_resolution(p, V, kind, 3)
    ext = ExtComputation(res, W)
    for n in range(3):
        images = [dict(f.matmul(res.diffs[n + 1]).items()) for f in ext.cochain_basis(n)]
        support = sorted(set().union(*images))
        rk = dense_rank([[img.get(key, 0) for key in support] for img in images]
                        if support else [])
        assert ext.kernel_dim_top(n) == len(ext.cochain_basis(n)) - rk


def _restriction_coefficients(D, k):
    """Hom_K(H, k) over D(B_k): K = B_1 inside B_2, and K = k inside B_1,
    where it is the whole dual H*."""
    if k == 2:
        return coeff_restriction(D, bk_inclusion(1, 1), build_bk(1)).module
    H = D.base
    scalars = Algebra(1, ["1"], {(0, 0): {0: FR1}}, {0: FR1})
    kh = HopfAlgebra(scalars, [TensorElement(scalars, 2, {(0, 0): FR1})], [FR1],
                     SparseMatrix.identity(1))
    emb = AlgebraMap(scalars, H.algebra, [dict(H.algebra.unit)])
    return coeff_restriction(D, emb, kh).module


@pytest.mark.parametrize("kind", ["bar", "cover"])
@pytest.mark.parametrize("coeff", ["trivial", "restriction"])
@pytest.mark.parametrize("k,top", [(1, 3), (2, 2)], ids=["B1", "B2"])
def test_kernel_dim_top_matches_dense_cocycle_count(k, top, coeff, kind):
    """kernel_dim_top(n) equals the dense count of cochains that vanish on
    the generators d_{n+1} eta_{n+1}(p) = d_{n+1}[1 ox p] of im d_{n+1},
    one per basis vector p of the source of P_{n+1}, read from the next
    term (for the cover eps eta = 1, so they are the K_{n+1} basis).
    The resolution's own generators, built without P_{n+1}, must be these
    in this order: the count alone cannot see a dropped generator when the
    others still generate im d_{n+1} as an A-module."""
    D = drinfeld_double(build_bk(k))
    V = trivial_module_over(D)
    W = V if coeff == "trivial" else _restriction_coefficients(D, k)
    res = get_resolution(pair_from_double(D), V, kind, top + 1)
    ext = ExtComputation(res, W)
    for n in range(top + 1):
        gens = res.diffs[n + 1].matmul(res.terms[n + 1].unit())
        assert res.image_generators(n) == gens.transpose()
        dense_gens = [list(col) for col in zip(*densify_matrix(gens))]
        cochains = [densify_matrix(f) for f in ext.cochain_basis(n)]
        assert ext.kernel_dim_top(n) == cocycle_count_dense(cochains, dense_gens)


def test_relative_ext_over_the_square_pair_leaves_numpy_unimported():
    """Ext over (D(B_1) ox D(B_1), B_1 ox B_1) with the R0-twisted
    coefficient, criterion 9's instance, by both resolutions: its ranks are
    of dict rows, eliminated whole, so numpy never loads."""
    code = ("import sys\n"
            "from hopfdy.algcore import module_from_character\n"
            "from hopfdy.double import coeff_tensor_product, drinfeld_double\n"
            "from hopfdy.exactlin import vec_kron\n"
            "from hopfdy.hopfcore import build_bk\n"
            "from hopfdy.relext import pair_from_double, relative_ext_dims, tensor_pair\n"
            "from hopfdy.rmatrix import bk_r0\n"
            "H = build_bk(1)\n"
            "D = drinfeld_double(H)\n"
            "p = pair_from_double(D)\n"
            "psq = tensor_pair(p, p)\n"
            "W = coeff_tensor_product(D, bk_r0(1, H), psq.big).module\n"
            "eps = D.hopf.counit_row()\n"
            "k = module_from_character(psq.big, vec_kron(eps, eps, D.dim), name='k')\n"
            "for kind in ('bar', 'cover'):\n"
            "    assert relative_ext_dims(psq, k, W, 2, kind=kind)[2] == 3, kind\n"
            "assert 'numpy' not in sys.modules\n")
    import subprocess
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


class TestCrosschecks:
    def test_adjunction_tensor_b1(self, D1):
        H = D1.base
        R = bk_r0(1, H)
        out = adjunction_crosscheck_tensor(D1, R, 2, kind="cover")
        assert out["equal"] and out["dy_dim"] == 3

    def test_adjunction_tensor_budget(self, D1):
        H = D1.base
        R = bk_r0(1, H)
        with pytest.raises(BudgetExceededError):
            adjunction_crosscheck_tensor(D1, R, 3)

    def test_adjunction_restriction_b2_b1(self):
        D2 = drinfeld_double(build_bk(2))
        for n, want in ((1, 0), (2, 3), (3, 0)):
            out = adjunction_crosscheck_restriction(
                D2, bk_inclusion(1, 1), build_bk(1), n)
            assert out["equal"] and out["dy_dim"] == want

    def test_restriction_identity_pair_reduces_to_identity_complex(self, D1):
        H = D1.base
        ident = AlgebraMap(H.algebra, H.algebra, [{i: FR1} for i in range(H.dim)])
        out = adjunction_crosscheck_restriction(D1, ident, H, 2)
        assert out["equal"] and out["dy_dim"] == 1

    def test_dimension_formula_b1(self, D1):
        # tangent dim = H^2(tensor) - 2 H^2(identity) = 3 - 2 = 1
        from hopfdy.dycomplex import tensor_complex
        from hopfdy.rmatrix import tangent_space
        H = D1.base
        R = bk_r0(1, H)
        rep = check_rmatrix(H, R)
        h2t = tensor_complex(H, R, rep.inverse).cohomology_dim(2)
        h2i = identity_complex(H).cohomology_dim(2)
        assert h2t - 2 * h2i == 1 == tangent_space(H, R, rep).dim


class TestKunneth:
    def test_kunneth_degree_two(self, D1, P1, k1):
        out = kunneth_check(P1, P1, k1, k1, k1, k1, 2)
        assert out["equal"] and out["product_ext"] == 2
        assert out["factor_ext_a"] == [1, 0, 1]

    def test_kunneth_degree_one(self, D1, P1, k1):
        out = kunneth_check(P1, P1, k1, k1, k1, k1, 1)
        assert out["equal"] and out["product_ext"] == 0

    def test_kunneth_degree_zero(self, D1, P1, k1):
        out = kunneth_check(P1, P1, k1, k1, k1, k1, 0)
        assert out["equal"] and out["product_ext"] == 1

    def test_repeated_calls_reuse_one_resolution(self, D1, P1, k1):
        """kunneth_check finds V ox V' and W ox W' on the tensor pair again,
        so three identical calls leave one resolution and one set of Ext
        cochain data on it."""
        pt = tensor_pair(P1, P1)
        sizes = []
        for _ in range(3):
            assert kunneth_check(P1, P1, k1, k1, k1, k1, 1)["equal"]
            sizes.append((len(pt._resolutions),
                          sum(len(res._ext) for res in pt._resolutions.values())))
        assert sizes[0] == sizes[1] == sizes[2]
        assert (pt.product_module(k1, k1), "cover") in pt._resolutions
