import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfdy
from hopfdy import exactlin
from hopfdy.algcore import _invert_columns
from hopfdy.exactlin import (Echelon, ExactlinError, SparseMatrix, TensorElement, fr,
                             kernel_basis, kernel_basis_marked, kron_into, rank_of_rows,
                             rank_of_vectors, span_equal, unit_tensor, vec_addmul, vec_kron,
                             vec_sub)
from hopfdy.hopfcore import build_bk

from oracles import (dense_column, dense_kron, dense_nullspace, dense_rank, dense_rref,
                     densify_matrix, densify_vec)


def sm(rows):
    ent = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                ent[(i, j)] = Fraction(v)
    return SparseMatrix(len(rows), len(rows[0]) if rows else 0, ent)


class TestRank:
    def test_identity(self):
        assert rank_of_rows(SparseMatrix.identity(3).row_dicts()) == 3

    def test_zero(self):
        assert rank_of_rows(SparseMatrix(4, 7, {}).row_dicts()) == 0

    def test_rank_one(self):
        # [[1,2],[2,4]] row-reduces to a single nonzero row
        assert rank_of_rows(sm([[1, 2], [2, 4]]).row_dicts()) == 1

    def test_rank_plus_nullity(self):
        M = sm([[1, 2, 3], [0, 1, 1], [1, 3, 4]])
        assert rank_of_rows(M.row_dicts()) + len(kernel_basis(M.row_dicts(), M.cols)) == M.cols

    def test_modular_agrees(self):
        M = sm([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        assert rank_of_rows(M.row_dicts()) == 3

    def test_transposed_rank_path(self):
        vecs = [{0: Fraction(1), 100: Fraction(2)}, {0: Fraction(2), 100: Fraction(4)},
                {5: Fraction(1)}]
        assert rank_of_vectors(vecs, 101) == 2


class TestKernel:
    def test_identity_kernel_empty(self):
        assert kernel_basis([{0: 1}, {1: 1}], 2) == []

    def test_zero_kernel_full(self):
        ker = kernel_basis([], 3)
        assert ker == [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]

    def test_hand_solved(self):
        # [[1, 1]] has kernel spanned by (1, -1)
        ker = kernel_basis([{0: 1, 1: 1}], 2)
        assert ker == [{1: Fraction(1), 0: Fraction(-1)}]

    def test_vectors_satisfy_system(self):
        M = sm([[1, 2, 3, 1], [2, 0, 1, 1], [3, 2, 4, 2]])
        for v in kernel_basis(M.row_dicts(), M.cols):
            assert M.mul_vec(v) == {}

    def test_against_dense_oracle(self):
        rows = [[1, 2, 0, 1], [0, 1, 1, 0], [1, 3, 1, 1]]
        got = kernel_basis([_sparse(r) for r in rows], 4)
        want = dense_nullspace(rows, 4)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert densify_vec(g, 4) == w

    def test_markers_read_coordinates(self):
        M = sm([[1, 2, 0, 1], [0, 1, 1, 0]])
        basis, markers = kernel_basis_marked(M.row_dicts(), M.cols)
        # combination 2*b0 - b1 recovered from its marker coordinates
        v = {}
        for k, c in basis[0].items():
            v[k] = v.get(k, Fraction(0)) + 2 * c
        for k, c in basis[1].items():
            v[k] = v.get(k, Fraction(0)) - c
        v = {k: c for k, c in v.items() if c}
        assert v.get(markers[0], Fraction(0)) == 2
        assert v.get(markers[1], Fraction(0)) == -1

    @pytest.mark.parametrize("col", [-1, 3])
    def test_column_out_of_range(self, col):
        with pytest.raises(ExactlinError):
            kernel_basis_marked([{0: 1}, {col: 1}], 3)


def test_package_has_no_true_division():
    """An int / int is a float, so no source file of the package uses the
    true-division operator (`/` or `/=`); exact quotients go through `fr`."""
    found = []
    for path in sorted(Path(hopfdy.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_package_has_no_unused_imports():
    """Every name a source file of the package imports is used again in that
    file, so deleting code cannot leave an import behind; `from __future__`
    imports are exempt."""
    found = []
    for path in sorted(Path(hopfdy.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += ["%s:%d %s" % (path.name, line, name)
                  for name, line in imported.items() if name not in used]
    assert found == []


def test_value_types_are_unhashable():
    """SparseMatrix and TensorElement compare by value, so they take no
    identity hash that would let equal objects hash differently."""
    with pytest.raises(TypeError):
        hash(SparseMatrix.identity(2))
    with pytest.raises(TypeError):
        hash(unit_tensor(build_bk(1).algebra, 2))


def test_vec_kron_and_kron_into_are_a_major():
    """vec_kron and kron_into put (a, b) at a * dim B + b, as the dense
    Kronecker oracle does, for factors of unequal shapes."""
    A = sm([[1, 0, 2], [0, -3, 0]])
    B = sm([[0, 5], [7, 0], [1, 1], [0, 2]])
    got = SparseMatrix(8, 6, kron_into({}, A, B))
    assert densify_matrix(got) == dense_kron(densify_matrix(A), densify_matrix(B))
    u, v = {0: Fraction(2), 2: Fraction(-1)}, {1: Fraction(3), 3: Fraction(1, 2)}
    assert (dense_column(vec_kron(u, v, 4), 12)
            == dense_kron(dense_column(u, 3), dense_column(v, 4)))


class TestSpanEqual:
    def test_scaling(self):
        assert span_equal([{0: Fraction(1)}], [{0: Fraction(2)}], 3)

    def test_distinct(self):
        assert not span_equal([{0: Fraction(1)}], [{1: Fraction(1)}], 3)

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            span_equal([{5: Fraction(1)}], [{0: Fraction(1)}], 3)


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    ent = draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                                  st.integers(-5, 5)), max_size=12))
    m = {}
    for r, c, v in ent:
        m[(r, c)] = m.get((r, c), 0) + v
    return SparseMatrix(rows, cols, {k: Fraction(v) for k, v in m.items() if v})


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity_property(M):
    assert rank_of_rows(M.row_dicts()) + len(kernel_basis(M.row_dicts(), M.cols)) == M.cols


@given(small_matrices(), st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_matrix_arithmetic_matches_dense_and_stores_no_zeros(M, c):
    """transpose, scale, add and matmul fill their results' entries
    directly: each equals the dense computation and stores only nonzero
    entries (c = 0 scales to zero, c = -1 cancels in M + cM), all of them
    `int` on these integral inputs: no float, bool or integral Fraction."""
    d = densify_matrix(M)
    dt = [list(col) for col in zip(*d)]
    cases = [(M.transpose(), dt),
             (M.scale(c), [[c * v for v in row] for row in d]),
             (M.add(M.scale(c)), [[(1 + c) * v for v in row] for row in d]),
             (M.matmul(M.transpose()),
              [[sum(x * y for x, y in zip(r1, r2)) for r2 in d] for r1 in d])]
    for got, want in cases:
        assert densify_matrix(got) == want
        assert all(type(v) is int and v for v in got.entries.values())


# exact scalars: ints, integral Fractions and Fractions with denominator > 1
SCALARS = st.one_of(st.integers(-4, 4), st.integers(-4, 4).map(Fraction),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _exact(v):
    """A nonzero exact scalar: an int or a Fraction, never a float or bool."""
    return type(v) in (int, Fraction) and v != 0


def _canonical(v):
    """The form `fr` gives: an int exactly when the denominator is 1."""
    return type(v) is (int if Fraction(v).denominator == 1 else Fraction)


@given(st.one_of(SCALARS, SCALARS.map(str)))
@settings(max_examples=100, deadline=None)
def test_fr_returns_int_exactly_when_integral(x):
    assert fr(x) == Fraction(x) and _canonical(fr(x))


@st.composite
def mixed_operands(draw):
    """(A, B, u, v, c): A is n x m and B is m x k with mixed scalar
    entries, u and v sparse vectors of length m, c a scalar."""
    n, m, k = (draw(st.integers(1, 4)) for _ in range(3))

    def matrix(rows, cols):
        keys = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        return SparseMatrix(rows, cols, draw(st.dictionaries(keys, SCALARS, max_size=8)))

    def vector():
        return {i: c for i, c in draw(st.dictionaries(st.integers(0, m - 1), SCALARS,
                                                      max_size=m)).items() if c}
    return matrix(n, m), matrix(m, k), vector(), vector(), draw(SCALARS)


@given(mixed_operands())
@settings(max_examples=100, deadline=None)
def test_mixed_scalar_arithmetic_matches_dense_fractions(ops):
    """Vector and matrix operations on mixed int/Fraction inputs equal the
    dense Fraction computation, store only nonzero ints and Fractions (no
    float appears), and whatever passes through `fr` (the SparseMatrix
    constructor) is canonical."""
    A, B, u, v, c = ops
    m = A.cols
    c = Fraction(c)
    dA = [[Fraction(x) for x in row] for row in densify_matrix(A)]
    dB = [[Fraction(x) for x in row] for row in densify_matrix(B)]
    du, dv = densify_vec(u, m), densify_vec(v, m)
    assert all(_canonical(x) for M in (A, B) for x in M.entries.values())
    mat_cases = [(A.matmul(B), [[sum(a * b for a, b in zip(row, col)) for col in zip(*dB)]
                                for row in dA]),
                 (A.add(A.scale(c)), [[(1 + c) * a for a in row] for row in dA]),
                 (SparseMatrix(A.rows * B.rows, A.cols * B.cols, kron_into({}, A, B, scale=c)),
                  [[c * x for x in row] for row in dense_kron(dA, dB)])]
    for got, want in mat_cases:
        assert densify_matrix(got) == want
        assert all(_exact(x) for x in got.entries.values())
    vec_cases = [(A.mul_vec(u), A.rows, [sum(a * x for a, x in zip(row, du)) for row in dA]),
                 (vec_addmul(dict(v), u, c), m, [y + c * x for x, y in zip(du, dv)]),
                 (vec_sub(u, v), m, [x - y for x, y in zip(du, dv)]),
                 (vec_kron(u, v, m), m * m, [x * y for x in du for y in dv])]
    for got, n, want in vec_cases:
        assert densify_vec(got, n) == want
        assert all(_exact(x) for x in got.values())


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_matches_dense_oracle(M):
    rows = [[Fraction(0)] * M.cols for _ in range(M.rows)]
    for (r, c), v in M.entries.items():
        rows[r][c] = v
    assert rank_of_rows(M.row_dicts()) == dense_rank(rows)


@st.composite
def rational_rows(draw):
    ncols = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=1, max_size=7)), draw(st.booleans())


def _sparse(dense):
    return {c: Fraction(v) for c, v in enumerate(dense) if v}


@given(rational_rows())
@settings(max_examples=80, deadline=None)
def test_echelon_matches_dense_oracles(case):
    """Rows are added one by one to an Echelon: add_row sees the rank grow
    exactly when the dense oracle does, and RREF matches the oracle's."""
    rows, reverse = case
    ech = Echelon(key=(lambda c: -c) if reverse else None)
    added = []
    for dense in rows:
        v = _sparse(dense)
        grows = dense_rank(added + [dense]) > dense_rank(added)
        assert (ech.add_row(v) is not None) == grows
        added.append(dense)
    assert ech.rank == dense_rank(rows)
    ech.to_rref()
    if not reverse:
        m, pivots = dense_rref(rows)
        assert sorted(ech.pivot_rows) == pivots
        for r, p in enumerate(pivots):
            row = ech.pivot_rows[p]
            assert {c: Fraction(x, row[p]) for c, x in row.items()} == _sparse(m[r])


@given(rational_rows(), st.data())
@settings(max_examples=80, deadline=None)
def test_insertion_order_keeps_kernel_and_rank(case, data):
    """kernel_basis_marked and rank_of_rows give the dense oracles' kernel,
    free columns and rank on the rows and on a shuffle of them."""
    rows, _ = case
    ncols = len(rows[0])
    pivots = dense_rref(rows)[1]
    want = dense_nullspace(rows, ncols)
    for order in (rows, data.draw(st.permutations(rows))):
        sparse = [_sparse(r) for r in order]
        basis, markers = kernel_basis_marked(sparse, ncols)
        assert [densify_vec(v, ncols) for v in basis] == want
        assert all(_canonical(x) for v in basis for x in v.values())
        assert markers == [c for c in range(ncols) if c not in pivots]
        assert rank_of_rows(sparse) == dense_rank(rows)


def test_echelon_builds_no_fraction_on_integer_rows(monkeypatch):
    """add_row and to_rref work on integers: on integer rows they build no
    Fraction, and the pivot rows are the primitive integer RREF rows."""
    made = []

    class Counted(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return Fraction(*args)

    monkeypatch.setattr(exactlin, "Fraction", Counted)
    ech = Echelon()
    rows = [{0: 2, 1: 4, 3: -6}, {1: 3, 2: 9}, {0: 4, 2: 1, 3: 5},
            {0: 2, 1: 7, 2: 9, 3: -6}]   # the last is the sum of the first two
    for row in rows:
        ech.add_row(row)
    ech.to_rref()
    assert made == [] and ech.rank == 3
    # the RREF rows are (1, 0, 0, 27/25), (0, 1, 0, -51/25), (0, 0, 1, 17/25)
    assert ech.pivot_rows == {0: {0: 25, 3: 27}, 1: {1: 25, 3: -51}, 2: {2: 25, 3: 17}}


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=80, deadline=None)
def test_invert_columns_matches_dense_oracle(dense):
    """None iff singular; else the columns of the inverse read from the
    RREF of (M | I)."""
    n = len(dense)
    got = _invert_columns(sm(dense))
    if dense_rank(dense) < n:
        assert got is None
        return
    m, _ = dense_rref([row + [int(r == c) for c in range(n)] for r, row in enumerate(dense)])
    assert [densify_vec(col, n) for col in got] == [[m[r][n + j] for r in range(n)]
                                                    for j in range(n)]


# ---------------------------------------------------------------------------
# tensor elements over B_1

B1 = build_bk(1)
G = 1 << 1  # index of g in B_1
X = 1       # index of x1


def te(coeffs, degree=2):
    return TensorElement(B1.algebra, degree, coeffs)


class TestTensorMul:
    def test_unit_acts_trivially(self):
        gg = te({(G, G): 1})
        assert unit_tensor(B1.algebra, 2).mul(gg) == gg

    def test_nilpotent_square(self):
        xx = te({(X, 0): 1})
        assert xx.mul(xx).is_zero()  # x^2 = 0

    def test_anticommute_with_g(self):
        gx = te({(G, 0): 1}).mul(te({(X, 0): 1}))
        xg_neg = te({(X, 0): 1}).mul(te({(G, 0): 1})).scale(-1)
        assert gx == xg_neg  # g x = -x g

    def test_associative(self):
        a = te({(X, G): Fraction(1, 2), (0, 0): 1})
        b = te({(G, G): 1, (X, 0): -1})
        c = te({(0, G): 2})
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


class TestPermute:
    def test_identity_perm(self):
        u = te({(X, G): 1, (0, X): 2})
        assert u.permute_slots([0, 1]) == u

    def test_sigma2_interleave(self):
        # a ox b ox c ox d -> a ox c ox b ox d
        u = TensorElement(B1.algebra, 4, {(0, X, G, 3): 1})
        v = u.permute_slots([0, 2, 1, 3])
        assert v.coeffs == {(0, G, X, 3): Fraction(1)}

    def test_r0_symmetric(self):
        from hopfdy.rmatrix import bk_r0
        R = bk_r0(1, B1)
        assert R.permute_slots([1, 0]) == R

    def test_roundtrip(self):
        u = TensorElement(B1.algebra, 3, {(0, X, G): 1, (G, 0, X): -2})
        p = [2, 0, 1]
        pinv = [1, 2, 0]
        assert u.permute_slots(p).permute_slots(pinv) == u


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)),
                max_size=6))
@settings(max_examples=40, deadline=None)
def test_tensor_mul_unit_property(entries):
    coeffs = {}
    for a, b, v in entries:
        coeffs[(a, b)] = coeffs.get((a, b), 0) + v
    u = te({k: Fraction(v) for k, v in coeffs.items() if v})
    one = unit_tensor(B1.algebra, 2)
    assert one.mul(u) == u
    assert u.mul(one) == u
