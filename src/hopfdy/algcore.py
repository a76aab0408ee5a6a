"""Finite-dimensional associative algebras, modules, intertwiners, induction.

An `Algebra` is given by structure constants on a fixed basis; a `ModuleRep`
by one action matrix per basis element (computed lazily for big modules).
All verification reports are lists of human-readable violation strings: an
empty report means the axioms hold.
"""

from __future__ import annotations

from .exactlin import (FR0, FR1, Echelon, SparseMatrix, _once, fr_vec, kernel_basis,
                       kernel_basis_marked, kron_into, vec_addmul, vec_eq, vec_kron)


class AlgebraError(Exception):
    pass


class Algebra:
    """Associative unital algebra over QQ by structure constants.

    mult[(i, j)] is the sparse vector of e_i * e_j; missing keys mean zero
    product.  `generators`, when set, is a list of sparse VECTORS whose
    products (together with the unit) span the algebra; the span property is
    certified by `check_generators_span`, and multiplicative checks then
    quantify over the generators alone (`check_elements`).
    """

    def __init__(self, dim, labels, mult, unit, generators=None, name=""):
        self.dim = dim
        self.labels = list(labels)
        assert len(self.labels) == dim
        self.mult = {}
        for (i, j), v in mult.items():
            vv = fr_vec(v)
            if vv:
                self.mult[(i, j)] = vv
        self.unit = fr_vec(unit)
        self.generators = generators
        self.name = name or "algebra(dim=%d)" % dim
        # "fast_mult", "gen_span_ok", ("left_mult", i) and ("right_mult", i),
        # filled by `_once`
        self._cache: dict = {}

    def mul_basis(self, i: int, j: int) -> dict:
        return self.mult.get((i, j), {})

    def fast_mult(self):
        """2-D table: fast_mult()[i][j] is None (zero product), a (k, coeff)
        pair (single-term product) or the full sparse dict."""
        def build():
            tab = [[None] * self.dim for _ in range(self.dim)]
            for (i, j), v in self.mult.items():
                if len(v) == 1:
                    (k, c), = v.items()
                    tab[i][j] = (k, c)
                else:
                    tab[i][j] = v
            return tab
        return _once(self._cache, "fast_mult", build)

    def mul_vec(self, u: dict, v: dict) -> dict:
        out: dict = {}
        get = self.mult.get
        for i, a in u.items():
            for j, b in v.items():
                prod = get((i, j))
                if prod:
                    vec_addmul(out, prod, a * b)
        return out

    def left_mult_matrix(self, i: int) -> SparseMatrix:
        """L_i, the matrix of x -> e_i * x, columns shared with `mult`."""
        return _once(self._cache, ("left_mult", i), lambda: SparseMatrix.of_columns(
            self.dim, self.dim, {j: self.mult[i, j] for j in range(self.dim)
                                 if (i, j) in self.mult}))

    def right_mult_matrix(self, i: int) -> SparseMatrix:
        """R_i, the matrix of x -> x * e_i, columns shared with `mult`."""
        return _once(self._cache, ("right_mult", i), lambda: SparseMatrix.of_columns(
            self.dim, self.dim, {j: self.mult[j, i] for j in range(self.dim)
                                 if (j, i) in self.mult}))

    def __repr__(self):
        return "Algebra(%s, dim=%d)" % (self.name, self.dim)


def left_span(A: Algebra, start: dict, elements: list) -> list:
    """Breadth-first closure of span{start} under left multiplication by
    `elements`: the vectors that enlarged the span, `start` first, so they
    are a basis of the smallest left-stable subspace holding `start`."""
    ech = Echelon()
    frontier = [start] if ech.add_row(start) is not None else []
    out = list(frontier)
    while frontier:
        new = []
        for v in frontier:
            for g in elements:
                w = A.mul_vec(g, v)
                if ech.add_row(w) is not None:
                    new.append(w)
        out.extend(new)
        frontier = new
    return out


def check_generators_span(A: Algebra) -> bool:
    """Certify that products of A.generators (plus the unit) span A."""
    if A.generators is None:
        return False
    return _once(A._cache, "gen_span_ok",
                 lambda: len(left_span(A, A.unit, A.generators)) == A.dim)


def check_elements(A: Algebra) -> list:
    """The elements a multiplicative check quantifies over, as (vector, name)
    pairs: the generators ("gen<k>") when `check_generators_span` certifies
    them, else every basis element with its label.  Generators suffice for
    an identity whose solutions form a subalgebra: a subalgebra holding
    the generators holds all their products, which span A."""
    if check_generators_span(A):
        return [(g, "gen%d" % k) for k, g in enumerate(A.generators)]
    return basis_elements(A)


def basis_elements(A: Algebra) -> list:
    """Every basis element of A as a (vector, label) pair."""
    return [({i: FR1}, A.labels[i]) for i in range(A.dim)]


def multiplicative_failures(A: Algebra, f, mul):
    """Yield (name of a, j, f(a e_j), mul(f(a), f(e_j))) where the two
    differ, a from `check_elements(A)`: the a with f(a b) = f(a) f(b) for
    all b form a subalgebra.  The one loop of every multiplicative check."""
    images = [f({j: FR1}) for j in range(A.dim)]
    for a, aname in check_elements(A):
        fa = f(a)
        for j in range(A.dim):
            lhs, rhs = f(A.mul_vec(a, {j: FR1})), mul(fa, images[j])
            if lhs != rhs:
                yield aname, j, lhs, rhs


def verify_algebra(A: Algebra) -> list:
    """Check the unit laws on every basis element and associativity,
    L_{a e_j} = L_a L_j on the cached left multiplications, through
    `multiplicative_failures`; a failing column k names the triple
    (a, e_j, e_k)."""
    report = []
    for i in range(A.dim):
        e = {i: FR1}
        if not vec_eq(A.mul_vec(A.unit, e), e):
            report.append("unit law fails: 1*e_%d != e_%d (%s)" % (i, i, A.labels[i]))
        if not vec_eq(A.mul_vec(e, A.unit), e):
            report.append("unit law fails: e_%d*1 != e_%d (%s)" % (i, i, A.labels[i]))
    for aname, j, lhs, rhs in multiplicative_failures(
            A, lambda x: matrix_sum(A.left_mult_matrix, x, A.dim), SparseMatrix.matmul):
        report.extend("associativity fails on triple (%s, %s, %s)"
                      % (aname, A.labels[j], A.labels[k]) for k in range(A.dim)
                      if lhs.column(k) != rhs.column(k))
    return report


class AlgebraMap:
    """Algebra morphism source -> target: `matrix` has column i = f(e_i)."""

    def __init__(self, source: Algebra, target: Algebra, images, name=""):
        self.source = source
        self.target = target
        if not isinstance(images, SparseMatrix):
            images = SparseMatrix.from_columns(target.dim, images)
        assert (images.rows, images.cols) == (target.dim, source.dim)
        self.matrix = images
        self.name = name or "map(%s->%s)" % (source.name, target.name)

    def apply_basis(self, i: int) -> dict:
        return self.matrix.column(i)

    def apply(self, v: dict) -> dict:
        return self.matrix.mul_vec(v)

    def verify(self) -> list:
        """Check that the unit is preserved and f(a e_j) = f(a) f(e_j)
        through `multiplicative_failures`."""
        report = []
        if not vec_eq(self.apply(self.source.unit), self.target.unit):
            report.append("unit not preserved")
        for aname, j, _, _ in multiplicative_failures(self.source, self.apply,
                                                      self.target.mul_vec):
            report.append("product not preserved on (%s, %s)"
                          % (aname, self.source.labels[j]))
        return report


class ModuleRep:
    """Module over an algebra: one dim x dim action matrix per basis element.

    Matrices may be provided eagerly (list) or lazily via `action_fn(i)`;
    lazily built matrices are cached write-once, so instances stay
    immutable in effect.
    """

    def __init__(self, algebra: Algebra, dim: int, action=None, action_fn=None, name=""):
        self.algebra = algebra
        self.dim = dim
        self.name = name or "module(dim=%d)" % dim
        self._matrices = {}  # i -> rho(e_i), filled by `_once`
        self._action_fn = action_fn
        if action is not None:
            assert len(action) == algebra.dim
            for i, m in enumerate(action):
                if not isinstance(m, SparseMatrix):
                    m = SparseMatrix(dim, dim, m)
                self._matrices[i] = m
        else:
            assert action_fn is not None

    def action(self, i: int) -> SparseMatrix:
        m = self._matrices.get(i)
        return m if m is not None else _once(self._matrices, i, lambda: self._build(i))

    def _build(self, i: int) -> SparseMatrix:
        m = self._action_fn(i)
        return m if isinstance(m, SparseMatrix) else SparseMatrix(self.dim, self.dim, m)

    def __repr__(self):
        return "ModuleRep(%s over %s)" % (self.name, self.algebra.name)


def verify_module(M: ModuleRep) -> list:
    """Check rho(1) = id and rho(a e_j) = rho(a) rho(e_j) through
    `multiplicative_failures`."""
    A = M.algebra
    report = []
    if _act_matrix(M, A.unit) != SparseMatrix.identity(M.dim):
        report.append("rho(1) != id")
    for aname, j, _, _ in multiplicative_failures(A, lambda a: _act_matrix(M, a),
                                                  SparseMatrix.matmul):
        report.append("action violates structure constants on (%s, %s)"
                      % (aname, A.labels[j]))
    return report


def _act_matrix(M: ModuleRep, a: dict) -> SparseMatrix:
    """rho(a) = sum a_i rho(e_i)."""
    return matrix_sum(M.action, a, M.dim)


def matrix_sum(matrix_of, a: dict, n: int) -> SparseMatrix:
    """sum a_i matrix_of(i), n x n: the matrix of an element under a linear
    map given on the basis (a module's action, `Algebra.left_mult_matrix`
    or `right_mult_matrix`); the cached matrix of a basis element, else one
    summing pass."""
    if len(a) == 1 and next(iter(a.values())) == 1:
        return matrix_of(next(iter(a)))
    out: dict = {}
    for i, c in a.items():
        for j, col in matrix_of(i).columns.items():
            vec_addmul(out.setdefault(j, {}), col, c)
    return SparseMatrix.of_columns(n, n, {j: col for j, col in out.items() if col})


def module_from_character(A: Algebra, chi: dict, name="") -> ModuleRep:
    """One-dimensional module through a character {basis index: value}."""
    mats = [SparseMatrix(1, 1, {(0, 0): chi.get(i, FR0)}) for i in range(A.dim)]
    return ModuleRep(A, 1, action=mats, name=name or "character")


def restrict_module(imap: AlgebraMap, M: ModuleRep, name="") -> ModuleRep:
    """Pull an imap.target-module back to imap.source along the algebra map."""
    assert M.algebra is imap.target

    return ModuleRep(imap.source, M.dim,
                     action_fn=lambda i: _act_matrix(M, imap.apply_basis(i)),
                     name=name or "res(%s)" % M.name)


def hom_space(M: ModuleRep, N: ModuleRep) -> list:
    """Exact basis of intertwiners f: M -> N with f rho_M(a) = rho_N(a) f.

    The linear system is assembled for a in `check_elements(A)`: the a with
    f rho_M(a) = rho_N(a) f form a subalgebra.  The unknowns are the
    entries of f, row-major (the a-major layout of N ox M*), so the
    equations of a are the rows of (1 ox rho_M(a)^T) - (rho_N(a) ox 1);
    the result is the canonical kernel basis, returned as matrices.
    """
    if M.algebra is not N.algebra:
        raise AlgebraError("hom_space requires modules over the same algebra")
    dm, dn = M.dim, N.dim
    rows = []
    for a, _ in check_elements(M.algebra):
        ent = kron_into({}, SparseMatrix.identity(dn), _act_matrix(M, a).transpose())
        kron_into(ent, _act_matrix(N, a), SparseMatrix.identity(dm), scale=-FR1)
        rows.extend(r for r in SparseMatrix(dn * dm, dn * dm, ent).row_dicts() if r)
    return [SparseMatrix(dn, dm, {divmod(f, dm): c for f, c in v.items()})
            for v in kernel_basis(rows, dn * dm)]


def submodule_on_basis(M: ModuleRep, basis: list, markers: list, name="") -> ModuleRep:
    """The submodule of M on the span of `basis`; its action matrices are
    built lazily and raise AlgebraError when an image leaves the span.

    The basis is in marker form (as `kernel_basis_marked` returns it):
    basis[j] has entry 1 at markers[j] and 0 at every other marker, so the
    coordinates of w in the span are its entries at the markers.  With B
    the basis as a matrix, the action of e_i is X = rho_M(e_i) B read at
    the markers, and the span is stable under e_i iff rho_M(e_i) B = B X.
    """
    pos = {m: j for j, m in enumerate(markers)}

    def coords(w):
        return {pos[c]: x for c, x in w.items() if c in pos}

    if len(pos) != len(basis) or any(coords(v) != {j: 1} for j, v in enumerate(basis)):
        raise AlgebraError("submodule basis is not in marker form")

    def fn(i):
        B = SparseMatrix.of_columns(M.dim, len(basis), dict(enumerate(basis)))  # per call
        image = M.action(i).matmul(B)
        X = SparseMatrix.of_columns(len(basis), len(basis), {
            j: x for j, x in ((j, coords(col)) for j, col in image.columns.items()) if x})
        if B.matmul(X) != image:
            raise AlgebraError("subspace is not stable under e_%d" % i)
        return X

    return ModuleRep(M.algebra, len(basis), action_fn=fn, name=name or "sub")


def tensor_algebra(A: Algebra, B: Algebra) -> Algebra:
    """A ox B on the product basis (a-major): e_a ox e_b multiplies on the
    left by L_a ox L_b, the unit is 1 ox 1, and the generators are the
    g ox 1 and 1 ox g."""
    nb = B.dim
    lefts = (kron_into({}, A.left_mult_matrix(a), B.left_mult_matrix(b))
             for a in range(A.dim) for b in range(nb))
    mult: dict = {}
    for i, ent in enumerate(lefts):
        for (k, j), c in ent.items():
            mult.setdefault((i, j), {})[k] = c
    gens = None
    if A.generators is not None and B.generators is not None:
        gens = ([vec_kron(g, B.unit, nb) for g in A.generators]
                + [vec_kron(A.unit, g, nb) for g in B.generators])
    return Algebra(A.dim * nb, ["%s(x)%s" % (a, b) for a in A.labels for b in B.labels],
                   mult, vec_kron(A.unit, B.unit, nb), generators=gens,
                   name="%s(x)%s" % (A.name, B.name))


def tensor_module(M: ModuleRep, N: ModuleRep, T: Algebra) -> ModuleRep:
    """M ox N as a module over T = tensor_algebra(M.algebra, N.algebra)."""
    db = N.algebra.dim
    dim = M.dim * N.dim

    def fn(flat):
        ia, ib = divmod(flat, db)
        return SparseMatrix(dim, dim, kron_into({}, M.action(ia), N.action(ib)))

    return ModuleRep(T, dim, action_fn=fn,
                     name="%s(x)%s" % (M.name, N.name))


class ColumnMap:
    """A linear map read column by column: col(j) is the image of e_j, built
    when a product asks for it."""

    def __init__(self, rows: int, col):
        self.rows = rows
        self.col = col

    def apply(self, x: dict) -> dict:
        out: dict = {}
        for j, c in x.items():
            vec_addmul(out, self.col(j), c)
        return out


def evaluation(M: ModuleRep) -> ColumnMap:
    """E_M : A ox M -> M, e_a ox e_m -> rho_M(e_a) e_m (flat index a * dim M + m)."""
    nm = M.dim
    return ColumnMap(nm, lambda flat: M.action(flat // nm).column(flat % nm))


class InducedModule(ModuleRep):
    """Ind V = A ox_B V as a left A-module on the free basis u_alpha of A
    over i(B), given by two linear maps on A ox V (flat index a * dim V + v):

      S = `section()` : Ind V -> A ox V, column (alpha, v) = u_alpha ox e_v;
      Q = `classes`   : A ox V -> Ind V, column (a, v) = the coordinates of
                        [e_a ox e_v] = sum c [u_alpha ox b.e_v], read from
                        the rewrite table e_a = sum c u_alpha i(e_b);

    with (alpha, v) at alpha * dim V + v and Q S = 1.  Every map built on
    the module is a product through the two (`induced_map`): the action
    rho(e_a) = Q (L_a ox 1) S, the unit v -> Q (1_A ox v) and the counit
    E_M S onto an A-module M.  Q is column-lazy, so a product builds only
    the columns, and the action matrices of V, that it reads.
    """

    def __init__(self, imap: AlgebraMap, V: ModuleRep, free, name=""):
        self.source = V
        self.free_basis, self._table = free
        super().__init__(imap.target, len(self.free_basis) * V.dim,
                         action_fn=self._action_of, name=name)
        self.classes = ColumnMap(self.dim, self._class)

    def _class(self, flat: int) -> dict:
        nv = self.source.dim
        out: dict = {}
        for alpha, b_idx, c in self._table[flat // nv]:
            col = self.source.action(b_idx).column(flat % nv)
            vec_addmul(out, {alpha * nv + w: cw for w, cw in col.items()}, c)
        return out

    def section(self) -> SparseMatrix:
        """S as a matrix; products read its columns from the free basis."""
        nv = self.source.dim
        return SparseMatrix.from_columns(self.algebra.dim * nv, [
            vec_kron(u, {v: FR1}, nv) for u in self.free_basis for v in range(nv)])

    def unit(self) -> SparseMatrix:
        """eta : V -> Ind V, v -> Q (1_A ox v) (the adjunction unit)."""
        nv = self.source.dim
        return SparseMatrix.from_columns(self.dim, [self.classes.apply(
            vec_kron(self.algebra.unit, {v: FR1}, nv)) for v in range(nv)])

    def _action_of(self, a_idx: int) -> SparseMatrix:
        return induced_map(self.classes, self, L=self.algebra.left_mult_matrix(a_idx))


def induced_map(left: ColumnMap, P: InducedModule, f: SparseMatrix = None,
                L: SparseMatrix = None) -> SparseMatrix:
    """left (L ox f) S_P for f : V -> V' (default 1), L a matrix on A (default
    1) and `left` a map on A ox V' (flat index a * dim V' + q).  L ox f is
    never formed: S's columns u ox e_v are taken by free basis element u,
    L u once per u, and each nonzero column v of f gives the pure tensor
    (L u) ox f(e_v), whose image is column (u, v) of the result."""
    nv = P.source.dim
    f = SparseMatrix.identity(nv) if f is None else f
    out: dict = {}
    for alpha, u in enumerate(P.free_basis):
        x = u if L is None else L.mul_vec(u)
        for v, y in f.columns.items():
            col = left.apply(vec_kron(x, y, f.rows))
            if col:
                out[alpha * nv + v] = col
    return SparseMatrix.of_columns(left.rows, P.dim, out)


def induced_module(imap: AlgebraMap, V: ModuleRep, free, name="") -> InducedModule:
    """Induction A ox_B V along an algebra map B -> A, on
    `free` = ([u_alpha], free_rewrite(imap, [u_alpha])): A is the direct sum
    of the u_alpha i(B), so Ind V is the direct sum of the u_alpha ox V."""
    if V.algebra is not imap.source:
        raise AlgebraError("induced_module: V is not a module over the map source")
    return InducedModule(imap, V, free, name=name or "ind(%s)" % V.name)


def free_rewrite(imap: AlgebraMap, free_basis: list) -> list:
    """The rewrite table of `induced_module`: table[a] lists the
    (alpha, b, c) with e_a = sum c u_alpha i(e_b), read from the inverse of
    Phi : (alpha, b) -> u_alpha i(e_b).  Raises if A is not free over i(B)
    on the given elements."""
    A, nb = imap.target, imap.source.dim
    if len(free_basis) * nb != A.dim:
        raise AlgebraError("%s: free basis has wrong cardinality" % imap.name)
    inv_cols = _invert_columns(SparseMatrix.from_columns(A.dim, [
        A.mul_vec(u, imap.apply_basis(b)) for u in free_basis for b in range(nb)]))
    if inv_cols is None:
        raise AlgebraError("%s: claimed free basis does not give a module decomposition"
                           % imap.name)
    return [[(flat // nb, flat % nb, c) for flat, c in inv_cols[a].items()]
            for a in range(A.dim)]


def _invert_columns(M: SparseMatrix):
    """Columns of M^{-1}, or None if singular.  The kernel of (M | -I) is
    {(x, M x)}; M is invertible iff its free columns are n..2n-1, and then
    kernel vector j is (M^{-1} e_j, e_j)."""
    n = M.rows
    if M.cols != n:
        return None
    rows = M.row_dicts()
    for r, row in enumerate(rows):
        row[n + r] = -FR1
    vecs, markers = kernel_basis_marked(rows, 2 * n)
    if markers != list(range(n, 2 * n)):
        return None
    return [{i: c for i, c in v.items() if i < n} for v in vecs]
