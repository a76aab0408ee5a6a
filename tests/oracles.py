"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive: dense textbook Gauss-Jordan over
Fractions and exhaustive loops over the structure tables, sharing no code
with the package's sparse elimination or its slot kernel, so the two sides
of every comparison are independent.
"""

from fractions import Fraction


def dense_rref(rows):
    """Reduced row echelon form of a dense matrix (list of lists)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def dense_rank(rows):
    return len(dense_rref(rows)[1])


def dense_nullspace(rows, ncols):
    """Kernel basis of a dense matrix, one vector per free column."""
    if not rows:
        rows = [[0] * ncols]
    m, pivots = dense_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -m[r][f]
        basis.append(v)
    return basis


def intertwiner_basis_dense(act_m, act_n):
    """Brute-force basis of {f : f a_M = a_N f for all listed actions}.

    act_m, act_n: lists of dense square matrices of sizes dm, dn.
    Returns dense dn x dm matrices.
    """
    dm = len(act_m[0])
    dn = len(act_n[0])
    rows = []
    for am, an in zip(act_m, act_n):
        for r in range(dn):
            for j in range(dm):
                row = [Fraction(0)] * (dn * dm)
                for c in range(dm):
                    row[r * dm + c] += am[c][j]
                for c in range(dn):
                    row[c * dm + j] -= an[r][c]
                rows.append(row)
    out = []
    for v in dense_nullspace(rows, dn * dm):
        out.append([[v[r * dm + c] for c in range(dm)] for r in range(dn)])
    return out


def cocycle_count_dense(cochains, generators):
    """How many of the cochains, independently, vanish on every generator.

    Each cochain is a dense matrix (rows over W, columns over P) and each
    generator a dense vector over P.  Row f of the evaluation matrix is
    (f(g_0), f(g_1), ...); the count is the number of cochains minus its
    rank."""
    supports = [[(p, x) for p, x in enumerate(g) if x] for g in generators]
    rows = [[sum((frow[p] * x for p, x in support), Fraction(0))
             for support in supports for frow in f]
            for f in cochains]
    return len(cochains) - dense_rank(rows)


def induced_dense(mult, adim, incl_cols, v_actions):
    """Class coordinates of A ox_B V = (A ox V) / span{(a i(b)) ox v - a ox (b.v)}.

    `mult` is A's table {(i, j): {k: c}}, incl_cols[b] the image of e_b in A
    and v_actions[b] the dense action matrix of e_b on V; b, a and v range
    over full bases.  Returns a dense matrix whose rows span the functionals
    that vanish on every relation, so its kernel is the relation span and
    its product with x in A ox V (flat index a * dim V + v) is a coordinate
    vector of the class [x].
    """
    nv = len(v_actions[0])
    n = adim * nv
    rows = []
    for a in range(adim):
        for b, ib in enumerate(incl_cols):
            for v in range(nv):
                row = [Fraction(0)] * n
                for i, ci in ib.items():
                    for k, c in mult.get((a, i), {}).items():
                        row[k * nv + v] += ci * c
                for w in range(nv):
                    row[a * nv + w] -= v_actions[b][w][v]
                if any(row):
                    rows.append(row)
    return dense_nullspace(rows, n)


def antipode_dense(H):
    """The antipode of H as entries {(r, u): Fraction} (S(e_u) has e_r
    coefficient S[r, u]), solved from m(S ox id)Delta = eta eps by loops
    over the tables H.algebra.mult, H.algebra.unit, H.comult and H.counit.

    Unknowns are S[r, u] at column u*n + r, and column n*n carries the
    right-hand side: equation (d, k) reads
    sum_{(u,v)} Delta(d)[u,v] sum_r S[r,u] (e_r e_v)_k - eps(d) 1_k t = 0.
    The antipode is unique, so the kernel is the line through (S, 1).
    """
    n, mult, unit = H.dim, H.algebra.mult, H.algebra.unit
    rows = []
    for d in range(n):
        eqs = [[Fraction(0)] * (n * n + 1) for _ in range(n)]
        for (u, v), c in H.comult[d].coeffs.items():
            for r in range(n):
                for k, m in mult.get((r, v), {}).items():
                    eqs[k][u * n + r] += c * m
        for k in range(n):
            eqs[k][n * n] -= H.counit[d] * unit.get(k, 0)
        rows.extend(eqs)
    (v,) = dense_nullspace(rows, n * n + 1)
    assert v[n * n] == 1
    return {(r, u): v[u * n + r] for u in range(n) for r in range(n) if v[u * n + r]}


def _add(out, key, c):
    out[key] = out.get(key, 0) + c


# Tensors over H are dicts {index tuple: Fraction}; H's tables are read
# directly: H.algebra.mult, H.algebra.unit, H.comult and H.counit.

def prod(H, u, v):
    """The slotwise product u v."""
    mult = H.algebra.mult
    out = {}
    for ku, cu in u.items():
        for kv, cv in v.items():
            terms = {(): cu * cv}
            for a, b in zip(ku, kv):
                terms = {k + (p,): c * x for k, c in terms.items()
                         for p, x in mult.get((a, b), {}).items()}
            for k, c in terms.items():
                _add(out, k, c)
    return out


def with_unit(H, u, slot):
    """u with the unit inserted as a new slot at `slot`."""
    return {k[:slot] + (i,) + k[slot:]: c * x for k, c in u.items()
            for i, x in H.algebra.unit.items()}


def coproduct(H, u, slot):
    """Delta applied at `slot`; the degree grows by one."""
    out = {}
    for k, c in u.items():
        for pq, x in H.comult[k[slot]].coeffs.items():
            _add(out, k[:slot] + pq + k[slot + 1:], c * x)
    return out


def diff(*terms):
    """sum of sign * u over the (sign, u) terms, zeros dropped."""
    out = {}
    for sign, u in terms:
        for k, c in u.items():
            _add(out, k, sign * c)
    return {k: c for k, c in out.items() if c}


def _delta_power(H, v, m):
    """Delta^{(m-1)}(v) in H^{ox m} for a vector {i: c}; the counit at m = 0."""
    if m == 0:
        return {(): sum(c * H.counit[i] for i, c in v.items())}
    u = {(i,): c for i, c in v.items()}
    for slot in range(m - 1):
        u = coproduct(H, u, slot)
    return u


def double_mult_dense(H):
    """Structure constants of D(H) = (H*)^op ox H, phi^i h_j at i * n + j,
    as {(x, y): {z: Fraction}} without zeros, by loops over the tables
    H.algebra.mult, H.comult and H.antipode.  The straightening

        h phi = (h(3) |> phi <| S(h(1))) h(2),   (h |> f <| g)(x) = f(g x h),

    puts phi^m h_b with coefficient c phi^k(S(e_a) e_m e_c) into h_j phi^k
    for each term c e_a ox e_b ox e_c of Delta^(2)(h_j); then
    (phi^i h_j)(phi^k h_l) = phi^i (h_j phi^k) h_l, where phi^i phi^m has
    phi^z coefficient Delta(e_z)[m, i] in (H*)^op."""
    n, mult = H.dim, H.algebra.mult

    def times(u, v):
        out = [Fraction(0)] * n
        for a, x in enumerate(u):
            for b, y in enumerate(v):
                if x and y:
                    for z, c in mult.get((a, b), {}).items():
                        out[z] += x * y * c
        return out

    basis = [[Fraction(int(r == c)) for r in range(n)] for c in range(n)]
    antipode = [[H.antipode.column(a).get(p, Fraction(0)) for p in range(n)]
                for a in range(n)]
    straighten = [[{} for _ in range(n)] for _ in range(n)]  # [j][k] -> {(m, b): c}
    for j in range(n):
        for (a, b, c), x in _delta_power(H, {j: 1}, 3).items():
            for m in range(n):
                w = times(times(antipode[a], basis[m]), basis[c])
                for k in range(n):
                    if w[k]:
                        _add(straighten[j][k], (m, b), x * w[k])
    dual = {}  # (i, m) -> {z: coefficient of phi^z in phi^i phi^m}
    for z in range(n):
        for (m, i), c in H.comult[z].coeffs.items():
            _add(dual.setdefault((i, m), {}), z, c)
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    prod_ = out.setdefault((i * n + j, k * n + l), {})
                    for (m, b), c in straighten[j][k].items():
                        for z, d in dual.get((i, m), {}).items():
                            for s, e in mult.get((b, l), {}).items():
                                _add(prod_, z * n + s, c * d * e)
    out = {key: {z: c for z, c in v.items() if c} for key, v in out.items()}
    return {key: v for key, v in out.items() if v}


def _r_multiplier(H, R, n, i):
    """The R-multiplier of the tensor coface d_i^n in interleaved layout
    (X1, Y1, ..., X_{n+1}, Y_{n+1}), 1 in every slot not named:
        i = 0      R1 in Y1, Delta^{(n-1)}(R2) in X2..X_{n+1}
        0 < i <= n R1 in Y_i, R2 in X_{i+1}
        i = n + 1  Delta^{(n-1)}(R1) in Y1..Yn, R2 in X_{n+1}"""
    out = {}
    for (a, b), c in R.coeffs.items():
        if i == 0:
            placed = [({1: a} | {2 * j + 2: k[j] for j in range(n)}, x)
                      for k, x in _delta_power(H, {b: 1}, n).items()]
        elif i == n + 1:
            placed = [({2 * n: b} | {2 * j + 1: k[j] for j in range(n)}, x)
                      for k, x in _delta_power(H, {a: 1}, n).items()]
        else:
            placed = [({2 * i - 1: a, 2 * i: b}, 1)]
        for fixed, x in placed:
            terms = {(): c * x}
            for slot in range(2 * n + 2):
                choices = {fixed[slot]: 1} if slot in fixed else H.algebra.unit
                terms = {k + (p,): t * y for k, t in terms.items() for p, y in choices.items()}
            for k, t in terms.items():
                _add(out, k, t)
    return out


def coface_dense(H, R, n, i, u):
    """d_i^n(u) by the formulas of the `dycomplex` docstring, u a dict of
    degree n (R is None: identity and restriction kinds) or of degree 2n
    in the interleaved layout (the tensor kind, twisted by R)."""
    if R is None:
        if i == 0:
            return diff((1, with_unit(H, u, 0)))
        if i == n + 1:
            return diff((1, with_unit(H, u, n)))
        return diff((1, coproduct(H, u, i - 1)))
    if i == 0:
        return diff((1, prod(H, _r_multiplier(H, R, n, 0),
                             with_unit(H, with_unit(H, u, 0), 0))))
    if i == n + 1:
        return diff((1, prod(H, _r_multiplier(H, R, n, n + 1),
                             with_unit(H, with_unit(H, u, 2 * n), 2 * n))))
    # Delta_{HoxH} on block i: (x, y) -> (x1, y1, x2, y2)
    p = 2 * (i - 1)
    expanded = {}
    for k, c in coproduct(H, coproduct(H, u, p), p + 2).items():
        _add(expanded, k[:p] + (k[p], k[p + 2], k[p + 1], k[p + 3]) + k[p + 4:], c)
    return diff((1, prod(H, expanded, _r_multiplier(H, R, n, i))))


def delta_dense(H, R, n, u):
    """delta^n(u) = sum_i (-1)^i d_i^n(u)."""
    return diff(*(((-1) ** i, coface_dense(H, R, n, i, u)) for i in range(n + 2)))


def tangent_conditions_dense(H, R):
    """Dense rows of the linearized R-matrix conditions at R on T in H ox H,
    one column per e_a ox e_b (a * dim + b), by loops over the tables
    H.algebra.mult, H.algebra.unit and H.comult:

        T Delta(h) - Delta^op(h) T           for every basis element h
        (Delta ox id)(T) - T13 R23 - R13 T23
        (id ox Delta)(T) - T13 R12 - R13 T12
    """
    n = H.dim
    comult = [H.comult[h].coeffs for h in range(n)]
    R = R.coeffs
    r13, r23, r12 = with_unit(H, R, 1), with_unit(H, R, 0), with_unit(H, R, 2)
    rows = {}  # (condition, index tuple) -> dense row
    for a in range(n):
        for b in range(n):
            T = {(a, b): Fraction(1)}
            t13, t23, t12 = with_unit(H, T, 1), with_unit(H, T, 0), with_unit(H, T, 2)
            conds = [diff((1, prod(H, T, comult[h])),
                          (-1, prod(H, {(q, p): c for (p, q), c in comult[h].items()}, T)))
                     for h in range(n)]
            conds.append(diff((1, coproduct(H, T, 0)), (-1, prod(H, t13, r23)),
                              (-1, prod(H, r13, t23))))
            conds.append(diff((1, coproduct(H, T, 1)), (-1, prod(H, t13, r12)),
                              (-1, prod(H, r13, t12))))
            for j, cond in enumerate(conds):
                for k, c in cond.items():
                    rows.setdefault((j, k), [Fraction(0)] * (n * n))[a * n + b] += c
    return list({tuple(r): r for r in rows.values() if any(r)}.values())  # distinct, nonzero


def densify_matrix(M):
    """SparseMatrix -> dense list of lists."""
    out = [[Fraction(0)] * M.cols for _ in range(M.rows)]
    for (r, c), v in M.items():
        out[r][c] = v
    return out


def densify_vec(v, n):
    out = [Fraction(0)] * n
    for i, c in v.items():
        out[i] = c
    return out


def dense_kron(A, B):
    """Kronecker product of two dense matrices (lists of rows), a-major:
    entry A[r1][c1] * B[r2][c2] sits at row r1 * len(B) + r2 and column
    c1 * len(B[0]) + c2.  A vector is a one-column matrix."""
    nr, nc = len(B), len(B[0])
    out = [[Fraction(0)] * (len(A[0]) * nc) for _ in range(len(A) * nr)]
    for r1, arow in enumerate(A):
        for c1, a in enumerate(arow):
            for r2, brow in enumerate(B):
                for c2, b in enumerate(brow):
                    out[r1 * nr + r2][c1 * nc + c2] = a * b
    return out


def dense_column(v, n):
    """A sparse vector {index: c} as a dense n x 1 matrix."""
    return [[Fraction(v.get(i, 0))] for i in range(n)]
