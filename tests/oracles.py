"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive: dense textbook Gauss-Jordan over
Fractions and exhaustive loops, sharing no code with the package's sparse
elimination, so the two sides of every comparison are independent.
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


def tangent_conditions_dense(H, R):
    """Dense rows of the linearized R-matrix conditions at R on T in H ox H,
    one column per e_a ox e_b (a * dim + b), by loops over the tables
    H.algebra.mult, H.algebra.unit and H.comult:

        T Delta(h) - Delta^op(h) T           for every basis element h
        (Delta ox id)(T) - T13 R23 - R13 T23
        (id ox Delta)(T) - T13 R12 - R13 T12

    Tensors are dicts {index tuple: Fraction}.
    """
    n, mult, unit = H.dim, H.algebra.mult, H.algebra.unit
    comult = [H.comult[h].coeffs for h in range(n)]

    def prod(u, v):
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

    def with_unit(u, slot):
        return {k[:slot] + (i,) + k[slot:]: c * x for k, c in u.items() for i, x in unit.items()}

    def coproduct(u, slot):
        out = {}
        for k, c in u.items():
            for pq, x in comult[k[slot]].items():
                _add(out, k[:slot] + pq + k[slot + 1:], c * x)
        return out

    def diff(*terms):
        out = {}
        for sign, u in terms:
            for k, c in u.items():
                _add(out, k, sign * c)
        return out

    R = R.coeffs
    r13, r23, r12 = with_unit(R, 1), with_unit(R, 0), with_unit(R, 2)
    rows = {}  # (condition, index tuple) -> dense row
    for a in range(n):
        for b in range(n):
            T = {(a, b): Fraction(1)}
            t13, t23, t12 = with_unit(T, 1), with_unit(T, 0), with_unit(T, 2)
            conds = [diff((1, prod(T, comult[h])),
                          (-1, prod({(q, p): c for (p, q), c in comult[h].items()}, T)))
                     for h in range(n)]
            conds.append(diff((1, coproduct(T, 0)), (-1, prod(t13, r23)), (-1, prod(r13, t23))))
            conds.append(diff((1, coproduct(T, 1)), (-1, prod(t13, r12)), (-1, prod(r13, t12))))
            for j, cond in enumerate(conds):
                for k, c in cond.items():
                    rows.setdefault((j, k), [Fraction(0)] * (n * n))[a * n + b] += c
    return list({tuple(r): r for r in rows.values() if any(r)}.values())  # distinct, nonzero


def densify_matrix(M):
    """SparseMatrix -> dense list of lists."""
    out = [[Fraction(0)] * M.cols for _ in range(M.rows)]
    for (r, c), v in M.entries.items():
        out[r][c] = v
    return out


def densify_vec(v, n):
    out = [Fraction(0)] * n
    for i, c in v.items():
        out[i] = c
    return out
