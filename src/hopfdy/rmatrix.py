"""R-matrix verification, Zariski tangent spaces, and the B_k families.

An R-matrix is an invertible R in H ox H with

    R Delta(h) = Delta^op(h) R            (quasi-cocommutativity)
    (Delta ox id)(R) = R13 R23             (hexagon 1)
    (id ox Delta)(R) = R13 R12             (hexagon 2)

for which invertibility is equivalent to the counit normalization
(eps ox id)(R) = (id ox eps)(R) = 1.  The tangent space at R is the space
of T in H ox H with

    T Delta(h) = Delta^op(h) T
    (Delta ox id)(T) = T13 R23 + R13 T23
    (id ox Delta)(T) = T13 R12 + R13 T12,

computed as one exact kernel.  Its condition rows are built for every
basis tensor at once on `slotkernel.SlotKernel`, quasi-cocommutativity on
the elements of `check_elements`; (eps ox id)(T) = (id ox eps)(T) = 0 is
asserted on every basis vector rather than assumed.
"""

from __future__ import annotations

from fractions import Fraction

from .algcore import check_elements
from .exactlin import FR1, TensorElement, _once, fr, kernel_basis, span_equal, unit_tensor
from .hopfcore import HopfAlgebra, HopfError, build_bk, iterated_coproduct, verify_hopf

FRH = Fraction(1, 2)


class RMatrixError(HopfError):
    """Raised when an operation requires a verified R-matrix."""


class RMatrixReport:
    def __init__(self, quasi_cocommutative: bool, hexagon1: bool, hexagon2: bool,
                 counit_normalized: bool, witnesses=None, inverse: TensorElement = None):
        self.quasi_cocommutative = quasi_cocommutative
        self.hexagon1 = hexagon1
        self.hexagon2 = hexagon2
        self.counit_normalized = counit_normalized
        self.witnesses = [] if witnesses is None else witnesses
        self.inverse = inverse

    @property
    def verified(self) -> bool:
        return (self.quasi_cocommutative and self.hexagon1 and self.hexagon2
                and self.counit_normalized and self.inverse is not None)

    def to_dict(self) -> dict:
        return {
            "quasi_cocommutative": self.quasi_cocommutative,
            "hexagon1": self.hexagon1,
            "hexagon2": self.hexagon2,
            "counit_normalized": self.counit_normalized,
            "verified": self.verified,
            "witnesses": list(self.witnesses),
        }


class TangentBasis:
    def __init__(self, base: TensorElement, vectors: list):
        self.base = base
        self.vectors = vectors

    @property
    def dim(self) -> int:
        return len(self.vectors)


def embed13(u: TensorElement, H: HopfAlgebra) -> TensorElement:
    """u13 = sum u_{ab} e_a ox 1 ox e_b."""
    return u.insert_vector_at(1, H.unit)


def embed23(u: TensorElement, H: HopfAlgebra) -> TensorElement:
    return u.insert_vector_at(0, H.unit)


def embed12(u: TensorElement, H: HopfAlgebra) -> TensorElement:
    return u.insert_vector_at(2, H.unit)


def check_rmatrix(H: HopfAlgebra, R: TensorElement) -> RMatrixReport:
    """Check the axioms of R on a verified H; failures carry witnesses.
    Quasi-cocommutativity runs on `check_elements` (the h with R Delta(h) =
    Delta^op(h) R form a subalgebra); a basis vector keeps its label."""
    if R.degree != 2 or R.ambient is not H.algebra:
        raise RMatrixError("R must be a degree-2 tensor element over H")
    rep = verify_hopf(H)
    if rep:
        raise RMatrixError("R-matrix checks need a Hopf algebra: %s" % rep[:3])
    witnesses = []
    qc = True
    for h, name in check_elements(H.algebra):
        if len(h) == 1 and 1 in h.values():
            name = H.algebra.labels[next(iter(h))]
        dh = H.comult_vec(h)
        if R.mul(dh) != dh.permute_slots([1, 0]).mul(R):
            qc = False
            witnesses.append("quasi-cocommutativity fails at %s" % name)
    r13 = embed13(R, H)
    r23 = embed23(R, H)
    r12 = embed12(R, H)
    hex1 = iterated_coproduct(H, R, 0) == r13.mul(r23)
    if not hex1:
        witnesses.append("(Delta ox id)(R) != R13 R23")
    hex2 = iterated_coproduct(H, R, 1) == r13.mul(r12)
    if not hex2:
        witnesses.append("(id ox Delta)(R) != R13 R12")
    one = unit_tensor(H.algebra, 1)
    cn = (R.contract_at(0, H.counit) == one) and (R.contract_at(1, H.counit) == one)
    if not cn:
        witnesses.append("counit normalization fails")
    inverse = None
    if qc and hex1 and hex2 and cn:
        # hexagon 1 + counit give (S ox id)(R) R = 1; one-sided inverses are two-sided here
        cand = R.apply_matrix_at(0, H.antipode)  # (S ox id)(R)
        one2 = unit_tensor(H.algebra, 2)
        if cand.mul(R) == one2 and R.mul(cand) == one2:
            inverse = cand
        else:
            witnesses.append("R admits no two-sided inverse")
    return RMatrixReport(qc, hex1, hex2, cn, witnesses, inverse)


def tangent_space(H: HopfAlgebra, R: TensorElement, report: RMatrixReport = None) -> TangentBasis:
    """Exact kernel basis of the stacked linearized R-matrix conditions,
    built for all basis tensors e_a ox e_b at once on the slot kernel
    (`_tangent_rows`, on the slot kernel kept in H's cache) and handed to
    `kernel_basis` as arrays: it eliminates the rows that raise the rank
    and certifies the others against their kernel."""
    from .slotkernel import run_exact, slot_kernel
    if report is None:
        report = check_rmatrix(H, R)
    if not report.verified:
        raise RMatrixError("tangent_space requires a verified R-matrix: %s"
                           % report.witnesses[:3])
    n = H.dim
    rows = run_exact(lambda ops: _tangent_rows(ops, H, R), lambda big: slot_kernel(H, big))
    vectors = []
    zero1 = TensorElement(H.algebra, 1, {})
    for v in kernel_basis(rows, n * n):
        T = TensorElement(H.algebra, 2, {(f // n, f % n): c for f, c in v.items()})
        # the counit conditions hold automatically; assert rather than assume
        if T.contract_at(0, H.counit) != zero1 or T.contract_at(1, H.counit) != zero1:
            raise RMatrixError("tangent vector fails counit vanishing; "
                               "internal inconsistency")
        vectors.append(T)
    return TangentBasis(R, vectors)


def _tangent_rows(ops, H: HopfAlgebra, R: TensorElement):
    """`RowArrays` of the linearized conditions on the slot kernel `ops`:
    row (j, f) holds, at column t, the e_f coefficient of condition j at
    T = e_t.
    Quasi-cocommutativity runs over `check_elements`, since the h with
    T Delta(h) = Delta^op(h) T form a subalgebra.  Everything but the
    products with R is compiled once per kernel, in H's cache."""
    def build():
        x, qc = ops.all_basis(2), []
        for h, _ in check_elements(H.algebra):
            dh = H.delta_power(h, 2)
            qc.append(ops.combine([
                (ops.mul(x, ops.encode([dh], 2), False), 1),
                (ops.mul(x, ops.encode([dh.permute_slots([1, 0])], 2), True), -1)]))
        return (qc, ops.coproduct(x, 0), ops.coproduct(x, 1),
                *(ops.insert_unit(x, slot) for slot in (1, 0, 2)))

    qc, cop0, cop1, t13, t23, t12 = _once(H._cache, ("tangent", ops.big), build)
    r13, r23, r12 = (ops.encode([e(R, H)], 3) for e in (embed13, embed23, embed12))
    hex1 = ops.combine([(cop0, 1), (ops.mul(t13, r23, False), -1),
                        (ops.mul(t23, r13, True), -1)])
    hex2 = ops.combine([(cop1, 1), (ops.mul(t13, r12, False), -1),
                        (ops.mul(t12, r13, True), -1)])
    return ops.rows(qc + [hex1, hex2], H.dim ** 2)


# ---------------------------------------------------------------------------
# B_k families

def bk_r0(k: int, H: HopfAlgebra = None) -> TensorElement:
    """R0 = e+ ox 1 + e- ox g with e{pm} = (1 pm g)/2; triangular, R0^2 = 1."""
    if H is None:
        H = build_bk(k)
    gi = 1 << k
    return TensorElement(H.algebra, 2, {
        (0, 0): FRH, (gi, 0): FRH, (0, gi): FRH, (gi, gi): -FRH})


def bk_r_lambda(k: int, lam, H: HopfAlgebra = None) -> TensorElement:
    """R_lambda = R0 * prod_{i,j} (1 ox 1 + lam[i][j] x_i ox x_j g)."""
    if H is None:
        H = build_bk(k)
    gi = 1 << k
    R = bk_r0(k, H)
    out = unit_tensor(H.algebra, 2)
    for i in range(k):
        for j in range(k):
            c = fr(lam[i][j])
            if not c:
                continue
            factor = unit_tensor(H.algebra, 2).add(
                TensorElement(H.algebra, 2, {((1 << i), (1 << j) | gi): c}))
            out = out.mul(factor)
    return R.mul(out)


def bk_standard_tangent_basis(k: int, H: HopfAlgebra = None) -> list:
    """The basis {R0 (x_i ox x_j g)} of the tangent space at R0."""
    if H is None:
        H = build_bk(k)
    gi = 1 << k
    R = bk_r0(k, H)
    out = []
    for i in range(k):
        for j in range(k):
            X = TensorElement(H.algebra, 2, {((1 << i), (1 << j) | gi): FR1})
            out.append(R.mul(X))
    return out


def tangent_span_matches(H: HopfAlgebra, basis: TangentBasis, reference: list) -> bool:
    n = H.dim
    A = [v.flat() for v in basis.vectors]
    B = [v.flat() for v in reference]
    return span_equal(A, B, n * n)
