"""The three Davydov-Yetter cochain complexes as finite exact linear algebra.

Three complex kinds are implemented, all with cochain spaces realized as
subspaces of tensor powers of a Hopf algebra H:

  identity     C^n = centralizer of Delta^{(n-1)}(H) in H^{ox n}
  tensor       C^n = {u in H^{ox 2n} :
                      sigma(Delta^{(2n-1)}(h)) u = u Delta^{(2n-1)}(h)}
               where sigma interleaves (1..n | n+1..2n) -> (X1 Y1 X2 Y2 ...),
               attached to an R-matrix R
  restriction  C^n = centralizer of Delta^{(n-1)}(i(K)) in H^{ox n}
               for a Hopf inclusion i: K -> H

Tensor-kind slot layout is interleaved: (X1, Y1, X2, Y2, ...).  Coface maps:

  identity / restriction (theta trivial):
      d_0(u) = 1 ox u,  d_i(u) = Delta at slot i,  d_{n+1}(u) = u ox 1
  tensor (theta twisted by R):
      d_0(u)    = [1 ox R1 ox Delta^{(n-1)}(R2) into the X-slots] (1 ox 1 ox u)
      d_i(u)    = Delta_{HoxH}(block i of u) * [R1 in Y_i, R2 in X_{i+1}]
      d_{n+1}(u)= [Delta^{(n-1)}(R1) into the Y-slots ox R2 in X_{n+1}] (u ox 1 ox 1)

The degree-1 and degree-2 tensor cofaces reproduce the explicit twisted
differentials verbatim (tests pin this).  dim H^n = dim C^n - rank delta^n
- rank delta^{n-1} rests on two facts, both checked, not assumed: the
images of delta^{n-1} lie in C^n, and delta^n maps them to zero.
Codegeneracies apply the counit to slot i+1 (identity / restriction) or to
block i+1 (tensor); the cosimplicial identities hold, so the degree <= 3
normalization projectors N^n = pi_0 ... pi_{n-1} with pi_i = id - d_i s_i
are quasi-isomorphism idempotents.

Arithmetic.  Every stage -- the condition rows behind `cochain_basis`,
the images of `differential_images` (all basis cochains of a degree in one
batch) and their checks, `in_cochain_space`, and the single-cochain
`coface` and `delta_raw` -- is written once against a small set of batch
operations (insert the unit, coproduct at a slot, permute slots, slotwise
product with a multiplier, signed sum), which `slotkernel.SlotKernel` runs
on arrays for every Hopf algebra H, multi-term products included.  Its
int64 kernel checks every product, rescaling and sum against a bound below
2^63; where a bound would be exceeded, the stage reruns on the same kernel
over Python integers and its name is appended to `DYComplex.fallbacks`.
Both give the same exact results.  The tests compare them against the
dense `Fraction` cofaces of `tests/oracles.py`.
"""

from __future__ import annotations

from .exactlin import (SparseMatrix, TensorElement, _once, kernel_basis_marked,
                       rank_of_rows, unflatten_index)
from .hopfcore import HopfAlgebra, HopfError
from .algcore import AlgebraMap, check_elements


class UnsupportedDegreeError(HopfError):
    pass


class DYConsistencyError(HopfError):
    """An image of delta^{n-1} left C^n, or delta^n delta^{n-1} != 0; results invalid."""


def _interleave_perm(n: int) -> list:
    """sigma_n: natural slots (1..n | n+1..2n) to interleaved X/Y layout."""
    perm = [0] * (2 * n)
    for j in range(n):
        perm[j] = 2 * j
        perm[n + j] = 2 * j + 1
    return perm


class DYComplex:
    """One of the three cochain complexes, with cached bases and maps.

    Every cache is a dict declared here and filled through `_once`, so each
    entry is published write-once and threads sharing a complex see the
    same objects.  `fallbacks` is per complex too: an identity or
    restriction complex is owned by H and shared by all its callers, and
    so are the stages it lists.
    """

    def __init__(self, kind: str, H: HopfAlgebra, R: TensorElement = None,
                 imap: AlgebraMap = None, Hsub: HopfAlgebra = None):
        assert kind in ("identity", "tensor", "restriction")
        self.kind = kind
        self.H = H
        self.R = R
        self.imap = imap
        self.Hsub = Hsub
        if kind == "tensor":
            assert R is not None and R.degree == 2
        if kind == "restriction":
            assert imap is not None and Hsub is not None
        self._basis = {}    # n -> (basis, free-column markers)
        self._images = {}   # n -> (kernel, batch of the raw delta^n of the basis)
        self._ranks = {}    # n -> rank_delta(n)
        # the operands encoded on a slot kernel, filled through `_once`:
        # (big, "conditions", n) -> the (L, R) condition batches of degree n,
        # (big, side, n, i) -> the R-multiplier of a tensor coface
        self._compiled = {}
        self.fallbacks = []  # stages that reran on the Python-int kernel

    # -- geometry ----------------------------------------------------------
    def slots(self, n: int) -> int:
        return 2 * n if self.kind == "tensor" else n

    def ambient_dim(self, n: int) -> int:
        return self.H.dim ** self.slots(n)

    # -- the slot kernel ----------------------------------------------------
    def _slot_kernel(self, big: bool = False):
        """The slot kernel of H, int64 or (`big`) Python-int; its module,
        and numpy with it, is imported here at first use."""
        from .slotkernel import slot_kernel
        return slot_kernel(self.H, big)

    def _run(self, stage: str, work):
        """work(kernel) on the int64 kernel, rerun on the Python-int kernel
        where an int64 bound would be exceeded, noting the stage."""
        from .slotkernel import run_exact
        return run_exact(work, self._slot_kernel, lambda: self.fallbacks.append(stage))

    # -- defining conditions -------------------------------------------------
    def _condition_vectors(self):
        """Elements of H (resp. i(K)) whose Delta-powers cut out the cochain
        spaces, from `check_elements`: the elements satisfying the
        centralizing condition form a subalgebra."""
        if self.kind == "restriction":
            return [self.imap.apply(k) for k, _ in check_elements(self.Hsub.algebra)]
        return [h for h, _ in check_elements(self.H.algebra)]

    def _condition_elements(self, ops, n: int):
        """Pairs (L, R) of multipliers encoded on the kernel `ops`: cochains
        satisfy L u = u R."""
        def build():
            s = self.slots(n)
            if s == 0:
                return []
            perm = _interleave_perm(n) if self.kind == "tensor" else None
            out = []
            for vec in self._condition_vectors():
                t = self.H.delta_power(vec, s)
                out.append((ops.encode([t.permute_slots(perm) if perm else t], s),
                            ops.encode([t], s)))
            return out
        return _once(self._compiled, (ops.big, "conditions", n), build)

    def _condition_diffs(self, ops, n: int, x):
        """L x - x R for every condition pair, on every tensor of the batch x."""
        for L, R in self._condition_elements(ops, n):
            yield ops.combine([(ops.mul(x, L, True), 1), (ops.mul(x, R, False), -1)])

    def _contained(self, ops, n: int, x) -> bool:
        return all(ops.is_zero(d) for d in self._condition_diffs(ops, n, x))

    def in_cochain_space(self, n: int, u: TensorElement) -> bool:
        return u.degree == self.slots(n) and self._run(
            "containment", lambda ops: self._contained(ops, n, ops.encode([u], u.degree)))

    def cochain_basis(self, n: int) -> list:
        """Exact basis of C^n, canonical (kernel RREF over lex tuple order)."""
        if n < 0:
            raise UnsupportedDegreeError("negative degree")

        def build():
            nd, s = self.H.dim, self.slots(n)
            # row (j, f), column t: the e_f coefficient of L_j e_t - e_t R_j
            rows = self._run("cochain_basis", lambda ops: ops.rows(
                self._condition_diffs(ops, n, ops.all_basis(s)), nd ** s))
            vecs, markers = kernel_basis_marked(rows, nd ** s)
            basis = [TensorElement(self.H.algebra, s,
                                   {unflatten_index(f, nd, s): c for f, c in v.items()})
                     for v in vecs]
            return basis, markers
        return _once(self._basis, n, build)[0]

    def cochain_dim(self, n: int) -> int:
        return len(self.cochain_basis(n))

    def coords(self, n: int, u: TensorElement) -> dict:
        """Coordinates of u in the cochain basis; exact, verified.  Basis
        cochain j is 1 at its marker and 0 at the other markers, so a u that
        lies in C^n is the sum of u[marker_j] basis_j."""
        if not self.in_cochain_space(n, u):
            raise DYConsistencyError("vector does not lie in the cochain space")
        self.cochain_basis(n)
        flat = u.flat()
        return {j: flat[f] for j, f in enumerate(self._basis[n][1]) if f in flat}

    # -- coface and codegeneracy maps ---------------------------------------
    def coface(self, n: int, i: int, u: TensorElement) -> TensorElement:
        """d_i^n: C^n -> C^{n+1} on raw tensor elements, 0 <= i <= n+1."""
        if not (0 <= i <= n + 1):
            raise UnsupportedDegreeError("coface index %d out of range" % i)
        return self._single(u, lambda ops, x: ops.combine([(self._coface(ops, n, i, x), 1)]))

    def _single(self, u: TensorElement, work) -> TensorElement:
        """work(ops, [u]) on the slot kernel, decoded to one tensor; work
        ends in a `combine`, since `decode` keeps one value per key."""
        return self._run("coface",
                         lambda ops: ops.decode(work(ops, ops.encode([u], u.degree)), 1)[0])

    def _coface(self, ops, n: int, i: int, x):
        """d_i^n on every tensor of the batch x."""
        if self.kind != "tensor":
            if i == 0:
                return ops.insert_unit(x, 0)
            if i == n + 1:
                return ops.insert_unit(x, n)
            return ops.coproduct(x, i - 1)
        if n == 0:
            return ops.insert_unit(ops.insert_unit(x, 0), 0)
        if i == 0:
            # multiplier: X1 <- 1, Y1 <- R1, X-slots 2..n+1 <- Delta^{(n-1)}(R2)
            x = ops.insert_unit(ops.insert_unit(x, 0), 0)
            return ops.mul(x, self._multiplier(ops, "front", n), True)
        if i == n + 1:
            x = ops.insert_unit(ops.insert_unit(x, 2 * n), 2 * n)
            return ops.mul(x, self._multiplier(ops, "back", n), True)
        # middle: expand block i via Delta_{HoxH}, then right-multiply by R
        p = 2 * (i - 1)
        x = ops.coproduct(ops.coproduct(x, p), p + 2)  # (x1, x2, y1, y2)
        perm = list(range(2 * n + 2))
        perm[p + 1], perm[p + 2] = perm[p + 2], perm[p + 1]
        x = ops.permute(x, perm)                          # (x1, y1, x2, y2)
        return ops.mul(x, self._multiplier(ops, "middle", n, i), False)

    def _multiplier(self, ops, side: str, n: int, i: int = 0):
        """The R-multipliers of the outer and middle tensor cofaces, in H^{ox 2n+2},
        encoded once on the kernel `ops`:
        front  1 ox R1 ox Delta^{(n-1)}(R2) in X_2..X_{n+1}, 1 in Y_2..Y_{n+1};
        back   Delta^{(n-1)}(R1) in Y_1..Y_n, R2 in X_{n+1}, 1 elsewhere;
        middle R1 in Y_i, R2 in X_{i+1}, 1 elsewhere."""
        def build():
            x = ops.encode([self.R], 2)
            if side == "middle":
                units = list(range(2 * i - 1)) + list(range(2 * i + 1, 2 * n + 2))
            else:
                for _ in range(n - 1):
                    x = ops.coproduct(x, 1 if side == "front" else 0)
                units = ([0] + [2 * j + 1 for j in range(1, n + 1)] if side == "front"
                         else [2 * j for j in range(n)] + [2 * n + 1])
            for slot in units:
                x = ops.insert_unit(x, slot)
            return ops.combine([(x, 1)])
        return _once(self._compiled, (ops.big, side, n, i), build)

    def _delta(self, ops, n: int, x):
        return ops.combine([(self._coface(ops, n, i, x), (-1) ** i) for i in range(n + 2)])

    def delta_raw(self, n: int, u: TensorElement) -> TensorElement:
        return self._single(u, lambda ops, x: self._delta(ops, n, x))

    def _image_batch(self, n: int):
        """(kernel, batch): delta^n of every basis cochain as one batch of the
        kernel that computed it; for n >= 1, first the two facts H^n rests on:
        the batch of delta^{n-1} lies in C^n, and delta^n maps it to zero."""
        def check(ops):
            y = ops.adopt(self._image_batch(n - 1)[1])
            if not self._contained(ops, n, y):
                raise DYConsistencyError(
                    "differential image escapes the degree-%d cochain space" % n)
            if not ops.is_zero(self._delta(ops, n, y)):
                raise DYConsistencyError("delta^%d o delta^%d is not zero" % (n, n - 1))

        def build():
            if n > 0:
                self._run("image_check", check)
            return self._run("differential_images", lambda ops: (ops, self._delta(
                ops, n, ops.encode(self.cochain_basis(n), self.slots(n)))))
        return _once(self._images, n, build)

    def differential_images(self, n: int) -> list:
        """delta^n of every basis cochain, raw, decoded from the cached batch."""
        ops, x = self._image_batch(n)
        return ops.decode(x, self.cochain_dim(n))

    def differential(self, n: int) -> SparseMatrix:
        """delta^n in cochain coordinates C^n -> C^{n+1}."""
        cols = [self.coords(n + 1, v) for v in self.differential_images(n)]
        return SparseMatrix.from_columns(self.cochain_dim(n + 1), cols)

    def codegeneracy_raw(self, n: int, i: int, u: TensorElement) -> TensorElement:
        if not (0 <= i <= n - 1):
            raise UnsupportedDegreeError("codegeneracy index %d out of range" % i)
        H = self.H
        if self.kind != "tensor":
            return u.contract_at(i, H.counit)
        v = u.contract_at(2 * i, H.counit)
        return v.contract_at(2 * i, H.counit)

    def codegeneracy(self, n: int, i: int) -> SparseMatrix:
        cols = [self.coords(n - 1, self.codegeneracy_raw(n, i, u)) for u in self.cochain_basis(n)]
        return SparseMatrix.from_columns(self.cochain_dim(n - 1), cols)

    # -- cohomology ----------------------------------------------------------
    def rank_delta(self, n: int) -> int:
        """The rank of the images' integer numerators, one row per flat index."""
        def build():
            ops, x = self._image_batch(n)
            return rank_of_rows(ops.rows([x], self.cochain_dim(n)))
        return _once(self._ranks, n, build)

    def cohomology_dim(self, n: int) -> int:
        """dim ker delta^n - rank delta^{n-1} (at n = 0: dim ker delta^0)."""
        if n < 0:
            raise UnsupportedDegreeError("negative degree")
        dim_cn = self.cochain_dim(n)
        kernel_dim = dim_cn - self.rank_delta(n)
        if n == 0:
            return kernel_dim
        return kernel_dim - self.rank_delta(n - 1)

    # -- normalization (degrees 1..3) -----------------------------------------
    def normalize(self, n: int, u: TensorElement) -> TensorElement:
        """N^n = pi_0 ... pi_{n-1} with pi_i = id - d_i s_i; degrees 1..3."""
        if n not in (1, 2, 3):
            raise UnsupportedDegreeError("normalization implemented for degrees 1..3")
        if u.degree != self.slots(n):
            raise UnsupportedDegreeError("degree mismatch")
        out = u
        for i in reversed(range(n)):
            si = self.codegeneracy_raw(n, i, out)
            out = out.sub(self.coface(n - 1, i, si))
        return out


def identity_complex(H: HopfAlgebra) -> DYComplex:
    """The identity complex of H, cached on H: every caller shares its
    bases, images and ranks, which are released with H."""
    return _once(H._cache, "identity_complex", lambda: DYComplex("identity", H))


def tensor_complex(H: HopfAlgebra, R: TensorElement, Rinv=None) -> DYComplex:
    """The R-twisted tensor complex, built anew on each call (unlike the
    identity and restriction complexes, it is not cached on H, since R
    changes from call to call).  `Rinv` is ignored: the complex never
    uses the inverse R-matrix, and the parameter stays only so that calls
    passing it keep working."""
    return DYComplex("tensor", H, R=R)


def restriction_complex(H: HopfAlgebra, imap: AlgebraMap, Hsub: HopfAlgebra) -> DYComplex:
    """The restriction complex of i = `imap` : Hsub -> H, cached on H under
    (imap, Hsub), as `coeff_restriction` caches its module on D(H) under
    imap."""
    return _once(H._cache, ("restriction_complex", imap, Hsub),
                 lambda: DYComplex("restriction", H, imap=imap, Hsub=Hsub))


# ---------------------------------------------------------------------------
# degree-2 decomposition for the tensor complex

def decompose_h2_tensor(cx: DYComplex, u: TensorElement):
    """Split a degree-2 tensor-kind cocycle into (a, b, T):

    a = (id ox eps)^{ox 2}(u), b = (eps ox id)^{ox 2}(u),
    T = (eps ox id ox id ox eps)(u) - tau((id ox eps ox eps ox id)(u)) R.

    a and b are degree-2 cocycles of the identity complex; T satisfies the
    tangent-space conditions at R.
    """
    assert cx.kind == "tensor"
    H = cx.H
    if u.degree != 4:
        raise UnsupportedDegreeError("decompose_h2_tensor expects degree-2 cochains")
    if not cx.delta_raw(2, u).is_zero():
        raise DYConsistencyError("decompose_h2_tensor expects a cocycle")
    eps = H.counit
    a = u.contract_at(1, eps).contract_at(2, eps)   # kill Y1 (pos1), Y2 (pos3->2)
    b = u.contract_at(0, eps).contract_at(1, eps)   # kill X1 (pos0), X2 (pos2->1)
    t1 = u.contract_at(0, eps).contract_at(2, eps)  # keep (Y1, X2)
    mid = u.contract_at(1, eps).contract_at(1, eps)  # keep (X1, Y2)
    t2 = mid.permute_slots([1, 0]).mul(cx.R)
    T = t1.sub(t2)
    return a, b, T


def cocycle_from_tangent(cx: DYComplex, T: TensorElement) -> TensorElement:
    """u = 1 ox T ox 1 (interleaved: T1 in Y1, T2 in X2); a degree-2 cocycle
    with vanishing a/b parts whenever (eps ox eps)(T) = 0."""
    assert cx.kind == "tensor"
    H = cx.H
    if T.degree != 2:
        raise UnsupportedDegreeError("tangent vectors are degree-2 tensors")
    u = T.insert_vector_at(0, H.unit)
    u = u.insert_vector_at(3, H.unit)
    if not cx.in_cochain_space(2, u):
        raise DYConsistencyError("1 ox T ox 1 is not a degree-2 cochain; "
                                 "T fails the tangent conditions")
    if not cx.delta_raw(2, u).is_zero():
        raise DYConsistencyError("1 ox T ox 1 is not a cocycle; "
                                 "T fails the tangent conditions")
    return u
