"""A second free basis for the resolvent pairs of the tests.

`rebased` changes a free basis u_alpha of A over B by an invertible scalar
matrix: u'_alpha = (alpha + 2) u_alpha, then u'_0 += u_1.  Scalars commute
with B, so the u'_alpha are again a free basis.  Its rewrite table, the
inverse of Phi : (alpha, b) -> u'_alpha i(e_b), has non-unit coefficients
of mixed sign, which a unit-coefficient basis (Phi a permutation) hides:
there a dropped coefficient, or Phi^T read for Phi^{-1}, goes unseen.
"""

from fractions import Fraction

from hopfdy.relext import ResolventPair


def rebased(basis):
    out = [{i: (alpha + 2) * Fraction(c) for i, c in u.items()}
           for alpha, u in enumerate(basis)]
    for i, c in basis[1].items():
        out[0][i] = out[0].get(i, 0) + c
    out[0] = {i: c for i, c in out[0].items() if c}
    return out


def rebased_pair(pair):
    """The same inclusion on the rebased free basis."""
    return ResolventPair(pair.big, pair.small, pair.inclusion, rebased(pair.free_basis),
                         name="%s'" % pair.name)
