"""The shear of a Laurent polynomial as a change of variables.

A shear along a weight w by a vector s on the wall w = 0 moves each
exponent e to e + w(e) * s.  That is the matrix I + s w^T, which is
unimodular because w(s) = 0 (Akhtar-Coates-Galkin-Kasprzyk,
arXiv:1212.1785), so ``substitute_unimodular`` applies it.  The library's
own shear, inside ``canonicalize_shear``, is checked against this one.
"""

from fanolab.laurent import substitute_unimodular


def shear(f, w, s):
    """f with each exponent e moved by w(e) * s, for s on the wall w = 0."""
    assert sum(a * b for a, b in zip(w, s)) == 0, f"{s} is off the wall"
    n = f.rank
    return substitute_unimodular(
        f, [[int(i == j) + s[i] * w[j] for j in range(n)] for i in range(n)])
