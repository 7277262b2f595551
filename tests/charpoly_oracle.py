"""Independent eigenvalue oracle for the block solver's tests.

Exact rational arithmetic is slow, so this lives with the tests rather
than in the package: criterion 8 and `test_spectra.py` compare
`spectra.diagonalize` against it on blocks of dimension <= 8.
"""

from fractions import Fraction

import numpy as np


def charpoly_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Independent eigenvalue oracle: characteristic polynomial roots.

    Coefficients via the Faddeev-LeVerrier recurrence in exact rational
    arithmetic (float entries are exact rationals), rough roots via the
    companion matrix, then two exact-arithmetic Newton steps per root.
    Companion roots alone are only good to ~1e-7 at dimension 8; the
    polish recovers full precision for simple roots. Used to cross-check
    the main solver on blocks of dimension <= 8; those blocks have no
    internal degeneracies at couplings of interest, so simple-root Newton
    is safe.
    """
    n = matrix.shape[0]
    if n > 12:
        raise ValueError("characteristic-polynomial oracle limited to small matrices")
    a = [[Fraction(x) for x in row] for row in matrix.tolist()]
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        am = [
            [sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(c)
        m = [
            [am[i][j] + (c if i == j else Fraction(0)) for j in range(n)]
            for i in range(n)
        ]
    seeds = np.sort(np.roots([float(c) for c in coeffs]).real)

    deriv = [coeffs[k] * (n - k) for k in range(n)]

    def horner(poly, x):
        acc = Fraction(0)
        for c in poly:
            acc = acc * x + c
        return acc

    polished = []
    for seed in seeds:
        x = Fraction(float(seed))
        for _ in range(2):
            dp = horner(deriv, x)
            if dp == 0:
                break
            x = x - horner(coeffs, x) / dp
        polished.append(float(x))
    return np.sort(polished)
