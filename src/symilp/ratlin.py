"""Exact rational vectors and matrices.

Scalars are ``fractions.Fraction`` (always in lowest terms, positive
denominator); vectors and matrices are plain tuples.  Elimination runs
fraction-free (Bareiss) on integer-scaled rows so intermediate entries stay
polynomially bounded, which matters for systems in dimension up to a few
thousand.
"""

from fractions import Fraction
from math import gcd, lcm


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer, or a finite decimal string (no exponent), exactly.

    Every malformed token, a zero denominator included, raises ValueError.
    """
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation in {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def clear_denominators(vec) -> tuple:
    """(ints, den): den is the lcm of the entries' denominators, ints the
    entries times den, computed by numerator and denominator so no Fraction
    is built.  An all-int vector comes back with its entries, over 1."""
    vec = tuple(vec)
    den = lcm(*(v.denominator for v in vec))
    return tuple(v.numerator * (den // v.denominator) for v in vec), den


def scale_coprime(vec) -> tuple:
    """Scale a rational vector by a positive rational onto coprime integers.

    Signs are preserved, and the zero vector comes back as ints.  An all-int
    coprime tuple comes back as the same object; a vector holding a Fraction
    has its denominators cleared (clear_denominators) before the gcd is
    taken out.
    """
    vec = tuple(vec)
    try:
        g = gcd(*vec)
    except TypeError:  # not all ints
        vec, _ = clear_denominators(vec)
        g = gcd(*vec)
    if g > 1:
        vec = tuple(v // g for v in vec)
    return vec


def _echelon(rows: list, ncols: int):
    """In-place fraction-free forward elimination.

    Returns the pivot positions [(row, col), ...].  Only columns < ncols are
    eligible as pivots; trailing columns (e.g. an augmented right hand side)
    are carried along.
    """
    m = len(rows)
    width = len(rows[0]) if m else ncols
    prev = 1
    r = 0
    pivots = []
    for c in range(ncols):
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, m):
            f = rows[i][c]
            ri, rr = rows[i], rows[r]
            for j in range(c, width):
                ri[j] = (piv * ri[j] - f * rr[j]) // prev
        prev = piv
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    return pivots


def kernel_basis(M, ncols: int) -> list:
    """Basis of {x : Mx = 0} for M with ``ncols`` columns, one coprime
    integer vector per free column.

    Vectors have a positive leading nonzero entry; there is one per column
    without a pivot in the echelon form of M.  A matrix with no rows (or
    only zero rows) yields the standard basis of R^ncols.
    """
    rows = [list(scale_coprime(row)) for row in M]
    pivots = _echelon(rows, ncols) if rows else []
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in reversed(pivots):
            s = sum(rows[r][j] * v[j] for j in range(c + 1, ncols))
            v[c] = Fraction(-s, rows[r][c])
        if next(x for x in v if x) < 0:
            v = [-x for x in v]
        basis.append(scale_coprime(v))
    return basis
