"""Dense exact linear algebra over the rationals.

Rows are lists of exact rationals, ints and Fractions mixed.  A pivot row
is divided as ``rational(Fraction(x) / pivot)``: ``int / int`` would give a
float, and an integral quotient stays an int, so integer rows with pivots
+-1 are eliminated in int arithmetic.  Entries that elimination turns
integral may still be Fractions; the ``ModuleElement`` constructor stores
them as ints.  Everything here is small and exact: the matrices that appear
(graded slices of modules) have at most a few hundred columns, so classical
Gaussian elimination is entirely adequate.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import Rational, rational


def rref(rows: list[list[Rational]]) -> tuple[list[list[Rational]], list[int]]:
    """Reduced row echelon form.

    Returns the non-zero rows and the pivot column indices (ascending; one
    per returned row).  Input rows are not modified.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pv = mat[rank][col]
        if pv != 1:
            mat[rank] = [rational(Fraction(x) / pv) for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                row = mat[r]
                top = mat[rank]
                mat[r] = [a - factor * b for a, b in zip(row, top)]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank], pivots
