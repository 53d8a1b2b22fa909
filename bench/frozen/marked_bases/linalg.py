"""Dense exact linear algebra over the rationals.

Rows are lists of Fractions.  Everything here is small and exact: the
matrices that appear (graded slices of modules) have at most a few hundred
columns, so classical Gaussian elimination is entirely adequate.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
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
            mat[rank] = [x / pv for x in mat[rank]]
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


def rank(rows: list[list[Fraction]]) -> int:
    return len(rref(rows)[0])
