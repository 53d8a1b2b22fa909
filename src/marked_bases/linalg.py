"""Sparse exact linear algebra over the rationals.

A row is a dict ``{column: non-zero rational}`` over int columns, with ints
and Fractions mixed; a column absent from the dict holds zero.  The pivot
of a row is its least column.

`rref` takes the rows one at a time, in the order given, and keeps the
pivot rows found so far in reduced form: each holds 1 at its pivot and 0 at
every other pivot column.  A new row is reduced by them in one fused pass:
its entry v at a known pivot column c is cancelled by subtracting v times
the row of c, which adds nothing at another pivot column, so every pivot
column the row holds is read off the row as given.  What is left, if
anything, is divided by its pivot as ``rational(Fraction(x) / pivot)``:
``int / int`` would give a float, and an integral quotient stays an int, so
integer rows with pivots +-1 are eliminated in int arithmetic.  Entries that
elimination turns integral may still be Fractions; the ``ModuleElement``
constructor stores them as ints.  The new pivot column is then cleared from
the earlier pivot rows (back-substitution), which is needed only when it
exceeds the least pivot so far: a row holds nothing left of its own pivot.
So rows fed with decreasing pivots, as the triangular rows of
`randgen._extract_marked_basis` are, are never back-substituted.  This is
the sparse elimination of Faugère's F4 ("A new efficient algorithm for
computing Gröbner bases (F4)", J. Pure Appl. Algebra 139, 1999) without its
symbolic preprocessing.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import Rational, rational

Row = dict[int, Rational]


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse rows.

    Returns the non-zero reduced rows and their pivot columns, both in
    ascending pivot order.  Input rows are not modified.
    """
    reduced: dict[int, Row] = {}  # pivot column -> its reduced row
    least = None
    for row in rows:
        out: Row = {}
        for c, v in row.items():
            out[c] = out.get(c, 0) + v
            known = reduced.get(c)
            if known is not None:
                # The known row's 1 at c cancels the entry just added.
                for c2, v2 in known.items():
                    out[c2] = out.get(c2, 0) - v * v2
        out = {c: v for c, v in out.items() if v}
        if not out:
            continue
        pivot = min(out)
        pv = out[pivot]
        if pv != 1:
            out = {c: rational(Fraction(v) / pv) for c, v in out.items()}
        if least is not None and pivot > least:
            for earlier in reduced.values():
                factor = earlier.get(pivot)
                if factor is not None:
                    for c, v in out.items():
                        s = earlier.get(c, 0) - factor * v
                        if s:
                            earlier[c] = s
                        else:
                            del earlier[c]
        if least is None or pivot < least:
            least = pivot
        reduced[pivot] = out
    pivots = sorted(reduced)
    return [reduced[p] for p in pivots], pivots
