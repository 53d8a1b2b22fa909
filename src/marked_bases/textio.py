"""Text grammar, pretty printing, input documents, resolution JSON.

Polynomial grammar: summands joined by ``+``/``-`` after an optional
leading sign, each a product of factors with an optional ``*`` between
them (``3 x1`` is ``3*x1``): coefficients ``p`` or ``p/q``, variables
``x0..xN`` with powers ``^k``, and at most one free-generator marker
``e<k>``; a term without one lives in component 1.  Whitespace may separate
any two tokens; ``0`` is the zero element.  In marked-set context (a
``marked`` line of a document) the head term of an element is wrapped in
square brackets: ``[x1*x0] + x2^2``.  One reader, `_parse_terms`, reads
every polynomial; an error found at the end of the text is reported at its
last token.  One column printer, `_column_text`, prints every element: a
module element, a marked element, the generator images and syzygies of a
resolution and each differential entry all print from their sparse columns
{component - 1: polynomial}.

Input documents are line oriented (``#`` starts a comment, indented lines
continue the previous logical line)::

    ring 3                      # variables x0, x1, x2
    module 1 0                  # optional: rank and weights (default "1 0")
    ideal J = x2^3, x2*x1, x1^2
    marked G = [x2^3], [x1*x0] + x2^2

Resolutions serialize, as ``dumps_indented(resolution_to_dict(res))``,
to a stable JSON schema: ``{"length": L, "ring": ...,
"levels": [{"ranks": {...}, "degrees": [...], "generators": [...],
"differential": [[entry strings]]}]}`` where level i's differential maps
level i into level i-1 (level 0's single row holds the generator images,
the columns of `FreeResolution.bodies` printed as elements).  The
differential is written out as a full grid of rows, with "0" for every
entry the sparse columns of `FreeResolution.matrices` do not store.  Each
`resolution_to_dict` call formats every distinct entry once, and the grid
cells share its text; it formats each distinct monomial once too.
Every JSON document is written by `dumps_indented`, which gives the text
of ``json.dumps(obj, indent=2)`` in one pass and encodes each row of
strings once.  A grid (any list it walks item by item) met twice in one
document is written once; the second time, at the same depth or deeper,
its text is re-indented.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .monom import MonomialModule
from .ring import (
    Coeff,
    FreeModuleLayout,
    HeterogeneousElement,
    MarkedBasesError,
    ModuleElement,
    ModuleTerm,
    ParamPoly,
    Poly,
    Rational,
    format_exponent,
)
from .syzygy import Column, FreeResolution, _column


class PolySyntaxError(MarkedBasesError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class UnknownVariable(PolySyntaxError):
    """A variable ``x<i>`` with i outside the ring."""


class ComponentOutOfRange(PolySyntaxError):
    """A marker ``e<k>`` with k outside 1..rank."""


class InputFormatError(MarkedBasesError):
    pass


# ---------- reader ----------

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:/\d+)?)|(?P<var>x\d+)|(?P<comp>e\d+)|(?P<op>[\^*+\-\[\]])|(?P<bad>\S)"
)


def _parse_terms(text: str, layout: FreeModuleLayout, where, allow_head: bool):
    """The element `text` spells and its bracketed head (None when there is
    none).  `where(col)` maps a 1-based column of `text` to the (line,
    column) that error messages report; an element of two degrees is
    reported at column 1."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind == "bad":
            raise PolySyntaxError(f"unexpected character {value!r}", *where(m.start() + 1))
        tokens.append((value if kind == "op" else kind, value, m.start() + 1))
    tokens.append(("end", "", tokens[-1][2] if tokens else 1))

    def fail(message, error=PolySyntaxError):
        raise error(message, *where(tokens[i][2]))

    terms: dict[ModuleTerm, Rational] = {}
    head = None
    i = 0
    while True:
        sign = -1 if tokens[i][0] == "-" else 1
        if tokens[i][0] in ("+", "-"):
            i += 1
        is_head = tokens[i][0] == "["
        if is_head:
            if not allow_head:
                fail("bracketed heads are only allowed in marked sets")
            i += 1
        coeff: Rational = 1
        exp = [0] * layout.nvars
        comp = None
        factors = 0
        while True:
            kind, value, _ = tokens[i]
            if kind == "*":
                i += 1
                continue
            if kind == "num":
                num, _, den = value.partition("/")
                if den and not int(den):
                    fail(f"zero denominator in {value!r}")
                coeff *= Fraction(int(num), int(den)) if den else int(num)
            elif kind == "var":
                idx = int(value[1:])
                if idx >= layout.nvars:
                    fail(f"unknown variable {value}", UnknownVariable)
                if tokens[i + 1][0] == "^":
                    i += 2
                    if tokens[i][0] != "num" or "/" in tokens[i][1]:
                        fail("'^' needs an integer exponent")
                    exp[idx] += int(tokens[i][1])
                else:
                    exp[idx] += 1
            elif kind == "comp":
                k = int(value[1:])
                if not 1 <= k <= layout.rank:
                    fail(f"component e{k} outside 1..{layout.rank}", ComponentOutOfRange)
                if comp is not None:
                    fail("more than one component marker in a term")
                comp = k
            else:
                break
            factors += 1
            i += 1
        if not factors:
            fail("expected a term")
        term = ModuleTerm(tuple(exp), comp or 1)
        if is_head:
            if tokens[i][0] != "]":
                fail("unterminated '[' head")
            i += 1
            if head is not None:
                fail("more than one bracketed head")
            head = term
        terms[term] = terms.get(term, 0) + sign * coeff
        if not terms[term]:
            del terms[term]
        if tokens[i][0] == "end":
            try:
                return ModuleElement(layout, terms), head
            except HeterogeneousElement as exc:
                raise PolySyntaxError(str(exc), *where(1)) from None
        if tokens[i][0] not in ("+", "-"):
            fail(f"expected '+' or '-', found {tokens[i][1]!r}")


def parse_polynomial(text: str, layout: FreeModuleLayout, line: int = 1) -> ModuleElement:
    """Parse a homogeneous element; "0" gives the zero element."""
    return _parse_terms(text, layout, lambda col: (line, col), False)[0]


# ---------- printing ----------


def format_module_term(t: ModuleTerm, rank: int) -> str:
    return _module_term(format_exponent(t.exp), t.comp, rank)


def _module_term(base: str, comp: int, rank: int) -> str:
    """A module term from the text of its exponent."""
    if rank == 1:
        return base
    marker = f"e{comp}"
    return marker if base == "1" else f"{base}*{marker}"


def _param_term(m, mag: Rational, names) -> str:
    """One term of a parameter polynomial: magnitude times the monomial m,
    given as sorted (index, power) pairs; default names are C0, C1, ..."""
    factors = []
    for i, power in m:
        name = names[i] if names else f"C{i}"
        factors.append(name if power == 1 else f"{name}^{power}")
    if not factors:
        return str(mag)
    if mag == 1:
        return "*".join(factors)
    return "*".join([str(mag)] + factors)


def format_param_poly(p: ParamPoly, names) -> str:
    return _join_pieces([
        ("-" if c < 0 else "+", _param_term(m, abs(c), names)) for m, c in p.sorted_terms()
    ])


def _coeff_pieces(c: Coeff, term_str: str, names) -> tuple[str, str]:
    """(sign, body) for one printed summand."""
    if isinstance(c, ParamPoly):
        if c.is_constant():
            c = c.constant_value()
        elif len(c) == 1:
            [(m, v)] = c.sorted_terms()
            inner = _param_term(m, abs(v), names)
            body = inner if term_str == "1" else f"{inner}*{term_str}"
            return ("-" if v < 0 else "+"), body
        else:
            inner = format_param_poly(c, names)
            body = f"({inner})" if term_str == "1" else f"({inner})*{term_str}"
            return "+", body
    sign = "-" if c < 0 else "+"
    mag = abs(c)
    if term_str == "1":
        return sign, str(mag)
    if mag == 1:
        return sign, term_str
    return sign, f"{mag}*{term_str}"


def _join_pieces(pieces: list[tuple[str, str]], out: str = "") -> str:
    """Summands given as (sign, body), joined after `out`; "0" when the
    result would be empty."""
    for sign, body in pieces:
        out += f" {sign} {body}" if out else ("-" + body if sign == "-" else body)
    return out or "0"


def _column_text(
    col: Column, rank: int, head: ModuleTerm | None = None, names=None, base=format_exponent
) -> str:
    """The element stored as the column `col` ({component - 1: polynomial}),
    printed component ascending, then exponents ascending; "0" when empty.
    With `head`, the marked form: ``[head]`` first, then the other
    summands.  `base(exponent)` gives the text of each monomial."""
    skip = None if head is None else (head.comp - 1, head.exp)
    pieces = [
        _coeff_pieces(col[r][e], _module_term(base(e), r + 1, rank), names)
        for r, e in sorted([(r, e) for r, p in col.items() for e in p])
        if (r, e) != skip
    ]
    if head is None:
        return _join_pieces(pieces)
    return _join_pieces(pieces, f"[{_module_term(base(head.exp), head.comp, rank)}]")


def format_element(elem: ModuleElement) -> str:
    return _column_text(_column(elem), elem.layout.rank)


def format_marked_element(body: ModuleElement, head: ModuleTerm, names=None) -> str:
    return _column_text(_column(body), body.layout.rank, head, names)


def format_poly(p: Poly) -> str:
    """Scalar polynomial (differential entry) in the same grammar, printed
    as the rank-one element it is."""
    return _column_text({0: p}, 1)


# ---------- input documents ----------


@dataclass
class RawMarkedSet:
    elements: list[tuple[ModuleElement, ModuleTerm]]


@dataclass
class InputDocument:
    layout: FreeModuleLayout
    ideals: dict[str, MonomialModule] = field(default_factory=dict)
    marked: dict[str, RawMarkedSet] = field(default_factory=dict)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _logical_lines(text: str):
    """Yield (first line number, text, pieces) per logical line; pieces
    holds (offset in the text, line number, indent) per physical line."""
    current: list[str] = []
    pieces: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if not (line[0] in " \t" and current):
            if current:
                yield pieces[0][1], " ".join(current), pieces
            current, pieces = [], []
        pieces.append((sum(len(c) + 1 for c in current), lineno, len(line) - len(line.lstrip())))
        current.append(line.strip())
    if current:
        yield pieces[0][1], " ".join(current), pieces


def _chunk_where(pieces, offset: int):
    """Map a column of a chunk that starts at `offset` in its logical line
    to the physical (line, column) it came from."""

    def where(col: int) -> tuple[int, int]:
        at = offset + col - 1
        start, lineno, indent = next(p for p in reversed(pieces) if p[0] <= at)
        return lineno, indent + at - start + 1

    return where


def _chunks(line: str):
    """The comma-separated pieces after the first '=', stripped, each with
    its offset in the line."""
    pos = line.index("=") + 1
    for raw in line[pos:].split(","):
        yield raw.strip(), pos + len(raw) - len(raw.lstrip())
        pos += len(raw) + 1


def parse_document(text: str) -> InputDocument:
    layout = None
    doc_ideals: dict[str, MonomialModule] = {}
    doc_marked: dict[str, RawMarkedSet] = {}
    for lineno, line, pieces in _logical_lines(text):
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "ring":
            if layout is not None:
                raise InputFormatError(f"line {lineno}: duplicate ring declaration")
            if not rest.isdigit() or int(rest) < 1:
                raise InputFormatError(
                    f"line {lineno}: expected 'ring <number of variables>'"
                )
            layout = FreeModuleLayout(int(rest) - 1, (0,))
        elif keyword == "module":
            if layout is None:
                raise InputFormatError(f"line {lineno}: 'module' after 'ring'")
            if doc_ideals or doc_marked:
                raise InputFormatError(
                    f"line {lineno}: 'module' must precede object definitions"
                )
            parts = rest.split()
            try:
                m = int(parts[0])
                ws = tuple(int(x) for x in parts[1:])
            except (ValueError, IndexError):
                raise InputFormatError(
                    f"line {lineno}: expected 'module <rank> <weights...>'"
                ) from None
            if m < 1 or len(ws) != m:
                raise InputFormatError(f"line {lineno}: need exactly {m} weights")
            layout = FreeModuleLayout(layout.n, ws)
        elif keyword in ("ideal", "marked"):
            if layout is None:
                raise InputFormatError(f"line {lineno}: 'ring <nvars>' must come first")
            name, eq, _ = rest.partition("=")
            name = name.strip()
            if not eq or not _NAME_RE.match(name):
                raise InputFormatError(
                    f"line {lineno}: expected '{keyword} <name> = ...'"
                )
            if name in doc_ideals or name in doc_marked:
                raise InputFormatError(f"line {lineno}: duplicate name {name!r}")
            marked = keyword == "marked"
            items = []
            for chunk, offset in _chunks(line):
                elem, head = _parse_terms(chunk, layout, _chunk_where(pieces, offset), marked)
                if marked:
                    if head is None:
                        raise InputFormatError(
                            f"line {lineno}: every marked element needs a [head]"
                        )
                    items.append((elem, head))
                    continue
                if len(elem.terms) != 1:
                    raise InputFormatError(
                        f"line {lineno}: ideal generators must be single terms"
                    )
                [(t, c)] = elem.terms.items()
                if c != 1:
                    raise InputFormatError(f"line {lineno}: ideal generators must be monic")
                items.append(t)
            if marked:
                doc_marked[name] = RawMarkedSet(items)
            else:
                doc_ideals[name] = MonomialModule(layout, items)
        else:
            raise InputFormatError(f"line {lineno}: unknown directive {keyword!r}")

    if layout is None:
        raise InputFormatError("document declares no ring")
    return InputDocument(layout, doc_ideals, doc_marked)


# ---------- resolution serialization ----------


def resolution_to_dict(res: FreeResolution) -> dict:
    table = res.rank_table()
    # Texts of this call: entry items -> entry, exponent -> monomial.
    texts: dict[tuple, str] = {}
    base = functools.cache(format_exponent)
    levels = []
    for i, degs in enumerate(res.degrees):
        columns = res.matrices[i - 1] if i else res.bodies
        rank = len(res.degrees[i - 1]) if i else res.layout.rank
        entry: dict = {
            "ranks": {str(j): c for j, c in table[i].items()},
            "degrees": list(degs),
        }
        generators = None if res.heads is None else [
            _column_text(col, rank, head, base=base)
            for col, head in zip(columns, res.heads[i])
        ]
        if i == 0:
            images = [_column_text(col, rank, base=base) for col in columns]
            entry["generators"] = images if generators is None else generators
            entry["differential"] = [images]
        else:
            entry["generators"] = generators or []
            grid = [["0"] * len(degs) for _ in res.degrees[i - 1]]
            for c, column in enumerate(columns):
                for r, p in column.items():
                    key = tuple(p.items())
                    text = texts.get(key)
                    if text is None:
                        text = texts[key] = format_poly(p)
                    grid[r][c] = text
            entry["differential"] = grid
        levels.append(entry)
    return {
        "length": res.length,
        "ring": {"variables": res.layout.nvars, "weights": list(res.layout.weights)},
        "levels": levels,
    }


def dumps_indented(obj) -> str:
    """Exactly the text of ``json.dumps(obj, indent=2)``, written in one pass.

    With `indent` set, `json.dumps` runs CPython's pure-Python encoder, one
    generator step per item.  This writer gives the same text (ASCII
    escapes, ``",\n"`` between items, ``": "`` after keys, ``[]`` and
    ``{}`` for empty containers) as pieces of one list, and writes a list of
    strings, such as a row of a differential, with a single join, encoding
    the row once to see whether any item needs an escape.  It takes
    only what the CLI emits, dicts with str keys, lists, str, int, bool and
    None, and raises `TypeError` on anything else.
    """
    out: list[str] = []
    _write_json(obj, "\n", out, {})
    return "".join(out)


def _write_json(obj, newline: str, out: list[str], lists: dict) -> None:
    """Append the pieces of `obj` to `out`; `newline` is the line break plus
    the indentation of the line `obj` starts on.  `lists` maps the id of each
    list written item by item so far (a grid, say) to its slice of `out` and
    its `newline`.  A list met again at that depth or deeper is not walked
    again: that text is joined and indented further, exactly, since every
    newline in it is structural (JSON escapes those in strings)."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        if isinstance(obj[0], str):
            try:
                joined = ",".join(obj)
            except TypeError:  # not every item is a string
                pass
            else:
                # Every escape lengthens the text and "," needs none, so the
                # row needs no escape exactly when only the quotes are added.
                if len(encode_basestring_ascii(joined)) == len(joined) + 2:
                    items = '"' + ('",' + inner + '"').join(obj) + '"'
                else:
                    items = ("," + inner).join(map(encode_basestring_ascii, obj))
                out.append("[" + inner + items + newline + "]")
                return
        seen = lists.get(id(obj))
        if seen is not None and newline.startswith(seen[2]):
            start, end, first = seen
            out.append("".join(out[start:end]).replace("\n", "\n" + newline[len(first):]))
            return
        start = len(out)
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, inner, out, lists)
            sep = "," + inner
        out.append(newline + "]")
        lists[id(obj)] = (start, len(out), newline)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value, inner, out, lists)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as JSON")
