"""Command-line frontend.

Every subcommand reads an input document (see `textio`), works on a named
object (``--ideal``/``--marked``; the unique one when unnamed), and prints
a plain-text report or, with ``--json``, a stable JSON document.  ``--output
FILE`` additionally persists whatever was printed.

Exit codes: 0 on success, 1 for a negative mathematical answer (the
certificate goes to standard output), 2 for input errors, 3 for a failed
self-check of the kernel (`ring.InternalError`: a bug, not an answer about
the input), with its message on standard output and no traceback.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction

from .family import family_equations, generic_marked_set, specialized_set, tail_parameters
from .marked import (
    HeadMismatch,
    MarkedElement,
    MarkedSet,
    is_marked_basis,
    reduce_full,
)
from .monom import (
    MonomialModule,
    PommaretBasis,
    TooLarge,
    basis_invariants,
    certified_basis,
    complement_rank,
    hilbert_function,
    pommaret_completion,
    stability_class,
    truncate_basis,
)
from .ring import (
    InternalError,
    MarkedBasesError,
    MissingParameter,
    Rational,
    rational,
)
from .syzygy import free_resolution, invariant_bounds, minimize_resolution
from .textio import (
    InputFormatError,
    PolySyntaxError,
    dumps_indented,
    format_element,
    format_exponent,
    format_marked_element,
    format_module_term,
    format_param_poly,
    parse_document,
    parse_polynomial,
    resolution_to_dict,
)

INPUT_ERRORS = (
    PolySyntaxError,
    InputFormatError,
    MissingParameter,
    TooLarge,
)


@functools.cache  # one parser per process, shared by every `main` call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbases",
        description="Marked bases over quasi-stable monomial modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **extra):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input document")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--output", metavar="FILE", help="also write the report here")
        p.add_argument("--ideal", metavar="NAME", help="which ideal to use")
        p.add_argument("--marked", metavar="NAME", help="which marked set to use")
        return p

    add("pommaret", "Pommaret completion and invariant readout")
    add("classify", "stability classification")
    p = add("truncate", "Pommaret basis of the degree->=m truncation")
    p.add_argument("--degree", type=int, required=True)
    p = add("hilbert", "Hilbert function of the monomial module")
    p.add_argument("--degree", type=int, required=True)
    p = add("check", "marked-basis test")
    p.add_argument("--up-to-degree", type=int, dest="up_to_degree")
    p = add("reduce", "full reduction of a target element")
    p.add_argument("--target", required=True)
    p = add("resolve", "syzygy free resolution")
    p.add_argument("--minimize", action="store_true")
    add("bounds", "Betti/regularity/projective-dimension bounds")
    add("family", "equations of the marked family")
    p = add("specialize", "specialize the generic marked set")
    p.add_argument("--set", dest="assignment", required=True,
                   metavar="C_{0,0}=1,...")
    return parser


def _pick(table: dict, requested, kind: str):
    if requested is not None:
        if requested not in table:
            raise InputFormatError(f"no {kind} named {requested!r} in the document")
        return table[requested]
    if len(table) == 1:
        return next(iter(table.values()))
    if not table:
        raise InputFormatError(f"the document defines no {kind}")
    raise InputFormatError(
        f"several {kind}s defined ({', '.join(table)}); pick one with --{kind}"
    )


def _ideal(doc, args) -> MonomialModule:
    return _pick(doc.ideals, args.ideal, "ideal")


def _marked_set(doc, args) -> MarkedSet:
    raw = _pick(doc.marked, args.marked, "marked")
    heads = [head for _, head in raw.elements]
    if len(set(heads)) != len(heads):
        raise HeadMismatch("duplicate heads in the marked set")
    basis = certified_basis(heads, doc.layout)
    if basis is None:
        raise HeadMismatch(
            "the heads do not form a Pommaret basis (disjoint cones fail)"
        )
    return MarkedSet(basis, [MarkedElement(body, head) for body, head in raw.elements])


def _basis(doc, args) -> PommaretBasis:
    """Pommaret basis for basis-level commands: marked set's heads if a
    marked set is selected or is the only object, else ideal completion."""
    if args.marked is not None or (not doc.ideals and doc.marked):
        return _marked_set(doc, args).basis
    return pommaret_completion(_ideal(doc, args))


def _term_strings(basis: PommaretBasis):
    return [format_module_term(t, basis.layout.rank) for t in basis.sorted_terms()]


def _ranks_json(table: dict[int, dict[int, int]]):
    return {str(i): {str(j): c for j, c in row.items()} for i, row in table.items()}


def _chain_text(res) -> str:
    def module_text(counts):
        return " (+) ".join(
            f"S(-{j})" + (f"^{c}" if c > 1 else "") for j, c in sorted(counts.items())
        ) or "0"

    table = res.rank_table()
    pieces = [module_text(table[i]) for i in range(res.length, -1, -1)]
    return "0 -> " + " -> ".join(pieces) + " -> M -> 0"


def _invariants_json(inv):
    return {
        "regularity": inv.regularity,
        "satiety": inv.satiety,
        "projective_dimension": inv.projective_dimension,
        "D": inv.D,
        "saturated": inv.saturated,
    }


def cmd_pommaret(doc, args):
    basis = pommaret_completion(_ideal(doc, args))
    inv = basis_invariants(basis)
    terms = _term_strings(basis)
    text = [f"Pommaret basis ({len(terms)} terms): " + ", ".join(terms)]
    text.append(
        f"regularity {inv.regularity}, satiety {inv.satiety}, "
        f"projective dimension {inv.projective_dimension} (D = {inv.D})"
        + (", saturated" if inv.saturated else "")
    )
    return 0, "\n".join(text), {"basis": terms, "invariants": _invariants_json(inv)}


def cmd_classify(doc, args):
    """Classify by `monom.stability_class`; a module that is not
    quasi-stable is refused with the witness of the refusal."""
    module = _ideal(doc, args)
    cls, refusal = stability_class(module)
    if refusal is None:
        return 0, cls.value, {"class": cls.value}
    generator = format_module_term(refusal.witness, module.layout.rank)
    text = (
        f"{cls.value}\n"
        f"witness: generator {generator} "
        f"with non-multiplicative variable x{refusal.variable}"
    )
    payload = {
        "class": cls.value,
        "witness": {"generator": generator, "variable": f"x{refusal.variable}"},
    }
    return 1, text, payload


def cmd_truncate(doc, args):
    basis = pommaret_completion(_ideal(doc, args))
    truncated = truncate_basis(basis, args.degree)
    terms = _term_strings(truncated)
    text = f"P(J_>={args.degree}) ({len(terms)} terms): " + ", ".join(terms)
    return 0, text, {"degree": args.degree, "basis": terms}


def cmd_hilbert(doc, args):
    basis = _basis(doc, args)
    h = hilbert_function(basis, args.degree)
    c = complement_rank(basis, args.degree)
    text = f"h_U({args.degree}) = {h}; complement rank = {c}"
    return 0, text, {"degree": args.degree, "module_rank": h, "complement_rank": c}


def _certificate(marked, cert) -> tuple[str, dict]:
    """The failed prolongation of a basis test, as a report line and as a
    JSON payload."""
    head, var, remainder = cert
    head_text = format_module_term(head, marked.layout.rank)
    remainder_text = format_element(remainder)
    line = f"certificate: x{var} * element[{head_text}] reduces to {remainder_text}"
    payload = {"head": head_text, "variable": f"x{var}", "remainder": remainder_text}
    return line, payload


def cmd_check(doc, args):
    marked = _marked_set(doc, args)
    result = is_marked_basis(marked, up_to_degree=args.up_to_degree)
    reg = marked.basis.max_degree()
    if not result.is_basis:
        line, cert = _certificate(marked, result.certificate)
        return 1, "marked basis: no\n" + line, {"marked_basis": False, "certificate": cert}
    if result.inconclusive_beyond is not None:
        text = (
            f"marked basis: undetermined (no failure up to degree "
            f"{result.inconclusive_beyond}; conclusive bound is {reg + 1})"
        )
        payload = {
            "marked_basis": None,
            "inconclusive_beyond": result.inconclusive_beyond,
            "conclusive_bound": reg + 1,
        }
        return 0, text, payload
    return 0, "marked basis: yes", {"marked_basis": True}


def cmd_reduce(doc, args):
    marked = _marked_set(doc, args)
    target = parse_polynomial(args.target, doc.layout)
    rep = reduce_full(target, marked)
    lines = []
    summands_json = []
    for coeff, mult, head in rep.summands:
        piece = {
            "coefficient": str(coeff),
            "multiplier": format_exponent(mult),
            "head": format_module_term(head, marked.layout.rank),
        }
        summands_json.append(piece)
        lines.append(
            f"  {piece['coefficient']} * {piece['multiplier']} * "
            f"[{piece['head']}]"
        )
    text = "summands:\n" + ("\n".join(lines) if lines else "  (none)")
    text += f"\nremainder: {format_element(rep.remainder)}"
    payload = {
        "summands": summands_json,
        "remainder": format_element(rep.remainder),
    }
    return 0, text, payload


def cmd_resolve(doc, args):
    marked = _marked_set(doc, args)
    result = is_marked_basis(marked)
    if not result.is_basis:
        line, cert = _certificate(marked, result.certificate)
        text = "marked basis: no (cannot resolve)\n" + line
        return 1, text, {"marked_basis": False, "certificate": cert}
    res = free_resolution(marked)
    payload = {
        "ranks": _ranks_json(res.rank_table()),
        "resolution": resolution_to_dict(res),
    }
    text = [f"length {res.length}", _chain_text(res)]
    if args.minimize:
        minimal = minimize_resolution(res)
        payload["minimal"] = {
            "ranks": _ranks_json(minimal.rank_table()),
            "resolution": resolution_to_dict(minimal),
        }
        text.append("minimal: " + _chain_text(minimal))
    return 0, "\n".join(text), payload


def cmd_bounds(doc, args):
    basis = _basis(doc, args)
    report = invariant_bounds(basis)
    table: dict[int, dict[int, int]] = {}
    for (i, j), r in sorted(report.betti_bound_table.items()):
        table.setdefault(i, {})[j] = r
    lines = [
        f"betti bounds r[{i},{j}] = {r}"
        for (i, j), r in sorted(report.betti_bound_table.items())
    ]
    lines.append(f"regularity bound {report.regularity_bound}")
    lines.append(f"projective dimension bound {report.pdim_bound}")
    payload = {
        "betti_bounds": _ranks_json(table),
        "regularity_bound": report.regularity_bound,
        "pdim_bound": report.pdim_bound,
    }
    return 0, "\n".join(lines), payload


def cmd_family(doc, args):
    basis = _basis(doc, args)
    generic = generic_marked_set(basis)
    fam = family_equations(generic)
    eq_strings = [format_param_poly(g, fam.param_names) for g in fam.generators]
    lines = [f"parameters ({generic.nparams}): " + ", ".join(generic.param_names)]
    lines.append("generic elements:")
    for el in generic.marked.ordered():
        lines.append("  " + format_marked_element(el.body, el.head, generic.param_names))
    if eq_strings:
        lines.append(f"equations ({len(eq_strings)}):")
        lines.extend(f"  {s}" for s in eq_strings)
    else:
        lines.append("equations: none (the family is the whole affine space)")
    payload = {
        "parameters": list(generic.param_names),
        "equations": eq_strings,
    }
    return 0, "\n".join(lines), payload


# A comma with no '}' before the next '{': one outside a name's braces.
_PIECE_COMMA = re.compile(r",(?![^{}]*\})")


def _parse_assignment(raw: str) -> dict[str, Rational]:
    """``name=value`` pieces, split at the commas outside braces (a name
    C_{h,t} holds one); each value becomes a rational once, an integer
    literal straight an int.  A name given twice is refused."""
    pieces = _PIECE_COMMA.split(raw)
    if not pieces[-1].strip():
        pieces.pop()
    out: dict[str, Rational] = {}
    for item in pieces:
        name, eq, value = item.partition("=")
        name, value = name.strip(), value.strip()
        if not eq or not name or not value:
            raise InputFormatError(f"bad assignment {item!r}; expected name=value")
        if name in out:
            raise InputFormatError(f"parameter {name!r} is assigned twice")
        try:
            out[name] = int(value)
        except ValueError:
            try:
                out[name] = rational(Fraction(value))
            except (ValueError, ZeroDivisionError):
                raise InputFormatError(f"bad rational value {value!r}") from None
    return out


def cmd_specialize(doc, args):
    """Build the set at the point straight from the heads (`specialized_set`;
    no generic set, no family equations) and run the basis test on it.

    Marked reduction is forced: each step's target depends only on the heads
    and the coefficients enter linearly, so reducing commutes with
    specializing.  The family equations at the point are therefore the
    remainder coefficients of the specialized set's prolongations, and they
    all vanish exactly when the basis test says yes; the test suite checks
    that verdict against the family equations evaluated at the point.
    """
    basis = _basis(doc, args)
    try:
        assignment = _parse_assignment(args.assignment)
        marked, _ = specialized_set(basis, *tail_parameters(basis), assignment)
    except KeyError as exc:
        raise InputFormatError(exc.args[0]) from None
    result = is_marked_basis(marked)
    vanishes = result.is_basis
    elements = [format_marked_element(el.body, el.head) for el in marked.ordered()]
    lines = ["specialized elements:", *("  " + text for text in elements)]
    lines.append(f"family equations vanish: {'yes' if vanishes else 'no'}")
    payload = {"elements": elements, "family_vanishes": vanishes, "marked_basis": vanishes}
    if result.is_basis:
        lines.append("marked basis: yes")
        return 0, "\n".join(lines), payload
    line, payload["certificate"] = _certificate(marked, result.certificate)
    lines += ["marked basis: no", line]
    return 1, "\n".join(lines), payload


HANDLERS = {
    "pommaret": cmd_pommaret,
    "classify": cmd_classify,
    "truncate": cmd_truncate,
    "hilbert": cmd_hilbert,
    "check": cmd_check,
    "reduce": cmd_reduce,
    "resolve": cmd_resolve,
    "bounds": cmd_bounds,
    "family": cmd_family,
    "specialize": cmd_specialize,
}


def _emit(args, code: int, text: str, payload: dict) -> int:
    """Print the report and write it to ``--output``, opened first: a path
    that cannot be written is an input error (exit 2) and no report."""
    if args.json:
        payload = {"ok": code == 0, **payload}
        rendered = dumps_indented(payload)
    else:
        rendered = text
    try:
        out = open(args.output, "w", encoding="utf-8") if args.output else None
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        print(rendered, flush=True)
    except BrokenPipeError:
        # The reader closed the pipe.  As the Python docs advise for
        # SIGPIPE, stdout goes to devnull, so the flush at exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if out is not None:
        with out:
            out.write(rendered + "\n")
    return code


def _decoded(data: bytes) -> str:
    """`data` as UTF-8 text; the first byte that is not UTF-8 is refused at
    its line and column, which the valid text before it gives."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = (data[: exc.start].decode("utf-8") + "?").splitlines()  # "?" for the byte
        raise InputFormatError(f"line {len(lines)}, column {len(lines[-1])}: byte "
                               f"0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.file, "rb") as fh:
            doc = parse_document(_decoded(fh.read()))
        code, text, payload = HANDLERS[args.command](doc, args)
    except (*INPUT_ERRORS, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        return _emit(args, 3, str(exc), {"error": str(exc)})
    except MarkedBasesError as exc:
        # Negative mathematical verdicts about a well-formed input, such as
        # heads that do not match the basis or a set that is not a basis.
        return _emit(args, 1, str(exc), {"error": str(exc)})
    return _emit(args, code, text, payload)


if __name__ == "__main__":
    sys.exit(main())
