import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from marked_bases import (
    FreeModuleLayout,
    MarkedBasesError,
    ModuleElement,
    ParamPoly,
    free_resolution,
    minimize_resolution,
    parse_document,
    parse_polynomial,
)
from marked_bases import cli as cli_module
from marked_bases import family as family_module
from marked_bases import monom as monom_module
from marked_bases import syzygy as syzygy_module
from marked_bases import textio as textio_module
from marked_bases.cli import main
from marked_bases.marked import BasisCheck
from marked_bases.textio import (
    PolySyntaxError,
    UnknownVariable,
    dumps_indented,
    format_element,
    format_marked_element,
    format_poly,
    resolution_to_dict,
)
from marked_bases.randgen import random_marked_basis
from conftest import (
    E, LAY3, NON_GROEBNER_DOC, T, TWISTED_DOC, TWISTED_MINIMAL_DOC, c4_basis, survey_bases,
)
from oracles import param_poly, parse_resolution
from samplers import random_homogeneous_element


SRC = str(Path(__file__).resolve().parent.parent / "src")


def serialized(res) -> str:
    """The JSON text of a resolution: its `resolution_to_dict`, written by
    `dumps_indented` as every JSON document of the CLI is."""
    return dumps_indented(resolution_to_dict(res))


def parse_marked(text: str):
    """The one element of a marked set written on a document line, as
    (body, head)."""
    doc = parse_document(f"ring {LAY3.nvars}\nmarked G = {text}\n")
    [element] = doc.marked["G"].elements
    return element


@pytest.fixture
def twisted_file(tmp_path):
    path = tmp_path / "twisted.mb"
    path.write_text(TWISTED_DOC)
    return str(path)


@pytest.fixture
def non_groebner_file(tmp_path):
    path = tmp_path / "plane.mb"
    path.write_text(NON_GROEBNER_DOC)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


LAY_E2 = FreeModuleLayout(2, (0, 0))  # x0, x1, x2 in components e1, e2
HEAD_AT_END = "an unterminated head at the end of a chunk reports its last token"
READER_MESSAGES = [
    ("x1 + y", "line 4, column 6: unexpected character 'y'"),
    ("x1 ]", "line 4, column 4: expected '+' or '-', found ']'"),
    ("[x1]", "line 4, column 1: bracketed heads are only allowed in marked sets"),
    ("3/0*x1", "line 4, column 1: zero denominator in '3/0'"),
    ("x1*x9", "line 4, column 4: unknown variable x9"),
    ("x1^x2", "line 4, column 4: '^' needs an integer exponent"),
    ("x1^1/2", "line 4, column 4: '^' needs an integer exponent"),
    ("x1^", "line 4, column 3: '^' needs an integer exponent"),
    ("e3*x1", "line 4, column 1: component e3 outside 1..2"),
    ("x1*e1*e2", "line 4, column 7: more than one component marker in a term"),
    ("x1 + + x0", "line 4, column 6: expected a term"),
    ("x1 +", "line 4, column 4: expected a term"),
    ("", "line 4, column 1: expected a term"),
    ("ring 3\nideal J = x2,\n   x1 ?", "line 3, column 7: unexpected character '?'"),
    ("ring 3\nmarked G = [x2] x1", "line 2, column 17: expected '+' or '-', found 'x1'"),
    ("ring 3\nmarked G = [x2],\n [x1]\n  x0",
     "line 4, column 3: expected '+' or '-', found 'x0'"),
    ("ring 3\nmarked G = [x1] + [x0] + x2", "line 2, column 24: more than one bracketed head"),
    ("ring 3\nmarked G = [x1] + [x0]", "line 2, column 22: more than one bracketed head"),
    ("ring 3\nideal J = x2, [x1]",
     "line 2, column 15: bracketed heads are only allowed in marked sets"),
    ("ring 3\nmarked G = [x2], [x1] + 2/0*x0", "line 2, column 25: zero denominator in '2/0'"),
    ("ring 3\nideal J = x2, x1 x5", "line 2, column 18: unknown variable x5"),
    ("ring 3\nmarked G = [x2^3],\n   [x1 x0] +\n  x2 ^",
     "line 4, column 6: '^' needs an integer exponent"),
    ("ring 3\nmodule 2 0 0\nmarked G = [x2*e1], [x1*e3]",
     "line 3, column 25: component e3 outside 1..2"),
    ("ring 3\nmodule 2 0 0\nmarked G = [x2*e1],\n  [x1*e2*e1]",
     "line 4, column 10: more than one component marker in a term"),
    ("ring 3\nideal J = x2,\n   x1 +", "line 3, column 7: expected a term"),
    ("ring 3\nideal J = x2,", "line 2, column 14: expected a term"),
    ("ring 3\nmarked G = [x1 + x0]", "line 2, column 16: unterminated '[' head"),
    pytest.param("ring 3\nmarked G = [x2^3", "line 2, column 16: unterminated '[' head",
                 id=HEAD_AT_END),
    pytest.param("ring 3\nmarked G = [x2^3],\n   [x1", "line 3, column 5: unterminated '[' head",
                 id=HEAD_AT_END + " on a continuation line"),
    # An element of two degrees is reported at the first column of its text.
    ("x1 + x0^2", "line 4, column 1: degrees 1 and 2 in one element"),
    ("x2*e1 - x1^3*e2", "line 4, column 1: degrees 1 and 3 in one element"),
    ("ring 3\nmarked G = [x2], [x1] + x0^2", "line 2, column 18: degrees 1 and 2 in one element"),
    ("ring 3\nideal J = x2,\n   x1 + x0^2", "line 3, column 4: degrees 1 and 2 in one element"),
]
# The fuzz test's alphabet: every kind of token, joined with no separator,
# so that neighbours also merge ("x1" "2" is x12); "\n  " starts a
# continuation line.
GRAMMAR_TOKENS = [
    "x0", "x1", "x2", "x3", "e1", "e2", "e3", "0", "1", "2", "1/2", "3/0",
    "^", "*", "+", "-", "[", "]", ",", " ", "\n  ", "y", "/",
]


# `specialize --set` on SET_DOC, whose nine parameters are C_{h,t} with h, t
# in 0..2: each row is (argument, exit code, standard error when the code is
# 2, else the SHA-256 of standard output).  Rows spelling the same point
# share a digest.
SET_DOC = "ring 3\nideal J = x2^2, x2*x1, x1^2\n"
SET_ZERO = "96f0355d4e59523302f28e5165ed5bd85ecf0c3a40078984b6556f3b37927056"
SET_C11_IS_7 = "2777402a17591a6b3d22b605bb4a73a85e1a01770dcca10972787070e0a4960b"
SET_C00_IS = {
    "3": "fcae3a5644d2dc27af1f8ced6c29797eb19af054e0b0babd0a6992ad0345ec7c",
    "2": "d084ec5b6b53dd2f7898e031a13fc8f996b9104c0e053d6a864dc37ba9ca8040",
    "1/2": "7afa0049be86c136be4d3c7b6e13131b27c0973b8ba567bde035d2ae1f3448c9",
    "3/2": "fd47a9c0b7836d420a8e6edcdb779eeeb94a8df9f328e924dbae49935997b35f",
    "100": "455eedcd1335052997c6997eaadf281dd1a54cfc4d5c2cb69b5fc3a0d0dad768",
}


def _set_point(**values) -> str:
    """A --set argument for SET_DOC: C{h}{t}=v sets C_{h,t}, the rest are 0."""
    return ",".join(
        f"C_{{{h},{t}}}={values.get(f'C{h}{t}', 0)}" for h in range(3) for t in range(3)
    )


SET_TABLE = [
    pytest.param("x=1", 2, "input error: unknown parameter 'x'\n", id="unknown x"),
    *(
        pytest.param(_set_point() + f",{name}=1", 2,
                     f"input error: unknown parameter {name!r}\n", id=f"unknown {name}")
        for name in ("C_{9,9}", "C_{01,0}", "C_{0, 0}")
    ),
    pytest.param("C_{0,0}=1,C_{9,9}=2", 2, "input error: unknown parameter 'C_{9,9}'\n",
                 id="unknown before missing"),
    pytest.param("C_{0,0}=x", 2, "input error: bad rational value 'x'\n", id="value x"),
    pytest.param("C_{0,0}=1/0", 2, "input error: bad rational value '1/0'\n", id="value 1/0"),
    pytest.param("C_{0,0}=", 2, "input error: bad assignment 'C_{0,0}='; expected name=value\n",
                 id="empty value"),
    pytest.param("C_{0,0}", 2, "input error: bad assignment 'C_{0,0}'; expected name=value\n",
                 id="no ="),
    pytest.param("C_{2,2}=0,C_{1,0}=0", 2,
                 "input error: unassigned parameters: "
                 "C_{0,0}, C_{0,1}, C_{0,2}, C_{1,1}, C_{1,2}, C_{2,0}, C_{2,1}\n",
                 id="missing, in index order"),
    pytest.param(_set_point(), 0, SET_ZERO, id="zero"),
    pytest.param("C_{1,1}=7," + _set_point(), 2,
                 "input error: parameter 'C_{1,1}' is assigned twice\n", id="repeated, last 0"),
    pytest.param(_set_point() + ",C_{1,1}=7", 2,
                 "input error: parameter 'C_{1,1}' is assigned twice\n", id="repeated, last 7"),
    pytest.param(_set_point(C11=7), 1, SET_C11_IS_7, id="C_{1,1}=7"),
    *(
        pytest.param(_set_point(C00=spelling), 0,
                     SET_ZERO if point == "0" else SET_C00_IS[point], id=f"spelling {spelling!r}")
        for spelling, point in [
            ("3", "3"), ("+3", "3"), (" 3 ", "3"), ("-0", "0"), ("2", "2"), ("6/3", "2"),
            ("1/2", "1/2"), ("3/2", "3/2"), ("1.5", "3/2"), ("100", "100"), ("1e2", "100"),
        ]
    ),
]


class TestParsing:
    def test_twisted_tail(self):
        body, head = parse_marked("[x1*x0] + x2^2")
        assert head == T((1, 1, 0))
        assert body == E(LAY3, {T((1, 1, 0)): 1, T((0, 0, 2)): 1})

    def test_zero(self):
        assert parse_polynomial("0", LAY3).is_zero()

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable) as err:
            parse_polynomial("x1*x9", LAY3)
        assert err.value.col == 4

    def test_syntax_error_position(self):
        with pytest.raises(PolySyntaxError) as err:
            parse_polynomial("x1 + + x0", LAY3, line=3)
        assert err.value.line == 3

    def test_fraction_coefficients_and_components(self):
        lay = FreeModuleLayout(2, (0, 1))
        e = parse_polynomial("3/2*x2*e2 - x0 * x1 * e1", lay)
        assert e.terms[T((0, 0, 1), 2)] == Fraction(3, 2)
        assert e.terms[T((1, 1, 0), 1)] == Fraction(-1)

    def test_document_objects(self):
        doc = parse_document(TWISTED_DOC)
        assert doc.layout == LAY3
        assert set(doc.ideals) == {"J"}
        assert set(doc.marked) == {"G"}
        assert len(doc.marked["G"].elements) == 5

    def test_document_continuation_lines(self):
        doc = parse_document("ring 3\nideal J = x2^3,\n  x1^2\n")
        assert len(doc.ideals["J"].generators) == 2

    def test_print_parse_round_trip(self):
        rng = random.Random(3)
        lay = FreeModuleLayout(2, (0, 1))
        for _ in range(40):
            e = random_homogeneous_element(rng, lay, rng.randint(1, 5))
            assert parse_polynomial(format_element(e), lay) == e

    def test_marked_round_trip(self, twisted):
        for el in twisted.marked.ordered():
            text = format_marked_element(el.body, el.head)
            body, head = parse_marked(text)
            assert body == el.body and head == el.head

    @pytest.mark.parametrize("text, message", READER_MESSAGES)
    def test_reader_messages(self, text, message):
        """Each message of the polynomial reader, with the line and column it
        reports, read by `parse_polynomial` (on line 4) or, for a text that
        starts with "ring", as a document."""
        with pytest.raises(MarkedBasesError) as err:
            if text.startswith("ring"):
                parse_document(text)
            else:
                parse_polynomial(text, LAY_E2, line=4)
        assert str(err.value) == message


LAY_R2 = FreeModuleLayout(2, (0, 1))
ONE, X1, X2, X0 = (0, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0)


def _param(terms):
    return param_poly(2, terms)


def _rank2_element():
    return ModuleElement(LAY_R2, {T(X0): 1, T(X2): Fraction(2, 3), T(ONE, 2): -1})


# Each printer branch once, with the text the printers gave when each kind
# of element still had a printer of its own.
PRINTED = [
    ("constant-param-on-1", lambda: format_poly({ONE: _param({(0, 0): -3})}), "-3"),
    ("constant-param-on-x1",
     lambda: format_poly({X1: _param({(0, 0): Fraction(5, 2)})}), "5/2*x1"),
    ("sum-param-on-1",
     lambda: format_poly({ONE: _param({(1, 0): 1, (0, 1): -2})}), "(-2*C1 + C0)"),
    ("sum-param-on-x1",
     lambda: format_element(ModuleElement(LAY3, {T(X1): _param({(1, 0): -1, (0, 2): 3})})),
     "(-C0 + 3*C1^2)*x1"),
    ("negative-one-term-param",
     lambda: format_element(
         ModuleElement(LAY3, {T(X2): _param({(1, 1): -2}), T(X1): _param({(0, 1): 1})})),
     "-2*C0*C1*x2 + C1*x1"),
    ("fraction-negative-first",
     lambda: format_element(
         ModuleElement(LAY3, {T((1, 1, 0)): 1, T((0, 0, 2)): Fraction(-3, 2), T((2, 0, 0)): -4})),
     "-3/2*x2^2 + x1*x0 - 4*x0^2"),
    ("rank2-unit-term", lambda: format_element(_rank2_element()), "2/3*x2*e1 + x0*e1 - e2"),
    ("head-not-first",
     lambda: format_marked_element(_rank2_element(), T(X0)), "[x0*e1] + 2/3*x2*e1 - e2"),
    ("marked-param-names",
     lambda: format_marked_element(
         ModuleElement(LAY3, {
             T((0, 0, 2)): 1,
             T((0, 2, 0)): _param({(1, 0): 1, (0, 0): 1}),
             T((1, 1, 0)): _param({(0, 0): -1}),
         }),
         T((0, 0, 2)), ["a", "b"]),
     "[x2^2] + (1 + a)*x1^2 - x1*x0"),
    ("zero-element", lambda: format_element(ModuleElement(LAY_R2, {})), "0"),
    ("zero-entry", lambda: format_poly({}), "0"),
]


@pytest.mark.parametrize("case, text", [(c, t) for _, c, t in PRINTED],
                         ids=[name for name, _, _ in PRINTED])
def test_printed_text(case, text):
    assert case() == text


class TestCheckCommand:
    def test_twisted_yes(self, capsys, twisted_file):
        code, out = run(capsys, "check", twisted_file)
        assert code == 0
        assert "marked basis: yes" in out.out

    def test_non_groebner_yes(self, capsys, non_groebner_file):
        code, out = run(capsys, "check", non_groebner_file)
        assert code == 0

    def test_broken_tail_no(self, capsys, tmp_path):
        doc = TWISTED_DOC.replace("[x1*x0] + x2^2", "[x1*x0] + x0^2")
        path = tmp_path / "broken.mb"
        path.write_text(doc)
        code, out = run(capsys, "check", str(path))
        assert code == 1
        assert "marked basis: no" in out.out
        assert "certificate" in out.out

    def test_up_to_degree_inconclusive(self, capsys, twisted_file):
        code, out = run(capsys, "check", twisted_file, "--up-to-degree", "3")
        assert code == 0
        assert "undetermined" in out.out

    def test_tail_inside_module_is_reported(self, capsys, tmp_path):
        doc = TWISTED_DOC.replace("[x1*x0] + x2^2", "[x1*x0] + x2*x1")
        path = tmp_path / "tail.mb"
        path.write_text(doc)
        code, out = run(capsys, "check", str(path))
        assert code == 1

    def test_heads_must_be_pommaret(self, capsys, tmp_path):
        path = tmp_path / "heads.mb"
        path.write_text("ring 2\nmarked G = [x1*x0]\n")
        code, out = run(capsys, "check", str(path))
        assert code == 1
        assert "Pommaret" in out.out


class TestResolveCommand:
    def test_twisted_json_ranks(self, capsys, twisted_file):
        code, out = run(capsys, "resolve", twisted_file, "--minimize", "--json")
        assert code == 0
        payload = json.loads(out.out)
        assert payload["ranks"] == {
            "0": {"2": 3, "3": 2},
            "1": {"3": 4, "4": 1},
            "2": {"4": 1},
        }
        assert payload["minimal"]["ranks"] == {"0": {"2": 3}, "1": {"3": 2}}

    def test_non_groebner_ranks(self, capsys, non_groebner_file):
        code, out = run(capsys, "resolve", non_groebner_file, "--minimize", "--json")
        payload = json.loads(out.out)
        assert payload["ranks"] == {
            "0": {"2": 1, "3": 5},
            "1": {"3": 1, "4": 6},
            "2": {"5": 2},
        }
        assert payload["minimal"]["ranks"] == {
            "0": {"2": 1, "3": 4},
            "1": {"4": 6},
            "2": {"5": 2},
        }

    def test_round_trip(self, twisted):
        res = free_resolution(twisted.marked)
        for full, minimal in [(res, minimize_resolution(res))] + survey_resolutions():
            assert full == parse_resolution(serialized(full))
            # A minimal resolution carries no marked levels, so its JSON
            # comes back byte for byte as well.
            text = serialized(minimal)
            again = parse_resolution(text)
            assert minimal == again
            assert serialized(again) == text
        assert res != minimize_resolution(res)
        schema = json.loads(serialized(res))
        assert schema["length"] == 2
        assert [lvl["ranks"] for lvl in schema["levels"]] == [
            {"2": 3, "3": 2},
            {"3": 4, "4": 1},
            {"4": 1},
        ]

    def test_output_file(self, capsys, tmp_path, twisted_file):
        target = tmp_path / "saved.json"
        code, out = run(
            capsys, "resolve", twisted_file, "--json", "--output", str(target)
        )
        assert code == 0
        saved = json.loads(target.read_text())
        assert saved["ranks"]["0"] == {"2": 3, "3": 2}


class TestOtherCommands:
    def test_pommaret(self, capsys, twisted_file):
        code, out = run(capsys, "pommaret", twisted_file, "--json")
        payload = json.loads(out.out)
        assert payload["invariants"]["regularity"] == 3
        assert payload["invariants"]["projective_dimension"] == 2
        assert len(payload["basis"]) == 5

    def test_classify_not_quasi_stable(self, capsys, tmp_path):
        path = tmp_path / "nqs.mb"
        path.write_text("ring 2\nideal J = x0*x1\n")
        code, out = run(capsys, "classify", str(path))
        assert code == 1
        assert "not quasi-stable" in out.out
        assert "witness" in out.out

    def test_classify_stable(self, capsys, tmp_path):
        path = tmp_path / "stable.mb"
        path.write_text("ring 3\nideal M = x0, x1, x2\n")
        code, out = run(capsys, "classify", str(path))
        assert code == 0
        assert out.out.strip() == "stable"

    @staticmethod
    def count_calls(monkeypatch, name):
        """The argument tuples of every call of the `monom` function `name`."""
        calls = []
        original = getattr(monom_module, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(monom_module, name, counting)
        return calls

    def test_classify_scans_for_the_witness_once(self, capsys, monkeypatch, tmp_path):
        """One completion classifies: the quasi-stability scan runs once per
        component, and a refusal would carry the witness.  The document lists
        only minimal generators, which are not the Pommaret basis, so the
        full completion runs."""
        path = tmp_path / "twisted-minimal.mb"
        path.write_text(TWISTED_MINIMAL_DOC)
        calls = self.count_calls(monkeypatch, "_quasi_stable_witness")
        code, out = run(capsys, "classify", str(path))
        assert (code, out.out) == (0, "quasi-stable\n")
        assert len(calls) == 1

    @pytest.mark.parametrize("command, expected", [
        ("classify", "quasi-stable\n"),
        ("family", None),
        ("pommaret", None),
    ])
    def test_listed_basis_is_its_own_completion(
        self, capsys, monkeypatch, twisted_file, tmp_path, command, expected
    ):
        """TWISTED_DOC lists its complete Pommaret basis, so neither the
        witness scan nor the completion runs, and the output is that of the
        document listing the minimal generators only."""
        witness = self.count_calls(monkeypatch, "_quasi_stable_witness")
        completion = self.count_calls(monkeypatch, "_complete_component")
        code, out = run(capsys, command, twisted_file, "--ideal", "J")
        assert code == 0
        if expected is not None:
            assert out.out == expected
        assert (witness, completion) == ([], [])
        minimal = tmp_path / "twisted-minimal.mb"
        minimal.write_text(TWISTED_MINIMAL_DOC)
        assert run(capsys, command, str(minimal)) == (code, out)
        assert len(witness) == len(completion) == 1

    @pytest.mark.parametrize("target, expected", [
        ("x0^5000", "summands:\n  (none)\nremainder: x0^5000\n"),
        ("x1*x0^4999",
         "summands:\n  1 * x0^4998 * [x1*x0]\nremainder: -x2^2*x0^4998\n"),
        ("x1*x0^4999 + x2*x0^4999 + x0^5000",
         "summands:\n  1 * x0^4998 * [x1*x0]\n"
         "remainder: -x2^2*x0^4998 + x2*x0^4999 + x0^5000\n"),
        ("x2^2*x1*x0^4997 + 3*x1^2*x0^4998",
         "summands:\n  3 * x0^4998 * [x1^2]\n  1 * x0^4997 * [x2^2*x1]\nremainder: 0\n"),
        ("x2^3000*x1^2000",
         "summands:\n  1 * x2^2997*x1^2000 * [x2^3]\nremainder: 0\n"),
    ])
    def test_reduce_far_above_the_basis_degree(self, capsys, twisted_file, target, expected):
        """Targets whose exponents need far wider packed fields than the
        basis degree: the output is the one of the tuple-keyed kernel."""
        code, out = run(capsys, "reduce", twisted_file, "--target", target)
        assert (code, out.out) == (0, expected)

    def test_reduce_far_above_the_basis_degree_with_tails(self, capsys, non_groebner_file):
        code, out = run(capsys, "reduce", non_groebner_file, "--target", "x2*x1*x0^4998")
        assert (code, out.out) == (0, (
            "summands:\n"
            "  1 * x0^4998 * [x2*x1]\n"
            "  1 * x0^4997 * [x2^2*x0]\n"
            "  1 * x0^4997 * [x1^2*x0]\n"
            "remainder: 0\n"
        ))

    def test_truncate(self, capsys, tmp_path):
        path = tmp_path / "line.mb"
        path.write_text("ring 2\nideal J = x1\n")
        code, out = run(capsys, "truncate", str(path), "--degree", "2", "--json")
        payload = json.loads(out.out)
        assert sorted(payload["basis"]) == ["x1*x0", "x1^2"]

    def test_hilbert(self, capsys, twisted_file):
        code, out = run(capsys, "hilbert", twisted_file, "--degree", "3", "--json")
        payload = json.loads(out.out)
        assert payload["module_rank"] == 7
        assert payload["complement_rank"] == 3

    def test_reduce(self, capsys, twisted_file):
        code, out = run(
            capsys, "reduce", twisted_file, "--target", "x2*x1*x0 + x2^3", "--json"
        )
        payload = json.loads(out.out)
        assert payload["remainder"] == "0"
        assert {(s["coefficient"], s["multiplier"], s["head"]) for s in payload["summands"]} == {
            ("1", "x0", "x2*x1"),
            ("1", "1", "x2^3"),
        }

    def test_bounds(self, capsys, twisted_file):
        code, out = run(capsys, "bounds", twisted_file, "--json")
        payload = json.loads(out.out)
        assert payload["betti_bounds"] == {
            "0": {"2": 3, "3": 2},
            "1": {"3": 4, "4": 1},
            "2": {"4": 1},
        }
        assert payload["regularity_bound"] == 3
        assert payload["pdim_bound"] == 2

    def test_family_and_specialize(self, capsys, tmp_path):
        path = tmp_path / "family.mb"
        path.write_text("ring 2\nideal J = x1^2, x1*x0\n")
        code, out = run(capsys, "family", str(path), "--json")
        payload = json.loads(out.out)
        assert payload["parameters"] == ["C_{0,0}", "C_{1,0}"]
        assert payload["equations"] == ["C_{0,0} - C_{1,0}^2"]

        code, out = run(
            capsys, "specialize", str(path), "--set", "C_{0,0}=4,C_{1,0}=-2"
        )
        assert code == 0
        assert "marked basis: yes" in out.out

        code, out = run(
            capsys, "specialize", str(path), "--set", "C_{0,0}=4,C_{1,0}=1"
        )
        assert code == 1
        assert "marked basis: no" in out.out

    def test_family_with_no_equations(self, capsys, tmp_path):
        path = tmp_path / "line.mb"
        path.write_text("ring 2\nideal J = x1\n")
        code, out = run(capsys, "family", str(path), "--json")
        payload = json.loads(out.out)
        assert payload["equations"] == []


class TestExitCodes:
    def test_parameter_assigned_twice_is_input_error(self, capsys, tmp_path):
        """A name given twice is refused, with one line naming it."""
        path = tmp_path / "twice.mb"
        path.write_text("ring 2\nideal J = x1^2, x1*x0\nmarked G = [x1^2] + x0^2, [x1*x0]\n")
        code, out = run(capsys, "specialize", str(path), "--set", "C_{0,0}=1,C_{1,0}=1,C_{0,0}=4")
        assert code == 2
        assert (out.out, out.err) == ("", "input error: parameter 'C_{0,0}' is assigned twice\n")

    def test_unknown_variable_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.mb"
        path.write_text("ring 3\nideal J = x1*x9\n")
        code, out = run(capsys, "pommaret", str(path))
        assert code == 2
        assert "input error" in out.err

    def test_syntax_error_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.mb"
        path.write_text("ring 3\nideal J = x1 ++ x0\n")
        code, out = run(capsys, "pommaret", str(path))
        assert code == 2

    def test_zero_denominator_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.mb"
        path.write_text("ring 3\nideal J = 1/0*x2\n")
        code, out = run(capsys, "pommaret", str(path))
        assert code == 2
        assert "input error: line 2, column 11: zero denominator in '1/0'" in out.err

    def test_zero_denominator_in_marked_set(self, capsys, tmp_path):
        path = tmp_path / "bad.mb"
        path.write_text("ring 3\nmarked G = [x2^3], [x1*x0] + 3/0*x2^2\n")
        code, out = run(capsys, "check", str(path))
        assert code == 2
        # Columns count from the start of the physical line.
        assert "line 2, column 30: zero denominator in '3/0'" in out.err

    def test_error_position_on_a_continuation_line(self, capsys, tmp_path):
        path = tmp_path / "bad.mb"
        path.write_text("ring 3\nmarked G = [x2^3],\n    [x1*x0] + 3/0*x2^2\n")
        code, out = run(capsys, "check", str(path))
        assert code == 2
        assert "line 3, column 15: zero denominator in '3/0'" in out.err

    def test_truncation_past_the_size_limit_is_input_error(self, capsys, tmp_path):
        """The size of a truncation is counted before any term is built, so
        a far degree is refused at once instead of running without end."""
        path = tmp_path / "far.mb"
        path.write_text("ring 3\nideal J = x2^2, x2*x1, x1^3\n")
        start = time.process_time()
        code, out = run(capsys, "truncate", str(path), "--degree", "100000000")
        assert time.process_time() - start < 1.0
        assert code == 2
        assert out.out == ""
        assert out.err.startswith("input error: the truncation at degree 100000000 has ")
        # Degree 445 gives 99,677 terms, within the limit; 446 gives 100,124.
        code, out = run(capsys, "truncate", str(path), "--degree", "446")
        assert code == 2 and "at degree 446 has 100124 terms" in out.err

    def test_completion_past_the_size_limit_is_input_error(self, capsys, tmp_path):
        """The completion of this ideal has billions of terms; it is refused
        as soon as its basis passes the limit instead of running without
        end."""
        path = tmp_path / "far.mb"
        path.write_text("ring 4\nideal J = x3^2000, x2^2000, x1^2000\n")
        start = time.process_time()
        code, out = run(capsys, "pommaret", str(path))
        assert time.process_time() - start < 5.0
        assert code == 2
        assert out.out == ""
        assert out.err == (
            "input error: the Pommaret completion has more than the 100000 terms "
            "this program builds\n"
        )

    def test_closed_pipe_ends_quietly(self, tmp_path):
        """A reader that closes the pipe after a few bytes of an output well
        over the 64 KiB a pipe holds: the command keeps its own exit code
        and writes nothing to stderr, neither a traceback nor an
        `Exception ignored` line."""
        path = tmp_path / "mid.mb"
        path.write_text("ring 4\nideal J = x3^60, x2^60, x1^60\n")
        argv = [sys.executable, "-m", "marked_bases.cli", "pommaret", str(path), "--json"]
        env = {**os.environ, "PYTHONPATH": SRC}
        whole = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        assert whole.returncode == 0 and whole.stderr == b""
        assert len(whole.stdout) > 4 * 65536 // 3
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = proc.stdout.read(50)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert head == whole.stdout[:50]
        assert err == b""

    @pytest.mark.parametrize("argv", [["family"], ["specialize", "--set", "C0=1"]],
                             ids=["family", "specialize"])
    def test_degree_past_the_size_limit_is_input_error(self, capsys, tmp_path, argv):
        """The tails of a head of degree 3000 range over the 4,504,501 terms
        of that degree, more than the package builds: they are counted
        before any is enumerated, so both commands are refused at once."""
        path = tmp_path / "high.mb"
        path.write_text("ring 3\nideal J = x2^3000\n")
        start = time.process_time()
        code, out = run(capsys, argv[0], str(path), *argv[1:])
        assert time.process_time() - start < 1.0
        assert code == 2
        assert out.out == ""
        assert out.err == (
            "input error: degree 3000 has 4504501 terms, more than the 100000 "
            "this program builds\n"
        )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        keyword=st.sampled_from(["ideal J =", "marked G ="]),
        tokens=st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=14),
    )
    def test_grammar_fuzz(self, tmp_path_factory, keyword, tokens):
        """Documents whose object line is a random string of the grammar's
        tokens: `check` exits 0, 1 or 2 without a traceback, and a parse
        error names a column of the physical line it reports, or the column
        just past its end (an empty chunk after a last comma)."""
        text = f"ring 3\nmodule 2 0 0\n{keyword} {''.join(tokens)}\n"
        path = tmp_path_factory.mktemp("fuzz") / "doc.mb"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(path)])
        assert code in (0, 1, 2)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        located = re.match(r"input error: line (\d+), column (\d+): ", err.getvalue())
        if located is None:
            assert ", column " not in err.getvalue()
        else:
            line, col = map(int, located.groups())
            assert 1 <= col <= len(text.splitlines()[line - 1]) + 1

    def test_missing_file(self, capsys, tmp_path):
        code, out = run(capsys, "pommaret", str(tmp_path / "absent.mb"))
        assert code == 2

    @pytest.mark.parametrize("data, where, byte, reason", [
        (b"ring 3\nideal J = x2\xff\n", "line 2, column 13", 0xFF, "invalid start byte"),
        # Columns count characters, so the two bytes of an e-acute are one.
        (b"ring 3\n# \xc3\xa9\xc3\nideal J = x2\n", "line 2, column 4", 0xC3,
         "invalid continuation byte"),
        (b"\x80ring 3\n", "line 1, column 1", 0x80, "invalid start byte"),
    ])
    def test_document_that_is_not_utf8_is_input_error(self, capsys, tmp_path, data,
                                                      where, byte, reason):
        path = tmp_path / "bad.mb"
        path.write_bytes(data)
        code, out = run(capsys, "pommaret", str(path))
        assert code == 2
        assert (out.out, out.err) == (
            "", f"input error: {where}: byte 0x{byte:02x} is not UTF-8 ({reason})\n"
        )

    @pytest.mark.parametrize("output", ["absent/dir/out.txt", "."])
    @pytest.mark.parametrize("command, doc, forged, code", [
        ("pommaret", "ring 3\nideal J = x2\n", False, 0),
        ("pommaret", "ring 2\nideal J = x0*x1\n", False, 1),
        ("resolve", TWISTED_DOC, True, 3),
    ])
    def test_unwritable_output_is_input_error(self, capsys, monkeypatch, tmp_path, output,
                                              command, doc, forged, code):
        """An ``--output`` path in a missing directory, or a directory, is
        opened before anything is printed, on every exit path: one input
        error that names the path, exit 2, and no report."""
        if forged:  # a chain check that never vanishes: exit 3
            monkeypatch.setattr(
                syzygy_module, "_evaluate_column", lambda rows, column, pack_exp: {0: 1}
            )
        path = tmp_path / "doc.mb"
        path.write_text(doc)
        assert run(capsys, command, str(path))[0] == code
        target = str(tmp_path / output)
        for fmt in ([], ["--json"]):
            got, out = run(capsys, command, str(path), *fmt, "--output", target)
            assert got == 2
            assert out.out == ""
            assert out.err.startswith("input error: ") and out.err.count("\n") == 1
            assert repr(target) in out.err

    def test_missing_object(self, capsys, tmp_path):
        path = tmp_path / "empty.mb"
        path.write_text("ring 3\nideal J = x2\n")
        code, out = run(capsys, "check", str(path))
        assert code == 2

    def test_not_quasi_stable_is_math_negative(self, capsys, tmp_path):
        path = tmp_path / "nqs.mb"
        path.write_text("ring 2\nideal J = x0*x1\n")
        code, out = run(capsys, "pommaret", str(path))
        assert code == 1
        assert "not quasi-stable" in out.out

    @pytest.mark.parametrize("assignment, code, expected", SET_TABLE)
    def test_set_argument(self, capsys, tmp_path, assignment, code, expected):
        """How `specialize --set` reads its argument: the exit code and either
        the exact standard error or the SHA-256 of standard output."""
        path = tmp_path / "family.mb"
        path.write_text(SET_DOC)
        got, out = run(capsys, "specialize", str(path), "--set", assignment)
        assert got == code
        if code == 2:
            assert (out.out, out.err) == ("", expected)
        else:
            assert out.err == ""
            assert hashlib.sha256(out.out.encode()).hexdigest() == expected

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    @pytest.mark.parametrize("command, doc, message", [
        ("check", "marked G = [x1] + x0, [x0]",
         "tail term x0 lies inside the monomial module"),
        ("pommaret", "ideal J = x0*x1",
         "not quasi-stable: no power x1^s * t / min(t) lies in the module "
         "for generator x1*x0"),
        ("check", "marked G = [x1] + x1, [x0]", "head x1 has coefficient != 1"),
        ("check", "marked G = [x1] - x1, [x0]", "head x1 not in the support"),
        ("check", "module 2 0 0\nmarked G = [x1*e2] + x0*e2, [x0*e2], [x0], [x1]",
         "tail term x0*e2 lies inside the monomial module"),
    ])
    def test_terms_in_messages_use_the_grammar(self, capsys, tmp_path, command, doc,
                                               message, fmt):
        path = tmp_path / "doc.mb"
        path.write_text(f"ring 2\n{doc}\n")
        code, out = run(capsys, command, str(path), *fmt)
        assert code == 1
        if fmt:
            assert json.loads(out.out) == {"ok": False, "error": message}
        else:
            assert out.out == message + "\n"

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_failed_self_check_exits_3(self, capsys, monkeypatch, twisted_file, fmt):
        # A forged chain check that never vanishes: every syzygy fails.
        monkeypatch.setattr(
            syzygy_module, "_evaluate_column", lambda rows, column, pack_exp: {0: 1}
        )
        code, out = run(capsys, "resolve", twisted_file, *fmt)
        assert code == 3
        assert "Traceback" not in out.out + out.err
        if fmt:
            assert json.loads(out.out) == {
                "ok": False, "error": "produced element is not a syzygy"
            }
        else:
            assert out.out == "produced element is not a syzygy\n"


class TestParserReuse:
    """`main` builds its argument parser once per process; later calls must
    not see the options of earlier ones."""

    def test_successive_calls_print_what_each_prints_alone(self, capsys, twisted_file):
        first = ["resolve", twisted_file, "--json"]
        second = ["check", twisted_file]
        alone = []
        for argv in (first, second):
            cli_module.build_parser.cache_clear()
            alone.append(run(capsys, *argv))
        cli_module.build_parser.cache_clear()
        together = [run(capsys, *first), run(capsys, *second)]
        assert together == alone
        assert alone[1] == (0, ("marked basis: yes\n", ""))
        assert json.loads(alone[0][1].out)["ok"] is True
        assert cli_module.build_parser.cache_info().misses == 1


# SHA-256 of `mbases resolve --minimize --json` standard output on the two
# examples of the paper, recorded before the syzygy step read its reductions
# from the shared prolongation memo and before verify_complex went sparse.
GOLDEN_RESOLVE_SHA256 = {
    "twisted": "a391243036afe9557e04a8ca9670d370923e7125bc9082dfb529a8108abca21a",
    "non_groebner": "726563db1d3ba04dfabb700e89b4336fef2e6b40e02e1efccb1a92cb982e3d05",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RESOLVE_SHA256))
def test_resolve_json_is_byte_identical(capsys, tmp_path, name):
    path = tmp_path / f"{name}.mb"
    path.write_text({"twisted": TWISTED_DOC, "non_groebner": NON_GROEBNER_DOC}[name])
    code, out = run(capsys, "resolve", str(path), "--minimize", "--json")
    assert code == 0
    assert hashlib.sha256(out.out.encode()).hexdigest() == GOLDEN_RESOLVE_SHA256[name]


# SHA-256 of the JSON text (`serialized`) of the full and of the minimal resolution
# over 30 fixed survey-style cases (joined by newlines), and of `mbases
# resolve --minimize --json` on a C4-sized document (P^5, (x5, x4, x3, x2^2)
# truncated in degree 3: 49 generators, length 5), recorded while the
# differentials were still stored as dense grids of entries.
GOLDEN_SURVEY_SHA256 = {
    "full": "1eb3b817bf7f83b7032291bc8a0ff89caacf2f016f0e3253c70f3472973a25b1",
    "minimal": "60509cceba6a8349f368acf93dbac0f0f57e1a89c953b66e287d87ccd6f608ba",
}
GOLDEN_C4_RESOLVE_SHA256 = "30d70b0947cb3470d71e3a547b692a283d094208cc25c2da04b0942adbee171f"


def survey_resolutions():
    """(full, minimal) resolutions of the 30 fixed survey-style cases."""
    rng = random.Random(3)
    out = []
    for basis in survey_bases(3, 30):
        full = free_resolution(random_marked_basis(rng, basis))
        out.append((full, minimize_resolution(full)))
    return out


def test_survey_serializations_are_byte_identical():
    pairs = survey_resolutions()
    for k, kind in enumerate(("full", "minimal")):
        joined = "\n".join(serialized(pair[k]) for pair in pairs)
        assert hashlib.sha256(joined.encode()).hexdigest() == GOLDEN_SURVEY_SHA256[kind]


def test_c4_resolve_json_is_byte_identical(capsys, tmp_path):
    marked = random_marked_basis(random.Random(1), c4_basis())
    elements = ", ".join(format_marked_element(el.body, el.head) for el in marked.ordered())
    path = tmp_path / "c4.mb"
    path.write_text(f"ring 6\nmarked G = {elements}\n")
    code, out = run(capsys, "resolve", str(path), "--minimize", "--json")
    assert code == 0
    assert hashlib.sha256(out.out.encode()).hexdigest() == GOLDEN_C4_RESOLVE_SHA256


def test_resolution_to_dict_formats_each_distinct_entry_once(monkeypatch):
    """Most entries of a resolution are the same few texts (the +-x_j of the
    Pommaret syzygies), and each distinct one is formatted once per call."""
    res = free_resolution(random_marked_basis(random.Random(1), c4_basis()))
    stored = sum(len(col) for mat in res.matrices for col in mat)
    calls = []
    original = textio_module.format_poly

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(textio_module, "format_poly", counting)
    textio_module.resolution_to_dict(res)
    assert 0 < len(calls) < stored / 10


# SHA-256 of `mbases resolve --minimize --json` on a rank-2 module with
# weights (0, 1), recorded while the level-0 generator images were still
# stored as module elements.  The document is the marked basis that
# random_marked_basis draws over random_quasi_stable_module(random.Random(8),
# 2, 2, max_deg=2, max_terms=8) with the same generator.  Its minimization
# cancels a pivot in matrices[0], so the row elimination runs on the level-0
# map and a generator image is cancelled.
RANK2_DOC = """\
ring 3
module 2 0 1
marked G = [x2*e1] + x1*e1, [x2*e2] + x1*e2, [x0*e2], [x1^2*e2], [x1*x0*e2]
"""
GOLDEN_RANK2_RESOLVE_SHA256 = "9d22f23136fc6e5c1537947bae7f7227a092019242716266c9e9de0ecb3a0446"


def test_rank2_resolve_json_is_byte_identical(capsys, tmp_path):
    path = tmp_path / "rank2.mb"
    path.write_text(RANK2_DOC)
    code, out = run(capsys, "resolve", str(path), "--minimize", "--json")
    assert code == 0
    data = json.loads(out.out)
    full0 = data["resolution"]["levels"][0]
    minimal0 = data["minimal"]["resolution"]["levels"][0]
    assert len(minimal0["degrees"]) == len(full0["degrees"]) - 1
    assert minimal0["differential"][0] == full0["differential"][0][:4]
    assert hashlib.sha256(out.out.encode()).hexdigest() == GOLDEN_RANK2_RESOLVE_SHA256


# SHA-256 of the standard output of the basis test and of `resolve` on the
# twisted example with the tail of x1*x0 broken to x0^2, recorded before every
# consumer walked the prolongations through one shared generator.  They pin
# the certificate text and which prolongation fails first.
BROKEN_TAIL_DOC = TWISTED_DOC.replace("[x1*x0] + x2^2", "[x1*x0] + x0^2")
GOLDEN_CERTIFICATE_SHA256 = {
    "check": "61439991dc465a94adb34d180473e8e73324e58b27e55dbb3105480baf39266a",
    "check --json": "8197b82f99eb7bb5eea5facba878c03d5dcf2175ce63e18019bf2b5998e47001",
    "check --up-to-degree 3": "61439991dc465a94adb34d180473e8e73324e58b27e55dbb3105480baf39266a",
    "resolve": "c65c5d70329cd6dbdb58569c4d0db6d019fe6cf367f9ba30671eaeffac92199f",
    "resolve --json": "8197b82f99eb7bb5eea5facba878c03d5dcf2175ce63e18019bf2b5998e47001",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_CERTIFICATE_SHA256))
def test_certificate_text_is_byte_identical(capsys, tmp_path, command):
    path = tmp_path / "broken.mb"
    path.write_text(BROKEN_TAIL_DOC)
    name, *flags = command.split()
    code, out = run(capsys, name, str(path), *flags)
    assert code == 1
    digest = hashlib.sha256(out.out.encode()).hexdigest()
    assert digest == GOLDEN_CERTIFICATE_SHA256[command]


# SHA-256 of `mbases family` and `mbases specialize` standard output on the
# two examples of the paper, recorded before ParamPoly stored its monomials
# sparsely.  The specialize points set the listed parameters and every other
# one to 0: "on" is the example's own marked set, "off" moves one parameter
# off the family.
GOLDEN_FAMILY_SHA256 = {
    ("twisted", "family"): "bc1cb734e5b9b2ee49e82fa130b629871cda6aae2059dfa3dfa95b207e473475",
    ("twisted", "family --json"): "752edd2ae34d775c380c66ea90609aadfbbdc119b373d32b64934c4ed7a33220",
    ("twisted", "on"): "ed0ed1290ed926f69578fe723e95a7fe68010e1c5ee0bd311180553975d88d4a",
    ("twisted", "off"): "cb592edf781cf67a98d99a2f4a3d7d1966457be536b7dd8a229c3afcb82398ee",
    ("non_groebner", "family"): "768f0241d03222117e24f0107d864378d9e8e5dd7f7881ec7e75afe8a9957572",
    ("non_groebner", "family --json"): "26924d7d0af64d753ab1c9f5c0ef2053a1b45aa4f8791f15457906778e82dbb1",
    ("non_groebner", "on"): "e830043ad25a3b82411e868d8cdc4a93f85c9443ad08cbfe330f66a008db7884",
    ("non_groebner", "off"): "7e05a71ebb33a6322065b00ecd8bc77acbb95e129e872286aeae822b29a91b9c",
}
SPECIALIZE_POINTS = {
    ("twisted", "on"): ({"C_{2,0}": -1}, 0),
    ("twisted", "off"): ({"C_{0,0}": 1, "C_{2,0}": -1}, 1),
    ("non_groebner", "on"): ({"C_{0,0}": 1, "C_{0,1}": 1}, 0),
    ("non_groebner", "off"): ({"C_{0,0}": 1, "C_{0,1}": 1, "C_{0,2}": 1}, 1),
}


def _paper_file(tmp_path, name):
    path = tmp_path / f"{name}.mb"
    path.write_text({"twisted": TWISTED_DOC, "non_groebner": NON_GROEBNER_DOC}[name])
    return str(path)


def _full_assignment(capsys, path, values) -> str:
    """Every parameter of the family of `path`, 0 unless given in `values`."""
    code, out = run(capsys, "family", path, "--json")
    names = json.loads(out.out)["parameters"]
    return ",".join(f"{name}={values.get(name, 0)}" for name in names)


@pytest.mark.parametrize("name, what", sorted(GOLDEN_FAMILY_SHA256))
def test_family_and_specialize_text_is_byte_identical(capsys, tmp_path, name, what):
    path = _paper_file(tmp_path, name)
    if what.startswith("family"):
        code, out = run(capsys, "family", path, *what.split()[1:])
        expected_code = 0
    else:
        values, expected_code = SPECIALIZE_POINTS[(name, what)]
        assignment = _full_assignment(capsys, path, values)
        code, out = run(capsys, "specialize", path, "--set", assignment)
    assert code == expected_code
    digest = hashlib.sha256(out.out.encode()).hexdigest()
    assert digest == GOLDEN_FAMILY_SHA256[(name, what)]


class TestSpecializeReadsTheBasisTest:
    """`specialize` takes "family equations vanish" from the basis test of
    the specialized set and never builds the family equations; the symbolic
    cross-check is `tests/test_family.py::TestSpecializeOracle`."""

    @pytest.mark.parametrize("name, point", sorted(
        key for key in GOLDEN_FAMILY_SHA256 if key[1] in ("on", "off")
    ))
    def test_golden_text_without_family_equations(self, capsys, tmp_path, monkeypatch,
                                                  name, point):
        path = _paper_file(tmp_path, name)
        values, expected_code = SPECIALIZE_POINTS[(name, point)]
        assignment = _full_assignment(capsys, path, values)

        def refuse(generic):
            raise AssertionError("specialize built the family equations")

        for module in (cli_module, family_module):
            monkeypatch.setattr(module, "family_equations", refuse)
        code, out = run(capsys, "specialize", path, "--set", assignment)
        assert code == expected_code
        assert hashlib.sha256(out.out.encode()).hexdigest() == GOLDEN_FAMILY_SHA256[(name, point)]

    @pytest.mark.parametrize("name, point", sorted(
        key for key in GOLDEN_FAMILY_SHA256 if key[1] in ("on", "off")
    ))
    def test_golden_text_without_the_generic_set(self, capsys, tmp_path, monkeypatch,
                                                 name, point):
        """The point's set is built from the heads: no generic set, and no
        parameter polynomial made or evaluated."""
        path = _paper_file(tmp_path, name)
        values, expected_code = SPECIALIZE_POINTS[(name, point)]
        assignment = _full_assignment(capsys, path, values)

        def refuse(*args, **kwargs):
            raise AssertionError("specialize built or evaluated a generic set")

        for module in (cli_module, family_module):
            monkeypatch.setattr(module, "generic_marked_set", refuse)
        monkeypatch.setattr(ParamPoly, "__init__", refuse)
        code, out = run(capsys, "specialize", path, "--set", assignment)
        assert code == expected_code
        assert hashlib.sha256(out.out.encode()).hexdigest() == GOLDEN_FAMILY_SHA256[(name, point)]

    @pytest.mark.parametrize("point", ["on", "off"])
    def test_verdict_follows_the_basis_test(self, capsys, tmp_path, monkeypatch, point):
        path = _paper_file(tmp_path, "twisted")
        values, expected_code = SPECIALIZE_POINTS[("twisted", point)]
        assignment = _full_assignment(capsys, path, values)
        real = cli_module.is_marked_basis

        def flipped(marked, **kwargs):
            if real(marked, **kwargs).is_basis:
                el = marked.ordered()[0]  # any certificate will do
                return BasisCheck(False, (el.head, 1, el.body))
            return BasisCheck(True)

        monkeypatch.setattr(cli_module, "is_marked_basis", flipped)
        code, out = run(capsys, "specialize", path, "--set", assignment, "--json")
        payload = json.loads(out.out)
        assert payload["family_vanishes"] == payload["marked_basis"] == (point == "off")


def _module_doc(weights: str) -> str:
    return (
        "ring 3\n"
        f"module 2 {weights}\n"
        "ideal J = x2*e1, x1^2*e1, x2*e2\n"
        "marked G = [x2*e1], [x1^2*e1] + x1*x0*e1, [x2*e2]\n"
    )


MATRIX_DOCS = {
    "ideal": TWISTED_DOC,
    "rank 2, weights (0, 0)": _module_doc("0 0"),
    "rank 2, weights (0, 1)": _module_doc("0 1"),
}


class TestModuleDocuments:
    @pytest.mark.parametrize("weights, table", [
        ("0 0", {"0": {"1": 2, "2": 1}, "1": {"3": 1}}),
        ("0 1", {"0": {"1": 1, "2": 2}, "1": {"3": 1}}),
    ])
    def test_bounds_on_a_module(self, capsys, tmp_path, weights, table):
        path = tmp_path / "module.mb"
        path.write_text(_module_doc(weights))
        code, out = run(capsys, "bounds", str(path), "--ideal", "J")
        assert code == 0
        assert "betti bounds r[0,1] = " in out.out
        code, out = run(capsys, "bounds", str(path), "--ideal", "J", "--json")
        payload = json.loads(out.out)
        assert payload["betti_bounds"] == table
        assert payload["pdim_bound"] == 1

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    @pytest.mark.parametrize("doc", sorted(MATRIX_DOCS))
    @pytest.mark.parametrize("command", [
        "pommaret", "classify", "truncate", "hilbert", "check", "reduce",
        "resolve", "bounds", "family", "specialize",
    ])
    def test_every_command_on_ideals_and_modules(self, capsys, tmp_path, doc, command, fmt):
        """Each subcommand succeeds on the ideal and on both modules, and its
        JSON is the text `json.dumps(indent=2)` gives for the same payload."""
        path = str(tmp_path / "doc.mb")
        Path(path).write_text(MATRIX_DOCS[doc])
        extra = {
            "truncate": ["--degree", "3"],
            "hilbert": ["--degree", "3"],
            "reduce": ["--target", "x2^2*x1" + ("" if doc == "ideal" else "*e1")],
            "resolve": ["--minimize"],
            "specialize": ["--set", _full_assignment(capsys, path, {})],
        }.get(command, [])
        pick = ["--marked", "G"] if command in ("check", "reduce", "resolve") else ["--ideal", "J"]
        code, out = run(capsys, command, path, *extra, *pick, *fmt)
        assert code == 0, out.out
        assert "ModuleTerm(" not in out.out + out.err
        if fmt:
            assert out.out == json.dumps(json.loads(out.out), indent=2) + "\n"


# Quotes, backslashes, control characters, non-ASCII and astral code points.
JSON_TEXT = st.text() | st.text(
    st.sampled_from('a"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\u20ac\U0001f600')
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**100), 2**100) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(JSON_TEXT, inner, max_size=5),
    max_leaves=40,
)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert dumps_indented(value) == json.dumps(value, indent=2)

    @given(st.lists(JSON_TEXT, max_size=6))
    def test_lists_of_strings(self, row):
        assert dumps_indented([row, {"row": row}]) == json.dumps([row, {"row": row}], indent=2)

    @pytest.mark.parametrize("row", [
        ["x1", '"', "-x0"],
        ["x1", "\\", "-x0"],
        ["x1", "\n", "-x0"],
        ["x1", "\xe9", "-x0"],
        ["x1", "\u2028", "-x0"],
        ["x1", 'a","b', "-x0"],
        ["0"] * 7,
        ["x2^2 - 3/2*x1*x0"],
    ])
    def test_rows_with_at_most_one_escaped_item(self, row):
        # A row is written with one join unless encoding it whole shows an
        # escape; each of the first six has exactly one item that needs one.
        assert dumps_indented([row, {"row": row}]) == json.dumps([row, {"row": row}], indent=2)

    @pytest.mark.parametrize("value", [
        1.5, (1, 2), {1, 2}, Fraction(1, 2), b"x", {1: "a"}, {"a": [None, (1,)]},
    ])
    def test_other_types_are_refused(self, value):
        with pytest.raises(TypeError):
            dumps_indented(value)
