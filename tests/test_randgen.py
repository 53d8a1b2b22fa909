"""The random marked-basis generator against the dense-row extraction it
replaced (tests/oracles.py), and its refusals."""

import random

import pytest

import marked_bases.randgen as randgen
from marked_bases import FreeModuleLayout, ModuleElement, ModuleTerm, MonomialModule
from marked_bases import pommaret_completion
from marked_bases.marked import BasisCheck
from marked_bases.randgen import (
    _extract_marked_basis,
    random_marked_basis,
    random_marked_set,
    unipotent_images,
)
from marked_bases.ring import InternalError
from conftest import c4_basis, survey_bases
from oracles import dense_extract_marked_basis
from samplers import random_quasi_stable_module


def assert_same_sets(new, old):
    """Same heads in the same order, and bodies equal term by term, in the
    same term order, with the same coefficient types and degrees."""
    assert list(new.elements) == list(old.elements)
    for head, el in new.elements.items():
        body, reference = el.body, old.elements[head].body
        assert list(body.terms.items()) == list(reference.terms.items())
        assert list(map(type, body.terms.values())) == list(map(type, reference.terms.values()))
        assert body.degree == reference.degree


class TestAgainstTheDenseExtraction:
    @pytest.mark.parametrize("seed", [1, 7])
    def test_survey_cases(self, seed):
        rng = random.Random(seed)
        layouts = set()
        for basis in survey_bases(seed, 60):
            layouts.add(basis.layout)
            images = unipotent_images(rng, basis.layout.nvars)
            old = dense_extract_marked_basis(basis, images)
            assert old is not None
            assert_same_sets(_extract_marked_basis(basis, images), old)
        assert any(layout.rank == 2 and any(layout.weights) for layout in layouts)

    def test_weighted_modules_and_c4(self):
        rng = random.Random(3)
        bases = [random_quasi_stable_module(rng, 2, rank, max_terms=16)
                 for rank in (2, 2, 3, 3)] + [c4_basis()]
        for basis in bases:
            images = unipotent_images(rng, basis.layout.nvars)
            assert_same_sets(_extract_marked_basis(basis, images),
                             dense_extract_marked_basis(basis, images))

    def test_one_draw(self):
        """`random_marked_basis` draws one image list and returns the set it
        extracts, so the rng moves on exactly as far as one draw."""
        for basis in survey_bases(7, 20):
            rng, reference = random.Random(11), random.Random(11)
            marked = random_marked_basis(rng, basis)
            images = unipotent_images(reference, basis.layout.nvars)
            assert_same_sets(marked, dense_extract_marked_basis(basis, images))
            assert rng.getstate() == reference.getstate()


class TestRefusals:
    # ring 3, U = (x2); the images swap x1 and x2, so the image of x2 is x1,
    # a term outside U, and the rows are not unit triangular on U.
    LAYOUT = FreeModuleLayout(2)
    SWAPPED = [{(1, 0, 0): 1}, {(0, 0, 1): 1}, {(0, 1, 0): 1}]

    def basis(self):
        return pommaret_completion(MonomialModule(self.LAYOUT, [ModuleTerm((0, 0, 1), 1)]))

    def test_swapped_variables_are_refused(self, monkeypatch):
        basis = self.basis()
        assert dense_extract_marked_basis(basis, self.SWAPPED) is None
        refusal = "the coordinate change is not unit triangular in degree 1"
        with pytest.raises(InternalError, match=refusal):
            _extract_marked_basis(basis, self.SWAPPED)
        monkeypatch.setattr(randgen, "unipotent_images", lambda rng, nvars: self.SWAPPED)
        with pytest.raises(InternalError, match=refusal):
            random_marked_basis(random.Random(1), basis)

    def test_a_failed_basis_test_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(randgen, "is_marked_basis", lambda marked: BasisCheck(False))
        refusal = "a marked basis drawn by a unipotent coordinate change fails its test"
        with pytest.raises(InternalError, match=refusal):
            random_marked_basis(random.Random(1), self.basis())


def test_random_marked_set_elements_are_checked_elements():
    """The elements `random_marked_set` wraps without the constructor's
    checks equal the checked ones."""
    rng = random.Random(5)
    for basis in survey_bases(5, 30):
        for el in random_marked_set(rng, basis).ordered():
            checked = ModuleElement(basis.layout, el.body.terms)
            assert checked == el.body and checked.degree == el.body.degree
