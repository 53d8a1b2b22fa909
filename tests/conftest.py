import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# oracles.py is a helper, not a test module, so pytest would leave its
# asserts plain and the `python -O` run of scripts/tier1.sh would drop them.
pytest.register_assert_rewrite("oracles")

from marked_bases import (
    FreeModuleLayout,
    MarkedElement,
    MarkedSet,
    ModuleElement,
    ModuleTerm,
    MonomialModule,
    PommaretBasis,
    pommaret_completion,
    truncate_basis,
)
from marked_bases.monom import _packed_for
from marked_bases.randgen import random_quasi_stable_exponents

LAY3 = FreeModuleLayout(2)  # x0, x1, x2


def T(exp, comp=1):
    return ModuleTerm(tuple(exp), comp)


def E(layout, terms):
    return ModuleElement(layout, {t: Fraction(c) for t, c in terms.items()})


def cone_divisor_of(basis, t):
    """The basis term whose cone holds the module term t, or None: t is
    packed by the basis's packing (`PommaretBasis.packing`), or, above it,
    by that of a copy packed for its degree (`monom._packed_for`), and
    looked up through `PommaretBasis.cone_divisor`, the kernel's one cone
    lookup."""
    basis = _packed_for(basis, basis.layout.term_degree(t))
    packing = basis.packing
    found = basis.cone_divisor(packing.pack(t))
    return None if found is None else packing.unpack(found)


def build_twisted_example():
    """P(J) = {x2^3, x2^2x1, x2x1, x1x0, x1^2} with the one non-trivial tail
    x1x0 + x2^2; paper-order numbering g1..g5."""
    heads = [T((0, 0, 3)), T((0, 1, 2)), T((0, 1, 1)), T((1, 1, 0)), T((0, 2, 0))]
    basis = PommaretBasis(LAY3, frozenset(heads), certified=True)
    bodies = [
        E(LAY3, {heads[0]: 1}),
        E(LAY3, {heads[1]: 1}),
        E(LAY3, {heads[2]: 1}),
        E(LAY3, {heads[3]: 1, T((0, 0, 2)): 1}),
        E(LAY3, {heads[4]: 1}),
    ]
    marked = MarkedSet(basis, [MarkedElement(b, h) for b, h in zip(bodies, heads)])
    return SimpleNamespace(layout=LAY3, heads=heads, basis=basis, marked=marked)


def build_non_groebner_example():
    """P(J) = {x2x1, x2^2x1, x2^3, x1^3, x2^2x0, x1^2x0}; the first element
    x2x1 - x2^2 - x1^2 is not a Groebner leading form for any term order."""
    heads = [
        T((0, 1, 1)),
        T((0, 1, 2)),
        T((0, 0, 3)),
        T((0, 3, 0)),
        T((1, 0, 2)),
        T((1, 2, 0)),
    ]
    basis = PommaretBasis(LAY3, frozenset(heads), certified=True)
    bodies = [E(LAY3, {heads[0]: 1, T((0, 0, 2)): -1, T((0, 2, 0)): -1})]
    bodies += [E(LAY3, {h: 1}) for h in heads[1:]]
    marked = MarkedSet(basis, [MarkedElement(b, h) for b, h in zip(bodies, heads)])
    return SimpleNamespace(layout=LAY3, heads=heads, basis=basis, marked=marked)


TWISTED_DOC = """\
ring 3
ideal J = x2^3, x2^2*x1, x2*x1, x1*x0, x1^2
marked G = [x2^3], [x2^2*x1], [x2*x1], [x1*x0] + x2^2, [x1^2]
"""

# The ideal of TWISTED_DOC by its minimal generators only, which are not its
# Pommaret basis (x2^2*x1 is missing), so reading it runs the full completion.
TWISTED_MINIMAL_DOC = """\
ring 3
ideal J = x2*x1, x1*x0, x1^2, x2^3
"""

NON_GROEBNER_DOC = """\
ring 3
ideal J = x2*x1, x2^2*x1, x2^3, x1^3, x2^2*x0, x1^2*x0
marked G = [x2*x1] - x2^2 - x1^2, [x2^2*x1], [x2^3], [x1^3], [x2^2*x0], [x1^2*x0]
"""


def survey_bases(seed: int, count: int):
    """Small random quasi-stable ideals in 3 and 4 variables, every fifth a
    rank-2 module, sized like the cases of scripts/random_survey.py."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nvars = 3 + len(out) % 2
        if len(out) % 5 == 4:
            layout = FreeModuleLayout(nvars - 1, tuple(rng.randint(0, 1) for _ in range(2)))
            gens = [ModuleTerm(e, k) for k in (1, 2)
                    for e in random_quasi_stable_exponents(rng, nvars, 2)]
            cap = 16
        else:
            layout = FreeModuleLayout(nvars - 1)
            gens = [ModuleTerm(e, 1) for e in random_quasi_stable_exponents(rng, nvars, 3)]
            cap = 12
        basis = pommaret_completion(MonomialModule(layout, gens))
        if 0 < len(basis.terms) <= cap and basis.max_degree() <= {3: 4, 4: 3}[nvars]:
            out.append(basis)
    return out


def _truncated_completion(n: int, gens, degree: int):
    module = MonomialModule(FreeModuleLayout(n), [ModuleTerm(e, 1) for e in gens])
    return truncate_basis(pommaret_completion(module), degree)


def c2_basis():
    """P^3, (x3, x2, x1^6) truncated in degree 6."""
    return _truncated_completion(3, [(0, 0, 0, 1), (0, 0, 1, 0), (0, 6, 0, 0)], 6)


def c3_basis():
    """P^3, (x3, x2^2, x1^2*x2, x1^4) truncated in degree 5."""
    gens = [(0, 0, 0, 1), (0, 0, 2, 0), (0, 2, 1, 0), (0, 4, 0, 0)]
    return _truncated_completion(3, gens, 5)


def c4_basis():
    """P^5, (x5, x4, x3, x2^2) truncated in degree 3."""
    gens = [(0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0), (0, 0, 2, 0, 0, 0)]
    return _truncated_completion(5, gens, 3)


@pytest.fixture
def twisted():
    return build_twisted_example()


@pytest.fixture
def non_groebner():
    return build_non_groebner_example()


@pytest.fixture
def rng():
    return random.Random(20260809)
