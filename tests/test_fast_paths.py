"""Fast paths of the derivation kernel against slow references.

`Derivation.apply` scales each monomial by a diagonal derivation's weights
and maps a lone generator straight to its image.  `bracket` visits only the
generators its operands move, only the other operand's generators when one
operand is diagonal, and none when both are; it composes two linear
operands' images term by term.  `_operator_residues` compares images with
a multiple of the wanted operator term by term.  `differential_residues` visits
only the generators a derivation moves and those whose differential uses
one, found through the model's reverse index.  Coefficients are stored as
int whenever they are integral.  Each of these is checked here against a
plain reference on random input, and every coefficient is checked to be
exact (int or Fraction, never float).
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekk.action import _operator_residues, build_action, verify_action
from ekk.algebra import Element, UniverseError
from ekk.dgca import model_s4, semifree_model, toroidify
from ekk.derivations import (Derivation, bracket, derivation_basis,
                             differential_residues, nullspace, s_derivation,
                             sparse_rank)


def _product(factors):
    out = Element.one()
    for g in factors:
        out = out * Element.gen(g)
    return out


def _ref_apply(D: Derivation, x: Element) -> Element:
    """D(x) by the Leibniz rule over the factors, multiplied out with `*`."""
    out = Element.zero()
    for mono, coeff in x.items():
        factors = [g for g, e in mono for _ in range(e)]
        passed = 0
        for i, g in enumerate(factors):
            sign = -1 if (D.degree & 1) and (passed & 1) else 1
            out = out + Element.scalar(coeff * sign) * _product(
                factors[:i]) * D.image(g) * _product(factors[i + 1:])
            passed += g.degree
    return out


def _ref_bracket(d1: Derivation, d2: Derivation) -> Derivation:
    """Graded commutator evaluated on every generator of the model."""
    model = d1.model
    sign = -1 if (d1.degree & 1) and (d2.degree & 1) else 1
    images = {}
    for g in model.generators:
        img = _ref_apply(d1, d2.image(g)) \
            - _ref_apply(d2, d1.image(g)) * sign
        if not img.is_zero:
            images[g] = img
    return Derivation(d1.degree + d2.degree, images, model)


def _corrupted(model):
    """A copy whose d(s1g4) also uses g4 and w1, which it did not before."""
    g = model.generator("s1g4")
    extra = model.gen_element("g4") + model.gen_element("w1") ** 2
    return model.with_diff({g: model.diff[g] + extra})


@lru_cache(maxsize=None)
def _setting(k: int, corrupt: bool = False):
    """The rank-k torus model (or its corrupted copy), its named operators,
    and candidate images."""
    model = toroidify(model_s4(), k)
    if corrupt:
        model = _corrupted(model)
    a = build_action(k, model)
    ops = [model.differential_derivation()]
    ops += [s_derivation(i, model) for i in range(1, k + 1)]
    ops += list(a.e.values()) + list(a.f.values())
    ops.append(a.h(tuple(range(1, k + 2))))
    # monomials of one or two factors, grouped by degree, for random
    # derivations of degree -1, 0 or 1 whose images are not linear
    by_degree = {}
    gens = model.generators
    for i, g in enumerate(gens):
        by_degree.setdefault(g.degree, []).append(((g, 1),))
        for h in gens[i:]:
            for mono in (_product([g, h])).terms:
                by_degree.setdefault(g.degree + h.degree, []).append(mono)
    return model, ops, by_degree


@lru_cache(maxsize=None)
def _gens_by_degree(k: int):
    by_degree = {}
    for g in _setting(k)[0].generators:
        by_degree.setdefault(g.degree, []).append(g)
    return by_degree


coefficients = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def elements(draw, model):
    gens = model.generators
    acc = Element.zero()
    for _ in range(draw(st.integers(0, 4))):
        picks = draw(st.lists(st.integers(0, len(gens) - 1), max_size=3))
        acc = acc + Element.scalar(draw(coefficients)) * _product(
            gens[i] for i in picks)
    return acc


@st.composite
def linear_derivations(draw, k, corrupt=False):
    """A random derivation of degree -1, 0 or 1 whose images are sums of
    one to three generators."""
    model = _setting(k, corrupt)[0]
    targets = _gens_by_degree(k)
    degree = draw(st.sampled_from((-1, 0, 1)))
    images = {}
    for g in draw(st.lists(st.sampled_from(model.generators), max_size=4)):
        degree_targets = targets.get(g.degree + degree)
        if degree_targets:
            terms = draw(st.lists(
                st.tuples(st.sampled_from(degree_targets), coefficients),
                min_size=1, max_size=3))
            img = Element.zero()
            for t, c in terms:
                img = img + Element.gen(t, c)
            images[g] = img
    return Derivation(degree, images, model, name="L")


@st.composite
def derivations(draw, k, corrupt=False):
    """A named operator, a random diagonal derivation, a random linear one,
    or a random one of degree -1, 0 or 1 whose images are generators or
    two-factor monomials."""
    model, ops, by_degree = _setting(k, corrupt)
    choice = draw(st.integers(0, len(ops) + 2))
    if choice < len(ops):
        return ops[choice]
    if choice == len(ops) + 2:
        return draw(linear_derivations(k, corrupt))
    picks = draw(st.lists(st.sampled_from(model.generators), max_size=4))
    if choice == len(ops):
        return Derivation(0, {g: Element.gen(g, draw(coefficients))
                              for g in picks}, model, name="h")
    degree = draw(st.sampled_from((-1, 0, 1)))
    images = {}
    for g in picks:
        monos = by_degree.get(g.degree + degree, [])
        if monos:
            images[g] = Element.monomial(draw(st.sampled_from(monos)),
                                         draw(coefficients))
    return Derivation(degree, images, model, name="D")


@st.composite
def apply_cases(draw):
    k = draw(st.integers(1, 3))
    return draw(derivations(k)), draw(elements(_setting(k)[0]))


@st.composite
def bracket_cases(draw):
    k = draw(st.integers(1, 3))
    return draw(derivations(k)), draw(derivations(k))


@given(apply_cases())
@settings(max_examples=300, deadline=None)
def test_apply_matches_reference_leibniz(case):
    D, x = case
    assert D.apply(x) == _ref_apply(D, x)


@given(bracket_cases())
@settings(max_examples=60, deadline=None)
def test_bracket_matches_full_generator_scan(case):
    d1, d2 = case
    got = bracket(d1, d2)
    want = _ref_bracket(d1, d2)
    assert got == want
    assert list(got.images) == list(want.images)  # model generator order


@st.composite
def linear_operands(draw, k):
    """A named linear operator of the rank-k model or a random linear one."""
    named = [D for D in _setting(k)[1] if D.linear]
    return draw(st.one_of(st.sampled_from(named), linear_derivations(k)))


@st.composite
def linear_bracket_cases(draw):
    k = draw(st.integers(1, 3))
    return draw(linear_operands(k)), draw(linear_operands(k))


@given(linear_bracket_cases())
@settings(max_examples=200, deadline=None)
def test_linear_bracket_composes_like_the_reference(case):
    d1, d2 = case
    assert d1.linear and d2.linear
    got = bracket(d1, d2)
    want = _ref_bracket(d1, d2)
    assert got == want
    assert list(got.images) == list(want.images)  # model generator order
    assert got.linear
    for img in got.images.values():
        for _, c in img.items():
            assert type(c) is int or c.denominator != 1, repr(c)


def _ref_residues(name, want, got, scale):
    """got(g) - scale * want(g) on every generator of the model."""
    out = []
    for g in got.model.generators:
        wanted = scale * want.image(g) if want is not None else Element.zero()
        residue = got.image(g) - wanted
        if not residue.is_zero:
            out.append((name, got.model.name_of(g), residue))
    return out


@st.composite
def operator_residue_cases(draw):
    """(want, got, scale): got is scale * want, or the zero operator when
    want is None, with a few images replaced or changed at random."""
    k = draw(st.integers(1, 3))
    model = _setting(k)[0]
    want = draw(st.one_of(st.none(), derivations(k)))
    scale = draw(st.one_of(st.sampled_from((0, 1, -1, 2, Fraction(1, 2))),
                           coefficients))
    degree = want.degree if want is not None else 0
    images = dict((scale * want).images) if want is not None else {}
    for g in draw(st.lists(st.sampled_from(model.generators), max_size=3)):
        if draw(st.booleans()):
            images[g] = images.get(g, Element.zero()) + draw(elements(model))
        else:
            images.pop(g, None)
    return want, Derivation(degree, images, model), scale


@given(operator_residue_cases())
@settings(max_examples=300, deadline=None)
def test_operator_residues_match_plain_subtraction(case):
    want, got, scale = case
    failures = _operator_residues("op", want, got, scale)
    assert [(f.operator, f.generator, f.residue) for f in failures] == \
        _ref_residues("op", want, got, scale)


def test_operator_residues_scale_zero_and_fraction():
    model, ops, _ = _setting(3)
    e3 = next(D for D in ops if D.name == "e3")
    g = model.generator("s1s2s3g7")
    # scale 0: the wanted operator is zero, so every image of got fails
    failures = _operator_residues("op", e3, e3, 0)
    assert [f.generator for f in failures] == \
        [model.name_of(h) for h in model.generators if h in e3.images]
    assert all(f.residue == e3.image(model.generator(f.generator))
               for f in failures)
    # a Fraction scale: only the one image that is not scaled fails
    half = Fraction(1, 2) * e3
    images = dict(half.images)
    images[g] = e3.image(g)
    failures = _operator_residues("op", e3, Derivation(0, images, model),
                                  Fraction(1, 2))
    assert [(f.generator, f.residue) for f in failures] == \
        [("s1s2s3g7", Fraction(1, 2) * e3.image(g))]
    assert _operator_residues("op", e3, half, Fraction(1, 2)) == []


@st.composite
def residue_cases(draw):
    return draw(derivations(draw(st.integers(1, 3)), draw(st.booleans())))


@given(residue_cases())
@settings(max_examples=150, deadline=None)
def test_residues_match_full_generator_scan(D):
    """[d, D] on every generator of the model, clean or corrupted, against
    the residues visited through the model's own reverse index."""
    m = D.model
    d = m.differential_derivation()
    sign = -1 if D.degree & 1 else 1
    want = []
    for g in m.generators:
        residue = _ref_apply(d, D.image(g)) \
            - _ref_apply(D, m.diff[g]) * sign
        if not residue.is_zero:
            want.append((g, residue))
    assert list(differential_residues(D)) == want


# -- exact coefficients -------------------------------------------------------

def _assert_exact(values):
    for c in values:
        assert type(c) in (int, Fraction), repr(c)


def _element_coeffs(x: Element):
    return [c for _, c in x.items()]


def _derivation_coeffs(D: Derivation):
    return [c for img in D.images.values() for c in _element_coeffs(img)]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_verify_action_coefficients_are_exact(k):
    a = build_action(k)
    assert verify_action(a).ok
    ops = list(a.e.values()) + list(a.f.values()) + a.h_basis()
    for D in ops:
        _assert_exact(_derivation_coeffs(D))
        _assert_exact(_derivation_coeffs(bracket(D, a.e[k])))
    for g in a.model.generators:
        _assert_exact(_element_coeffs(a.model.diff[g]))
    # failing checks carry residues; those must be exact too
    g = a.model.generator("s1s2s3g7")
    images = dict(a.e[k].images)
    images[g] = images[g] * Fraction(3, 2)
    bad = dataclasses.replace(a, e={**a.e, k: Derivation(
        0, images, a.model, name=f"e{k}")})
    report = verify_action(bad)
    assert not report.ok
    for check in report.checks.values():
        for failure in check.failures:
            _assert_exact(_element_coeffs(failure.residue))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_derivation_basis_coefficients_are_exact(k):
    for D in derivation_basis(toroidify(model_s4(), k)).basis:
        _assert_exact(_derivation_coeffs(D))


def test_elimination_on_int_rows_stays_exact():
    assert nullspace([{0: 3, 1: 1}], 2) == [{0: Fraction(-1, 3), 1: 1}]
    rows = [{0: 2, 1: 4, 3: 6}, {1: 3, 2: 1}, {0: 4, 1: 11, 2: 1, 3: 12}]
    basis = nullspace(rows, 4)
    assert len(basis) == 4 - sparse_rank(rows) == 2
    for vec in basis:
        _assert_exact(vec.values())
        for row in rows:
            assert sum(c * vec.get(col, 0) for col, c in row.items()) == 0


def test_integral_scalars_are_stored_as_int():
    assert Element.scalar(Fraction(2)) == Element.scalar(2)
    assert type(Element.scalar(Fraction(4, 2)).coefficient(())) is int
    half = Element.scalar(Fraction(1, 2))
    assert type((half * 2).coefficient(())) is int
    assert (half * 2) == Element.one()
    # the one non-integral coefficient of the sphere model survives d
    d_g7 = model_s4().diff[model_s4().generator("g7")]
    assert _element_coeffs(d_g7) == [Fraction(-1, 2)]


# -- generator identity -------------------------------------------------------

def test_generators_of_other_declaration_orders_are_distinct():
    xy = semifree_model("XY", [("x", 2), ("y", 3)])
    yx = semifree_model("YX", [("y", 3), ("x", 2)])
    for g in xy.generators:
        for h in yx.generators:
            if g == h:
                assert g.key == h.key
    assert xy.generator("x") != yx.generator("x")
    with pytest.raises(UniverseError):
        xy.check_element(yx.gen_element("x") * yx.gen_element("y"))
    # the same declaration order shares generators and canonical monomials
    again = semifree_model("XY'", [("x", 2), ("y", 3)])
    assert again.generator("x") is xy.generator("x")
    assert again.gen_element("y") * again.gen_element("x") == \
        xy.gen_element("x") * xy.gen_element("y")
