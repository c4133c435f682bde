"""Fast paths of the derivation kernel against slow references.

`Derivation._add_to`, which `apply` and `bracket` share, adds into a term
dict that may already hold terms, and maps a lone generator straight to
its image.  `bracket` visits only the generators its operands move, skips
a leg whose image holds no generator the other operand moves, and with a
diagonal operand h uses the closed form [h, D] g = sum over the terms t of
D g of (h(t) - h(g)) t, and [D, h] = -[h, D].  `_operator_residues`
compares images with a multiple of the wanted images term by term.
`differential_residues` takes a list of operators and walks the model's
generators once for all of them; each factor's cofactor and signs are
shared by every operator that moves it, whatever its parity.  Coefficients are stored as int whenever they are integral.  On
the model-building side, `monomial_product` inserts a one-factor left
operand by a single walk and compares generators by one int key, which
must sort like the tuple (family, position, decoration indices),
`_element_from_names` folds each named term straight into one monomial,
and the decorated constructors take one decoration step per generator.
`dump_json` writes the indent-2 text of `json.dumps` itself.
An algebra map multiplies its images into one term dict in `apply`,
`compose` and `is_chain_map`; a diagonal map of a model to itself is
checked in closed form.  Both are checked against the Element-level loop
of `*`, `**` and `+`.
The derivation-space solver reads its rows straight off d, with no unit
derivation per unknown, and eliminates them fraction-free; the rows are
checked against unit derivations and the elimination against dense
Gauss-Jordan over Fraction.
Each of these is checked here against a plain reference on random input,
and every coefficient is checked to be exact (int or Fraction, never
float).
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ekk.action import (_operator_residues, build_action, h_derivation,
                        torus_automorphism, verify_action)
from ekk.algebra import (MAX_RANK, Element, Generator, UniverseError,
                         monomial_product, parse_generator_name, s_bits_of,
                         s_indices_of)
from ekk.adjunction import hom_backward, hom_forward, scaling_endo
from ekk.dgca import (DgcaHom, _element_from_names, cyclification_model,
                      free_loop_model, is_chain_map, model_s4,
                      semifree_model, toroidify)
from ekk.derivations import (FULL_MODE_GENERATOR_CAP, Derivation,
                             _eliminate, _monomials_of_degree, _partials,
                             _residue_rows, bracket, derivation_basis,
                             differential_residues, nullspace, s_derivation,
                             sparse_rank)
from ekk.reports import dump_json, model_payload


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
    ops.append(h_derivation(model, tuple(range(1, k + 2))))
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
def diagonal_derivations(draw, k, corrupt=False):
    """A random diagonal derivation: a few generators, each scaled."""
    model = _setting(k, corrupt)[0]
    picks = draw(st.lists(st.sampled_from(model.generators), max_size=4))
    return Derivation(0, {g: Element.gen(g, draw(coefficients))
                          for g in picks}, model, name="h")


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
    if choice == len(ops):
        return draw(diagonal_derivations(k, corrupt))
    picks = draw(st.lists(st.sampled_from(model.generators), max_size=4))
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


@st.composite
def add_to_cases(draw):
    """(D, x, y) with y nonzero; half the time y holds D(x), so that
    subtracting D(x) from it cancels terms."""
    k = draw(st.integers(1, 3))
    model = _setting(k)[0]
    D, x, y = draw(derivations(k)), draw(elements(model)), \
        draw(elements(model))
    if draw(st.booleans()):
        y = y + _ref_apply(D, x)
    assume(not y.is_zero)
    return D, x, y


@given(add_to_cases())
@settings(max_examples=300, deadline=None)
def test_add_to_subtracts_into_a_nonempty_term_dict(case):
    D, x, y = case
    acc = dict(y.terms)
    assert D._add_to(acc, x, -1) is acc
    assert all(acc.values())  # cancelled terms are deleted
    assert Element(_raw=acc) == y - _ref_apply(D, x)


def _assert_int_where_integral(D: Derivation):
    for img in D.images.values():
        for _, c in img.items():
            assert type(c) is int or c.denominator != 1, repr(c)


@given(bracket_cases())
@settings(max_examples=60, deadline=None)
def test_bracket_matches_full_generator_scan(case):
    d1, d2 = case
    got = bracket(d1, d2)
    want = _ref_bracket(d1, d2)
    assert got == want
    assert list(got.images) == list(want.images)  # model generator order
    _assert_int_where_integral(got)


@st.composite
def diagonal_bracket_cases(draw):
    """A diagonal h, named or random, and any operand D."""
    k = draw(st.integers(1, 3))
    named = [D for D in _setting(k)[1] if D.diagonal is not None]
    h = draw(st.one_of(st.sampled_from(named), diagonal_derivations(k)))
    return h, draw(derivations(k))


@given(diagonal_bracket_cases())
@settings(max_examples=150, deadline=None)
def test_diagonal_bracket_matches_full_generator_scan(case):
    """The closed form (h(t) - h(g)) t of [h, D] g, and [D, h] = -[h, D]."""
    h, D = case
    assert h.diagonal is not None
    for d1, d2 in ((h, D), (D, h)):
        got = bracket(d1, d2)
        want = _ref_bracket(d1, d2)
        assert got == want
        assert list(got.images) == list(want.images)  # model generator order
        _assert_int_where_integral(got)


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
    _assert_int_where_integral(got)


def _ref_residues(name, want, got, scale):
    """got(g) - scale * want(g) on every generator of the model."""
    out = []
    for g in got.model.generators:
        wanted = scale * want.get(g, Element.zero()) if want is not None \
            else Element.zero()
        residue = got.image(g) - wanted
        if not residue.is_zero:
            out.append((name, got.model.name_of(g), residue))
    return out


@st.composite
def operator_residue_cases(draw):
    """(want, got, scale): want is the images of a derivation or None, and
    got is scale * want, or the zero operator when want is None, with a few
    images replaced or changed at random."""
    k = draw(st.integers(1, 3))
    model = _setting(k)[0]
    D = draw(st.one_of(st.none(), derivations(k)))
    want = D.images if D is not None else None
    scale = draw(st.one_of(st.sampled_from((0, 1, -1, 2, Fraction(1, 2))),
                           coefficients))
    degree = D.degree if D is not None else 0
    images = dict((scale * D).images) if D is not None else {}
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
    failures = _operator_residues("op", e3.images, e3, 0)
    assert [f.generator for f in failures] == \
        [model.name_of(h) for h in model.generators if h in e3.images]
    assert all(f.residue == e3.image(model.generator(f.generator))
               for f in failures)
    # a Fraction scale: only the one image that is not scaled fails
    half = Fraction(1, 2) * e3
    images = dict(half.images)
    images[g] = e3.image(g)
    failures = _operator_residues("op", e3.images,
                                  Derivation(0, images, model),
                                  Fraction(1, 2))
    assert [(f.generator, f.residue) for f in failures] == \
        [("s1s2s3g7", Fraction(1, 2) * e3.image(g))]
    assert _operator_residues("op", e3.images, half, Fraction(1, 2)) == []


@st.composite
def residue_cases(draw):
    """One to five operators of one model, clean or corrupted: named ones
    and random diagonal, linear and general ones of degree -1, 0 and 1."""
    k, corrupt = draw(st.integers(1, 3)), draw(st.booleans())
    return draw(st.lists(derivations(k, corrupt), min_size=1, max_size=5))


@given(residue_cases())
@settings(max_examples=150, deadline=None)
def test_residues_match_full_generator_scan(ops):
    """[d, D] on every generator of the model, clean or corrupted, for each
    D against the one pass over the model's generators, which shares each
    factor's cofactor and signs across operators of both parities."""
    m = ops[0].model
    d = m.differential_derivation()
    got = differential_residues(ops)
    assert len(got) == len(ops)
    for D, residues in zip(ops, got):
        sign = -1 if D.degree & 1 else 1
        want = []
        for g in m.generators:
            residue = _ref_apply(d, D.image(g)) \
                - _ref_apply(D, m.diff[g]) * sign
            if not residue.is_zero:
                want.append((g, residue))
        assert residues == want


def test_residues_of_operators_on_two_models_raise():
    e1 = build_action(3).e[1]
    assert differential_residues([]) == []
    with pytest.raises(UniverseError, match=r"^s1 and e1 act on two "):
        differential_residues([_setting(3)[1][1], e1])


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


# -- model building -----------------------------------------------------------

def _ref_merge(a, b):
    """`monomial_product`'s general merge, for any length of `a`."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    odd_suffix = [0] * (len(a) + 1)
    for i in range(len(a) - 1, -1, -1):
        odd_suffix[i] = odd_suffix[i + 1] + (a[i][0].degree & 1)
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        (ga, ea), (gb, eb) = a[i], b[j]
        if ga is gb:
            if ga.degree & 1:
                return None
            out.append((ga, ea + eb))
            i += 1
            j += 1
        elif ga.key <= gb.key:
            out.append(a[i])
            i += 1
        else:
            if (gb.degree & 1) and (odd_suffix[i] & 1):
                sign = -sign
            out.append(b[j])
            j += 1
    return sign, tuple(out + list(a[i:]) + list(b[j:]))


# two base tables whose generators share keys: ("g4", 0) and ("x", 0) both
# sort at position 0, and so do their decorations by the same word
_TIED_GENS = [Generator.w(1), Generator.w(2), Generator.sw(1)] + [
    Generator.decorated(base, pos, deg, bits)
    for base, pos, deg in (("g4", 0, 4), ("g7", 1, 7), ("x", 0, 3),
                           ("y", 1, 6))
    for bits in (0, 1, 2, 3)]


@st.composite
def factors(draw):
    g = draw(st.sampled_from(_TIED_GENS))
    return g, 1 if g.degree & 1 else draw(st.integers(1, 3))


@st.composite
def one_factor_products(draw):
    picked = draw(st.lists(factors(), max_size=6,
                           unique_by=lambda fe: fe[0]))
    b = tuple(sorted(picked, key=lambda fe: fe[0].key))
    if b and draw(st.booleans()):
        a = draw(st.sampled_from(b))  # a factor b already has
    else:
        a = draw(factors())
    return (a,), b


@given(one_factor_products())
@settings(max_examples=500, deadline=None)
def test_one_factor_product_matches_general_merge(case):
    a, b = case
    assert monomial_product(a, b) == _ref_merge(a, b)


def test_one_factor_product_ties_follow_general_merge():
    g4 = Generator.decorated("g4", 0, 4)
    x = Generator.decorated("x", 0, 3)
    s1g4 = Generator.decorated("g4", 0, 4, 1)
    s1x = Generator.decorated("x", 0, 3, 1)
    assert g4.key == x.key and s1g4.key == s1x.key
    for a, b in [(((g4, 1),), ((x, 1),)), (((x, 1),), ((g4, 1),)),
                 (((s1g4, 1),), ((s1x, 1),)), (((s1x, 1),), ((s1g4, 1),)),
                 (((s1x, 1),), ((s1g4, 1), (g4, 2)))]:
        assert monomial_product(a, b) == _ref_merge(a, b)


def _old_key(g: Generator):
    """The tuple that `Generator.key` encodes as one int."""
    position = g.base_pos if g.is_decorated_base else g.index
    return (g.family, position, s_indices_of(g.s_bits))


# words that probe the digits of the key: the top index MAX_RANK, a word
# against its extensions, and the longest word
_KEY_WORDS = [(), (1,), (1, 2), (1, MAX_RANK), (2,), (MAX_RANK - 1,),
              (MAX_RANK - 1, MAX_RANK), (MAX_RANK,),
              tuple(range(1, MAX_RANK + 1)), tuple(range(2, MAX_RANK + 1))]


@st.composite
def key_generators(draw):
    kind = draw(st.sampled_from(["tied", "w", "sw", "decorated"]))
    if kind == "tied":
        return draw(st.sampled_from(_TIED_GENS))
    if kind != "decorated":
        index = draw(st.integers(0, 6))
        return Generator.w(index) if kind == "w" else Generator.sw(index)
    base, pos, deg = draw(st.sampled_from(
        (("g4", 0, 4), ("x", 0, 3), ("g7", 1, 7), ("y", 2, 70))))
    word = draw(st.sampled_from(_KEY_WORDS)
                | st.sets(st.integers(1, MAX_RANK), max_size=5))
    return Generator.decorated(base, pos, deg, s_bits_of(word))


@given(st.lists(key_generators(), max_size=25))
@settings(max_examples=300, deadline=None)
def test_int_keys_sort_like_the_tuple_keys(gens):
    assert sorted(gens, key=lambda g: g.key) == sorted(gens, key=_old_key)
    for g in gens:
        for h in gens:
            assert (g.key < h.key) == (_old_key(g) < _old_key(h))
            assert (g.key == h.key) == (_old_key(g) == _old_key(h))
        position, indices = _old_key(g)[1:]
        assert g.s_indices == indices
        assert g.print_key == (2 - g.family, position, indices)


def test_key_words_and_ties():
    gens = [Generator.decorated(base, 0, 70, s_bits_of(word))
            for word in _KEY_WORDS for base in ("g4", "x")]
    ordered = sorted(gens, key=lambda g: g.key)
    assert ordered == sorted(gens, key=_old_key)
    # equal words tie, and sorted() keeps the tied pair in input order
    assert [g.base for g in ordered[:2]] == ["g4", "x"]
    assert ordered[0].key == ordered[1].key
    top = Generator.decorated("g4", 0, 70, s_bits_of([MAX_RANK]))
    assert top.s_indices == (MAX_RANK,) and top.name == f"s{MAX_RANK}g4"
    assert top.print_key == (0, 0, (MAX_RANK,))
    assert Generator.w(3).print_key == (2, 3, ())
    assert Generator.sw(3).print_key == (1, 3, ())


def test_identities_outside_the_key_range_raise():
    for _ in range(2):  # a rejected identity stays rejected
        with pytest.raises(ValueError, match="exceeds 64"):
            Generator.decorated("g4", 0, 70, s_bits_of([1, MAX_RANK + 1]))
        with pytest.raises(ValueError, match="out of range"):
            Generator.w(1 << 20)
    with pytest.raises(ValueError, match="exceeds 64"):
        parse_generator_name("s65g4", {"g4": (0, 4)})


def _ref_from_names(terms, gens):
    """The fold of `Element` products and sums that builds named terms."""
    acc = Element.zero()
    for coeff, names in terms:
        piece = Element.scalar(coeff)
        for f in names:
            piece = piece * Element.gen(gens[f])
        acc = acc + piece
    return acc


_T2 = toroidify(model_s4(), 2)
_T2_NAMES = {g.name: g for g in _T2.generators}


@st.composite
def named_terms(draw):
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        names = draw(st.lists(st.sampled_from(sorted(_T2_NAMES)),
                              max_size=4))
        coeff = draw(coefficients)
        terms.append((coeff, names))
        if draw(st.booleans()):  # the same term reordered, maybe cancelling
            terms.append((draw(st.sampled_from((coeff, -coeff))),
                          draw(st.permutations(names))))
    return terms


def _typed_terms(x: Element):
    return [(m, c, type(c)) for m, c in x.terms.items()]


@given(named_terms())
@settings(max_examples=400, deadline=None)
def test_element_from_names_matches_element_fold(terms):
    got = _element_from_names(terms, _T2_NAMES)
    assert _typed_terms(got) == _typed_terms(_ref_from_names(terms, _T2_NAMES))


def test_element_from_names_signs_cancellation_and_odd_squares():
    # s1g4 and s2g4 are odd: swapping them costs a sign, repeating one
    # kills the term
    cases = [
        [(1, ["s2g4", "s1g4"])],
        [(1, ["s1g4", "s2g4"]), (1, ["s2g4", "s1g4"])],
        [(Fraction(1, 2), ["g4", "s1g4", "w1"]), (Fraction(1, 2),
                                                  ["w1", "g4", "s1g4"])],
        [(3, ["s1g4", "g4", "s1g4"]), (2, ["w1", "w1"])],
        [(0, ["g4"]), (Fraction(-4, 2), [])],
    ]
    for terms in cases:
        got = _element_from_names(terms, _T2_NAMES)
        assert _typed_terms(got) == \
            _typed_terms(_ref_from_names(terms, _T2_NAMES))
    assert _element_from_names(cases[0], _T2_NAMES) == Element.monomial(
        ((Generator.decorated("g4", 0, 4, 1), 1),
         (Generator.decorated("g4", 0, 4, 2), 1)), -1)
    assert not _element_from_names(cases[1], _T2_NAMES)
    assert _element_from_names(cases[3], _T2_NAMES) == \
        Element.monomial(((Generator.w(1), 2),), 2)
    with pytest.raises(ValueError, match="'nope'"):
        _element_from_names([(1, ["g4", "nope", "alsonot"])], _T2_NAMES)


def _ref_decorated_diff(model):
    """d on every generator, each decoration applied one at a time to the
    differential of its undecorated generator."""
    undecorated = {g.base: g for g in model.generators
                   if g.is_decorated_base and not g.s_bits}
    s_ops = {i: s_derivation(i, model) for i in range(1, model.k + 1)}
    out = {}
    for g in model.generators:
        if not g.is_decorated_base:
            out[g] = model.diff[g]
            continue
        img = model.diff[undecorated[g.base]]
        for i in reversed(g.s_indices):
            img = s_ops[i].apply(img)
        out[g] = -img if len(g.s_indices) & 1 else img
    return out


# an odd generator of degree 1, and d^2 != 0 on z: constructors take any base
_GENERAL_BASE = semifree_model("Y", [("u", 1), ("x", 2), ("y", 3), ("z", 4)],
                               {"y": [(1, ["x", "x"])], "z": [(1, ["x", "y"])]})


@pytest.mark.parametrize("build", [
    *(lambda k=k, t=t: toroidify(model_s4(), k, truncated=t)
      for k in range(7) for t in (True, False)),
    *(lambda k=k: free_loop_model(model_s4(), k) for k in range(7)),
    lambda: cyclification_model(model_s4()),
    *(lambda k=k, t=t: toroidify(_GENERAL_BASE, k, truncated=t)
      for k in range(5) for t in (True, False)),
    lambda: free_loop_model(_GENERAL_BASE, 4),
    lambda: cyclification_model(_GENERAL_BASE),
])
def test_decorated_models_match_one_decoration_at_a_time(build):
    model = build()
    assert model.diff == _ref_decorated_diff(model)


def test_generator_names_parse_back_to_the_generator():
    model = toroidify(model_s4(), 6, truncated=False)
    table = {"g4": (0, 4), "g7": (1, 7)}
    for g in model.generators:
        assert parse_generator_name(g.name, table) is g
        assert g.s_indices == s_indices_of(g.s_bits)


# -- derivation-space solver --------------------------------------------------

def _unknowns(m, mode):
    """Every candidate (generator, monomial) of `derivation_basis`, as one
    block in model order."""
    if mode == "linear":
        return [(g, ((h, 1),)) for g in m.generators for h in m.generators
                if h.degree == g.degree]
    return [(g, mono) for g in m.generators
            for mono in _monomials_of_degree(m.generators, g.degree)]


def _ref_rows(m, block):
    """The commutation system through one unit derivation per unknown."""
    rows = {}
    for col, (g, mono) in enumerate(block):
        unit = Derivation(0, {g: Element.monomial(mono)}, m)
        (residues,) = differential_residues([unit])
        for gen, residue in residues:
            for n, c in residue.items():
                rows.setdefault((gen, n), {})[col] = c
    return rows


def _modes(m):
    full = len(m.generators) <= FULL_MODE_GENERATOR_CAP and \
        all(g.degree > 0 for g in m.generators)
    return ("linear", "full") if full else ("linear",)


@st.composite
def semifree_models(draw, base=None):
    """A random semifree model: one to five generators of degree 1 to 4,
    or those of `base`, each d x a random combination of the monomials of
    degree |x| + 1 (squares, odd factors, Fraction coefficients and x
    itself included; d^2 = 0 is not required)."""
    if base is None:
        degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
        base = semifree_model("R", [(f"x{i}", n)
                                    for i, n in enumerate(degrees)])
    diff = {}
    for g in base.generators:
        monos = _monomials_of_degree(base.generators, g.degree + 1)
        img = Element.zero()
        if monos:
            for mono in draw(st.lists(st.sampled_from(monos), max_size=4)):
                img = img + Element.monomial(mono, draw(coefficients))
        diff[g] = img
    return base.with_diff(diff)


@pytest.mark.parametrize("build", [
    *(lambda k=k: toroidify(model_s4(), k) for k in range(6)),
    *(lambda k=k: toroidify(model_s4(), k, truncated=False)
      for k in range(5)),
    lambda: cyclification_model(model_s4()),
])
def test_residue_rows_match_unit_derivations(build):
    m = build()
    for mode in _modes(m):
        block = _unknowns(m, mode)
        assert _residue_rows(m, block, _partials(m), {}) == \
            _ref_rows(m, block)


@given(semifree_models())
@settings(max_examples=150, deadline=None)
def test_residue_rows_match_unit_derivations_on_random_models(m):
    for mode in _modes(m):
        block = _unknowns(m, mode)
        rows = _residue_rows(m, block, _partials(m), {})
        assert rows == _ref_rows(m, block)
        for row in rows.values():
            _assert_exact(row.values())
        # no weights here: derivation_basis solves the one block above
        want = _dense_nullspace(list(rows.values()), len(block))
        got = derivation_basis(m, mode).basis
        assert len(got) == len(want)
        for D, vec in zip(got, want):
            assert D.images == _images(block, vec)


def _images(block, vec):
    """Generator images of the derivation whose unknowns block[col] have
    the coefficients vec[col]."""
    images = {}
    for col, c in vec.items():
        g, mono = block[col]
        images[g] = images.get(g, Element.zero()) + Element.monomial(mono, c)
    return images


def _dense_rref(rows, n):
    """Dense Gauss-Jordan over Fraction: (reduced rows, pivot columns)."""
    mat = [[Fraction(row.get(c, 0)) for c in range(n)] for row in rows]
    pivots = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        mat[r] = [v / mat[r][c] for v in mat[r]]
        for i, other in enumerate(mat):
            if i != r and other[c]:
                mat[i] = [a - other[c] * b for a, b in zip(other, mat[r])]
        pivots.append(c)
    return mat[:len(pivots)], pivots


def _dense_nullspace(rows, n):
    """One vector per free column: 1 there, 0 at the other free columns."""
    reduced, pivots = _dense_rref(rows, n)
    basis = []
    for fc in range(n):
        if fc not in pivots:
            vec = {fc: 1}
            vec.update((pc, -row[fc]) for pc, row in zip(pivots, reduced)
                       if row[fc])
            basis.append(vec)
    return basis


@st.composite
def rational_matrices(draw):
    """Sparse rows with explicit zeros, negative and non-unit leading
    entries, Fraction entries, duplicate rows and empty rows."""
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-6, 6), coefficients)
    rows = draw(st.lists(st.dictionaries(st.integers(0, n - 1), entry,
                                         max_size=n), max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    rows += [{}] * draw(st.integers(0, 2))
    return draw(st.permutations(rows)), n


@given(rational_matrices())
@settings(max_examples=300, deadline=None)
def test_elimination_matches_dense_gauss_jordan(case):
    rows, n = case
    _, pivots = _dense_rref(rows, n)
    assert set(_eliminate(rows)) == set(pivots)
    assert sparse_rank(rows) == len(pivots)
    basis = nullspace(rows, n)
    assert basis == _dense_nullspace(rows, n)
    for vec in basis:
        for c in vec.values():
            assert c and (type(c) is int or c.denominator != 1), repr(c)
    for col, piv in _eliminate(rows).items():
        assert min(piv) == col and piv[col] > 0
        assert all(type(c) is int and c for c in piv.values())
        assert gcd(*piv.values()) == 1


def test_explicit_zeros_and_empty_rows():
    assert nullspace([{0: 0, 1: 1}], 2) == [{0: 1}]
    assert _eliminate([{0: 1, 1: 0}]) == {0: {0: 1}}
    assert nullspace([{0: 1, 1: 0}], 2) == [{1: 1}]
    assert nullspace([{}], 2) == [{0: 1}, {1: 1}]
    assert sparse_rank([{0: 0, 1: Fraction(0)}, {}]) == 0


@pytest.mark.parametrize("k,dimension", enumerate([1, 2, 5, 11, 21, 36, 58]))
def test_linear_derivation_dimensions_of_the_torus_models(k, dimension):
    """D(T^k) at k = 0..6, the closed form k^2 + 1 + C(k,3) + C(k,6)."""
    assert derivation_basis(toroidify(model_s4(), k)).dimension == dimension


def test_derivation_basis_builds_no_derivation_per_unknown(monkeypatch):
    m = toroidify(model_s4(), 4)
    m.differential_derivation()
    built = []
    init = Derivation.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Derivation, "__init__", counting_init)
    basis = derivation_basis(m)
    assert len(built) == basis.dimension == 21


# -- algebra maps -------------------------------------------------------------

def _ref_hom_apply(h: DgcaHom, x: Element) -> Element:
    """h(x) by the Element-level loop: each term's factor images raised with
    `**` and multiplied with `*`, and the terms added with `+`."""
    out = Element.zero()
    for mono, coeff in x.items():
        piece = Element.scalar(coeff)
        for g, e in mono:
            piece = piece * (h.images[g] ** e)
            if piece.is_zero:
                break
        out = out + piece
    return out


def _ref_chain_residues(h: DgcaHom):
    """(name, h(d g) - d(h g)) for every source generator g where it is not
    zero, in source order."""
    d = h.target.differential_derivation()
    out = []
    for g in h.source.generators:
        residue = _ref_hom_apply(h, h.source.diff[g]) \
            - _ref_apply(d, h.images[g])
        if not residue.is_zero:
            out.append((h.source.name_of(g), residue))
    return out


def _ref_diagonal(h: DgcaHom):
    """generator -> c when every image is c times its generator, else None."""
    if all(list(img.terms) == [((g, 1),)] for g, img in h.images.items()):
        return {g: img.terms[((g, 1),)] for g, img in h.images.items()}
    return None


@lru_cache(maxsize=None)
def _torus(k: int, truncated: bool = True):
    return toroidify(model_s4(), k, truncated)


@lru_cache(maxsize=256)
def _monomials(model, degree):
    return _monomials_of_degree(model.generators, degree)


nonzero_coefficients = coefficients.filter(bool)


@st.composite
def images_of_degree(draw, target, degree):
    """A random combination of up to three monomials of the given degree."""
    monos = _monomials(target, degree)
    img = Element.zero()
    if monos:
        for mono in draw(st.lists(st.sampled_from(monos), max_size=3)):
            img = img + Element.monomial(mono, draw(coefficients))
    return img


@st.composite
def diagonal_homs(draw):
    """A diagonal map of a model to itself: a torus element at k <= 4, or
    random scales on a random semifree model.  Half the time one scale is
    then made wrong, so that even a torus element fails the chain check."""
    if draw(st.booleans()):
        k = draw(st.integers(0, 4))
        t = draw(st.lists(nonzero_coefficients, min_size=k + 1,
                          max_size=k + 1))
        model = _torus(k)
        images = dict(torus_automorphism(t, k, model).images)
    else:
        model = draw(semifree_models())
        images = {g: Element.gen(g, draw(nonzero_coefficients))
                  for g in model.generators}
    if draw(st.booleans()):
        g = draw(st.sampled_from(model.generators))
        images[g] = images[g] * draw(nonzero_coefficients.filter(
            lambda c: c != 1))
    return DgcaHom(model, model, images, name="diag")


@st.composite
def general_homs(draw):
    """A map of a random semifree model to itself or to another one, whose
    images are random combinations of monomials, zero included; or random
    scales into a copy of the model with other differentials, a diagonal
    map that is no endomorphism."""
    source = draw(semifree_models())
    kind = draw(st.integers(0, 2))
    if kind == 2:
        target = draw(semifree_models(source))
        images = {g: Element.gen(g, draw(nonzero_coefficients))
                  for g in source.generators}
    else:
        target = source if kind == 0 else draw(semifree_models())
        images = {g: draw(images_of_degree(target, g.degree))
                  for g in source.generators}
    return DgcaHom(source, target, images, name="gen")


@st.composite
def adjunction_homs(draw):
    """hom_backward of a map F over Q[w] of the untruncated torus model at
    k <= 2 (a scaling, or random images), which maps S4 into the
    totalization, or hom_forward of that, out of a fresh torus model; in
    both, source is not target."""
    k = draw(st.integers(1, 2))
    trd = _torus(k, False)
    if draw(st.booleans()):
        F = scaling_endo(trd, draw(nonzero_coefficients))
    else:
        F = DgcaHom(trd, trd, {
            g: Element.gen(g) if g.is_w
            else draw(images_of_degree(trd, g.degree))
            for g in trd.generators}, name="F")
    f = hom_backward(F)
    return f if draw(st.booleans()) else hom_forward(f)


homs = st.one_of(diagonal_homs(), general_homs(), adjunction_homs())


@given(homs, st.data())
@settings(max_examples=200, deadline=None)
def test_hom_apply_matches_the_element_loop(h, data):
    """apply, and `_add_to` subtracting into a term dict that already holds
    terms; and `diagonal` is read off the images."""
    x = data.draw(elements(h.source))
    y = data.draw(elements(h.target))
    want = _ref_hom_apply(h, x)
    assert h.apply(x) == want
    # an element whose terms hold a factor to several powers
    x2 = x * x + x
    assert h.apply(x2) == _ref_hom_apply(h, x2)
    acc = dict(y.terms)
    assert h._add_to(acc, x, -1) is acc
    assert all(acc.values())  # cancelled terms are deleted
    assert Element(_raw=acc) == y - want
    assert h.diagonal == _ref_diagonal(h)


@st.composite
def compose_cases(draw):
    """(outer, inner): inner maps the outer map's source, or a random
    semifree model, into the outer map's source; by random images, or by
    random scales when it is an endomorphism."""
    outer = draw(homs)
    mid = outer.source
    if draw(st.booleans()):
        inner = DgcaHom(mid, mid, {
            g: Element.gen(g, draw(nonzero_coefficients))
            for g in mid.generators}, name="diag")
    else:
        source = mid if draw(st.booleans()) else draw(semifree_models())
        inner = DgcaHom(source, mid, {
            g: draw(images_of_degree(mid, g.degree))
            for g in source.generators}, name="gen")
    return outer, inner


@given(compose_cases())
@settings(max_examples=150, deadline=None)
def test_hom_compose_matches_the_element_loop(case):
    outer, inner = case
    got = outer.compose(inner)
    assert got.source is inner.source and got.target is outer.target
    assert got.images == {g: _ref_hom_apply(outer, img)
                          for g, img in inner.images.items()}
    assert got.diagonal == _ref_diagonal(got)


@given(homs)
@settings(max_examples=200, deadline=None)
def test_chain_map_check_matches_the_element_loop(h):
    """The failure lists, in order: the closed form for a diagonal map of a
    model to itself, one term dict per generator otherwise."""
    report = is_chain_map(h)
    got = [(f.generator, f.residue) for f in report.failures]
    assert got == _ref_chain_residues(h)
    assert report.checked == len(h.source.generators)
    for _, residue in got:
        _assert_exact(_element_coeffs(residue))


_torus_components = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                              st.integers(1, 5))


@given(st.integers(0, 5).flatmap(lambda k: st.lists(
    _torus_components, min_size=k + 1, max_size=k + 1)))
@settings(max_examples=100, deadline=None)
def test_torus_scales_match_the_fraction_product(t):
    """Each c_g, built from integer products of the t_j's numerators and
    denominators, is prod_j t_j^(-w_j) over Fraction, w the weight of g."""
    k = len(t) - 1
    model = _torus(k)
    h = torus_automorphism(t, k, model)
    weights = model.weights
    for g in model.generators:
        want = Fraction(1)
        for tj, wj in zip(t, weights[g]):
            want *= Fraction(tj) ** -wj
        assert h.images[g].terms == {((g, 1),): want}
        _assert_exact(_element_coeffs(h.images[g]))
    assert h.diagonal is not None


def test_closed_form_reports_a_wrong_scale():
    model = _torus(3)
    h = torus_automorphism((2, Fraction(-1, 3), 5, Fraction(7, 2)), 3, model)
    assert h.diagonal is not None and is_chain_map(h).ok
    g = model.generator("s1g4")
    images = dict(h.images)
    images[g] = images[g] * Fraction(3, 2)
    bad = DgcaHom(model, model, images)
    assert bad.diagonal is not None
    failures = [(f.generator, f.residue) for f in is_chain_map(bad).failures]
    assert failures == _ref_chain_residues(bad)
    # s1g4 and every generator whose differential uses it
    assert [name for name, _ in failures] == \
        [x.name for x in model.generators
         if x is g or g in set(model.diff[x].generators())]
    assert len(failures) > 1


# -- JSON writer --------------------------------------------------------------

_json_text = st.text() | st.sampled_from(
    ['', '"', '\\', '\\"', '\x00\x1f\x7f', '\n\r\t', 'é', ' ', '\U0001f600',
     '"quoted" \\ slash'])
_json_scalars = (st.none() | st.booleans() | st.integers() | _json_text
                 | st.floats(allow_nan=True, allow_infinity=True))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.none() | st.booleans() | st.integers()
                                     | st.floats() | _json_text,
                                     inner, max_size=4)),
    max_leaves=25)


@given(_json_values)
@settings(max_examples=500, deadline=None)
def test_dump_json_writes_the_bytes_of_json_dumps(value):
    assert dump_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("build", [
    model_s4,
    lambda: cyclification_model(model_s4()),
    *[lambda k=k: free_loop_model(model_s4(), k) for k in range(6)],
    *[lambda k=k: toroidify(model_s4(), k) for k in range(6)],
    *[lambda k=k: toroidify(model_s4(), k, truncated=False) for k in range(6)],
])
def test_dump_json_of_model_payloads(build):
    m = build()
    payload = model_payload(m, m.weights)
    assert dump_json(payload) == json.dumps(payload, indent=2)


def test_dump_json_of_subclassed_values():
    class Label(str):
        pass

    class Count(int):
        pass

    class Ratio(float):
        pass

    class Row(list):
        pass

    class Table(dict):
        pass

    value = Table({Count(1): Row([Label("a"), Count(2), Ratio(0.5), True]),
                   Label("k"): (Table(), Row()), Ratio(-0.0): None})
    for part in (value, Label("x"), Count(-3), Ratio(float("inf"))):
        assert dump_json(part) == json.dumps(part, indent=2)
