"""Totalization and the map correspondence, with its truncated variant."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ekk.algebra import Element, Generator
from ekk.adjunction import (factors_through_truncation, hom_backward,
                            hom_forward, scaling_endo, totalize,
                            truncated_correspondence)
from ekk.dgca import (Dgca, DgcaHom, d_squared_zero, hom0_check,
                      is_chain_map, model_over_w, model_s4, semifree_model,
                      toroidify)

from _golden import E

S4 = model_s4()


def identity_endo(model, name="id"):
    return DgcaHom(model, model,
                   {g: Element.gen(g) for g in model.generators}, name=name)


# -- totalize -----------------------------------------------------------------

def test_totalize_pure_polynomial():
    n = model_over_w("W", 1, [])
    tot = totalize(n, 1)
    sw1 = tot.generator("sw1")
    assert tot.diff[sw1] == E(tot, (1, ["w1"]))
    assert d_squared_zero(tot).ok
    # the degree-2 class becomes exact on the nose
    assert tot.diff[sw1] == Element.gen(Generator.w(1))


def test_totalize_untruncated_torus_model():
    n = toroidify(S4, 1, truncated=False)
    tot = totalize(n, 1)
    assert d_squared_zero(tot).ok


@pytest.mark.parametrize("k", [1, 2, 3])
def test_totalize_returns_the_model(k):
    n = toroidify(S4, k, truncated=False)
    tot = totalize(n, k)
    assert isinstance(tot, Dgca)
    assert tot.totalization_of is n
    assert [g.name for g in tot.generators if g.is_sw] == \
        [f"sw{i}" for i in range(1, k + 1)]


def test_totalize_requires_closed_w():
    n = semifree_model("noW", [("x", 2)], {})
    with pytest.raises(ValueError):
        totalize(n, 1)


# -- the two transformations ---------------------------------------------------

def test_identity_backward_rank_one_frozen():
    trd = toroidify(S4, 1, truncated=False)
    f = hom_backward(identity_endo(trd))
    tot = f.target
    g4_img = f.images[S4.generator("g4")]
    assert g4_img == E(tot, (1, ["g4"]), (1, ["s1g4", "sw1"]))
    assert is_chain_map(f).ok


@pytest.mark.parametrize("k", [1, 2, 3])
def test_round_trips_identity(k):
    trd = toroidify(S4, k, truncated=False)
    F = identity_endo(trd)
    f = hom_backward(F)
    assert is_chain_map(f).ok
    F2 = hom_forward(f, trd)
    assert all(F.images[g] == F2.images[g] for g in trd.generators)
    f2 = hom_backward(F2)
    assert all(f.images[g] == f2.images[g] for g in S4.generators)
    assert hom0_check(f)


def test_zero_on_generators_map():
    k = 2
    trd = toroidify(S4, k, truncated=False)
    images = {g: Element.gen(g) if g.is_w else Element.zero()
              for g in trd.generators}
    F = DgcaHom(trd, trd, images, name="zero")
    assert is_chain_map(F).ok
    f = hom_backward(F)
    assert all(f.images[v].is_zero for v in S4.generators)
    assert is_chain_map(f).ok
    F2 = hom_forward(f, trd)
    assert all(F.images[g] == F2.images[g] for g in trd.generators)


def test_non_chain_input_is_detected():
    # f(g4) = g4 with no sw correction is not a chain map, and neither is
    # the forward transform it induces
    k = 1
    n = toroidify(S4, k, truncated=False)
    tot = totalize(n, k)
    f = DgcaHom(S4, tot, {
        S4.generator("g4"): tot.gen_element("g4"),
        S4.generator("g7"): tot.gen_element("g7"),
    })
    assert not is_chain_map(f).ok
    F = hom_forward(f)
    assert F.images[F.source.generator("s1g4")].is_zero
    assert F.images[F.source.generator("g4")] == E(F.target, (1, ["g4"]))
    assert not is_chain_map(F).ok


def test_backward_requires_w_fixing():
    trd = toroidify(S4, 1, truncated=False)
    images = {g: Element.gen(g) for g in trd.generators}
    images[trd.generator("w1")] = E(trd, (2, ["w1"]))
    F = DgcaHom(trd, trd, images)
    with pytest.raises(ValueError):
        hom_backward(F)


def test_naturality_square_for_scaling_automorphism():
    # sigma scales the sphere model; the induced endo of the torus model
    # must intertwine the forward transform
    k = 2
    a = Fraction(3, 2)
    trd = toroidify(S4, k, truncated=False)
    F = identity_endo(trd)
    f = hom_backward(F)
    sigma = DgcaHom(S4, S4, {
        S4.generator("g4"): E(S4, (a, ["g4"])),
        S4.generator("g7"): E(S4, (a * a, ["g7"])),
    }, name="sigma")
    assert is_chain_map(sigma).ok
    f_sigma = DgcaHom(S4, f.target,
                      {v: f.apply(sigma.images[v]) for v in S4.generators},
                      name="f.sigma")
    lhs = hom_forward(f_sigma, trd)
    trd_sigma = scaling_endo(trd, a)
    rhs = DgcaHom(trd, trd,
                  {g: hom_forward(f, trd).apply(trd_sigma.images[g])
                   for g in trd.generators})
    assert all(lhs.images[g] == rhs.images[g] for g in trd.generators)


# -- sampled pairs and the truncated correspondence ----------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_seeded_sample_pairs(k):
    rng = random.Random(52 + k)
    trd = toroidify(S4, k, truncated=False)
    for trial in range(10):
        a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            a = -a
        F = scaling_endo(trd, a)
        assert is_chain_map(F).ok
        f = hom_backward(F)
        assert is_chain_map(f).ok
        assert f.source.label == "S4"
        assert f.target.totalization_of is F.target
        F2 = hom_forward(f, trd)
        assert all(F.images[g] == F2.images[g] for g in trd.generators)
        assert truncated_correspondence([F]).ok


def test_truncated_correspondence_nontrivial():
    # base with a degree-1 generator: the untruncated model has a genuine
    # degree-0 decoration, so the positivity condition can actually fail
    base = semifree_model("X", [("x", 1)], {})
    trd = toroidify(base, 1, truncated=False)
    n = model_over_w("K", 1, [("z", 1)], {"z": [(1, ["w1"])]})
    x, sx = trd.generator("x"), trd.generator("s1x")
    w1 = trd.generator("w1")

    def F_of(c):
        return DgcaHom(trd, n, {
            x: E(n, (c, ["z"])),
            sx: Element.scalar(c),
            w1: n.gen_element("w1"),
        }, name=f"F({c})")

    for c in (Fraction(0), Fraction(1), Fraction(-2), Fraction(5, 3)):
        F = F_of(c)
        assert is_chain_map(F).ok
        f = hom_backward(F)
        assert is_chain_map(f).ok
        assert hom0_check(f) == (c == 0)
        assert factors_through_truncation(F) == (c == 0)
    assert truncated_correspondence(
        [F_of(Fraction(n, d)) for n in (-3, 0, 2, 7) for d in (1, 2)]).ok


def test_forward_of_sampled_chain_maps_is_chain():
    rng = random.Random(99)
    k = 2
    trd = toroidify(S4, k, truncated=False)
    for _ in range(5):
        a = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        f = hom_backward(scaling_endo(trd, a))
        F = hom_forward(f, trd)
        assert is_chain_map(F).ok


# scaling_endo written out per generator: the power of a that multiplies it
# (w fixed, the g4 family times a, the g7 family times a^2)
SCALING_IMAGES = {
    1: {"w1": 0, "g4": 1, "s1g4": 1, "g7": 2, "s1g7": 2},
    2: {"w1": 0, "w2": 0, "g4": 1, "s1g4": 1, "s2g4": 1, "s1s2g4": 1,
        "g7": 2, "s1g7": 2, "s2g7": 2, "s1s2g7": 2},
    3: {"w1": 0, "w2": 0, "w3": 0,
        "g4": 1, "s1g4": 1, "s2g4": 1, "s3g4": 1, "s1s2g4": 1,
        "s1s3g4": 1, "s2s3g4": 1, "s1s2s3g4": 1,
        "g7": 2, "s1g7": 2, "s2g7": 2, "s3g7": 2, "s1s2g7": 2,
        "s1s3g7": 2, "s2s3g7": 2, "s1s2s3g7": 2},
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("a", [Fraction(1), Fraction(-2), Fraction(7, 3)])
def test_scaling_endo_scales_each_family(k, a):
    trd = toroidify(S4, k, truncated=False)
    F = scaling_endo(trd, a)
    assert F.source is trd and F.target is trd
    assert F.name == f"scale({a})"
    assert {g.name: F.images[g] for g in trd.generators} == {
        name: E(trd, (a ** p, [name]))
        for name, p in SCALING_IMAGES[k].items()}


def test_forward_rejects_a_torus_model_that_does_not_match():
    f = hom_backward(scaling_endo(toroidify(S4, 2, truncated=False), 3))
    with pytest.raises(ValueError, match="rank 1.*2 sw generators"):
        hom_forward(f, toroidify(model_s4(), 1, truncated=False))
    other = toroidify(semifree_model("X", [("x", 1)], {}), 2,
                      truncated=False)
    with pytest.raises(ValueError, match="not a torus model of S4"):
        hom_forward(f, other)
    with pytest.raises(ValueError, match="not an untruncated"):
        hom_forward(f, toroidify(model_s4(), 2))
