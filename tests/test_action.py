"""Action values, weights, relation verification, torus, gravity line."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ekk.algebra import Element
from ekk.action import (build_action, gravity_line_rank, h_derivation,
                        torus_automorphism, verify_action)
from ekk.dgca import (is_chain_map, model_s4, monomial_weight, semifree_model,
                      toroidify, torus_exponents, weight_of)
from ekk.derivations import Derivation, bracket, derivation_basis

from _golden import E

S4 = model_s4()


# -- weights ----------------------------------------------------------------

def test_weight_table():
    m = toroidify(S4, 4)
    w = m.weights
    assert w[m.generator("g4")] == (-1, 0, 0, 0, 0)
    assert w[m.generator("g7")] == (-2, 0, 0, 0, 0)
    assert w[m.generator("s1s2g7")] == (-2, 1, 1, 0, 0)
    assert w[m.generator("w3")] == (0, 0, 0, -1, 0)
    assert list(w) == list(m.generators)
    assert all(w[g] == weight_of(g, 4) for g in m.generators)
    assert m.weights is w  # built once


def test_monomial_weight_is_additive():
    m = toroidify(S4, 2)
    k = 2
    x = m.gen_element("s1s2g7") * m.gen_element("w2")
    ((mono, _),) = list(x.items())
    assert monomial_weight(mono, k, m.weights) == (-2, 1, 0)


# -- displayed action values -------------------------------------------------

def test_diagonal_action_on_base_generators():
    m = toroidify(S4, 2)
    h0 = h_derivation(m, (1, 0, 0))
    assert h0.image(m.generator("g4")) == E(m, (1, ["g4"]))
    assert h0.image(m.generator("g7")) == E(m, (2, ["g7"]))
    h1 = h_derivation(m, (0, 1, 0))
    assert h1.image(m.generator("w1")) == E(m, (-1, ["w1"]))
    assert h1.image(m.generator("s1g4")) == E(m, (1, ["s1g4"]))
    assert h1.image(m.generator("g4")).is_zero


def test_gravity_line_operator_values():
    a = build_action(2)
    m = a.model
    assert a.e[1].image(m.generator("w1")) == E(m, (1, ["w2"]))
    assert a.e[1].image(m.generator("w2")).is_zero
    assert a.f[1].image(m.generator("w2")) == E(m, (1, ["w1"]))
    # [e1, s2] = -s1 acting on generators
    assert a.e[1].image(m.generator("s2g4")) == E(m, (-1, ["s1g4"]))
    assert a.e[1].image(m.generator("s1g4")).is_zero
    # [f1, s1] = -s2, and s2 s2 = 0 kills the decorated case
    assert a.f[1].image(m.generator("s1g4")) == E(m, (-1, ["s2g4"]))
    assert a.f[1].image(m.generator("s1s2g4")).is_zero


def test_top_operator_base_table():
    a = build_action(3)
    m = a.model
    e3 = a.e[3]
    assert e3.image(m.generator("s1s2g4")) == E(m, (1, ["w3"]))
    assert e3.image(m.generator("s1s3g4")) == E(m, (-1, ["w2"]))
    assert e3.image(m.generator("s2s3g4")) == E(m, (1, ["w1"]))
    assert e3.image(m.generator("s1s2s3g7")) == E(m, (1, ["g4"]))
    for name in ("g4", "g7", "s1g4", "s1g7", "s1s2g7", "s1s2s3g4", "w1"):
        assert e3.image(m.generator(name)).is_zero


def test_top_operator_commutes_past_high_decorations():
    a = build_action(5)
    m = a.model
    e5 = a.e[5]
    # factor-and-commute: one high index costs one sign on the g7 chain
    assert e5.image(m.generator("s1s2s3s4g7")) == E(m, (-1, ["s4g4"]))
    assert e5.image(m.generator("s1s2s3s4s5g7")) == E(m, (1, ["s4s5g4"]))
    # w-valued base cases die under any extra decoration
    assert e5.image(m.generator("s1s2s4g4")).is_zero
    assert e5.image(m.generator("s1s2s4g7")).is_zero


def test_small_rank_actions_exist():
    for k, n_e, n_f in ((0, 0, 0), (1, 0, 0), (2, 1, 1), (3, 3, 2)):
        a = build_action(k)
        assert len(a.e) == n_e
        assert len(a.f) == n_f


# -- relation suite ----------------------------------------------------------

@pytest.mark.parametrize("k", range(0, 6))
def test_verify_action_full(k):
    rep = verify_action(build_action(k))
    assert rep.ok, {n: [str(f) for f in r.failures[:3]]
                    for n, r in rep.checks.items() if not r.ok}


def test_serre_square_at_rank_four():
    a = build_action(4)
    inner = bracket(a.e[4], a.e[3])
    outer = bracket(a.e[4], inner)
    assert not outer.images  # vanishes on all 35 generators


def test_disconnected_raising_operators_commute():
    a = build_action(4)
    assert not bracket(a.e[1], a.e[3]).images
    assert not bracket(a.e[1], a.e[4]).images


def test_ef_pairs_against_coroots():
    a = build_action(4)
    for i in a.f:
        got = bracket(a.e[i], a.f[i])
        assert got == h_derivation(a.model, a.simple_roots[i])
    assert not bracket(a.e[1], a.f[2]).images


def test_low_rank_simple_roots():
    assert build_action(0).simple_roots == {}
    assert build_action(1).simple_roots == {}
    assert build_action(2).simple_roots == {1: (0, 1, -1)}


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        verify_action(build_action(2), checks=("chain", "bogus"))


def test_build_action_rejects_a_model_of_another_rank():
    with pytest.raises(ValueError, match="rank 4, not 3"):
        build_action(3, toroidify(S4, 4))


def test_a_model_outside_the_sphere_family_has_no_action():
    m = toroidify(semifree_model("X", [("x", 3)], {}), 3)
    message = "no torus action table for base 'x'"
    with pytest.raises(ValueError, match=message):
        build_action(3, m)
    with pytest.raises(ValueError, match=message):
        torus_automorphism((1, 1, 1, 1), 3, m)
    with pytest.raises(ValueError, match=message):
        h_derivation(m, (1, 0, 0, 0))
    # without weights the solver still runs, as one block
    assert derivation_basis(m).dimension == 13


#: linear derivation dimension of the untruncated ~T^k, k = 0..6
UNTRUNCATED_LINEAR_DIMS = (1, 2, 5, 11, 21, 36, 58)


@pytest.mark.parametrize("k", range(9))
def test_action_on_the_untruncated_model(k):
    """The five checks on ~T^k, and its linear derivation dimension.

    From k = 4 on, ~T^k keeps generators of degree 0 or less (s1s2s3s4g4
    has degree 0) that the truncated T^k drops.  PAPER.md holds only the
    abstract, so it cannot settle whether the paper's T^k is the
    truncated model or the untruncated one; the other tests here cover
    the truncated model.
    """
    m = toroidify(S4, k, truncated=False)
    assert verify_action(build_action(k, m)).ok
    if k < len(UNTRUNCATED_LINEAR_DIMS):
        assert derivation_basis(m).dimension == UNTRUNCATED_LINEAR_DIMS[k]


# -- split torus --------------------------------------------------------------

def test_torus_scaling_example():
    k = 3
    t = (2, 1, 1, 1)
    h = torus_automorphism(t, k)
    m = h.source
    assert h.images[m.generator("g4")] == E(m, (2, ["g4"]))
    assert h.images[m.generator("g7")] == E(m, (4, ["g7"]))
    assert h.images[m.generator("s1g4")] == E(m, (2, ["s1g4"]))
    assert h.images[m.generator("w1")] == E(m, (1, ["w1"]))
    assert is_chain_map(h).ok


def test_torus_identity():
    h = torus_automorphism((1, 1, 1), 2)
    m = h.source
    assert all(h.images[g] == Element.gen(g) for g in m.generators)


def test_torus_rejects_zero_component():
    with pytest.raises(ValueError):
        torus_automorphism((1, 0, 1), 2)


def test_torus_rejects_a_model_of_another_rank():
    with pytest.raises(ValueError, match="rank 4, not 3"):
        torus_automorphism((2, 1, 1, 1), 3, toroidify(S4, 4))
    # t_4 has no generator of T^3 to act on; it must not be dropped
    with pytest.raises(ValueError, match="rank 3, not 4"):
        torus_automorphism((1, 1, 1, 1, 5), 4, toroidify(S4, 3))


def _random_torus(rng, k):
    def q():
        v = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        return -v if rng.random() < 0.4 else v
    return tuple(q() for _ in range(k + 1))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_torus_chain_and_multiplicative(k):
    rng = random.Random(4000 + k)
    m = toroidify(S4, k)
    for _ in range(6):
        t = _random_torus(rng, k)
        u = _random_torus(rng, k)
        ht, hu = torus_automorphism(t, k, m), torus_automorphism(u, k, m)
        assert is_chain_map(ht).ok
        prod = torus_automorphism(tuple(a * b for a, b in zip(t, u)), k, m)
        composed = ht.compose(hu)
        assert all(composed.images[g] == prod.images[g]
                   for g in m.generators)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_torus_tangent_matches_diagonal_action(k):
    """Slot derivatives of the character exponents against the weights.

    The curve in slot 0 integrates h_0; the curve in slot j >= 1 integrates
    -h_j (the characters invert the spatial coordinates), so the exponent
    vector of each generator must pair accordingly with the eigenvalues.
    """
    m = toroidify(S4, k)
    for g in m.generators:
        exps = torus_exponents(g)
        w = weight_of(g, k)
        for j in range(k + 1):
            h = tuple(1 if i == j else 0 for i in range(k + 1))
            eig = h_derivation(m, h).image(g).coefficient(((g, 1),))
            slot = exps.get(j, 0)
            if j == 0:
                assert slot == eig
            else:
                assert slot == -eig
        assert eig is not None and w is not None


# -- gravity line -------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 4])
def test_gravity_line_rank_small(k):
    assert gravity_line_rank(build_action(k)) == k * k - 1


def test_gravity_line_needs_rank_two():
    with pytest.raises(ValueError):
        gravity_line_rank(build_action(1))


# -- mutation sensitivity (spot checks; the full ten live in acceptance) ------

def test_mutated_top_operator_sign_is_caught():
    a = build_action(3)
    m = a.model
    bad_images = dict(a.e[3].images)
    g = m.generator("s1s3g4")
    bad_images[g] = -bad_images[g]
    a.e[3] = Derivation(0, bad_images, m, name="e3")
    rep = verify_action(a)
    assert not rep.ok
    assert not rep.checks["chain"].ok


def test_mutated_lowering_rule_is_caught():
    a = build_action(3)
    m = a.model
    bad_images = dict(a.f[1].images)
    g = m.generator("s1g4")
    bad_images[g] = -bad_images[g]
    a.f[1] = Derivation(0, bad_images, m, name="f1")
    rep = verify_action(a)
    assert not rep.ok


def test_failing_verify_payload_golden():
    # e4(s1s2s3g7) = g4 doubled; residues print in model text's term order
    a = build_action(4)
    m = a.model
    bad_images = dict(a.e[4].images)
    g = m.generator("s1s2s3g7")
    bad_images[g] = 2 * bad_images[g]
    a.e[4] = Derivation(0, bad_images, m, name="e4")
    (entry,) = verify_action(a, ("chain",)).to_payload()
    assert entry["status"] == "fail"
    assert entry["failures"] == [
        {"operator": "e4", "generator": "s1s2g7", "residue": "-g4*w3"},
        {"operator": "e4", "generator": "s1s2s3g7",
         "residue": "s1g4*w1 + s2g4*w2 + s3g4*w3 + s4g4*w4"},
        {"operator": "e4", "generator": "s1s3g7", "residue": "g4*w2"},
        {"operator": "e4", "generator": "s2s3g7", "residue": "-g4*w1"},
    ]


def test_failing_verify_payload_golden_rank_two():
    # f1(w2) = w1 + w2 and f1(s1g4) doubled
    a = build_action(2)
    m = a.model
    bad_images = dict(a.f[1].images)
    bad_images[m.generator("w2")] = m.gen_element("w1") + m.gen_element("w2")
    g = m.generator("s1g4")
    bad_images[g] = 2 * bad_images[g]
    a.f[1] = Derivation(0, bad_images, m, name="f1")
    payload = verify_action(a, ("cartan", "ef", "weight")).to_payload()
    assert payload == [
        {"k": 2, "check": "cartan", "status": "fail", "failures": [
            {"operator": "[h1,f1]", "generator": "w2", "residue": "w2"},
            {"operator": "[h2,f1]", "generator": "w2", "residue": "-w2"}]},
        {"k": 2, "check": "ef", "status": "fail", "failures": [
            {"operator": "[e1,f1]", "generator": "w1", "residue": "-w2"},
            {"operator": "[e1,f1]", "generator": "s1g4",
             "residue": "s1g4"},
            {"operator": "[e1,f1]", "generator": "s2g4",
             "residue": "-s2g4"}]},
        {"k": 2, "check": "weight", "status": "fail", "failures": [
            {"operator": "f1", "generator": "w2", "residue": "w2"}]},
    ]


def test_failing_verify_payload_golden_serre():
    # e2(w2) doubled and f1(w2) = w1 + w2
    a = build_action(3)
    m = a.model
    w2 = m.generator("w2")
    bad_e = dict(a.e[2].images)
    bad_e[w2] = 2 * bad_e[w2]
    a.e[2] = Derivation(0, bad_e, m, name="e2")
    bad_f = dict(a.f[1].images)
    bad_f[w2] = m.gen_element("w1") + m.gen_element("w2")
    a.f[1] = Derivation(0, bad_f, m, name="f1")
    (entry,) = verify_action(a, ("serre",)).to_payload()
    assert entry["status"] == "fail"
    assert entry["failures"] == [
        {"operator": "ad(e2)^1(e3)", "generator": "s1s3g4", "residue": "-w3"},
        {"operator": "ad(e3)^1(e2)", "generator": "s1s3g4", "residue": "w3"},
        {"operator": "ad(f1)^2(f2)", "generator": "w3", "residue": "w1 + w2"},
    ]


def test_failing_verify_payload_golden_diagonal():
    # d(s1g4) gains g4, which breaks weight homogeneity: [d, h1] and
    # [d, e1] see it
    m = toroidify(model_s4(), 3)
    g = m.generator("s1g4")
    a = build_action(3, m.with_diff({g: m.diff[g] + m.gen_element("g4")}))
    (entry,) = verify_action(a, ("chain",)).to_payload()
    assert entry["status"] == "fail"
    assert entry["failures"] == [
        {"operator": "e1", "generator": "s2g4", "residue": "-g4"},
        {"operator": "h1", "generator": "s1g4", "residue": "g4"},
    ]


@pytest.mark.parametrize("k", [2, 3, 5])
def test_action_images_are_linear_degree_zero(k):
    a = build_action(k)
    for op in list(a.e.values()) + list(a.f.values()) + a.h_basis():
        assert op.degree == 0
        assert op.linear
        for g, img in op.images.items():
            assert img.is_homogeneous(g.degree)


def test_weight_check_also_holds_at_rank_nine():
    rep = verify_action(build_action(9), checks=("weight",))
    assert rep.ok
