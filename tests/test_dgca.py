"""Model constructors, differentials, golden rank-3 table, chain checks."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from ekk.algebra import Element, Generator, UniverseError
from ekk.dgca import (Dgca, DgcaHom, cyclification_model, d_squared_zero,
                      free_loop_model, hom0_check, is_chain_map, model_s4,
                      monomial_weight, semifree_model, toroidify, weight_of)
from ekk.derivations import bracket, s_derivation
from ekk.adjunction import totalize
from ekk.reports import dump_json, model_payload, model_text

from _golden import GOLDEN_RANK3, E

S4 = model_s4()


def test_sphere_model():
    assert S4.diff[S4.generator("g4")].is_zero
    assert S4.diff[S4.generator("g7")] == E(S4, (Fraction(-1, 2), ["g4", "g4"]))
    assert d_squared_zero(S4).ok


def test_free_loop_rank1():
    m = free_loop_model(S4, 1)
    assert len(m.generators) == 4
    assert {g.name for g in m.generators} == {"g4", "s1g4", "g7", "s1g7"}
    # d(s g7) = -s(d g7) = s g4 . g4
    assert m.diff[m.generator("s1g7")] == E(m, (1, ["s1g4", "g4"]))
    assert d_squared_zero(m).ok


def test_free_loop_rank3_keeps_base_differential():
    m = free_loop_model(S4, 3)
    assert m.diff[m.generator("g7")] == E(m, (Fraction(-1, 2), ["g4", "g4"]))
    assert d_squared_zero(m).ok


def test_cyclification():
    m = cyclification_model(S4)
    g4 = m.generator("g4")
    w = m.generator("w1")
    assert m.name_of(w) == "w"
    assert m.diff[g4] == E(m, (1, ["w1", "s1g4"]))
    assert m.diff[w].is_zero
    assert d_squared_zero(m).ok


def test_cyclification_matches_rank_one_torus():
    cyc = cyclification_model(S4)
    tor = toroidify(S4, 1)
    assert cyc.generator_set == tor.generator_set
    # identity-images hom across the two construction paths is a chain map
    h = DgcaHom(cyc, tor, {g: Element.gen(g) for g in cyc.generators})
    assert is_chain_map(h).ok
    back = DgcaHom(tor, cyc, {g: Element.gen(g) for g in tor.generators})
    assert is_chain_map(back).ok


@pytest.mark.parametrize("k,count", [(0, 2), (1, 5), (2, 10), (3, 19),
                                     (4, 35)])
def test_torus_generator_counts(k, count):
    assert len(toroidify(S4, k).generators) == count


def test_golden_rank3_differentials():
    m = toroidify(S4, 3)
    assert len(m.generators) == 19
    for name, terms in GOLDEN_RANK3.items():
        assert m.diff[m.generator(name)] == E(m, *terms), name


# Lc(S4) in canonical names: d v = d_S4 v + w1 . s1v, d s1v = -s1(d_S4 v).
GOLDEN_CYCLIC = {
    "w1": [],
    "g4": [(1, ["s1g4", "w1"])],
    "s1g4": [],
    "g7": [(Fraction(-1, 2), ["g4", "g4"]), (1, ["s1g7", "w1"])],
    "s1g7": [(1, ["g4", "s1g4"])],
}

# L^2(S4): d(s_I v) = (-1)^|I| s_I(d_S4 v), no w generators.
GOLDEN_LOOP2 = {
    "g4": [], "s1g4": [], "s2g4": [], "s1s2g4": [],
    "g7": [(Fraction(-1, 2), ["g4", "g4"])],
    "s1g7": [(1, ["g4", "s1g4"])],
    "s2g7": [(1, ["g4", "s2g4"])],
    "s1s2g7": [(-1, ["g4", "s1s2g4"]), (-1, ["s1g4", "s2g4"])],
}


@pytest.mark.parametrize("model,golden", [
    (cyclification_model(S4), GOLDEN_CYCLIC),
    (free_loop_model(S4, 2), GOLDEN_LOOP2),
], ids=["Lc", "L2"])
def test_golden_cyclic_and_loop_differentials(model, golden):
    assert {g.name for g in model.generators} == set(golden)
    for name, terms in golden.items():
        assert model.diff[model.generator(name)] == E(model, *terms), name


# sha256 of the "generators" and "differential" fields of model_payload plus
# model_text: pins the exports byte for byte at ranks above those of the CLI
# goldens, which stop at k = 4
EXPORT_DIGESTS = {
    "L^8": "1692d6f6c2faea842374ed201a5bf025ad2581afb016e0d24e05c1fe4df096fa",
    "T^9": "ab108a95f668249a2aba8b6c1036cc787f2b78daa3e2caad84945767d36d1767",
    "~T^8": "d82b71b1dcf26d301d155ed89835c28d2baacd0096176fc0b5b0156a054c46e9",
}


@pytest.mark.parametrize("label,build", [
    ("L^8", lambda: free_loop_model(S4, 8)),
    ("T^9", lambda: toroidify(S4, 9)),
    ("~T^8", lambda: toroidify(S4, 8, truncated=False)),
])
def test_model_exports_above_golden_ranks(label, build):
    m = build()
    p = model_payload(m)
    text = dump_json({"generators": p["generators"],
                      "differential": p["differential"]}) + "\n" + model_text(m)
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_DIGESTS[label]


@pytest.mark.parametrize("k", range(0, 7))
def test_torus_d_squared(k):
    assert d_squared_zero(toroidify(S4, k)).ok


def test_corrupted_model_reports_residue():
    m = toroidify(S4, 3)
    g7 = m.generator("g7")
    bad = m.with_diff({g7: m.diff[g7] + E(m, (1, ["w1", "s2g7"]))})
    rep = d_squared_zero(bad)
    assert not rep.ok
    assert any(f.generator == "g7" for f in rep.failures)
    assert all(not f.residue.is_zero for f in rep.failures)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_d_commutes_with_decorations(k):
    m = toroidify(S4, k)
    d = m.differential_derivation()
    for i in range(1, k + 1):
        assert not bracket(d, s_derivation(i, m)).images


@pytest.mark.parametrize("k", [1, 2, 3])
def test_loop_differential_commutes_with_decorations(k):
    m = free_loop_model(S4, k)
    d = m.differential_derivation()
    for i in range(1, k + 1):
        assert not bracket(d, s_derivation(i, m)).images


def test_s_operator_values():
    m = toroidify(S4, 3)
    s1 = s_derivation(1, m)
    s2 = s_derivation(2, m)
    assert s1.apply(m.gen_element("g4")) == E(m, (1, ["s1g4"]))
    assert s1.apply(m.gen_element("s1g4")).is_zero
    # Koszul-Leibniz on a product with an odd first factor
    x = m.gen_element("s1g4") * m.gen_element("g7")
    expected = E(m, (-1, ["s1s2g4", "g7"]), (-1, ["s1g4", "s2g7"]))
    assert s2.apply(x) == expected
    # consistency: s2 s1 = -s1 s2 as operators on g4*g7
    y = m.gen_element("g4") * m.gen_element("g7")
    assert s2.apply(s1.apply(y)) == -(s1.apply(s2.apply(y)))


def test_differential_preserves_weight():
    for k in (1, 2, 3, 4):
        m = toroidify(S4, k)
        weights = m.weights
        for g in m.generators:
            target = weight_of(g, k)
            for mono, _ in m.diff[g].items():
                assert monomial_weight(mono, k, weights) == target


def test_truncation_drops_and_annihilates():
    base = semifree_model("X", [("x", 1)], {})
    trd = toroidify(base, 1)
    names = {g.name for g in trd.generators}
    assert names == {"x", "w1"}          # s1x has degree 0: dropped
    assert trd.diff[trd.generator("x")].is_zero  # w1*s1x annihilated
    full = toroidify(base, 1, truncated=False)
    assert {g.name for g in full.generators} == {"x", "s1x", "w1"}
    assert full.diff[full.generator("x")] == E(full, (1, ["w1", "s1x"]))
    assert d_squared_zero(full).ok


def test_constructors_on_a_general_base_model():
    # a sphere-like base with a nonzero quadratic differential in odd degree
    base = semifree_model("Y", [("x", 2), ("y", 3)],
                          {"y": [(1, ["x", "x"])]})
    assert d_squared_zero(base).ok
    loop = free_loop_model(base, 2)
    # s1s2x has degree 0 and falls to the positive-degree truncation
    assert {g.name for g in loop.generators} == \
        {"x", "s1x", "s2x", "y", "s1y", "s2y", "s1s2y"}
    # d(s y) = -s(x^2) = -2 x . s x
    assert loop.diff[loop.generator("s1y")] == E(loop, (-2, ["x", "s1x"]))
    assert loop.diff[loop.generator("s1s2y")] == \
        E(loop, (2, ["s1x", "s2x"]))
    assert d_squared_zero(loop).ok
    d = loop.differential_derivation()
    for i in (1, 2):
        assert not bracket(d, s_derivation(i, loop)).images
    cyc = cyclification_model(base)
    assert cyc.diff[cyc.generator("x")] == \
        E(cyc, (1, ["w1", "s1x"]))
    assert cyc.diff[cyc.generator("y")] == \
        E(cyc, (1, ["x", "x"]), (1, ["w1", "s1y"]))
    assert d_squared_zero(cyc).ok
    tor = toroidify(base, 2)
    assert d_squared_zero(tor).ok
    # s1s2x has degree 0 and is truncated away
    assert "s1s2x" not in {g.name for g in tor.generators}
    full = toroidify(base, 2, truncated=False)
    assert "s1s2x" in {g.name for g in full.generators}
    assert d_squared_zero(full).ok


def test_untruncated_equals_truncated_for_sphere_low_rank():
    for k in (1, 2, 3):
        a = toroidify(S4, k)
        b = toroidify(S4, k, truncated=False)
        assert a.generator_set == b.generator_set
        assert all(a.diff[g] == b.diff[g] for g in a.generators)


def test_chain_map_identity_and_negative():
    m = toroidify(S4, 2)
    ident = DgcaHom(m, m, {g: Element.gen(g) for g in m.generators})
    assert is_chain_map(ident).ok
    # sphere model into the rank-1 model by name: d g4 = w.sg4 breaks it
    t1 = toroidify(S4, 1)
    h = DgcaHom(S4, t1, {
        S4.generator("g4"): t1.gen_element("g4"),
        S4.generator("g7"): t1.gen_element("g7"),
    })
    rep = is_chain_map(h)
    assert not rep.ok
    assert any(f.generator == "g4" for f in rep.failures)


def test_hom_images_outside_source_or_target_raise():
    t1 = toroidify(S4, 1)
    w1 = t1.gen_element("w1")
    images = {g: Element.gen(g) for g in S4.generators}
    with pytest.raises(UniverseError, match=r"^w1 is not a generator of S4$"):
        DgcaHom(S4, S4, {**images, t1.generator("w1"): w1})
    # the identity images of T^1 name generators that S4 lacks
    with pytest.raises(UniverseError, match=r"^element uses w1, not a "
                                            r"generator of S4$"):
        DgcaHom(t1, S4, {g: Element.gen(g) for g in t1.generators})
    ident = DgcaHom(S4, S4, images)
    with pytest.raises(UniverseError, match=r"^hom has no image for w1$"):
        ident.apply(w1)


def test_hom0_check_examples():
    k = 4
    n = toroidify(S4, k, truncated=False)
    tot = totalize(n, k)
    zero_map = DgcaHom(S4, tot, {g: Element.zero() for g in S4.generators})
    assert hom0_check(zero_map)
    # g4 -> sw1 sw2 sw3 sw4 violates the positivity condition by construction
    sw_mono = Element.one()
    for i in range(1, 5):
        sw_mono = sw_mono * Element.gen(Generator.sw(i))
    bad = DgcaHom(S4, tot, {
        S4.generator("g4"): sw_mono,
        S4.generator("g7"): Element.zero(),
    })
    assert not hom0_check(bad)
    plain = toroidify(S4, 1)
    ident = DgcaHom(plain, plain,
                    {g: Element.gen(g) for g in plain.generators})
    with pytest.raises(ValueError):
        hom0_check(ident)


def test_diff_validation_rejects_wrong_degree():
    g4 = Generator.decorated("g4", 0, 4)
    g7 = Generator.decorated("g7", 1, 7)
    with pytest.raises(ValueError):
        Dgca("bad", 0, [g4, g7], {g4: Element.zero(),
                                  g7: Element.gen(g4)})


def test_diff_validation_reports_degree_before_foreign_generator():
    g4 = Generator.decorated("g4", 0, 4)
    g7 = Generator.decorated("g7", 1, 7)
    G4 = Element.gen(g4)
    X5 = Element.gen(Generator.decorated("x", 2, 5))  # foreign generators
    X4 = Element.gen(Generator.decorated("x", 2, 4))

    def build(image):
        return Dgca("bad", 0, [g4, g7], {g4: Element.zero(), g7: image})

    # a wrong degree and a foreign generator: the degree error comes first
    for image, degree in [(X5, 5), (G4 ** 2 + X5, "INHOMOGENEOUS"),
                          (X5 + G4 ** 2, "INHOMOGENEOUS"),
                          (G4 + G4 ** 2, "INHOMOGENEOUS")]:
        with pytest.raises(ValueError, match=rf"^bad: d\(g7\) has degree "
                           rf"{degree}, expected 8$") as exc:
            build(image)
        assert not isinstance(exc.value, UniverseError)
    # the right degree, and a foreign generator in the second term
    with pytest.raises(UniverseError,
                       match=r"^bad: d\(g7\) uses foreign generator x$"):
        build(G4 ** 2 + G4 * X4)
    assert build(G4 ** 2).diff[g7] == G4 ** 2


def test_rank_bounds():
    with pytest.raises(ValueError):
        toroidify(S4, -1)
    with pytest.raises(ValueError):
        free_loop_model(S4, -2)
    with pytest.raises(ValueError):
        toroidify(S4, 65)
