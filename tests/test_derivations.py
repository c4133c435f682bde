"""Derivation arithmetic, brackets, and exact derivation-space dimensions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ekk.algebra import Element
from ekk.action import build_action, h_derivation
from ekk.dgca import model_s4, toroidify
from ekk.derivations import (Derivation, bracket, commutes_with_differential,
                             derivation_basis, nullspace, s_derivation,
                             sparse_rank)

from _golden import E

S4 = model_s4()


def test_apply_even_first_factor_no_sign():
    m = toroidify(S4, 1)
    s1 = s_derivation(1, m)
    x = m.gen_element("g4") * m.gen_element("g7")
    assert s1.apply(x) == E(m, (1, ["s1g4", "g7"]), (1, ["g4", "s1g7"]))


def test_apply_leibniz_on_square():
    a = build_action(2)
    m = a.model
    # raising operator on w1^2 doubles through the Leibniz rule
    w1sq = m.gen_element("w1") * m.gen_element("w1")
    assert a.e[1].apply(w1sq) == E(m, (2, ["w1", "w2"]))
    # differential on g4^2 in the rank-2 model
    d = m.differential_derivation()
    g4sq = m.gen_element("g4") * m.gen_element("g4")
    assert d.apply(g4sq) == E(m, (2, ["g4", "s1g4", "w1"]),
                              (2, ["g4", "s2g4", "w2"]))


def test_bracket_of_decorations_vanishes():
    m = toroidify(S4, 3)
    s1, s2 = s_derivation(1, m), s_derivation(2, m)
    assert not bracket(s1, s2).images
    assert not bracket(s1, s1).images


@pytest.mark.parametrize("k", [1, 2, 3])
def test_differential_decoration_bracket(k):
    m = toroidify(S4, k)
    d = m.differential_derivation()
    for i in range(1, k + 1):
        assert not bracket(d, s_derivation(i, m)).images


def test_ef_bracket_is_coroot_action():
    a = build_action(3)
    got = bracket(a.e[1], a.f[1])
    want = h_derivation(a.model, (0, 1, -1, 0))
    assert got == want


def test_odd_derivations_square_to_zero():
    m = toroidify(S4, 3)
    d = m.differential_derivation()
    s1, s2 = s_derivation(1, m), s_derivation(2, m)
    combo = s1 + s2
    for D in (d, s1, s2, combo):
        br = bracket(D, D)
        assert not br.images


def test_degree_homogeneity():
    m = toroidify(S4, 2)
    d = m.differential_derivation()
    s1 = s_derivation(1, m)
    for g in m.generators:
        x = Element.gen(g)
        dx = d.apply(x)
        if not dx.is_zero:
            assert dx.degree() == g.degree + 1
        sx = s1.apply(x)
        if not sx.is_zero:
            assert sx.degree() == g.degree - 1


def _sample_degree_zero(rng, a):
    pool = list(a.e.values()) + list(a.f.values()) + a.h_basis()
    x = rng.choice(pool)
    y = rng.choice(pool)
    c = Fraction(rng.randint(-3, 3))
    return x + c * y


@pytest.mark.parametrize("k", [2, 3])
def test_jacobi_identity_sampled(k):
    a = build_action(k)
    rng = random.Random(991 + k)
    for _ in range(100):
        x = _sample_degree_zero(rng, a)
        y = _sample_degree_zero(rng, a)
        z = _sample_degree_zero(rng, a)
        lhs = bracket(x, bracket(y, z))
        rhs = bracket(bracket(x, y), z) + bracket(y, bracket(x, z))
        assert lhs == rhs


def test_commutes_with_differential_examples():
    m = toroidify(S4, 3)
    for i in (1, 2, 3):
        assert commutes_with_differential(s_derivation(i, m)).ok
    a = build_action(3)
    assert commutes_with_differential(a.e[3]).ok
    # flip one sign in the top operator: the chain property must break
    bad_images = dict(a.e[3].images)
    g = m.generator("s1s3g4")
    bad_images[g] = -bad_images[g]
    bad = Derivation(0, bad_images, m, name="e3'")
    assert not commutes_with_differential(bad).ok


def test_derivation_dimensions():
    assert derivation_basis(S4, "full").dimension == 1
    t1 = toroidify(S4, 1)
    assert derivation_basis(t1, "full").dimension == 5
    assert derivation_basis(t1, "linear").dimension == 2
    t2 = toroidify(S4, 2)
    assert derivation_basis(t2, "linear").dimension == 5


def test_derivation_basis_members_commute_with_d():
    t1 = toroidify(S4, 1)
    for D in derivation_basis(t1, "full").basis:
        assert commutes_with_differential(D).ok


def test_full_mode_cost_guard():
    with pytest.raises(ValueError):
        derivation_basis(toroidify(S4, 2), "full")


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_diagonal_span_inside_linear_derivations(k):
    m = toroidify(S4, k)
    basis = derivation_basis(m, "linear")
    assert basis.dimension >= k + 1
    # the k+1 diagonal operators commute with d and are independent
    rows = []
    gen_index = {g: i for i, g in enumerate(m.generators)}
    for j in range(k + 1):
        h = tuple(1 if i == j else 0 for i in range(k + 1))
        D = h_derivation(m, h)
        assert commutes_with_differential(D).ok
        rows.append({gen_index[g]: img.coefficient(((g, 1),))
                     for g, img in D.images.items()})
    assert sparse_rank(rows) == k + 1


def test_nullspace_small_system():
    # x + y = 0, y + z = 0 has the one-dimensional kernel (1, -1, 1)
    rows = [{0: Fraction(1), 1: Fraction(1)},
            {1: Fraction(1), 2: Fraction(1)}]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    vec = basis[0]
    scale = vec[2]
    assert (vec.get(0, 0) / scale, vec.get(1, 0) / scale,
            vec.get(2, 0) / scale) == (1, -1, 1)


def test_nullspace_randomized_oracle():
    rng = random.Random(31337)
    for _ in range(60):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        rows = []
        for _ in range(n_rows):
            row = {c: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                   for c in range(n_cols) if rng.random() < 0.6}
            rows.append({c: v for c, v in row.items() if v})
        basis = nullspace(rows, n_cols)
        # every basis vector annihilates every row, exactly
        for vec in basis:
            for row in rows:
                assert sum((row[c] * vec.get(c, Fraction(0))
                            for c in row), Fraction(0)) == 0
        # rank-nullity over the same rows
        assert sparse_rank(rows) + len(basis) == n_cols
        # basis vectors are independent
        assert sparse_rank(basis) == len(basis)
