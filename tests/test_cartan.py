"""Cartan space, Cartan matrices, root enumeration, parabolic dimensions."""

from __future__ import annotations

import pytest

from ekk.cartan import (NILRADICAL_DIMS, POSITIVE_ROOT_COUNTS, cartan_matrix,
                        det_int, eps_on_h, parabolic_split, positive_roots,
                        simple_roots)


def test_simple_roots_literally():
    assert simple_roots(0) == ()
    assert simple_roots(1) == ()
    assert simple_roots(2) == ((0, 1, -1),)
    assert simple_roots(3) == ((0, 1, -1, 0), (0, 0, 1, -1), (1, -1, -1, -1))
    assert simple_roots(4) == ((0, 1, -1, 0, 0), (0, 0, 1, -1, 0),
                               (0, 0, 0, 1, -1), (1, -1, -1, -1, 0))


def test_simple_roots_reject_negative_rank():
    with pytest.raises(ValueError):
        simple_roots(-1)


def test_minkowski_pairing_convention():
    h0 = (1, 0, 0, 0)
    for i, alpha in enumerate(simple_roots(3), start=1):
        # alpha_k is the only simple root that sees the timelike direction
        assert eps_on_h(alpha, h0) == (-1 if i == 3 else 0)


@pytest.mark.parametrize("k", range(3, 12))
def test_exceptional_root_on_h0(k):
    h0 = tuple(1 if i == 0 else 0 for i in range(k + 1))
    assert eps_on_h(simple_roots(k)[k - 1], h0) == -1


@pytest.mark.parametrize("k", range(3, 12))
def test_cartan_diagonal_and_symmetry(k):
    C = cartan_matrix(k)
    for i in range(1, k + 1):
        assert C[i, i] == 2
        for j in range(1, k + 1):
            assert C[i, j] == C[j, i]
            if i != j:
                assert C[i, j] in (0, -1)


@pytest.mark.parametrize("k", range(3, 12))
def test_exceptional_node_attaches_to_node_three(k):
    C = cartan_matrix(k)
    for j in range(1, k):
        expected = -1 if (j == 3 and k > 3) else 0
        assert C[k, j] == expected
    # the gravity line itself is the A-series chain
    for i in range(1, k - 1):
        for j in range(i + 1, k):
            assert C[i, j] == (-1 if j == i + 1 else 0)


def test_exceptional_coroot_pairings():
    # a simple root's coroot has the root's coordinates
    for k in (3, 4, 5, 8, 11):
        roots = simple_roots(k)
        assert eps_on_h(roots[k - 1], roots[k - 1]) == 2
        if k >= 5:
            assert eps_on_h(roots[2], roots[k - 1]) == -1


def test_rank4_is_the_a4_matrix():
    C = cartan_matrix(4)
    assert [list(r) for r in C.entries] == [
        [2, -1, 0, 0],
        [-1, 2, -1, 0],
        [0, -1, 2, -1],
        [0, 0, -1, 2],
    ]


@pytest.mark.parametrize("k", range(3, 12))
def test_determinant_pattern(k):
    assert cartan_matrix(k).det() == 9 - k


def test_det_int_basics():
    assert det_int([]) == 1
    assert det_int([[5]]) == 5
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[0, 1], [1, 0]]) == -1


def test_roots_orthogonal_to_distinguished_vector():
    for k in range(0, 12):
        K = (-3,) + (1,) * k
        roots = simple_roots(k)
        assert len(roots) == (k if k >= 3 else max(k - 1, 0))
        for alpha in roots:
            assert eps_on_h(alpha, K) == 0


@pytest.mark.parametrize("k,count", sorted(POSITIVE_ROOT_COUNTS.items()))
def test_positive_root_counts(k, count):
    assert positive_roots(k).count == count


def test_rank3_positive_roots_explicitly():
    system = positive_roots(3)
    assert set(system.positive) == {
        (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)}


def test_rank5_cross_check_so55_dimension():
    # dim of the rank-5 split algebra = 5 + 2 |Delta+| = 45
    assert 5 + 2 * positive_roots(5).count == 45


def test_roots_out_of_range():
    for k in (2, 9, 10):
        with pytest.raises(ValueError):
            positive_roots(k)


@pytest.mark.parametrize("k,nil", sorted(NILRADICAL_DIMS.items()))
def test_parabolic_dimensions(k, nil):
    split = parabolic_split(k)
    assert split.dim_nilradical == nil
    assert split.dim_levi_semisimple == k * k - 1
    assert split.dim_abelian == 1


def test_rank8_langlands_sum():
    split = parabolic_split(8)
    assert split.dims == (63, 1, 92)
    assert split.dim_total == 248
    assert 248 == 92 + 63 + 1 + 92


@pytest.mark.parametrize("k", range(3, 9))
def test_levi_roots_are_gravity_line(k):
    split = parabolic_split(k)
    assert len(split.levi_positive) == k * (k - 1) // 2
    assert positive_roots(k).count == \
        k * (k - 1) // 2 + split.dim_nilradical


def test_cartan_matrix_requires_rank_three():
    with pytest.raises(ValueError):
        cartan_matrix(2)


@pytest.mark.parametrize("k", range(3, 9))
def test_every_root_has_squared_length_two(k):
    roots = simple_roots(k)
    for root in positive_roots(k).positive:
        eps_vec = [0] * (k + 1)
        for m, alpha in zip(root, roots):
            for idx, c in enumerate(alpha):
                eps_vec[idx] += m * c
        assert eps_on_h(eps_vec, eps_vec) == 2


@pytest.mark.parametrize("k", range(3, 9))
def test_negatives_disjoint_from_positives(k):
    positive = set(positive_roots(k).positive)
    negative = {tuple(-c for c in r) for r in positive}
    assert not (positive & negative)
    assert len(negative) == len(positive)
