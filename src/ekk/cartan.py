"""Cartan space with Minkowski metric, E-series Cartan matrices, root systems.

The rank-k Cartan space has basis h_0..h_k with inner product
diag(-1, 1, ..., 1) and dual basis eps_0..eps_k.  Simple roots are
eps_i - eps_{i+1} for i < k, joined from k = 3 on by
eps_0 - eps_1 - eps_2 - eps_3, all orthogonal to the distinguished vector
K = -3 h_0 + sum h_i.  Root systems are enumerated for the finite range
3 <= k <= 8 by simple-root closure; nothing is read from external tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence, Tuple

__all__ = [
    "CartanMatrix",
    "RootSystem",
    "ParabolicSplit",
    "cartan_matrix",
    "simple_roots",
    "positive_roots",
    "parabolic_split",
    "eps_on_h",
    "det_int",
    "FINITE_RANGE",
    "POSITIVE_ROOT_COUNTS",
    "NILRADICAL_DIMS",
]

FINITE_RANGE = range(3, 9)

# |Delta+| and nilradical dimensions for k = 3..8, keyed by k
POSITIVE_ROOT_COUNTS = {3: 4, 4: 10, 5: 20, 6: 36, 7: 63, 8: 120}
NILRADICAL_DIMS = {3: 1, 4: 4, 5: 10, 6: 21, 7: 42, 8: 92}

Vec = Tuple[int, ...]


def eps_on_h(eps: Sequence[int], h: Sequence[int]):
    """Pair a covector in eps-coordinates with a vector in h-coordinates.

    eps_0(h_0) = -1 and eps_i(h_i) = +1 for i >= 1, everything else zero.
    Read on two covectors, it is their Minkowski inner product.
    """
    if len(eps) != len(h):
        raise ValueError("coordinate length mismatch")
    return sum(map(mul, eps, h)) - 2 * eps[0] * h[0]


@dataclass(frozen=True)
class CartanMatrix:
    k: int
    entries: Tuple[Vec, ...]

    def __getitem__(self, ij: Tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i - 1][j - 1]

    def det(self) -> int:
        return det_int(self.entries)


@dataclass(frozen=True)
class RootSystem:
    k: int
    positive: Tuple[Vec, ...]   # simple-root coordinates, length k each

    @property
    def count(self) -> int:
        return len(self.positive)


@dataclass(frozen=True)
class ParabolicSplit:
    """Root split for the parabolic dropping the exceptional node."""

    k: int
    levi_positive: Tuple[Vec, ...]
    nilradical: Tuple[Vec, ...]
    dim_levi_semisimple: int
    dim_abelian: int
    dim_nilradical: int

    @property
    def dims(self) -> Tuple[int, int, int]:
        return (self.dim_levi_semisimple, self.dim_abelian,
                self.dim_nilradical)

    @property
    def dim_total(self) -> int:
        """Dimension of the ambient split algebra (center excluded)."""
        return self.dim_levi_semisimple + self.dim_abelian \
            + 2 * self.dim_nilradical


def simple_roots(k: int) -> Tuple[Vec, ...]:
    """The simple roots of rank k, in eps-coordinates, for every k >= 0.

    alpha_i = eps_i - eps_{i+1} for 1 <= i < k and, from k = 3 on, the
    exceptional root alpha_k = eps_0 - eps_1 - eps_2 - eps_3; ranks 0 and 1
    have none and rank 2 has alpha_1 alone.  No coroot table is kept: `eps_on_h` is
    the Minkowski product, so the coroot of a simple root (squared length
    2) has the root's own coordinates.
    """
    if k < 0:
        raise ValueError(f"rank must be >= 0, got {k}")
    n = k + 1

    def eps(*pairs: Tuple[int, int]) -> Vec:
        v = [0] * n
        for idx, c in pairs:
            v[idx] = c
        return tuple(v)

    roots = [eps((i, 1), (i + 1, -1)) for i in range(1, k)]
    if k >= 3:
        roots.append(eps((0, 1), (1, -1), (2, -1), (3, -1)))
    K = tuple([-3] + [1] * k)
    for i, alpha in enumerate(roots, start=1):
        if eps_on_h(alpha, K) != 0:
            raise AssertionError(f"alpha_{i} not orthogonal to K at k={k}")
    return tuple(roots)


def cartan_matrix(k: int) -> CartanMatrix:
    """Generalized Cartan matrix with c_ij = alpha_j(alpha_i coroot)."""
    if k < 3:
        raise ValueError(f"cartan_matrix needs k >= 3, got {k}")
    roots = simple_roots(k)
    return CartanMatrix(k, tuple(
        tuple(eps_on_h(alpha_j, alpha_i) for alpha_j in roots)
        for alpha_i in roots))


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix, exact (fraction-free Bareiss)."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i]:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def positive_roots(k: int) -> RootSystem:
    """Enumerate the positive roots by closure from the simple roots.

    The finite range E_3..E_8 is simply laced, so every root string through
    a positive root alpha != alpha_i has at most two roots: alpha + alpha_i
    is a root exactly when <alpha, alpha_i coroot> = -1.  The closure adds
    alpha_i on that test alone, height by height.
    """
    if k not in FINITE_RANGE:
        raise ValueError(
            f"root enumeration supports 3 <= k <= 8 (finite type); got {k}")
    C = cartan_matrix(k).entries
    simple = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
    known = set(simple)
    frontier = list(simple)
    while frontier:
        next_frontier = []
        for alpha in frontier:
            for i in range(k):
                if sum(alpha[j] * C[i][j] for j in range(k)) == -1:
                    up = list(alpha)
                    up[i] += 1
                    t = tuple(up)
                    if t not in known:
                        known.add(t)
                        next_frontier.append(t)
        frontier = next_frontier
    ordered = sorted(known, key=lambda r: (sum(r), r))
    system = RootSystem(k, tuple(ordered))
    _validate_roots(system)
    return system


def _validate_roots(system: RootSystem) -> None:
    roots = simple_roots(system.k)
    for root in system.positive:
        eps_vec = [0] * (system.k + 1)
        for m, alpha in zip(root, roots):
            for idx, c in enumerate(alpha):
                eps_vec[idx] += m * c
        if eps_on_h(eps_vec, eps_vec) != 2:
            raise AssertionError(
                f"root {root} has squared length != 2 at k={system.k}")


def parabolic_split(k: int) -> ParabolicSplit:
    """Split the positive roots by the coefficient of the exceptional node.

    Levi roots omit the removed node; the nilradical is the rest.  The
    one-dimensional abelian factor follows the finite-range convention; the
    extra central direction of the ambient algebra is not counted here.
    """
    system = positive_roots(k)
    levi = tuple(r for r in system.positive if r[k - 1] == 0)
    nil = tuple(r for r in system.positive if r[k - 1] != 0)
    dim_m = (k - 1) + 2 * len(levi)
    if dim_m != k * k - 1:
        raise AssertionError(
            f"Levi dimension {dim_m} != k^2-1 at k={k}; root closure broken")
    return ParabolicSplit(k, levi, nil, dim_m, 1, len(nil))
