"""Graded derivations of a semifree DGCA and exact derivation-space solvers.

A derivation is stored by its generator images and extended to products by
the Koszul-Leibniz rule.  Brackets are graded commutators, again reduced to
generator images.  `derivation_basis` computes the exact nullspace of the
"degree-zero derivation commuting with d" system over Q.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from .algebra import Element, Generator, Monomial, Scalar, monomial_product
from .dgca import CheckReport, Dgca, Failure, s_derivation_images

__all__ = [
    "Derivation",
    "DerivationSpaceBasis",
    "s_derivation",
    "bracket",
    "commutes_with_differential",
    "differential_residues",
    "derivation_basis",
    "nullspace",
    "FULL_MODE_GENERATOR_CAP",
]

FULL_MODE_GENERATOR_CAP = 8


class Derivation:
    """A graded derivation determined by generator images."""

    __slots__ = ("degree", "images", "model", "name", "diagonal")

    def __init__(self, degree: int, images: Dict[Generator, Element],
                 model: Optional[Dgca] = None, name: str = ""):
        self.degree = degree
        self.images = {g: img for g, img in images.items() if not img.is_zero}
        self.model = model
        self.name = name
        #: generator -> weight when the derivation has degree 0 and maps
        #: every generator to a multiple of itself, else None
        self.diagonal = _weights(self.images) if degree == 0 else None

    def image(self, g: Generator) -> Element:
        return self.images.get(g, Element.zero())

    def apply(self, x: Element) -> Element:
        """Koszul-Leibniz extension of the generator images.

        A diagonal derivation scales each monomial by the sum of its factors'
        weights.  Otherwise a lone generator to the first power maps straight
        to its image.  In a longer monomial, the term that differentiates
        factor i carries the sign for moving a degree-n operator past the
        prefix, and a second sign for computing the product with the
        differentiated factor pulled to the end.
        """
        acc: Dict[Monomial, Scalar] = {}
        weights = self.diagonal
        if weights is not None:
            for mono, coeff in x.terms.items():
                s = 0
                for g, e in mono:
                    c = weights.get(g)
                    if c is not None:
                        s += c * e
                if s:
                    c = coeff * s
                    if type(c) is Fraction and c.denominator == 1:
                        c = c.numerator
                    acc[mono] = c
            return Element(_raw=acc)
        n_par = self.degree & 1
        images = self.images
        for mono, coeff in x.terms.items():
            if len(mono) == 1 and mono[0][1] == 1:
                img = images.get(mono[0][0])
                if img is None:
                    continue
                for mb, cb in img.terms.items():
                    c2 = coeff * cb
                    cur = acc.get(mb)
                    if cur is None:
                        acc[mb] = c2
                    else:
                        cur += c2
                        if cur:
                            acc[mb] = cur
                        else:
                            del acc[mb]
                continue
            total = None
            pre = 0
            for idx, (g, e) in enumerate(mono):
                img = images.get(g)
                block = g.degree * e
                if img is not None:
                    if total is None:
                        total = sum(h.degree * f for h, f in mono)
                    suf = (total - pre - block) & 1
                    sgn = 1
                    if n_par and (pre & 1):
                        sgn = -sgn
                    if ((n_par + g.degree) & 1) and suf:
                        sgn = -sgn
                    if e == 1:
                        cof = mono[:idx] + mono[idx + 1:]
                        c = coeff if sgn > 0 else -coeff
                    else:
                        cof = mono[:idx] + ((g, e - 1),) + mono[idx + 1:]
                        c = coeff * (e * sgn)
                        if type(c) is Fraction and c.denominator == 1:
                            c = c.numerator
                    for mb, cb in img.terms.items():
                        r = monomial_product(cof, mb)
                        if r is None:
                            continue
                        s2, m2 = r
                        c2 = c * cb if s2 > 0 else -c * cb
                        cur = acc.get(m2)
                        if cur is None:
                            acc[m2] = c2
                        else:
                            cur += c2
                            if cur:
                                acc[m2] = cur
                            else:
                                del acc[m2]
                pre += block
        return Element(_raw=acc)

    def is_linear(self) -> bool:
        """True when every image lies in the span of single generators."""
        for img in self.images.values():
            for mono, _ in img.items():
                if len(mono) != 1 or mono[0][1] != 1:
                    return False
        return True

    def linear_matrix(self) -> Dict[Tuple[Generator, Generator], Scalar]:
        """Sparse matrix (source gen, target gen) -> coefficient."""
        out: Dict[Tuple[Generator, Generator], Scalar] = {}
        for g, img in self.images.items():
            for mono, c in img.items():
                if len(mono) != 1 or mono[0][1] != 1:
                    raise ValueError(f"{self.name or 'derivation'} is not linear")
                out[(g, mono[0][0])] = c
        return out

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.degree != other.degree:
            raise ValueError("cannot add derivations of different degree")
        images = dict(self.images)
        for g, img in other.images.items():
            images[g] = images.get(g, Element.zero()) + img
        return Derivation(self.degree, images, self.model or other.model)

    def __rmul__(self, c) -> "Derivation":
        return Derivation(self.degree,
                          {g: img * c for g, img in self.images.items()},
                          self.model, self.name)

    def __neg__(self) -> "Derivation":
        return self.__rmul__(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        if self.degree != other.degree:
            return False
        keys = set(self.images) | set(other.images)
        return all(self.image(g) == other.image(g) for g in keys)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        label = self.name or f"{len(self.images)} images"
        return f"Derivation(deg={self.degree}, {label})"


def _weights(images: Dict[Generator, Element]
             ) -> Optional[Dict[Generator, Scalar]]:
    """Generator -> c when every image is c times its own generator."""
    out: Dict[Generator, Scalar] = {}
    for g, img in images.items():
        if len(img.terms) != 1:
            return None
        for mono, c in img.terms.items():
            if len(mono) != 1 or mono[0][0] is not g or mono[0][1] != 1:
                return None
            out[g] = c
    return out


def s_derivation(i: int, m: Dgca) -> Derivation:
    """The decoration operator s_i as a degree -1 derivation of m."""
    return Derivation(degree=-1, images=s_derivation_images(i, m), model=m,
                      name=f"s{i}")


def bracket(d1: Derivation, d2: Derivation) -> Derivation:
    """Graded commutator d1 d2 - (-1)^{|d1||d2|} d2 d1, as generator images.

    Only generators with an image under d1 or d2 can have a nonzero image,
    so only those are visited, in the model's generator order.  A diagonal
    operand h has [h, D] g = 0 wherever D g = 0, so then only the other
    operand's generators are visited, and none when both are diagonal.
    """
    model = d1.model or d2.model
    if model is None:
        raise ValueError("bracket needs a model to enumerate generators")
    sign = -1 if (d1.degree & 1) and (d2.degree & 1) else 1
    im1, im2 = d1.images, d2.images
    moved = set()
    if d1.diagonal is None:
        moved.update(im1)
    if d2.diagonal is None:
        moved.update(im2)
    images: Dict[Generator, Element] = {}
    for g in sorted(moved, key=attrgetter("key")):
        x2, x1 = im2.get(g), im1.get(g)
        if x1 is None:
            img = d1.apply(x2)
        elif x2 is None:
            img = d2.apply(x1)
            if sign > 0:
                img = -img
        elif sign > 0:
            img = d1.apply(x2) - d2.apply(x1)
        else:
            img = d1.apply(x2) + d2.apply(x1)
        if not img.is_zero:
            images[g] = img
    return Derivation(d1.degree + d2.degree, images, model,
                      name=f"[{d1.name},{d2.name}]")


def differential_residues(D: Derivation
                          ) -> Iterator[Tuple[Generator, Element]]:
    """The nonzero residues [d, D] g, generator by generator in model order.

    [d, D] g = d(D g) - (-1)^{|D|} D(d g) is zero unless D moves g or d g
    uses a generator D moves, so only those generators are visited.
    """
    m = D.model
    if m is None:
        raise ValueError("derivation carries no model")
    d = m.differential_derivation()
    odd = D.degree & 1
    images = D.images
    for g in m.reached_from(images):
        tail = D.apply(m.diff[g])
        img = images.get(g)
        if img is None:
            if not tail.is_zero:
                yield g, tail if odd else -tail
            continue
        residue = d.apply(img)
        residue = residue + tail if odd else residue - tail
        if not residue.is_zero:
            yield g, residue


def commutes_with_differential(D: Derivation) -> CheckReport:
    """Residues of [d, D] on every generator of D's model."""
    m = D.model
    failures = [Failure("", m.name_of(g), residue)
                for g, residue in differential_residues(D)]
    return CheckReport(f"[d,{D.name or 'D'}]=0 on {m.label}", failures,
                       len(m.generators))


class DerivationSpaceBasis:
    """Basis of the degree-zero derivations commuting with the differential."""

    __slots__ = ("mode", "degree", "basis", "dimension")

    def __init__(self, mode: str, basis: List[Derivation]):
        self.mode = mode
        self.degree = 0
        self.basis = basis
        self.dimension = len(basis)

    def __repr__(self) -> str:
        return f"DerivationSpaceBasis(mode={self.mode}, dim={self.dimension})"


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def _eliminate(rows: Iterable[Dict[int, Scalar]]
               ) -> Dict[int, Dict[int, Fraction]]:
    """Row-reduce sparse rows to pivot rows keyed by their leading column.

    Each pivot row is scaled by Fraction(1) / its leading entry, so int
    input stays exact rational and never turns into floats.
    """
    pivots: Dict[int, Dict[int, Fraction]] = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                inv = Fraction(1) / row[col]
                pivots[col] = {c: v * inv for c, v in row.items()}
                break
            factor = row[col]
            for c, v in piv.items():
                cur = row.get(c)
                nxt = (cur if cur is not None else 0) - factor * v
                if nxt:
                    row[c] = nxt
                elif cur is not None:
                    del row[c]
    return pivots


def nullspace(rows: List[Dict[int, Scalar]], n_unknowns: int
              ) -> List[Dict[int, Fraction]]:
    """Exact nullspace basis of a sparse rational matrix.

    Rows are {column: coefficient} maps.  Returns one sparse vector per free
    column, echelon style, exact over Q.
    """
    pivots = _eliminate(rows)
    basis = []
    for fc in range(n_unknowns):
        if fc in pivots:
            continue
        vec = {fc: Fraction(1)}
        # back-substitute in increasing pivot order from the bottom up
        for pc in sorted(pivots, reverse=True):
            piv = pivots[pc]
            val = sum((vec.get(c, 0) * v for c, v in piv.items()
                       if c != pc), Fraction(0))
            if val:
                vec[pc] = -val
        basis.append(vec)
    return basis


def sparse_rank(rows: Iterable[Dict[int, Scalar]]) -> int:
    """Rank of a set of sparse rational vectors."""
    return len(_eliminate(rows))


# ---------------------------------------------------------------------------
# derivation spaces
# ---------------------------------------------------------------------------

def _monomials_of_degree(gens: Sequence[Generator], degree: int
                         ) -> List[Monomial]:
    """All canonical monomials of the given total degree (positive grading)."""
    if any(g.degree <= 0 for g in gens):
        raise ValueError("degree enumeration needs strictly positive degrees")
    out: List[Monomial] = []

    def rec(idx: int, remaining: int, acc: List[Tuple[Generator, int]]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if idx == len(gens):
            return
        g = gens[idx]
        rec(idx + 1, remaining, acc)
        cap = 1 if g.degree & 1 else remaining // g.degree
        for e in range(1, cap + 1):
            if g.degree * e > remaining:
                break
            acc.append((g, e))
            rec(idx + 1, remaining - g.degree * e, acc)
            acc.pop()
    rec(0, degree, [])
    return out


def _model_weights(m: Dgca) -> Optional[Dict[Generator, Tuple[int, ...]]]:
    """Per-generator weights when the model is in the 4-sphere family."""
    from .action import weight_of
    try:
        return {g: weight_of(g, m.k) for g in m.generators}
    except ValueError:
        return None


def derivation_basis(m: Dgca, mode: str = "linear") -> DerivationSpaceBasis:
    """Exact basis of degree-0 derivations of m commuting with d.

    mode="linear": images in the span of generators of equal degree.
    mode="full": images range over all monomials of equal degree; guarded to
    small models because the candidate count grows quickly.
    """
    if mode not in ("linear", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "full" and len(m.generators) > FULL_MODE_GENERATOR_CAP:
        raise ValueError(
            f"full mode is limited to models with <= {FULL_MODE_GENERATOR_CAP} "
            f"generators; {m.label} has {len(m.generators)}")

    weights = _model_weights(m)

    # candidate images per generator
    candidates: List[Tuple[Generator, Monomial]] = []
    for g in m.generators:
        if mode == "linear":
            monos = [((h, 1),) for h in m.generators if h.degree == g.degree]
        else:
            monos = _monomials_of_degree(m.generators, g.degree)
        candidates.extend((g, mono) for mono in monos)

    # block by the weight shift of the unknown; d preserves weight, so the
    # commutation system never couples different shifts
    def shift(g: Generator, mono: Monomial) -> Tuple[int, ...]:
        if weights is None:
            return ()
        w = [0] * (m.k + 1)
        for h, e in mono:
            for a, c in enumerate(weights[h]):
                w[a] += c * e
        return tuple(w[a] - c for a, c in enumerate(weights[g]))

    blocks: Dict[Tuple[int, ...], List[Tuple[Generator, Monomial]]] = {}
    for g, mono in candidates:
        blocks.setdefault(shift(g, mono), []).append((g, mono))

    basis: List[Derivation] = []
    for _, block in sorted(blocks.items()):
        index = {(g, mono): col for col, (g, mono) in enumerate(block)}
        # residual of the unit derivation at each unknown, expanded over
        # (generator, monomial) rows
        rows: Dict[Tuple[Generator, Monomial], Dict[int, Scalar]] = {}
        for (g, mono), col in index.items():
            unit = Derivation(0, {g: Element.monomial(mono)}, m)
            for gen, residue in differential_residues(unit):
                for mres, c in residue.items():
                    rows.setdefault((gen, mres), {})[col] = c
        vectors = nullspace(list(rows.values()), len(block))
        for vec in vectors:
            images: Dict[Generator, Element] = {}
            for col, c in vec.items():
                g, mono = block[col]
                images[g] = images.get(g, Element.zero()) + \
                    Element.monomial(mono, c)
            basis.append(Derivation(0, images, m))
    return DerivationSpaceBasis(mode, basis)
