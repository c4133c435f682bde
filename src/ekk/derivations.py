"""Graded derivations of a semifree DGCA and exact derivation-space solvers.

A derivation is stored by its generator images and extended to products by
the Koszul-Leibniz rule.  Brackets are graded commutators, again reduced to
generator images.  `derivation_basis` computes the exact nullspace of the
"degree-zero derivation commuting with d" system over Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Sequence, Tuple

from .algebra import (Element, Generator, Monomial, Scalar, UniverseError,
                      _acc, _diagonal_scales, _q, monomial_degree,
                      monomial_product, s_insertion_sign)
from .dgca import CheckReport, Dgca, Failure, monomial_weight

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
                 model: Dgca, name: str = ""):
        self.degree = degree
        self.images = {g: img for g, img in images.items() if not img.is_zero}
        foreign = self.images.keys() - model.generator_set
        if foreign:
            g = next(g for g in self.images if g in foreign)
            raise UniverseError(f"{g.name} is not a generator of "
                                f"{model.label}")
        self.model = model
        self.name = name
        #: generator -> weight when the derivation has degree 0 and maps
        #: every generator to a multiple of itself, else None
        self.diagonal = _diagonal_scales(self.images) if degree == 0 else None

    @property
    def linear(self) -> bool:
        """True when every image term is a lone generator to the first power."""
        return all(len(mono) == 1 and mono[0][1] == 1
                   for img in self.images.values() for mono in img.terms)

    def image(self, g: Generator) -> Element:
        return self.images.get(g, Element.zero())

    def apply(self, x: Element) -> Element:
        """Koszul-Leibniz extension of the generator images."""
        return Element(_raw=self._add_to({}, x, 1))

    def _add_to(self, acc: Dict[Monomial, Scalar], x: Element, sign: int
                ) -> Dict[Monomial, Scalar]:
        """Add sign * D(x) into the term dict `acc` (sign is 1 or -1) and
        return it.

        A lone generator to the first power maps straight to its image.  In
        a longer monomial, the term that differentiates factor i carries the
        sign for moving a degree-n operator past the prefix, and a second
        sign for computing the product with the differentiated factor pulled
        to the end.
        """
        images = self.images
        n_par = self.degree & 1
        for mono, coeff in x.terms.items():
            if len(mono) == 1 and mono[0][1] == 1:
                img = images.get(mono[0][0])
                if img is not None:
                    c = coeff if sign > 0 else -coeff
                    for mb, cb in img.terms.items():
                        _acc(acc, mb, c * cb)
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
                    sgn = sign
                    if n_par and (pre & 1):
                        sgn = -sgn
                    if n_par ^ g.odd and suf:
                        sgn = -sgn
                    if e == 1:
                        cof = mono[:idx] + mono[idx + 1:]
                        c = coeff if sgn > 0 else -coeff
                    else:
                        cof = mono[:idx] + ((g, e - 1),) + mono[idx + 1:]
                        c = _q(coeff * (e * sgn))
                    # `_acc` inlined: the call cost 8% of d^2 on T^11 (min
                    # CPU of 12 interleaved runs each, Python 3.11, 2 cores)
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
        return acc

    def linear_matrix(self) -> Dict[Tuple[Generator, Generator], Scalar]:
        """Sparse matrix (source gen, target gen) -> coefficient."""
        if not self.linear:
            raise ValueError(f"{self.name or 'derivation'} is not linear")
        return {(g, mono[0][0]): c for g, img in self.images.items()
                for mono, c in img.terms.items()}

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.degree != other.degree:
            raise ValueError("cannot add derivations of different degree")
        _check_same_model("add", self, other)
        images = dict(self.images)
        for g, img in other.images.items():
            images[g] = images.get(g, Element.zero()) + img
        return Derivation(self.degree, images, self.model)

    def __rmul__(self, c) -> "Derivation":
        return Derivation(self.degree,
                          {g: img * c for g, img in self.images.items()},
                          self.model, self.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        # images hold no zero element, so equal maps have equal dicts
        return self.degree == other.degree and self.images == other.images

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        label = self.name or f"{len(self.images)} images"
        return f"Derivation(deg={self.degree}, {label})"


def _check_same_model(verb: str, d1: Derivation, d2: Derivation) -> None:
    """Raise UniverseError unless d1 and d2 act on one model: the same
    object, or models with equal generator sets."""
    if d2.model is not d1.model and \
            d2.model.generator_set != d1.model.generator_set:
        raise UniverseError(f"cannot {verb} derivations of {d1.model.label}"
                            f" and {d2.model.label}")


def s_derivation(i: int, m: Dgca) -> Derivation:
    """The decoration operator s_i as a degree -1 derivation of m.

    s_i sends s_I v to +/- s_{I u {i}} v, kills generators already carrying
    the index, kills w and sw, and kills anything whose target was removed
    by the positive-degree truncation.
    """
    if not (1 <= i <= max(m.k, 1)):
        raise ValueError(f"decoration index {i} out of range for k={m.k}")
    bit = 1 << (i - 1)
    images: Dict[Generator, Element] = {}
    for g in m.generators:
        if not g.is_decorated_base or g.s_bits & bit:
            continue
        target = Generator.decorated(g.base, g.base_pos, g.base_degree,
                                     g.s_bits | bit)
        if target in m.generator_set:
            images[g] = Element.gen(target, s_insertion_sign(g.s_bits, i))
    return Derivation(-1, images, m, name=f"s{i}")


def bracket(d1: Derivation, d2: Derivation) -> Derivation:
    """Graded commutator d1 d2 - (-1)^{|d1||d2|} d2 d1, as generator images.

    A diagonal operand h has the closed form [h, D] g = sum over the terms
    t of D g of (h(t) - h(g)) t, and [D, h] = -[h, D]; two diagonal
    operands give zero.  Otherwise only generators with an image under d1
    or d2 are visited, in the model's generator order, and a leg whose
    image holds no generator the other operand moves is skipped.  Both legs
    of each image add into one term dict.  Operands of two models raise
    UniverseError, as in `Derivation.__add__`.
    """
    _check_same_model("bracket", d1, d2)
    model = d1.model
    name = f"[{d1.name},{d2.name}]"
    images: Dict[Generator, Element] = {}
    if d1.diagonal is not None or d2.diagonal is not None:
        h, D, sign = (d1, d2, 1) if d1.diagonal is not None else (d2, d1, -1)
        weights = h.diagonal
        if D.diagonal is None:
            for g in model.in_order(D.images):
                terms = {}
                for mono, coeff in D.images[g].terms.items():
                    s = -weights.get(g, 0)
                    for f, e in mono:
                        s += weights.get(f, 0) * e
                    if s:
                        terms[mono] = _q(coeff * s * sign)
                if terms:
                    images[g] = Element(_raw=terms)
        return Derivation(D.degree, images, model, name=name)
    sign = -1 if (d1.degree & 1) and (d2.degree & 1) else 1
    im1, im2 = d1.images, d2.images
    acc: Dict[Monomial, Scalar] = {}
    for g in model.in_order(im1.keys() | im2.keys()):
        # [d1, d2] g = d1(d2 g) - sign * d2(d1 g)
        x = im2.get(g)
        if x is not None and _touches(x, im1):
            d1._add_to(acc, x, 1)
        x = im1.get(g)
        if x is not None and _touches(x, im2):
            d2._add_to(acc, x, -sign)
        if acc:
            images[g] = Element(_raw={m: _q(c) for m, c in acc.items()})
            acc.clear()
    return Derivation(d1.degree + d2.degree, images, model, name=name)


def _touches(x: Element, moved: Dict[Generator, Element]) -> bool:
    """True when a term of x has a factor in `moved`."""
    for mono in x.terms:
        for g, _ in mono:
            if g in moved:
                return True
    return False


def differential_residues(ops: Sequence[Derivation]
                          ) -> List[List[Tuple[Generator, Element]]]:
    """Per operator D in ops, the nonzero residues [d, D] g as (g, residue)
    in model order.

    [d, D] g = d(D g) - (-1)^{|D|} D(d g) is zero unless D moves g or d g
    uses a generator D moves, so only those generators are visited, once
    for all operators.  Each factor of a term of d g is split off once, and
    its cofactor and signs serve every operator that moves it.
    """
    out: List[List[Tuple[Generator, Element]]] = [[] for _ in ops]
    if not ops:
        return out
    m = ops[0].model
    # g -> [(operator index, weight)] for the diagonal operators, and
    # g -> [(operator index, odd degree, image)] for the others
    scales: Dict[Generator, list] = {}
    movers: Dict[Generator, list] = {}
    for j, D in enumerate(ops):
        if D.model is not m:
            raise UniverseError(
                f"{ops[0].name} and {D.name} act on two models")
        for g, img in D.images.items():
            if D.diagonal is not None:
                scales.setdefault(g, []).append((j, D.diagonal[g]))
            else:
                movers.setdefault(g, []).append((j, D.degree & 1, img))
    d = m.differential_derivation()
    for x in m.reached_from(scales.keys() | movers.keys()):
        accs: Dict[int, Dict[Monomial, Scalar]] = {}
        for j, _, img in movers.get(x, ()):
            d._add_to(accs.setdefault(j, {}), img, 1)
        # a diagonal D has [d, D] x = sum over the terms t of d x of
        # (D(x) - D(t)) t: `own` holds D(x), `shift` collects D(x) - D(t)
        own = dict(scales.get(x, ()))
        for mono, coeff in m.diff[x].items():
            if scales:
                shift = dict(own)
                for g, e in mono:
                    for j, weight in scales.get(g, ()):
                        shift[j] = shift.get(j, 0) - weight * e
                for j, s in shift.items():
                    if s:
                        accs.setdefault(j, {})[mono] = _q(coeff * s)
            seen, total = 0, None  # degrees of mono up to g and in all
            for idx, (g, e) in enumerate(mono):
                seen += g.degree * e
                users = movers.get(g)
                if users is None:
                    continue
                if total is None:
                    total = monomial_degree(mono)
                # D(d x) enters with -(-1)^{|D|}, times the signs for D
                # passing the factors before g and for g pulled to the end
                pre, suf = (seen - g.degree * e) & 1, (total - seen) & 1
                ce = coeff if e == 1 else _q(coeff * e)
                even = ce if g.degree & suf else -ce
                odd = -ce if pre ^ (suf & ~g.degree & 1) else ce
                cof = mono[:idx] + (((g, e - 1),) if e > 1 else ()) \
                    + mono[idx + 1:]
                for j, odd_op, img in users:
                    acc = accs.setdefault(j, {})
                    c = odd if odd_op else even
                    for mb, cb in img.terms.items():
                        r = monomial_product(cof, mb)
                        if r is not None:
                            _acc(acc, r[1], c * cb if r[0] > 0 else -c * cb)
        for j, acc in accs.items():
            if acc:
                out[j].append((x, Element(_raw=acc)))
    return out


def commutes_with_differential(D: Derivation) -> CheckReport:
    """Residues of [d, D] on every generator of D's model."""
    m = D.model
    failures = [Failure("", m.name_of(g), residue)
                for g, residue in differential_residues([D])[0]]
    return CheckReport(f"[d,{D.name or 'D'}]=0 on {m.label}", failures,
                       len(m.generators))


class DerivationSpaceBasis:
    """Basis of the degree-zero derivations commuting with the differential."""

    __slots__ = ("mode", "basis", "dimension")

    def __init__(self, mode: str, basis: List[Derivation]):
        self.mode = mode
        self.basis = basis
        self.dimension = len(basis)

    def __repr__(self) -> str:
        return f"DerivationSpaceBasis(mode={self.mode}, dim={self.dimension})"


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def _eliminate(rows: Iterable[Dict[int, Scalar]]
               ) -> Dict[int, Dict[int, int]]:
    """Row-reduce sparse rows to integer pivot rows keyed by leading column.

    Fraction-free, after Bareiss: each incoming row, and each new pivot, is
    scaled to coprime integers with a positive leading entry, explicit
    zeros dropped.  A row whose leading entry `factor` meets a pivot led by
    `lead` becomes (lead/g) row - (factor/g) pivot, g = gcd(lead, factor),
    so no entry ever leaves the integers.
    """
    pivots: Dict[int, Dict[int, int]] = {}
    for row in rows:
        row = _primitive(row)
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = _primitive(row)
                break
            factor, lead = row[col], piv[col]
            if lead != 1:
                g = gcd(lead, factor)
                factor, lead = factor // g, lead // g
                if lead != 1:
                    row = {c: v * lead for c, v in row.items()}
            for c, v in piv.items():
                nxt = row.get(c, 0) - factor * v
                if nxt:
                    row[c] = nxt
                else:  # only an entry of the row can cancel
                    del row[c]
    return pivots


def _primitive(row: Dict[int, Scalar]) -> Dict[int, int]:
    """The nonzero entries of a rational row scaled to coprime integers
    whose leading entry is positive."""
    row = {c: v for c, v in row.items() if v}
    if not row:
        return row
    try:
        g = gcd(*row.values())
    except TypeError:  # a Fraction entry: clear the denominators first
        den = lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (den // v.denominator)
               for c, v in row.items()}
        g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    return row


def nullspace(rows: List[Dict[int, Scalar]], n_unknowns: int
              ) -> List[Dict[int, Scalar]]:
    """Exact nullspace basis of a sparse rational matrix.

    Rows are {column: coefficient} maps.  Returns one sparse vector per free
    column: 1 there, 0 at every other free column, and the pivot entries by
    back-substitution from the last pivot up, each divided once by its
    pivot's leading entry.  Entries are int where integral, else Fraction.
    """
    pivots = _eliminate(rows)
    order = sorted(pivots, reverse=True)
    basis = []
    for fc in range(n_unknowns):
        if fc in pivots:
            continue
        vec: Dict[int, Scalar] = {fc: 1}
        for pc in order:
            piv = pivots[pc]
            val = sum(vec[c] * v for c, v in piv.items() if c in vec)
            if val:
                vec[pc] = _q(Fraction(-val, piv[pc]))
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


#: g -> (x, cofactor, c), one per factor g of each term of each d x
_Partials = Dict[Generator, List[Tuple[Generator, Monomial, Scalar]]]


def _partials(m: Dgca) -> _Partials:
    """The g-partials of every d x, signed as `Derivation.apply` signs a
    degree-0 operator: minus when g is odd and so is what follows it."""
    partial: _Partials = {}
    for x in m.generators:
        for mono, coeff in m.diff[x].items():
            suf = monomial_degree(mono)
            for idx, (g, e) in enumerate(mono):
                suf -= g.degree * e
                c = _q(-coeff * e if g.degree & suf & 1 else coeff * e)
                cof = mono[:idx] + (((g, e - 1),) if e > 1 else ()) \
                    + mono[idx + 1:]
                partial.setdefault(g, []).append((x, cof, c))
    return partial


def _residue_rows(m: Dgca, block: Sequence[Tuple[Generator, Monomial]],
                  partial: _Partials,
                  d_of: Dict[Monomial, Dict[Monomial, Scalar]]
                  ) -> Dict[Tuple[Generator, Monomial], Dict[int, Scalar]]:
    """The commutation system of one block, read straight off d.

    Column i is the unit derivation D = (g -> mono) of block[i]; row (x, n)
    holds the coefficient of n in [d, D] x = [x = g] d(mono) - D(d x), and
    D(d x) is the g-partial of d x with mono substituted.  `d_of` caches
    d(mono) across blocks.  Entries that cancel are dropped.
    """
    d = m.differential_derivation()
    rows: Dict[Tuple[Generator, Monomial], Dict[int, Scalar]] = {}
    for col, (g, mono) in enumerate(block):
        dm = d_of.get(mono)
        if dm is None:
            dm = d_of[mono] = d.apply(Element.monomial(mono)).terms
        for n, c in dm.items():
            _acc(rows.setdefault((g, n), {}), col, c)
        for x, cof, c in partial.get(g, ()):
            r = monomial_product(cof, mono)
            if r is not None:
                _acc(rows.setdefault((x, r[1]), {}), col,
                     -c if r[0] > 0 else c)
    return {key: row for key, row in rows.items() if row}


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

    try:
        weights = m.weights
    except ValueError:
        weights = None  # only the 4-sphere family carries weights

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
        w = monomial_weight(mono, m.k, weights)
        return tuple(a - c for a, c in zip(w, weights[g]))

    blocks: Dict[Tuple[int, ...], List[Tuple[Generator, Monomial]]] = {}
    for g, mono in candidates:
        blocks.setdefault(shift(g, mono), []).append((g, mono))

    partial = _partials(m)
    d_of: Dict[Monomial, Dict[Monomial, Scalar]] = {}
    basis: List[Derivation] = []
    for _, block in sorted(blocks.items()):
        rows = _residue_rows(m, block, partial, d_of)
        vectors = nullspace(list(rows.values()), len(block))
        for vec in vectors:
            images: Dict[Generator, Element] = {}
            for col, c in vec.items():
                g, mono = block[col]
                images[g] = images.get(g, Element.zero()) + \
                    Element.monomial(mono, c)
            basis.append(Derivation(0, images, m))
    return DerivationSpaceBasis(mode, basis)
