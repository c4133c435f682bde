"""Totalization, and the bijection between the two kinds of algebra maps.

`totalize` adjoins odd degree-1 generators sw_i with d(sw_i) = w_i to an
algebra over Q[w_1..w_k].  A map F out of the untruncated torus model of m
and a map f from m into the totalization determine each other:

    f(v) = sum_I eps(I, |v|) F(s_I v) . sw_I,
    F(s_I v) = eps(I, |v|) (coefficient of sw_I in f(v)),

with sw_I the increasing product of the sw_i, i in I, and the sign

    eps(I, d) = (-1)^{|I| d + |I|(|I|-1)/2}.

The second exponent is the Koszul cost of reversing a word of |I| odd
letters; it comes out of pairing the decoration word against the sw word
and is forced by the chain-map property of the unit (checked exhaustively
in the tests).  Both directions preserve the chain-map property, and under
the truncated variant the positivity condition on f corresponds to F
killing the non-positive-degree decorated generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, Optional, Tuple

from .algebra import Element, Generator, Monomial, Scalar, s_bits_of
from .dgca import (CheckReport, Dgca, DgcaHom, Failure, hom0_check,
                   toroidify)

__all__ = [
    "Totalization",
    "AdjunctionPair",
    "adjunction_pair",
    "totalize",
    "hom_backward",
    "hom_forward",
    "factors_through_truncation",
    "truncated_correspondence",
    "scaling_endo",
]


@dataclass
class Totalization:
    """An algebra over Q[w] together with its Koszul-extended form."""

    base: Dgca
    result: Dgca
    k: int


def totalize(n: Dgca, k: int) -> Totalization:
    """Adjoin sw_1..sw_k with d(sw_i) = w_i; other differentials unchanged."""
    for i in range(1, k + 1):
        w = Generator.w(i)
        if w not in n.generator_set:
            raise ValueError(f"{n.label} has no generator w{i}")
        if not n.diff[w].is_zero:
            raise ValueError(f"d(w{i}) != 0 in {n.label}")
    sw = [Generator.sw(i) for i in range(1, k + 1)]
    gens = list(n.generators) + sw
    diff = dict(n.diff)
    for i, g in enumerate(sw, start=1):
        diff[g] = Element.gen(Generator.w(i))
    result = Dgca(f"Tot({n.label})", n.k if n.k >= k else k, gens, diff,
                  display=n.display, truncated=n.truncated,
                  totalization_of=n)
    return Totalization(n, result, k)


@dataclass
class AdjunctionPair:
    m: Dgca
    n: Dgca
    forward: DgcaHom   # untruncated torus model of m -> n
    backward: DgcaHom  # m -> Tot(n)


def adjunction_pair(F: DgcaHom) -> AdjunctionPair:
    """Package a map over Q[w] with its partner into the totalization.

    Checks that the two really correspond (forward of backward returns F on
    every generator); both sides being chain maps whenever F is one is part
    of the correspondence and is asserted by callers that need it.
    """
    backward = hom_backward(F)
    again = hom_forward(backward, F.source)
    for g in F.source.generators:
        if F.images[g] != again.images[g]:
            raise AssertionError(
                f"correspondence failed to invert on {g.name}")
    return AdjunctionPair(_require_untruncated_torus(F.source), F.target,
                          F, backward)


def _sw_monomial(indices: Tuple[int, ...]) -> Monomial:
    return tuple((Generator.sw(i), 1) for i in indices)


def _pairing_sign(p: int, d: int) -> int:
    """eps(I, d) for |I| = p: word pairing plus reversal of p odd letters."""
    return -1 if (p * d + p * (p - 1) // 2) & 1 else 1


def _require_untruncated_torus(model: Dgca) -> Dgca:
    if model.base_model is None or model.truncated:
        raise ValueError(
            f"{model.label} is not an untruncated torus-quotient model")
    return model.base_model


def hom_backward(F: DgcaHom) -> DgcaHom:
    """Turn F out of the untruncated torus model into f into the totalization.

    Requires F to fix every w_i (a map of algebras over Q[w]).
    """
    trd = F.source
    m = _require_untruncated_torus(trd)
    k = trd.k
    for i in range(1, k + 1):
        w = Generator.w(i)
        if F.images[w] != Element.gen(w):
            raise ValueError(f"F does not fix w{i}; not a map over Q[w]")
    tot = totalize(F.target, k).result
    images: Dict[Generator, Element] = {}
    for v in m.generators:
        acc = Element.zero()
        for p in range(k + 1):
            sign = _pairing_sign(p, v.degree)
            for combo in combinations(range(1, k + 1), p):
                dec = Generator.decorated(v.base, v.base_pos, v.base_degree,
                                          s_bits_of(combo))
                term = F.images[dec] * Element.monomial(_sw_monomial(combo),
                                                        sign)
                acc = acc + term
        images[v] = acc
    return DgcaHom(m, tot, images, name=f"bwd({F.name})")


def hom_forward(f: DgcaHom, trd: Optional[Dgca] = None) -> DgcaHom:
    """Turn f into a totalization into F out of the untruncated torus model."""
    m = f.source
    tot = f.target
    n = tot.totalization_of
    if n is None:
        raise ValueError(f"{tot.label} was not built by totalize()")
    k = sum(1 for g in tot.generators if g.is_sw)
    if trd is None:
        trd = toroidify(m, k, truncated=False)
    images: Dict[Generator, Element] = {}
    for i in range(1, k + 1):
        w = Generator.w(i)
        images[w] = Element.gen(w)
    # split each image monomial into its sw part and the rest; pulling the
    # sw word out to the right costs the parity of the remaining factors
    per_gen: Dict[Generator, Dict[Tuple[int, ...], Element]] = {}
    for v in m.generators:
        coeffs: Dict[Tuple[int, ...], Element] = {}
        for mono, c in f.images[v].items():
            sw_idx = tuple(g.index for g, _ in mono if g.is_sw)
            rest = tuple((g, e) for g, e in mono if not g.is_sw)
            rest_deg = sum(g.degree * e for g, e in rest)
            if (len(sw_idx) & 1) and (rest_deg & 1):
                c = -c
            coeffs[sw_idx] = coeffs.get(sw_idx, Element.zero()) + \
                Element.monomial(rest, c)
        per_gen[v] = coeffs
    base_pos = {g.base: (g.base_pos, g.base_degree) for g in m.generators}
    for g in trd.generators:
        if g.is_w:
            continue
        pos, deg = base_pos[g.base]
        v = Generator.decorated(g.base, pos, deg)
        img = per_gen[v].get(g.s_indices, Element.zero())
        if _pairing_sign(len(g.s_indices), deg) < 0:
            img = -img
        images[g] = img
    return DgcaHom(trd, n, images, name=f"fwd({f.name})")


def factors_through_truncation(F: DgcaHom) -> bool:
    """True iff F kills every decorated generator of non-positive degree."""
    _require_untruncated_torus(F.source)
    return all(F.images[g].is_zero
               for g in F.source.generators if g.degree <= 0)


def truncated_correspondence(Fs: Iterable[DgcaHom]) -> CheckReport:
    """Check hom0(backward F) <-> F factors through truncation, per sample."""
    failures = []
    checked = 0
    for F in Fs:
        checked += 1
        f = hom_backward(F)
        lhs = hom0_check(f)
        rhs = factors_through_truncation(F)
        if lhs != rhs:
            failures.append(Failure(F.name, f"sample {checked}",
                                    Element.scalar(1)))
    return CheckReport("truncated correspondence", failures, checked)


def scaling_endo(trd: Dgca, a: Scalar) -> DgcaHom:
    """Map over Q[w] scaling the g4 family by a and the g7 family by a^2."""
    images = {}
    for g in trd.generators:
        if g.is_w:
            images[g] = Element.gen(g)
        elif g.base == "g4":
            images[g] = Element.gen(g, a)
        else:
            images[g] = Element.gen(g, a * a)
    return DgcaHom(trd, trd, images, name=f"scale({a})")
