"""Chevalley-generator action on the torus-quotient models of the 4-sphere.

Builds the raising operators e_1..e_k, the lowering operators f_1..f_{k-1}
(f_1 alone at rank 2, none below), and the diagonal Cartan action as exact
derivations of the rank-k model, realizes the split-torus automorphisms,
and runs the relation verification suite: chain compatibility, Cartan
relations, [e,f] pairs, Serre relations, and weight additivity.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .algebra import Element, Generator, Scalar, element_text, s_indices_of
from .cartan import eps_on_h, simple_roots
from .dgca import (CheckReport, Dgca, DgcaHom, Failure, model_s4,
                   monomial_weight, toroidify)
from .derivations import (Derivation, bracket, differential_residues,
                          sparse_rank)

__all__ = [
    "ChevalleyAction",
    "VerifyReport",
    "ALL_CHECKS",
    "build_action",
    "h_derivation",
    "verify_action",
    "torus_automorphism",
    "gravity_line_rank",
]

ALL_CHECKS = ("chain", "cartan", "ef", "serre", "weight")


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------

def _small_images(i: int, model: Dgca, raising: bool
                  ) -> Dict[Generator, Element]:
    """e_i (raising) or f_i (lowering) for i <= k-1.

    e_i w_i = w_{i+1}, [e_i, s_{i+1}] = -s_i; f_i is the mirror image,
    f_i w_{i+1} = w_i, [f_i, s_i] = -s_{i+1}.
    """
    w_src, w_dst = (i, i + 1) if raising else (i + 1, i)
    bit_lo, bit_hi = 1 << (i - 1), 1 << i
    bit_src, bit_dst = (bit_hi, bit_lo) if raising else (bit_lo, bit_hi)
    images: Dict[Generator, Element] = {}
    for g in model.generators:
        if g.is_w:
            if g.index == w_src:
                images[g] = Element.gen(Generator.w(w_dst))
        elif g.is_decorated_base:
            if (g.s_bits & bit_src) and not (g.s_bits & bit_dst):
                target = model.redecorated(g, (g.s_bits & ~bit_src) | bit_dst)
                if target is not None:
                    images[g] = Element.gen(target, -1)
    return images


_PERM_SIGN = {(1, 2): 1, (1, 3): -1, (2, 3): 1}


def _e_top_images(model: Dgca) -> Dict[Generator, Element]:
    """The exceptional raising operator e_k.

    Base values: on s_i s_j g4 with {i,j} in {1,2,3} it gives the signed
    missing w; on s_1 s_2 s_3 g7 it gives g4.  A generator whose decoration
    set meets {4..k} is handled by factoring the decoration word with the
    {1,2,3} part innermost, which costs the parity of the high part when the
    low part has size 3 and kills the w-valued base cases.
    """
    images: Dict[Generator, Element] = {}
    low_mask = 0b111
    for g in model.generators:
        if not g.is_decorated_base:
            continue
        low = g.s_bits & low_mask
        high = g.s_bits & ~low_mask
        if g.base == "g4" and high == 0 and low.bit_count() == 2:
            idx = s_indices_of(low)
            missing = ({1, 2, 3} - set(idx)).pop()
            images[g] = Element.gen(Generator.w(missing),
                                    _PERM_SIGN[idx])
        elif g.base == "g7" and low == low_mask:
            target = model.redecorated(model.generator("g4"), high)
            if target is not None:
                sign = -1 if high.bit_count() & 1 else 1
                images[g] = Element.gen(target, sign)
    return images


def h_derivation(model: Dgca, h: Sequence, name: str = "h") -> Derivation:
    """Diagonal derivation multiplying each generator by its weight on h."""
    return Derivation(0, _h_images(model, h), model, name=name)


def _h_images(model: Dgca, h: Sequence) -> Dict[Generator, Element]:
    """Generator -> its weight on h times itself, where that is not 0."""
    images: Dict[Generator, Element] = {}
    for g, w in model.weights.items():
        c = eps_on_h(w, h)
        if c:
            images[g] = Element.gen(g, c)
    return images


def _unit_h(k: int, j: int) -> Tuple[int, ...]:
    v = [0] * (k + 1)
    v[j] = 1
    return tuple(v)


@dataclass
class ChevalleyAction:
    """The raising/lowering/diagonal operators acting on one torus model."""

    k: int
    model: Dgca
    e: Dict[int, Derivation]
    f: Dict[int, Derivation]
    #: i -> alpha_i in eps-coordinates; alpha_i's coroot has the same ones
    simple_roots: Dict[int, Tuple[int, ...]]

    def h_basis(self) -> List[Derivation]:
        return [h_derivation(self.model, _unit_h(self.k, j), name=f"h{j}")
                for j in range(self.k + 1)]


def _rank_k_model(k: int, model: Optional[Dgca]) -> Dgca:
    """The given model, which must have rank k and carry weights, or the
    rank-k torus model."""
    if model is None:
        model = toroidify(model_s4(), k)
    elif model.k != k:
        raise ValueError(f"{model.label} has rank {model.k}, not {k}")
    model.weights  # raises outside the 4-sphere family
    return model


def build_action(k: int, model: Optional[Dgca] = None) -> ChevalleyAction:
    """Construct the action on the rank-k torus model of the 4-sphere.

    Ranks 0 and 1 carry only the diagonal action; rank 2 carries e_1, f_1;
    from rank 3 on there are e_1..e_k and f_1..f_{k-1}.
    """
    model = _rank_k_model(k, model)
    e: Dict[int, Derivation] = {}
    f: Dict[int, Derivation] = {}
    for i in range(1, k):
        e[i] = Derivation(0, _small_images(i, model, True), model,
                          name=f"e{i}")
        f[i] = Derivation(0, _small_images(i, model, False), model,
                          name=f"f{i}")
    if k >= 3:
        e[k] = Derivation(0, _e_top_images(model), model, name=f"e{k}")
    return ChevalleyAction(k, model, e, f,
                           dict(enumerate(simple_roots(k), start=1)))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class VerifyReport:
    """Outcome of the relation checks for one rank."""

    def __init__(self, k: int):
        self.k = k
        self.checks: Dict[str, CheckReport] = {}

    def add(self, name: str, report: CheckReport) -> None:
        self.checks[name] = report

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.checks.values())

    def to_payload(self) -> List[dict]:
        out = []
        for name in sorted(self.checks):
            rep = self.checks[name]
            out.append({
                "k": self.k,
                "check": name,
                "status": "pass" if rep.ok else "fail",
                "failures": [{"operator": f.operator,
                              "generator": f.generator,
                              "residue": element_text(f.residue)}
                             for f in rep.failures],
            })
        return out

    def __repr__(self) -> str:
        state = "pass" if self.ok else "FAIL"
        return f"VerifyReport(k={self.k}, {state})"


def _operator_residues(name: str, want: Optional[Dict[Generator, Element]],
                       got: Derivation, scale: Scalar = 1) -> List[Failure]:
    """One failure per generator where got differs from scale * want, in
    generator order, with residue got(g) - scale * want(g).

    `want` maps generators to the wanted images; `want=None` or `scale=0`
    stands for the zero operator.  Images are compared term by term; a
    residue is built only for a mismatch.
    """
    failures = []
    model = got.model
    got_images = got.images
    want_images = want if want is not None and scale else {}
    for g in model.in_order(got_images.keys() | want_images.keys()):
        x, y = got_images.get(g), want_images.get(g)
        if y is None:
            residue = x
        else:
            if x is not None and len(x.terms) == len(y.terms) and all(
                    x.terms.get(mono) == c * scale
                    for mono, c in y.terms.items()):
                continue
            residue = (x or Element.zero()) - y * scale
        failures.append(Failure(name, model.name_of(g), residue))
    return failures


def _relation_report(
        check: str,
        cases: Iterable[Tuple[str, Derivation,
                              Optional[Dict[Generator, Element]], Scalar]]
) -> CheckReport:
    """Run `_operator_residues` on each (name, got, want, scale) case."""
    failures = []
    checked = 0
    for name, got, want, scale in cases:
        failures.extend(_operator_residues(name, want, got, scale))
        checked += 1
    return CheckReport(check, failures, checked)


def verify_action(a: ChevalleyAction,
                  checks: Iterable[str] = ALL_CHECKS) -> VerifyReport:
    """Run the selected relation checks; failures carry exact residues.

    chain:  every operator commutes with the differential.
    cartan: [h, e_i] = alpha_i(h) e_i and [h, f_i] = -alpha_i(h) f_i on the
            Cartan basis, plus commutativity of the diagonal operators.
    ef:     [e_i, f_j] = delta_ij alpha_i-coroot as a diagonal operator.
    serre:  ad(e_i)^{1-c_ij} e_j = 0 and the same for f, over the operators
            present in the parabolic.
    weight: raising/lowering images shift weights by exactly +/- alpha_i.
    """
    report = VerifyReport(a.k)
    selected = list(checks)
    unknown = set(selected) - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    model = a.model
    # (operator, weight shift): e_i raises by alpha_i, f_i lowers by it
    signed = [(D, a.simple_roots[i]) for i, D in a.e.items()] + \
        [(D, tuple(-c for c in a.simple_roots[i])) for i, D in a.f.items()]
    # only chain and cartan read the diagonal basis
    h_ops = a.h_basis() if {"chain", "cartan"} & set(selected) else []

    def run_chain() -> CheckReport:
        ops = [D for D, _ in signed] + h_ops
        failures = [Failure(D.name, model.name_of(g), residue)
                    for D, residues in zip(ops, differential_residues(ops))
                    for g, residue in residues]
        return CheckReport("chain", failures,
                           len(ops) * len(model.generators))

    # the relation checks yield `_relation_report` cases
    def cartan_cases():
        for j, h_op in enumerate(h_ops):
            for op, shift in signed:
                yield (f"[h{j},{op.name}]", bracket(h_op, op), op.images,
                       eps_on_h(shift, _unit_h(a.k, j)))
            for j2 in range(j + 1, a.k + 1):
                yield f"[h{j},h{j2}]", bracket(h_op, h_ops[j2]), None, 1

    def ef_cases():
        for i, e_op in a.e.items():
            for j, f_op in a.f.items():
                want = _h_images(model, a.simple_roots[i]) \
                    if i == j else None
                yield f"[e{i},f{j}]", bracket(e_op, f_op), want, 1

    def serre_cases():
        for ops in (a.e, a.f):
            idxs = sorted(ops)
            for i in idxs:
                for j in idxs:
                    if i == j:
                        continue
                    c_ij = eps_on_h(a.simple_roots[j], a.simple_roots[i])
                    acc = ops[j]
                    for _ in range(1 - c_ij):
                        acc = bracket(ops[i], acc)
                    yield (f"ad({ops[i].name})^{1 - c_ij}({ops[j].name})",
                           acc, None, 1)

    def run_weight() -> CheckReport:
        failures = []
        checked = 0
        weights = model.weights
        for op, shift in signed:
            images = op.images
            for g in model.generators:
                img = images.get(g)
                if img is None:
                    continue
                expected = tuple(c + s for c, s in zip(weights[g], shift))
                for mono in img.terms:
                    checked += 1
                    if monomial_weight(mono, a.k, weights) != expected:
                        failures.append(Failure(
                            op.name, model.name_of(g),
                            Element.monomial(mono)))
        return CheckReport("weight", failures, checked)

    runners = {"chain": run_chain, "weight": run_weight}
    relations = {"cartan": cartan_cases, "ef": ef_cases,
                 "serre": serre_cases}
    for name in ALL_CHECKS:
        if name in selected:
            report.add(name, runners[name]() if name in runners
                       else _relation_report(name, relations[name]()))
    return report


# ---------------------------------------------------------------------------
# split torus
# ---------------------------------------------------------------------------

def torus_automorphism(t: Sequence, k: int,
                       model: Optional[Dgca] = None) -> DgcaHom:
    """The diagonal automorphism attached to a split torus element.

    It scales g by c_g = prod_j t_j^(-w_j), w the weight of g.  Each c_g
    is one Fraction of two integer products, of the t_j's numerators and
    denominators raised to |w_j|.  The map is diagonal, so `is_chain_map`
    checks it in closed form.
    """
    t = [Fraction(c) for c in t]
    if len(t) != k + 1:
        raise ValueError(f"torus element needs {k + 1} components")
    if any(c == 0 for c in t):
        raise ValueError("torus components must be nonzero")
    model = _rank_k_model(k, model)
    parts = [(c.numerator, c.denominator) for c in t]
    images: Dict[Generator, Element] = {}
    for g, w in model.weights.items():
        num = den = 1
        for (a, b), wj in zip(parts, w):
            if wj > 0:
                num *= b ** wj
                den *= a ** wj
            elif wj:
                num *= a ** -wj
                den *= b ** -wj
        images[g] = Element.gen(g, Fraction(num, den))
    return DgcaHom(model, model, images, name=f"torus{tuple(map(str, t))}")


# ---------------------------------------------------------------------------
# gravity line
# ---------------------------------------------------------------------------

def gravity_line_rank(a: ChevalleyAction) -> int:
    """Rank of the traceless-matrix subalgebra image inside the derivations.

    Builds the k^2 - 1 standard basis images by nested brackets of the
    simple raising/lowering operators and row-reduces their images,
    flattened into one sparse row per operator with a column per
    (generator, image monomial); the action is faithful iff the rank is
    k^2 - 1.
    """
    k = a.k
    if k < 2:
        raise ValueError("gravity line needs k >= 2")
    # E_ij and E_ji for j > i, one running bracket per row i
    ops: List[Derivation] = []
    for i in range(1, k):
        up, down = a.e[i], a.f[i]
        ops += [up, down]
        for j in range(i + 2, k + 1):
            up = bracket(up, a.e[j - 1])
            down = bracket(a.f[j - 1], down)
            ops += [up, down]
    ops.extend(h_derivation(a.model, a.simple_roots[i]) for i in range(1, k))

    # one column per (generator, image monomial), numbered on first sight;
    # nested dicts build no key tuple per column
    new_col = count().__next__
    cols = defaultdict(lambda: defaultdict(new_col))
    rows = [{cols[g][mono]: c
             for g, img in op.images.items()
             for mono, c in img.terms.items()}
            for op in ops]
    return sparse_rank(rows)
