"""Chevalley-generator action on the torus-quotient models of the 4-sphere.

Builds the raising operators e_1..e_k, the lowering operators f_1..f_{k-1}
(f_1 alone at rank 2, none below), and the diagonal Cartan action as exact
derivations of the rank-k model, assigns the integer weight of every
generator, realizes the split-torus automorphisms, and runs the relation
verification suite: chain compatibility, Cartan relations, [e,f] pairs,
Serre relations, and weight additivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .algebra import (Element, Generator, Monomial, element_text,
                      s_indices_of)
from .cartan import CartanData, cartan_data, cartan_matrix, eps_on_h
from .dgca import (CheckReport, Dgca, DgcaHom, Failure, model_s4, toroidify)
from .derivations import Derivation, bracket, differential_residues

__all__ = [
    "WeightVector",
    "ChevalleyAction",
    "VerifyReport",
    "ALL_CHECKS",
    "weight_of",
    "monomial_weight",
    "build_action",
    "h_derivation",
    "verify_action",
    "torus_automorphism",
    "torus_exponents",
    "gravity_line_rank",
]

WeightVector = Tuple[int, ...]

# eps_0 coefficient of the undecorated base generators of the sphere model
_S4_EPS0 = {"g4": -1, "g7": -2}

ALL_CHECKS = ("chain", "cartan", "ef", "serre", "weight")


def weight_of(g: Generator, k: int) -> WeightVector:
    """Weight of a model generator in eps-coordinates (length k+1).

    Decorations add +eps_i, the polynomial generators carry -eps_i, and the
    base generators carry -eps_0 (g4) and -2 eps_0 (g7).  Only the 4-sphere
    family carries weights.
    """
    w = [0] * (k + 1)
    if g.is_w:
        if g.index > k:
            raise ValueError(f"w{g.index} out of range for k={k}")
        w[g.index] = -1
        return tuple(w)
    if g.is_sw:
        raise ValueError("sw generators carry no weight")
    if g.base not in _S4_EPS0:
        raise ValueError(f"no weight table for base symbol {g.base!r}")
    w[0] = _S4_EPS0[g.base]
    for i in g.s_indices:
        if i > k:
            raise ValueError(f"decoration {i} out of range for k={k}")
        w[i] += 1
    return tuple(w)


def monomial_weight(m: Monomial, k: int) -> WeightVector:
    w = [0] * (k + 1)
    for g, e in m:
        for idx, c in enumerate(weight_of(g, k)):
            w[idx] += c * e
    return tuple(w)


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
                target = Generator.decorated(
                    g.base, g.base_pos, g.base_degree,
                    (g.s_bits & ~bit_src) | bit_dst)
                if target in model.generator_set:
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
            target = Generator.decorated("g4", _g4_pos(model), 4, high)
            if target in model.generator_set:
                sign = -1 if high.bit_count() & 1 else 1
                images[g] = Element.gen(target, sign)
    return images


def _g4_pos(model: Dgca) -> int:
    return model.generator("g4").base_pos


def h_derivation(model: Dgca, h: Sequence, name: str = "h") -> Derivation:
    """Diagonal derivation multiplying each generator by its weight on h."""
    images: Dict[Generator, Element] = {}
    for g in model.generators:
        c = eps_on_h(weight_of(g, model.k), h)
        if c:
            images[g] = Element.gen(g, c)
    return Derivation(0, images, model, name=name)


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
    cartan: Optional[CartanData]
    coroots: Dict[int, Tuple[int, ...]]
    simple_roots: Dict[int, Tuple[int, ...]]

    def h(self, vec: Sequence) -> Derivation:
        return h_derivation(self.model, vec)

    def h_basis(self) -> List[Derivation]:
        return [h_derivation(self.model, _unit_h(self.k, j), name=f"h{j}")
                for j in range(self.k + 1)]


def build_action(k: int, model: Optional[Dgca] = None) -> ChevalleyAction:
    """Construct the action on the rank-k torus model of the 4-sphere.

    Ranks 0 and 1 carry only the diagonal action; rank 2 carries e_1, f_1;
    from rank 3 on there are e_1..e_k and f_1..f_{k-1}.
    """
    if k < 0:
        raise ValueError(f"rank must be >= 0, got {k}")
    if model is None:
        model = toroidify(model_s4(), k)
    e: Dict[int, Derivation] = {}
    f: Dict[int, Derivation] = {}
    for i in range(1, k):
        e[i] = Derivation(0, _small_images(i, model, True), model,
                          name=f"e{i}")
        f[i] = Derivation(0, _small_images(i, model, False), model,
                          name=f"f{i}")
    if k >= 3:
        e[k] = Derivation(0, _e_top_images(model), model, name=f"e{k}")
        data = cartan_data(k)
        coroots = {i: data.coroot(i) for i in range(1, k + 1)}
        roots = {i: data.root(i) for i in range(1, k + 1)}
    else:
        data = None
        coroots = {}
        roots = {}
        if k == 2:
            # single simple root eps_1 - eps_2 with coroot h_1 - h_2
            roots[1] = (0, 1, -1)
            coroots[1] = (0, 1, -1)
    return ChevalleyAction(k, model, e, f, data, coroots, roots)


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


def _operator_residues(name: str, want: Optional[Derivation],
                       got: Derivation) -> List[Failure]:
    failures = []
    model = got.model
    keys = set(got.images)
    if want is not None:
        keys |= set(want.images)
    for g in sorted(keys, key=lambda g: g.key):
        residue = got.image(g) - (want.image(g) if want is not None
                                  else Element.zero())
        if not residue.is_zero:
            failures.append(Failure(name, model.name_of(g), residue))
    return failures


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
    ef_ops = list(a.e.values()) + list(a.f.values())
    h_ops = a.h_basis()

    def run_chain() -> CheckReport:
        ops = ef_ops + h_ops
        failures = [Failure(D.name, model.name_of(g), residue)
                    for D in ops for g, residue in differential_residues(D)]
        return CheckReport("chain", failures,
                           len(ops) * len(model.generators))

    def run_cartan() -> CheckReport:
        failures = []
        checked = 0
        for j, h_op in enumerate(h_ops):
            for i, op in list(a.e.items()) + [(-i, D) for i, D in
                                              a.f.items()]:
                lowering = i < 0
                idx = -i if lowering else i
                alpha = a.simple_roots[idx]
                scale = eps_on_h(alpha, _unit_h(a.k, j))
                if lowering:
                    scale = -scale
                got = bracket(h_op, op)
                want = scale * op
                failures.extend(_operator_residues(
                    f"[h{j},{op.name}]", want, got))
                checked += 1
            for j2 in range(j + 1, a.k + 1):
                got = bracket(h_op, h_ops[j2])
                failures.extend(_operator_residues(
                    f"[h{j},h{j2}]", None, got))
                checked += 1
        return CheckReport("cartan", failures, checked)

    def run_ef() -> CheckReport:
        failures = []
        checked = 0
        for i, e_op in a.e.items():
            for j, f_op in a.f.items():
                got = bracket(e_op, f_op)
                want = a.h(a.coroots[i]) if i == j else None
                failures.extend(_operator_residues(
                    f"[e{i},f{j}]", want, got))
                checked += 1
        return CheckReport("ef", failures, checked)

    def run_serre() -> CheckReport:
        failures = []
        checked = 0
        C = cartan_matrix(a.k) if a.k >= 3 else None
        for ops in (a.e, a.f):
            idxs = sorted(ops)
            for i in idxs:
                for j in idxs:
                    if i == j:
                        continue
                    c_ij = C[i, j] if C is not None else 0
                    acc = ops[j]
                    for _ in range(1 - c_ij):
                        acc = bracket(ops[i], acc)
                    failures.extend(_operator_residues(
                        f"ad({ops[i].name})^{1 - c_ij}({ops[j].name})",
                        None, acc))
                    checked += 1
        return CheckReport("serre", failures, checked)

    def run_weight() -> CheckReport:
        failures = []
        checked = 0
        for i, op in list(a.e.items()) + [(-i, D) for i, D in a.f.items()]:
            lowering = i < 0
            idx = -i if lowering else i
            alpha = a.simple_roots[idx]
            shift = tuple(-c for c in alpha) if lowering else alpha
            for g in model.generators:
                img = op.image(g)
                if img.is_zero:
                    continue
                expected = tuple(c + s for c, s in
                                 zip(weight_of(g, a.k), shift))
                for mono, _ in img.items():
                    checked += 1
                    if monomial_weight(mono, a.k) != expected:
                        failures.append(Failure(
                            op.name, model.name_of(g),
                            Element.monomial(mono)))
        return CheckReport("weight", failures, checked)

    runners = {"chain": run_chain, "cartan": run_cartan, "ef": run_ef,
               "serre": run_serre, "weight": run_weight}
    for name in ALL_CHECKS:
        if name in selected:
            report.add(name, runners[name]())
    return report


# ---------------------------------------------------------------------------
# split torus
# ---------------------------------------------------------------------------

def torus_exponents(g: Generator) -> Dict[int, int]:
    """Exponents of the scaling of a generator by (t_0, .., t_k).

    Straight from the displayed character formulas: g4 scales by t_0, g7 by
    t_0^2, w_i by t_i, and each decoration divides by its t_i.
    """
    if g.is_w:
        return {g.index: 1}
    if g.base not in _S4_EPS0:
        raise ValueError(f"no torus action table for base {g.base!r}")
    exps = {0: -_S4_EPS0[g.base]}
    for i in g.s_indices:
        exps[i] = exps.get(i, 0) - 1
    return exps


def torus_automorphism(t: Sequence, k: int,
                       model: Optional[Dgca] = None) -> DgcaHom:
    """The diagonal automorphism attached to a split torus element."""
    t = [Fraction(c) for c in t]
    if len(t) != k + 1:
        raise ValueError(f"torus element needs {k + 1} components")
    if any(c == 0 for c in t):
        raise ValueError("torus components must be nonzero")
    if model is None:
        model = toroidify(model_s4(), k)
    images: Dict[Generator, Element] = {}
    for g in model.generators:
        c = Fraction(1)
        for idx, e in torus_exponents(g).items():
            c *= t[idx] ** e
        images[g] = Element.gen(g, c)
    return DgcaHom(model, model, images, name=f"torus{tuple(map(str, t))}")


# ---------------------------------------------------------------------------
# gravity line
# ---------------------------------------------------------------------------

def gravity_line_rank(a: ChevalleyAction) -> int:
    """Rank of the traceless-matrix subalgebra image inside the derivations.

    Builds the k^2 - 1 standard basis images by nested brackets of the
    simple raising/lowering operators and row-reduces their flattened
    matrices; the action is faithful iff the rank is k^2 - 1.
    """
    from .derivations import sparse_rank
    k = a.k
    if k < 2:
        raise ValueError("gravity line needs k >= 2")
    ops: List[Derivation] = []
    upper: Dict[Tuple[int, int], Derivation] = {}
    lower: Dict[Tuple[int, int], Derivation] = {}
    for i in range(1, k):
        upper[(i, i + 1)] = a.e[i]
        lower[(i + 1, i)] = a.f[i]
    for span in range(2, k):
        for i in range(1, k - span + 1):
            j = i + span
            upper[(i, j)] = bracket(upper[(i, j - 1)], a.e[j - 1])
            lower[(j, i)] = bracket(a.f[j - 1], lower[(j - 1, i)])
    ops.extend(upper.values())
    ops.extend(lower.values())
    for i in range(1, k):
        ops.append(a.h(a.coroots[i]))

    gen_index = {g: n for n, g in enumerate(a.model.generators)}
    n = len(gen_index)
    rows = []
    for op in ops:
        row: Dict[int, Fraction] = {}
        for (src, dst), c in op.linear_matrix().items():
            row[gen_index[src] * n + gen_index[dst]] = c
        rows.append(row)
    return sparse_rank(rows)
