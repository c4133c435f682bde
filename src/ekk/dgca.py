"""Semifree DGCAs: constructors, differentials, weights, chain-map checks.

A model is presented by an ordered list of free generators together with a
differential table on generators; the differential extends to products by
the Koszul-Leibniz rule.  The constructors build the minimal models of the
4-sphere, its iterated free loop spaces, the circle quotient of the loop
space, and the k-torus quotient, in both truncated and untruncated form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import (Collection, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from .algebra import (
    INHOMOGENEOUS,
    MAX_RANK,
    Element,
    Generator,
    Monomial,
    Scalar,
    UniverseError,
    _acc,
    _diagonal_scales,
    _mul_into,
    _q,
    monomial_product,
    s_bits_of,
)

__all__ = [
    "Dgca",
    "DgcaHom",
    "CheckReport",
    "Failure",
    "model_s4",
    "free_loop_model",
    "cyclification_model",
    "toroidify",
    "semifree_model",
    "model_over_w",
    "WeightVector",
    "weight_of",
    "monomial_weight",
    "torus_exponents",
    "d_squared_zero",
    "is_chain_map",
    "hom0_check",
    "MAX_RANK",
]

WeightVector = Tuple[int, ...]


class Failure:
    """One nonzero residue found by a verification check.

    `operator` is empty for checks of a single map (d^2 = 0, chain maps);
    `generator` names a generator, or a sample.
    """

    __slots__ = ("operator", "generator", "residue")

    def __init__(self, operator: str, generator: str, residue: Element):
        self.operator = operator
        self.generator = generator
        self.residue = residue

    def __repr__(self) -> str:
        return (f"Failure({self.operator!r}, {self.generator!r}, "
                f"{self.residue})")


class CheckReport:
    """Outcome of an exhaustive check; failures carry exact residues."""

    __slots__ = ("label", "failures", "checked")

    def __init__(self, label: str, failures: List[Failure], checked: int):
        self.label = label
        self.failures = failures
        self.checked = checked

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        state = "pass" if self.ok else f"FAIL({len(self.failures)})"
        return f"CheckReport({self.label}: {state}, checked={self.checked})"


class Dgca:
    """A semifree differential graded-commutative algebra.

    Immutable after construction.  `diff` maps every generator to an element
    of degree one higher; d^2 = 0 is a property to be checked, not a
    construction invariant (corrupted models are legal test data).
    """

    def __init__(self, label: str, k: int, generators: Iterable[Generator],
                 diff: Dict[Generator, Element],
                 display: Optional[Dict[Generator, str]] = None,
                 truncated: bool = True,
                 base_model: Optional["Dgca"] = None,
                 totalization_of: Optional["Dgca"] = None):
        self.label = label
        self.k = k
        self.generators: Tuple[Generator, ...] = tuple(
            sorted(generators, key=lambda g: g.key))
        self.generator_set = frozenset(self.generators)
        self.diff = dict(diff)
        self.display = dict(display or {})
        self.truncated = truncated
        self.base_model = base_model
        self.totalization_of = totalization_of
        self._by_name = {g.name: g for g in self.generators}
        self._position = {g: i for i, g in enumerate(self.generators)}
        self._d = None
        self._weights = None
        self._validate()

    def _validate(self) -> None:
        """One pass over the terms of each image checks its degree and its
        generators; a wrong degree is reported before a foreign generator."""
        known = self.generator_set
        for g in self.generators:
            img = self.diff.get(g)
            if img is None:
                raise ValueError(f"{self.label}: no differential for {g.name}")
            deg = foreign = None
            for mono in img.terms:
                d = 0
                for h, e in mono:
                    d += h.degree * e
                    if foreign is None and h not in known:
                        foreign = h
                if deg is None:
                    deg = d
                elif d != deg:
                    deg = INHOMOGENEOUS
            if deg is not None and deg != g.degree + 1:
                raise ValueError(
                    f"{self.label}: d({g.name}) has degree {deg}, "
                    f"expected {g.degree + 1}")
            if foreign is not None:
                raise UniverseError(f"{self.label}: d({g.name}) uses foreign "
                                    f"generator {foreign.name}")

    # -- lookups ---------------------------------------------------------
    def generator(self, name: str) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"{self.label} has no generator {name!r}") from None

    def gen_element(self, name: str) -> Element:
        return Element.gen(self.generator(name))

    def in_order(self, gens: Collection[Generator]) -> List[Generator]:
        """The given generators sorted by key, which is model order.

        Positions in the model compare faster than keys; a generator of
        another model raises `UniverseError`.
        """
        try:
            return sorted(gens, key=self._position.__getitem__)
        except KeyError as exc:
            raise UniverseError(f"{exc.args[0].name} is not a generator "
                                f"of {self.label}") from None

    def check_generators(self, gens: Iterable[Generator]) -> None:
        """Raise `UniverseError` naming the first of `gens` that is not a
        generator of the model."""
        known = self.generator_set
        for g in gens:
            if g not in known:
                raise UniverseError(f"{g.name} is not a generator of "
                                    f"{self.label}")

    def redecorated(self, g: Generator, s_bits: int) -> Optional[Generator]:
        """g's base symbol under the decorations `s_bits`, or None when the
        model has no such generator (truncation dropped it)."""
        target = Generator.decorated(g.base, g.base_pos, g.base_degree,
                                     s_bits)
        return target if target in self.generator_set else None

    def name_of(self, g: Generator) -> str:
        return self.display.get(g, g.name)

    def check_element(self, x: Element) -> None:
        for g in x.generators():
            if g not in self.generator_set:
                raise UniverseError(
                    f"element uses {g.name}, not a generator of {self.label}")

    # -- differential ------------------------------------------------------
    def differential_derivation(self):
        """d as a derivation, built on first use (the model is immutable)."""
        if self._d is None:
            from .derivations import Derivation
            self._d = Derivation(degree=1, images=self.diff, model=self,
                                 name="d")
        return self._d

    @property
    def weights(self) -> Dict[Generator, WeightVector]:
        """Generator -> `weight_of`, in model order, built on first use.

        Only the 4-sphere family carries weights; any other model raises
        `ValueError` naming the base generator without a torus action.
        """
        if self._weights is None:
            self._weights = {g: weight_of(g, self.k)
                             for g in self.generators}
        return self._weights

    def with_diff(self, replacements: Dict[Generator, Element]) -> "Dgca":
        """Copy of the model with some differentials replaced (mutation tests)."""
        diff = dict(self.diff)
        diff.update(replacements)
        return Dgca(self.label + "'", self.k, self.generators, diff,
                    display=self.display, truncated=self.truncated,
                    base_model=self.base_model,
                    totalization_of=self.totalization_of)

    def __repr__(self) -> str:
        return f"Dgca({self.label}, k={self.k}, {len(self.generators)} generators)"


class DgcaHom:
    """A degree-preserving algebra map determined by generator images.

    Every source generator needs an image in the target of its own degree,
    and an image for a generator outside the source raises UniverseError.
    `diagonal` maps each generator g to c_g when every image is c_g g (a
    split torus element, a scaling), and is None otherwise; it is read off
    the images, never chosen by the caller.  `is_chain_map` checks a
    diagonal map of a model to itself in closed form, comparing products
    of the c_f with c_g on integer numerators and denominators.
    """

    def __init__(self, source: Dgca, target: Dgca,
                 images: Dict[Generator, Element], name: str = ""):
        self.source = source
        self.target = target
        self.images = dict(images)
        self.name = name
        source.check_generators(self.images)
        for g in source.generators:
            img = self.images.get(g)
            if img is None:
                raise ValueError(f"hom misses image of {g.name}")
            if not img.is_zero and not img.is_homogeneous(g.degree):
                raise ValueError(
                    f"hom image of {g.name} is not of degree {g.degree}")
            target.check_element(img)
        self.diagonal = _diagonal_scales(self.images)

    def apply(self, x: Element) -> Element:
        return Element(_raw=self._add_to({}, x, 1))

    def _add_to(self, acc: Dict[Monomial, Scalar], x: Element, sign: int
                ) -> Dict[Monomial, Scalar]:
        """Add sign * h(x) into the term dict `acc` (sign is 1 or -1) and
        return it.

        The images of a term's factors, each as often as its exponent, are
        multiplied left to right into one term dict, which is then added
        into `acc`.
        """
        images = self.images
        for mono, coeff in x.terms.items():
            prod = {(): coeff if sign > 0 else -coeff}
            for g, e in mono:
                img = images.get(g)
                if img is None:
                    raise UniverseError(f"hom has no image for {g.name}")
                for _ in range(e):
                    prod = _mul_into({}, prod, img.terms)
                if not prod:
                    break
            for m, c in prod.items():
                _acc(acc, m, c)
        return acc

    def compose(self, inner: "DgcaHom") -> "DgcaHom":
        """self o inner."""
        if inner.target is not self.source and \
                inner.target.generator_set != self.source.generator_set:
            raise UniverseError("homs not composable")
        images = {g: self.apply(img) for g, img in inner.images.items()}
        return DgcaHom(inner.source, self.target, images,
                       name=f"{self.name}o{inner.name}")

    def __repr__(self) -> str:
        return f"DgcaHom({self.source.label} -> {self.target.label})"


# ---------------------------------------------------------------------------
# model constructors
# ---------------------------------------------------------------------------

def _decorated_generators(base_syms: Sequence[Tuple[str, int]], k: int,
                          truncated: bool) -> List[Generator]:
    gens = []
    for pos, (name, deg) in enumerate(base_syms):
        for p in range(k + 1):
            for combo in combinations(range(1, k + 1), p):
                if truncated and deg - p <= 0:
                    continue
                gens.append(Generator.decorated(name, pos, deg, s_bits_of(combo)))
    return gens


def _check_base_input(m: Dgca) -> List[Tuple[str, int]]:
    if m.k != 0:
        raise ValueError(f"base model must have k=0, got k={m.k}")
    syms = []
    for g in m.generators:
        if not g.is_decorated_base or g.s_bits:
            raise ValueError("base model must be undecorated")
        syms.append((g.base, g.base_degree))
    return syms


def model_s4() -> Dgca:
    """Minimal model of the 4-sphere: generators g4 and g7, d g7 = -1/2 g4^2."""
    g4 = Generator.decorated("g4", 0, 4)
    g7 = Generator.decorated("g7", 1, 7)
    diff = {
        g4: Element.zero(),
        g7: Element.monomial(((g4, 2),), Fraction(-1, 2)),
    }
    return Dgca("S4", 0, [g4, g7], diff)


# eps_0 coefficient of the undecorated base generators of the sphere model
_S4_EPS0 = {"g4": -1, "g7": -2}


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


def weight_of(g: Generator, k: int) -> WeightVector:
    """Weight of a model generator in eps-coordinates (length k+1).

    The negated `torus_exponents`: decorations add +eps_i, the polynomial
    generators carry -eps_i, and the base generators carry -eps_0 (g4) and
    -2 eps_0 (g7).  Only the 4-sphere family carries weights.
    """
    w = [0] * (k + 1)
    for i, c in torus_exponents(g).items():
        if i > k:
            raise ValueError(f"index {i} of {g.name} out of range for k={k}")
        w[i] = -c
    return tuple(w)


def monomial_weight(m: Monomial, k: int,
                    weights: Dict[Generator, WeightVector]) -> WeightVector:
    """Sum of the factors' weights, read from a model's `Dgca.weights`."""
    w = [0] * (k + 1)
    for g, e in m:
        for idx, c in enumerate(weights[g]):
            w[idx] += c * e
    return tuple(w)


_NamedTerms = Sequence[Tuple[Scalar, Sequence[str]]]


def _element_from_names(terms: _NamedTerms,
                        gens: Dict[str, Generator]) -> Element:
    """Sum of the (coefficient, [factor names]) terms over `gens`.

    Each term's factors fold right to left into one canonical monomial, the
    Koszul signs multiplied together; a repeated odd factor kills the term.
    """
    acc: Dict[Monomial, Scalar] = {}
    for coeff, factors in terms:
        try:
            gs = [gens[f] for f in factors]
        except KeyError as e:
            raise ValueError(f"undeclared generator {e.args[0]!r}") from None
        sign = 1
        mono: Monomial = ()
        for g in reversed(gs):
            r = monomial_product(((g, 1),), mono)
            if r is None:
                break
            sign *= r[0]
            mono = r[1]
        else:
            c = _q(coeff)
            _acc(acc, mono, c if sign > 0 else -c)
    return Element(_raw=acc)


def semifree_model(label: str, symbols: Sequence[Tuple[str, int]],
                   diff_names: Optional[Dict[str, _NamedTerms]] = None) -> Dgca:
    """Build a small semifree model from names.

    `symbols` lists (name, degree) in declaration order; `diff_names` maps a
    generator name to a list of (coefficient, [factor names]) terms.
    """
    return model_over_w(label, 0, symbols, diff_names)


def model_over_w(label: str, k: int, symbols: Sequence[Tuple[str, int]],
                 diff_names: Optional[Dict[str, _NamedTerms]] = None) -> Dgca:
    """Semifree model over Q[w_1..w_k]: named generators plus the w's.

    Factor name "wi" refers to the polynomial generator w_i; d w_i = 0.
    """
    gens = {f"w{i}": Generator.w(i) for i in range(1, k + 1)}
    for pos, (name, deg) in enumerate(symbols):
        gens[name] = Generator.decorated(name, pos, deg)
    diff = {g: Element.zero() for g in gens.values()}
    for name, terms in (diff_names or {}).items():
        diff[gens[name]] = _element_from_names(terms, gens)
    return Dgca(label, k, list(gens.values()), diff)


def _decorated_model(m: Dgca, k: int, truncated: bool, with_w: bool) -> Dgca:
    """The rank-k decorated model over the undecorated base model m.

    This is the one construction body behind `toroidify` (with the w's) and
    `free_loop_model` (without them, and so without the w twist).
    """
    from .derivations import s_derivation
    if k < 0:
        raise ValueError(f"rank must be >= 0, got {k}")
    if k > MAX_RANK:
        raise ValueError(f"rank {k} exceeds bitmask capacity {MAX_RANK}")
    gens = _decorated_generators(_check_base_input(m), k, truncated)
    w_gens = [Generator.w(i) for i in range(1, k + 1)] if with_w else []
    all_gens = gens + w_gens
    shell = Dgca("shell", k, all_gens, {g: Element.zero() for g in all_gens})
    s_ops = [s_derivation(i, shell) for i in range(1, k + 1)]
    base_diff = {g.base: m.diff[g] for g in m.generators}
    twisted: Dict[str, Element] = {}
    for v in gens:
        if v.s_bits:
            continue
        img = base_diff[v.base]
        for w in w_gens:
            s_v = shell.redecorated(v, 1 << (w.index - 1))
            if s_v is not None:
                img = img + Element.gen(w) * Element.gen(s_v)
        twisted[v.base] = img
    diff: Dict[Generator, Element] = {w: Element.zero() for w in w_gens}
    # d(s_I v) = (-1)^|I| s_I(d v) = -s_{min I}(d(s_{I - min I} v)): one
    # decoration step from the word one shorter, which `gens` lists earlier
    # and truncation keeps (its degree is higher)
    for g in gens:
        bits = g.s_bits
        if bits:
            low = bits & -bits
            shorter = shell.redecorated(g, bits ^ low)
            diff[g] = -s_ops[low.bit_length() - 1].apply(diff[shorter])
        else:
            diff[g] = twisted[g.base]
    if with_w:
        label = f"{'' if truncated else '~'}T^{k}({m.label})"
    else:
        label = f"L^{k}({m.label})"
    return Dgca(label, k, all_gens, diff, truncated=truncated, base_model=m)


def free_loop_model(m: Dgca, k: int) -> Dgca:
    """Model of the k-fold free loop space: decorations, no w generators.

    d commutes with every s_i up to the parity of the decoration word:
    d(s_I v) = (-1)^|I| s_I(d v).
    """
    return _decorated_model(m, k, truncated=True, with_w=False)


def toroidify(m: Dgca, k: int, truncated: bool = True) -> Dgca:
    """Torus-quotient model: decorated generators plus w_1..w_k.

    On an undecorated generator, d v = (d_base v) + sum_i w_i . s_i v; on a
    decorated generator the differential is pulled through the decoration
    word with the sign (-1)^|I|.  With `truncated` every generator of
    non-positive degree is dropped and any operator producing it gives zero.
    """
    return _decorated_model(m, k, truncated, with_w=True)


def cyclification_model(m: Dgca) -> Dgca:
    """Circle-quotient model of the free loop space.

    Generators v, sv (positive degrees only) and one w of degree 2, with
    d v = d_base v + w . sv,  d sv = -s(d_base v),  d w = 0: the rank-one
    torus model, labelled Lc(...) and displayed with w and sv for w1, s1v.
    """
    t = _decorated_model(m, 1, truncated=True, with_w=True)
    display = {g: "w" if g.is_w else "s" + g.base
               for g in t.generators if g.is_w or g.s_bits}
    return Dgca(f"Lc({m.label})", 1, t.generators, t.diff, display=display,
                base_model=m)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def d_squared_zero(m: Dgca) -> CheckReport:
    """Expand d(d g) for every generator; collect nonzero residues."""
    d = m.differential_derivation()
    failures = []
    for g in m.generators:
        residue = d.apply(m.diff[g])
        if not residue.is_zero:
            failures.append(Failure("", m.name_of(g), residue))
    return CheckReport(f"d^2=0 on {m.label}", failures, len(m.generators))


def is_chain_map(h: DgcaHom) -> CheckReport:
    """Check h(d_src g) = d_tgt(h g) on every source generator.

    Both sides add into one term dict per generator.  A diagonal h (every
    h g = c_g g) of a model to itself needs no product: the residue at g
    is the sum over the terms t of d g of coeff_t (prod c_f^e - c_g) t,
    the product running over the factors f^e of t.  Each product is
    compared with c_g on integers, its numerator times c_g's denominator
    against c_g's numerator times its denominator, and a Fraction is built
    only for a nonzero residue term.
    """
    src = h.source
    scale = h.diagonal if src is h.target else None
    if scale is None:
        d_tgt = h.target.differential_derivation()
    else:
        parts = {g: (c.numerator, c.denominator) for g, c in scale.items()}
    failures = []
    for g in src.generators:
        if scale is None:
            acc = h._add_to({}, src.diff[g], 1)
            d_tgt._add_to(acc, h.images[g], -1)
        else:
            p, q = parts[g]
            acc = {}
            for mono, coeff in src.diff[g].terms.items():
                num = den = 1
                for f, e in mono:
                    a, b = parts[f]
                    num *= a ** e
                    den *= b ** e
                if num * q != p * den:
                    acc[mono] = _q(coeff * (Fraction(num, den) - scale[g]))
        if acc:
            failures.append(Failure("", src.name_of(g), Element(_raw=acc)))
    return CheckReport(f"chain map {src.label}->{h.target.label}",
                       failures, len(src.generators))


def hom0_check(h: DgcaHom) -> bool:
    """True iff images of positive-degree generators lie in N+ x S(sW).

    The target must have been built by totalization; a monomial qualifies
    when its non-sw factors have positive total degree.
    """
    if h.target.totalization_of is None:
        raise ValueError("hom0_check target was not built by totalize()")
    for g in h.source.generators:
        if g.degree <= 0:
            continue
        for mono, _ in h.images[g].items():
            n_deg = sum(gg.degree * e for gg, e in mono if not gg.is_sw)
            if n_deg <= 0:
                return False
    return True
