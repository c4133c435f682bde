"""Exact kernel for free graded-commutative algebras over Q.

Generators commute or anticommute according to the parity of their degree.
Monomials are kept in a canonical sorted form with the Koszul sign of any
reordering absorbed into the coefficient, so equality of elements is plain
dictionary equality and all arithmetic is exact.  Coefficients are stored as
int whenever they are integral and as fractions.Fraction otherwise; since
2 == Fraction(2) with equal hashes and equal str, the choice never shows.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List,
                    Optional, Tuple, Union)

if TYPE_CHECKING:
    from .dgca import Dgca

__all__ = [
    "Generator",
    "Monomial",
    "Element",
    "Scalar",
    "INHOMOGENEOUS",
    "UniverseError",
    "monomial_product",
    "monomial_degree",
    "print_terms",
    "render_element",
    "element_text",
    "s_bits_of",
    "s_indices_of",
    "s_insertion_sign",
    "parse_generator_name",
]

# generator families in canonical order: w < sw < decorated base symbols
_FAM_W = 0
_FAM_SW = 1
_FAM_V = 2

Scalar = Union[int, Fraction]


def _q(c: Scalar) -> Scalar:
    """The exact value of a scalar: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class UniverseError(ValueError):
    """Raised when an element mixes generators from incompatible models."""


class _Inhomogeneous:
    __slots__ = ()

    def __repr__(self) -> str:
        return "INHOMOGENEOUS"


#: Sentinel returned by degree computations on mixed-degree elements.
INHOMOGENEOUS = _Inhomogeneous()


def s_bits_of(indices: Iterable[int]) -> int:
    """Pack a set of decoration indices (1-based) into a bitmask."""
    bits = 0
    for i in indices:
        if i < 1:
            raise ValueError(f"decoration index must be >= 1, got {i}")
        bit = 1 << (i - 1)
        if bits & bit:
            raise ValueError(f"repeated decoration index {i}")
        bits |= bit
    return bits


def s_indices_of(bits: int) -> Tuple[int, ...]:
    """Unpack a bitmask into the sorted tuple of decoration indices."""
    out = []
    i = 1
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return tuple(out)


def s_insertion_sign(bits: int, i: int) -> int:
    """Sign (-1)^#{j in bits : j < i} picked up when s_i joins the prefix s_I.

    Decoration operators of adjacent indices anticommute, so inserting s_i
    into an increasing word costs one sign per smaller index already present.
    """
    below = bits & ((1 << (i - 1)) - 1)
    return -1 if below.bit_count() & 1 else 1


#: decoration indices run from 1 to MAX_RANK
MAX_RANK = 64
# A sort key is one int that orders like (family, position, indices): the
# indices are the digits of a base-(MAX_RANK + 1) fraction, most significant
# first, with 0 for an absent index, so a word sorts before its extensions.
_POS_BITS = 20
_WORD_BITS = 400
_DIGIT = [(MAX_RANK + 1) ** (MAX_RANK - 1 - j) for j in range(MAX_RANK)]
assert (MAX_RANK + 1) ** MAX_RANK <= 1 << _WORD_BITS


def _sort_key(family: int, position: int, indices: Tuple[int, ...]) -> int:
    """The int that sorts exactly like (family, position, indices)."""
    if not 0 <= position < 1 << _POS_BITS:
        raise ValueError(f"generator position {position} out of range")
    if indices and indices[-1] > MAX_RANK:
        raise ValueError(f"decoration index {indices[-1]} exceeds {MAX_RANK}")
    word = 0
    for i, digit in zip(indices, _DIGIT):
        word += i * digit
    return ((family << _POS_BITS | position) << _WORD_BITS) + word


class Generator:
    """One free generator: w_i, sw_i, or an s-decorated base symbol.

    Degree of a decorated generator is the base degree minus the number of
    decorations; parity is degree mod 2.  Instances are immutable, ordered
    by (family, position, decoration indices) and interned by their full
    identity, declaration position included.  Interning makes two generators
    with the same identity one object, so equality and hashing are those of
    the object itself, and equal generators always share one sort key.  The
    sort key, name and print key are computed once, when the generator is
    interned.
    """

    __slots__ = ("family", "index", "base", "base_pos", "base_degree",
                 "s_bits", "s_indices", "degree", "odd", "key", "name",
                 "print_key")

    _interned: Dict[tuple, "Generator"] = {}

    def __new__(cls, family: int, index: int, base: str, base_pos: int,
                base_degree: int, s_bits: int):
        ident = (family, index, base, base_pos, base_degree, s_bits)
        self = cls._interned.get(ident)
        if self is None:
            self = super().__new__(cls)
            cls._interned[ident] = self
        return self

    def __init__(self, family: int, index: int, base: str, base_pos: int,
                 base_degree: int, s_bits: int):
        if hasattr(self, "family"):
            return  # interned instance already initialized
        indices = s_indices_of(s_bits) if family == _FAM_V else ()
        position = base_pos if family == _FAM_V else index
        # before `family`, which marks the instance as built, so that an
        # identity out of the key's range is rejected on every call
        self.key = _sort_key(family, position, indices)
        self.family = family
        self.index = index
        self.base = base
        self.base_pos = base_pos
        self.base_degree = base_degree
        self.s_bits = s_bits
        self.s_indices = indices
        if family == _FAM_V:
            self.degree = base_degree - len(indices)
            self.name = "".join(f"s{i}" for i in indices) + base
        elif family == _FAM_W:
            self.degree = 2
            self.name = f"w{index}"
        else:
            self.degree = 1
            self.name = f"sw{index}"
        self.odd = self.degree & 1
        # decorated bases, then sw, then w: mirrors the usual written order
        self.print_key = (_FAM_V - family, position, indices)

    @staticmethod
    def w(i: int) -> "Generator":
        return Generator(_FAM_W, i, "", 0, 2, 0)

    @staticmethod
    def sw(i: int) -> "Generator":
        return Generator(_FAM_SW, i, "", 0, 1, 0)

    @staticmethod
    def decorated(base: str, base_pos: int, base_degree: int,
                  s_bits: int = 0) -> "Generator":
        return Generator(_FAM_V, 0, base, base_pos, base_degree, s_bits)

    @property
    def is_w(self) -> bool:
        return self.family == _FAM_W

    @property
    def is_sw(self) -> bool:
        return self.family == _FAM_SW

    @property
    def is_decorated_base(self) -> bool:
        return self.family == _FAM_V

    def __repr__(self) -> str:
        return f"Generator({self.name}, deg={self.degree})"


_NAME_RE = re.compile(
    r"^(?P<prefix>(?:s\d+)*)(?:(?P<poly>w\d+|sw\d+)|(?P<base>[A-Za-z]\w*))$")


def parse_generator_name(name: str, base_table: Dict[str, Tuple[int, int]]) -> Generator:
    """Rebuild a generator from its canonical name.

    `base_table` maps base symbol -> (declaration position, degree).  Each
    decoration index carries its own 's' prefix, so names are unambiguous
    for any rank.
    """
    m = _NAME_RE.match(name)
    if not m:
        raise ValueError(f"unparseable generator name {name!r}")
    prefix, poly, core = m.groups()
    if poly:
        if prefix:
            raise ValueError(f"{poly} takes no decorations: {name!r}")
        index = int(poly.lstrip("sw"))
        return Generator.sw(index) if poly[0] == "s" else Generator.w(index)
    if core not in base_table:
        raise ValueError(f"unknown base symbol {core!r} in {name!r}")
    pos, deg = base_table[core]
    bits = s_bits_of(int(tok) for tok in re.findall(r"s(\d+)", prefix))
    return Generator.decorated(core, pos, deg, bits)


# A monomial is a sorted tuple of (generator, exponent >= 1) pairs; odd
# generators always have exponent 1.  The empty tuple is the unit.
Monomial = Tuple[Tuple[Generator, int], ...]

MONOMIAL_ONE: Monomial = ()


def monomial_degree(m: Monomial) -> int:
    return sum(g.degree * e for g, e in m)


def monomial_product(a: Monomial, b: Monomial) -> Optional[Tuple[int, Monomial]]:
    """Merge two canonical monomials; returns (koszul sign, monomial) or None.

    None means the product vanishes because some odd generator would acquire
    exponent two.  The sign counts each odd factor of `b` crossing the odd
    factors of `a` that exceed it in the canonical order.  A one-factor `a`
    is inserted by a single walk over `b`, which places it exactly where the
    general merge would: before the first factor of `b` whose key is not
    smaller, ties included.
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    la = len(a)
    if la == 1:
        g = a[0][0]
        key = g.key
        crossed = j = 0
        for gb, eb in b:
            if gb is g:
                if g.odd:
                    return None
                return 1, b[:j] + ((g, a[0][1] + eb),) + b[j + 1:]
            if gb.key >= key:
                out = b[:j] + a + b[j:]
                break
            crossed += gb.odd
            j += 1
        else:
            out = b + a
        return (-1 if g.odd and crossed & 1 else 1), out
    lb = len(b)
    # odd_suffix[i] = number of odd factors among a[i:]
    odd_suffix = [0] * (la + 1)
    for i in range(la - 1, -1, -1):
        odd_suffix[i] = odd_suffix[i + 1] + a[i][0].odd
    out = []
    sign = 1
    i = j = 0
    while i < la and j < lb:
        ga, ea = a[i]
        gb, eb = b[j]
        if ga is gb:
            if ga.odd:
                return None
            out.append((ga, ea + eb))
            i += 1
            j += 1
        elif ga.key <= gb.key:
            out.append(a[i])
            i += 1
        else:
            if gb.odd and odd_suffix[i] & 1:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def _acc(d: Dict[Monomial, Scalar], m: Monomial, c: Scalar) -> None:
    cur = d.get(m)
    if cur is None:
        if c:
            d[m] = c
    else:
        cur += c
        if cur:
            d[m] = cur
        else:
            del d[m]


def _mul_into(acc: Dict[Monomial, Scalar], a: Dict[Monomial, Scalar],
              b: Dict[Monomial, Scalar]) -> Dict[Monomial, Scalar]:
    """Add the product of the term dicts a and b, a's terms on the left,
    into the term dict `acc` and return it."""
    for ma, ca in a.items():
        for mb, cb in b.items():
            r = monomial_product(ma, mb)
            if r is not None:
                _acc(acc, r[1], ca * cb if r[0] > 0 else -ca * cb)
    return acc


class Element:
    """A finite Q-linear combination of canonical monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Monomial, Scalar]] = None, *,
                 _raw: Optional[Dict[Monomial, Scalar]] = None):
        if _raw is not None:
            self.terms = _raw
        elif terms is None:
            self.terms = {}
        else:
            self.terms = {m: _q(c) for m, c in terms.items() if c}

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero() -> "Element":
        return Element(_raw={})

    @staticmethod
    def one() -> "Element":
        return Element(_raw={MONOMIAL_ONE: 1})

    @staticmethod
    def scalar(c: Scalar) -> "Element":
        c = _q(c)
        return Element(_raw={MONOMIAL_ONE: c} if c else {})

    @staticmethod
    def gen(g: Generator, c: Scalar = 1) -> "Element":
        c = _q(c)
        return Element(_raw={((g, 1),): c} if c else {})

    @staticmethod
    def monomial(m: Monomial, c: Scalar = 1) -> "Element":
        c = _q(c)
        return Element(_raw={m: c} if c else {})

    # -- queries ----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Union[int, None, _Inhomogeneous]:
        """Common degree of all monomials, None for zero, else INHOMOGENEOUS."""
        deg: Optional[int] = None
        for m in self.terms:
            d = monomial_degree(m)
            if deg is None:
                deg = d
            elif d != deg:
                return INHOMOGENEOUS
        return deg

    def is_homogeneous(self, d: int) -> bool:
        return all(monomial_degree(m) == d for m in self.terms)

    def coefficient(self, m: Monomial) -> Scalar:
        return self.terms.get(m, 0)

    def generators(self) -> Iterator[Generator]:
        seen = set()
        for m in self.terms:
            for g, _ in m:
                if g not in seen:
                    seen.add(g)
                    yield g

    def items(self) -> Iterator[Tuple[Monomial, Scalar]]:
        return iter(self.terms.items())

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        acc = dict(self.terms)
        for m, c in other.terms.items():
            _acc(acc, m, c)
        return Element(_raw=acc)

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        acc = dict(self.terms)
        for m, c in other.terms.items():
            _acc(acc, m, -c)
        return Element(_raw=acc)

    def __neg__(self) -> "Element":
        return Element(_raw={m: -c for m, c in self.terms.items()})

    def __mul__(self, other: Union["Element", Scalar]) -> "Element":
        if isinstance(other, Element):
            return Element(_raw=_mul_into({}, self.terms, other.terms))
        c = _q(other)
        if not c:
            return Element.zero()
        return Element(_raw={m: _q(q * c) for m, q in self.terms.items()})

    def __rmul__(self, other: Scalar) -> "Element":
        return self.__mul__(other)

    def __pow__(self, e: int) -> "Element":
        if e < 0:
            raise ValueError("negative powers are not defined")
        out = Element.one()
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Element({self})"

    def __str__(self) -> str:
        return element_text(self)


def _diagonal_scales(images: Dict[Generator, Element]
                     ) -> Optional[Dict[Generator, Scalar]]:
    """Generator -> c when every image is c times its own generator."""
    out: Dict[Generator, Scalar] = {}
    for g, img in images.items():
        c = img.terms.get(((g, 1),))
        if c is None or len(img.terms) != 1:
            return None
        out[g] = c
    return out


def print_terms(x: Element) -> List[Tuple[Scalar, Monomial]]:
    """The (coefficient, factors) terms of x in print order.

    Factors sort by `Generator.print_key`, terms by their factor lists.
    """
    terms = [(c, tuple(sorted(m, key=lambda fe: fe[0].print_key)))
             for m, c in x.terms.items()]
    terms.sort(key=lambda t: [(g.print_key, e) for g, e in t[1]])
    return terms


def render_element(x: Element, name: Callable[[Generator], str],
                   power: str = "{}^{}", times: str = "*",
                   coeff: Callable[[Scalar], str] = lambda c: str(abs(c)),
                   scale: str = "*") -> str:
    """Signed sum of the terms of x in print order.

    `coeff` writes a coefficient without its sign; it and `scale` are
    written only for coefficients other than +/-1.
    """
    if not x.terms:
        return "0"
    parts = []
    for c, factors in print_terms(x):
        body = times.join(name(g) if e == 1 else power.format(name(g), e)
                          for g, e in factors)
        if not factors:
            body = coeff(c)
        elif abs(c) != 1:
            body = coeff(c) + scale + body
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def element_text(x: Element, model: Optional["Dgca"] = None) -> str:
    """Deterministic plain-text form, e.g. '-1/2*g4^2 + s1g7*w1'.

    Generators print by the model's display names when `model` is given.
    """
    return render_element(x, model.name_of if model is not None
                          else lambda g: g.name)
