"""Rendering and machine-readable export of models and verification data.

JSON payloads keep rationals as exact "p/q" strings and insertion-ordered
keys; text and LaTeX renderings print the factors of a monomial with the
decorated base generators first and the polynomial w generators last.
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Tuple

from .algebra import (_NAME_RE, Element, Generator, Scalar, element_text,
                      parse_generator_name, print_terms, render_element)
from .dgca import Dgca, _element_from_names

__all__ = [
    "element_text",
    "element_latex",
    "model_text",
    "model_latex",
    "model_payload",
    "model_from_payload",
    "dump_json",
]


def _latex_name(g: Generator, model: Optional[Dgca]) -> str:
    raw = model.name_of(g) if model is not None else g.name
    if raw.startswith("sw") and raw[2:].isdigit():
        return f"sw_{{{raw[2:]}}}"
    return " ".join(f"{ch}_{{{digits}}}" if digits else ch
                    for ch, digits in re.findall(r"(\D)(\d*)", raw))


def _latex_coeff(c: Scalar) -> str:
    if c.denominator == 1:
        return str(abs(c.numerator))
    return rf"\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def element_latex(x: Element, model: Optional[Dgca] = None) -> str:
    return render_element(x, lambda g: _latex_name(g, model),
                          power="{}^{{{}}}", times=r" \cdot ",
                          coeff=_latex_coeff, scale=r" \, ")


def model_text(m: Dgca) -> str:
    lines = [f"model {m.label}  (k={m.k}, {len(m.generators)} generators)"]
    for g in m.generators:
        lines.append(f"|{m.name_of(g)}| = {g.degree}")
    for g in m.generators:
        lines.append(f"d {m.name_of(g)} = {element_text(m.diff[g], m)}")
    return "\n".join(lines)


def model_latex(m: Dgca) -> str:
    lines = [r"\begin{align*}"]
    for g in m.generators:
        lines.append(
            f"  d {_latex_name(g, m)} &= {element_latex(m.diff[g], m)} \\\\")
    lines.append(r"\end{align*}")
    return "\n".join(lines)


def model_payload(m: Dgca, weights: Optional[Dict[Generator, Tuple[int, ...]]]
                  = None) -> dict:
    gens = []
    for g in m.generators:
        entry: dict = {"name": g.name, "degree": g.degree}
        if weights is not None and g in weights:
            entry["weight"] = list(weights[g])
        gens.append(entry)
    differential = []
    for g in m.generators:
        terms = [{"coeff": str(c),
                  "monomial": [h.name for h, e in factors for _ in range(e)]}
                 for c, factors in print_terms(m.diff[g])]
        differential.append({"generator": g.name, "terms": terms})
    return {
        "label": m.label,
        "k": m.k,
        "generators": gens,
        "differential": differential,
    }


def model_from_payload(payload: dict) -> Dgca:
    """Rebuild a model from its JSON payload (canonical names only).

    The undecorated entries declare the base symbols, in order.  A generator
    name that does not parse, whose base symbol is not declared, whose
    declared degree differs from the degree its name gives, or that the
    differential uses without declaring it raises a ValueError naming it.
    """
    base_table: Dict[str, Tuple[int, int]] = {}
    for entry in payload["generators"]:
        match = _NAME_RE.match(entry["name"])
        if match and match["base"] and not match["prefix"]:
            base_table.setdefault(match["base"],
                                  (len(base_table), entry["degree"]))
    gens = {}
    for entry in payload["generators"]:
        g = parse_generator_name(entry["name"], base_table)
        if g.degree != entry["degree"]:
            raise ValueError(f"generator {entry['name']!r} declares degree "
                             f"{entry['degree']}, its name gives {g.degree}")
        gens[entry["name"]] = g
    coeffs: Dict[str, Fraction] = {}
    diff = {}
    for entry in payload["differential"]:
        if entry["generator"] not in gens:
            raise ValueError(
                f"differential of undeclared generator {entry['generator']!r}")
        terms = []
        for term in entry["terms"]:
            c = coeffs.get(term["coeff"])
            if c is None:
                c = coeffs[term["coeff"]] = Fraction(term["coeff"])
            terms.append((c, term["monomial"]))
        diff[gens[entry["generator"]]] = _element_from_names(terms, gens)
    return Dgca(payload["label"], payload["k"], list(gens.values()), diff)


_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# type -> text of a value of that type, as json writes it; None for the
# container types
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    list: None,
    tuple: None,
    dict: None,
}


def _scalar_text(value) -> Optional[str]:
    """json's text for a scalar, subclasses included; None for a container."""
    kind = type(value)
    if kind not in _SCALAR_TEXT:  # a subclass, tested in json's order
        kind = next((k for k in _SCALAR_TEXT if isinstance(value, k)), None)
        if kind is None:
            raise TypeError(f"Object of type {value.__class__.__name__} "
                            f"is not JSON serializable")
    fmt = _SCALAR_TEXT[kind]
    return fmt(value) if fmt else None


def _key_text(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _scalar_text(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _write(value, out: List[str], nl: str) -> None:
    """Append the indent-2 text of a container; `nl` is its line break."""
    if not value:
        out.append("{}" if isinstance(value, dict) else "[]")
        return
    inner = nl + "  "
    if isinstance(value, dict):
        sep = "{" + inner
        for key, item in value.items():
            head = sep + _key_text(key) + ": "
            text = _scalar_text(item)
            if text is None:
                out.append(head)
                _write(item, out, inner)
            else:
                out.append(head + text)
            sep = "," + inner
        out.append(nl + "}")
        return
    sep = "[" + inner
    for item in value:
        text = _scalar_text(item)
        if text is None:
            out.append(sep)
            _write(item, out, inner)
        else:
            out.append(sep + text)
        sep = "," + inner
    out.append(nl + "]")


def dump_json(payload) -> str:
    """`json.dumps(payload, indent=2)`, byte for byte, for any JSON value.

    The standard library falls back to its pure-Python encoder whenever an
    indent is given.  This writer appends each separator and scalar as one
    piece and joins the pieces once, in about half the time (the payload of
    ~T^10 with weights, 5.7 MB: 124 ms against 232 ms, min CPU of 10,
    Python 3.11).  A circular container recurses until RecursionError,
    where json raises ValueError.
    """
    text = _scalar_text(payload)
    if text is not None:
        return text
    out: List[str] = []
    _write(payload, out, "\n")
    return "".join(out)
