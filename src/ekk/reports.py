"""Rendering and machine-readable export of models and verification data.

JSON payloads keep rationals as exact "p/q" strings and insertion-ordered
keys; text and LaTeX renderings print the factors of a monomial with the
decorated base generators first and the polynomial w generators last.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Dict, Optional, Tuple

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


def dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2)
