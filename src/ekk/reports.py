"""Rendering and machine-readable export of models and verification data.

JSON payloads keep rationals as exact "p/q" strings and insertion-ordered
keys; text and LaTeX renderings print the factors of a monomial with the
decorated base generators first and the polynomial w generators last.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import (_NAME_RE, Element, Generator, Monomial, Scalar,
                      parse_generator_name)
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


def _print_key(g: Generator):
    # decorated bases, then sw, then w: mirrors the usual written order
    fam = {2: 0, 1: 1, 0: 2}[g.key[0]]
    return (fam,) + g.key[1:]


def _mono_print_order(m: Monomial) -> Monomial:
    return tuple(sorted(m, key=lambda fe: _print_key(fe[0])))


def _mono_sort_key(m: Monomial):
    return tuple((_print_key(g), e) for g, e in _mono_print_order(m))


def element_text(x: Element, model: Optional[Dgca] = None) -> str:
    """Deterministic plain-text form, e.g. '-1/2*g4^2 + s1g7*w1'."""
    if x.is_zero:
        return "0"
    name = (lambda g: model.name_of(g)) if model is not None \
        else (lambda g: g.name)
    parts = []
    for m in sorted(x.terms, key=_mono_sort_key):
        c = x.terms[m]
        factors = "*".join(
            name(g) if e == 1 else f"{name(g)}^{e}"
            for g, e in _mono_print_order(m))
        if not m:
            body = str(abs(c))
        elif abs(c) == 1:
            body = factors
        else:
            body = f"{abs(c)}*{factors}"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _latex_name(g: Generator, model: Optional[Dgca]) -> str:
    raw = model.name_of(g) if model is not None else g.name
    if raw.startswith("sw") and raw[2:].isdigit():
        return f"sw_{{{raw[2:]}}}"
    if raw.startswith("w") and raw[1:].isdigit():
        return f"w_{{{raw[1:]}}}"
    out = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        i += 1
        digits = ""
        while i < len(raw) and raw[i].isdigit():
            digits += raw[i]
            i += 1
        out.append(f"{ch}_{{{digits}}}" if digits else ch)
    return " ".join(out)


def _latex_coeff(c: Scalar) -> str:
    if c.denominator == 1:
        return str(abs(c.numerator))
    return rf"\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def element_latex(x: Element, model: Optional[Dgca] = None) -> str:
    if x.is_zero:
        return "0"
    parts = []
    for m in sorted(x.terms, key=_mono_sort_key):
        c = x.terms[m]
        factors = r" \cdot ".join(
            _latex_name(g, model) if e == 1 else
            f"{_latex_name(g, model)}^{{{e}}}"
            for g, e in _mono_print_order(m))
        if not m:
            body = _latex_coeff(c)
        elif abs(c) == 1:
            body = factors
        else:
            body = f"{_latex_coeff(c)} \\, {factors}"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


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
        terms = []
        for mono in sorted(m.diff[g].terms, key=_mono_sort_key):
            c = m.diff[g].terms[mono]
            names: List[str] = []
            for h, e in _mono_print_order(mono):
                names.extend([h.name] * e)
            terms.append({"coeff": str(c), "monomial": names})
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
    name that does not parse, whose base symbol is not declared, or that the
    differential uses without declaring it raises a ValueError naming it.
    """
    base_table: Dict[str, Tuple[int, int]] = {}
    for entry in payload["generators"]:
        match = _NAME_RE.match(entry["name"])
        if match and match["base"] and not match["prefix"]:
            base_table.setdefault(match["base"],
                                  (len(base_table), entry["degree"]))
    gens = {entry["name"]: parse_generator_name(entry["name"], base_table)
            for entry in payload["generators"]}
    diff = {}
    for entry in payload["differential"]:
        if entry["generator"] not in gens:
            raise ValueError(
                f"differential of undeclared generator {entry['generator']!r}")
        diff[gens[entry["generator"]]] = _element_from_names(
            [(Fraction(term["coeff"]), term["monomial"])
             for term in entry["terms"]],
            gens)
    return Dgca(payload["label"], payload["k"], list(gens.values()), diff)


def dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2)
