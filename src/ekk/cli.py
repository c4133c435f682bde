"""Command-line surface: build models, verify relations, export data.

Exit codes: 0 all requested checks pass, 1 a verification failed, 2 usage
error, 3 internal error (an exception no verb expected).  JSON reports are
deterministic for a fixed command and seed; the wall-time field is
informational and excluded from that guarantee.

Each verb is one row of `VERBS`; its runner returns (ok, payload, text)
and `main` does all I/O.  A row with a command template wraps the JSON
payload in the envelope {"command", "status", "payload", "wall_ms"}; a row
without one prints the payload bare.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from . import adjunction as adj
from .action import ALL_CHECKS, build_action, verify_action, weight_table
from .cartan import (FINITE_RANGE, cartan_matrix, parabolic_split,
                     positive_roots)
from .dgca import (Dgca, cyclification_model, free_loop_model, is_chain_map,
                   model_s4, toroidify)
from .derivations import derivation_basis
from .reports import dump_json, model_latex, model_payload, model_text

__all__ = ["main", "build_parser"]

#: the ranks `model`, `verify`, `derivations` and `table1` accept:
#: 0 <= k <= 11; the untruncated ~T^k doubles in size with each rank
VERIFY_RANKS = range(0, 12)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line; subparsers share the class."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """A command line the verb cannot run: one stderr line, exit 2."""


def _write_out(path: str, body: Optional[str] = None) -> None:
    """Write `body` to `path`; without a body, only check that `path` can
    be written, leaving no new file behind."""
    existed = os.path.exists(path)
    try:
        with open(path, "a" if body is None else "w") as fh:
            if body is not None:
                fh.write(body + "\n")
    except OSError as exc:
        raise _UsageError(f"cannot write --out: {exc}") from None
    if body is None and not existed:
        os.remove(path)


def _build_space(ns) -> Dgca:
    s4 = model_s4()
    if ns.space == "sphere":
        return s4
    if ns.space == "loop":
        return free_loop_model(s4, ns.k)
    if ns.space == "cyclic":
        return cyclification_model(s4)
    return toroidify(s4, ns.k, truncated=not ns.untruncated)


def cmd_model(ns) -> Tuple[bool, dict, str]:
    if ns.untruncated and ns.space != "torus":
        raise _UsageError(
            f"--untruncated applies only to --space torus, not {ns.space}")
    fixed_rank = {"sphere": 0, "cyclic": 1}.get(ns.space)
    if fixed_rank is not None and ns.k != fixed_rank:
        raise _UsageError(f"--space {ns.space} needs --k {fixed_rank}")
    model = _build_space(ns)
    if ns.format == "json":
        weights = None if ns.untruncated else weight_table(model)
        return True, model_payload(model, weights), ""
    return True, {}, (model_latex if ns.format == "latex" else model_text)(model)


def cmd_verify(ns) -> Tuple[bool, dict, str]:
    checks = [c.strip() for c in ns.checks.split(",") if c.strip()]
    if not checks:
        raise _UsageError("--checks names no check")
    bad = set(checks) - set(ALL_CHECKS)
    if bad:
        raise _UsageError(f"unknown checks: {sorted(bad)}")
    report = verify_action(build_action(ns.k), checks)
    entries = report.to_payload()
    lines = [f"verify k={ns.k}"]
    for entry in entries:
        lines.append(f"  {entry['check']}: {entry['status']}"
                     + (f" ({len(entry['failures'])} failures)"
                        if entry["failures"] else ""))
    return report.ok, {"k": ns.k, "checks": entries}, "\n".join(lines)


def cmd_roots(ns) -> Tuple[bool, dict, str]:
    system = positive_roots(ns.k)
    payload = {"k": ns.k, "count": system.count,
               "positive": [list(r) for r in system.positive]}
    lines = [f"k={ns.k}: {system.count} positive roots"]
    lines.extend("  " + " ".join(map(str, r)) for r in system.positive)
    return True, payload, "\n".join(lines)


def cmd_parabolic(ns) -> Tuple[bool, dict, str]:
    split = parabolic_split(ns.k)
    payload = {"m": split.dim_levi_semisimple, "a": split.dim_abelian,
               "n": split.dim_nilradical, "total": split.dim_total}
    text = (f"k={ns.k}: m={payload['m']} a={payload['a']} "
            f"n={payload['n']} total={payload['total']}")
    return True, payload, text


def cmd_derivations(ns) -> Tuple[bool, dict, str]:
    if ns.mode == "full" and ns.k > 1:
        raise _UsageError("derivations: full mode supports k <= 1")
    model = toroidify(model_s4(), ns.k)
    basis = derivation_basis(model, ns.mode)
    return (True, {"dimension": basis.dimension},
            f"dim Der({model.label}, {ns.mode}) = {basis.dimension}")


def cmd_adjunction_demo(ns) -> Tuple[bool, dict, str]:
    import random
    if ns.samples < 1:
        raise _UsageError("adjunction-demo needs --samples >= 1")
    rng = random.Random(ns.seed)
    trd = toroidify(model_s4(), ns.k, truncated=False)
    results: List[dict] = []
    ok = True
    samples = [Fraction(1)] + [
        Fraction(rng.randint(1, 9), rng.randint(1, 9))
        * (1 if rng.random() < 0.5 else -1)
        for _ in range(ns.samples - 1)]
    for idx, a in enumerate(samples):
        F = adj.scaling_endo(trd, a)
        f = adj.hom_backward(F)
        F2 = adj.hom_forward(f, trd)
        round_trip = all(F.images[g] == F2.images[g]
                         for g in trd.generators)
        chain = is_chain_map(F).ok and is_chain_map(f).ok
        corr = adj.truncated_correspondence([F]).ok
        results.append({"sample": idx, "scale": str(a),
                        "round_trip": round_trip, "chain": chain,
                        "hom0_correspondence": corr})
        ok = ok and round_trip and chain and corr
    lines = [f"adjunction demo k={ns.k}: {'pass' if ok else 'FAIL'}"]
    lines.extend(f"  sample {r['sample']} scale={r['scale']}: "
                 f"round_trip={r['round_trip']} chain={r['chain']} "
                 f"hom0={r['hom0_correspondence']}" for r in results)
    return ok, {"k": ns.k, "samples": results}, "\n".join(lines)


def cmd_table1(ns) -> Tuple[bool, dict, str]:
    if not VERIFY_RANKS.start <= ns.kmin <= ns.kmax <= VERIFY_RANKS[-1]:
        raise _UsageError(f"table1 supports {VERIFY_RANKS.start} <= kmin "
                          f"<= kmax <= {VERIFY_RANKS[-1]}")
    rows = []
    for k in range(ns.kmin, ns.kmax + 1):
        row: Dict[str, object] = {"k": k}
        model = toroidify(model_s4(), k)
        row["model_generators"] = len(model.generators)
        if k >= 3:
            C = cartan_matrix(k)
            row["cartan_matrix"] = [list(r) for r in C.entries]
            row["det"] = C.det()
        if k in FINITE_RANGE:
            split = parabolic_split(k)
            row["positive_roots"] = len(split.levi_positive) \
                + len(split.nilradical)
            row["levi"] = split.dim_levi_semisimple
            row["abelian"] = split.dim_abelian
            row["nilradical"] = split.dim_nilradical
        if k <= 8:
            row["verified"] = verify_action(build_action(k, model)).ok
        rows.append(row)
    ok = all(row.get("verified", True) for row in rows)
    lines = []
    for row in rows:
        bits = [f"k={row['k']}", f"gens={row['model_generators']}"]
        if "det" in row:
            bits.append(f"detC={row['det']}")
        if "positive_roots" in row:
            bits.append(f"|D+|={row['positive_roots']}")
            bits.append(f"m={row['levi']} a={row['abelian']} "
                        f"n={row['nilradical']}")
        if "verified" in row:
            bits.append("verify=" + ("pass" if row["verified"] else "FAIL"))
        lines.append("  ".join(bits))
    return ok, {"rows": rows}, "\n".join(lines)


class _Verb(NamedTuple):
    """The --k values a verb accepts (None: no guard), its envelope command
    template (None: bare payload) and its own (flag, add_argument keywords)."""
    run: Callable[[argparse.Namespace], Tuple[bool, dict, str]]
    help: str
    ranks: Optional[range]
    command: Optional[str]
    options: Tuple[Tuple[str, dict], ...]
    formats: Tuple[str, ...] = ("json", "text")


_K = ("--k", {"type": int, "required": True})

VERBS: Dict[str, _Verb] = {
    "model": _Verb(
        cmd_model, "build and print a model", VERIFY_RANKS,
        "model --k {k}",
        (_K, ("--space", {"choices": ["sphere", "loop", "cyclic", "torus"],
                          "default": "torus"}),
         ("--untruncated", {"action": "store_true"})),
        ("json", "text", "latex")),
    "verify": _Verb(
        cmd_verify, "run the relation checks for one rank", VERIFY_RANKS,
        "verify --k {k}", (_K, ("--checks",
                                {"default": ",".join(ALL_CHECKS)}))),
    "roots": _Verb(cmd_roots, "positive roots for 3 <= k <= 8", FINITE_RANGE,
                   None, (_K,)),
    "parabolic": _Verb(cmd_parabolic, "Langlands dimension split",
                       FINITE_RANGE, None, (_K,)),
    "derivations": _Verb(
        cmd_derivations, "dimension of the derivation space", VERIFY_RANKS,
        None, (_K, ("--mode", {"choices": ["linear", "full"],
                               "default": "linear"}))),
    "adjunction-demo": _Verb(
        cmd_adjunction_demo, "round-trip and truncation correspondence demo",
        range(1, 4), "adjunction-demo --k {k} --seed {seed}",
        (("--k", {"type": int, "default": 1}),
         ("--seed", {"type": int, "default": 0}),
         ("--samples", {"type": int, "default": 10}))),
    "table1": _Verb(
        cmd_table1, "summary table over a range of ranks", None,
        "table1 --kmin {kmin} --kmax {kmax}",
        (("--kmin", {"type": int, "default": 0}),
         ("--kmax", {"type": int, "default": 8}))),
}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="ekk",
        description="Exact models of loop-space quotients of the 4-sphere "
                    "and their split Lie algebra symmetries.")
    sub = p.add_subparsers(dest="verb", required=True)
    for name, verb in VERBS.items():
        sp = sub.add_parser(name, help=verb.help)
        for flag, kwargs in verb.options:
            sp.add_argument(flag, **kwargs)
        sp.add_argument("--format", choices=verb.formats, default="text")
        sp.add_argument("--out")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    verb = VERBS[ns.verb]
    try:
        if ns.out:
            _write_out(ns.out)
        if verb.ranks is not None and ns.k not in verb.ranks:
            raise _UsageError(f"{ns.verb} supports {verb.ranks.start} "
                              f"<= k <= {verb.ranks[-1]}")
        started = time.monotonic()
        ok, payload, text = verb.run(ns)
        if verb.command is not None:
            payload = {
                "command": verb.command.format(**vars(ns)),
                "status": "pass" if ok else "fail",
                "payload": payload,
                "wall_ms": round((time.monotonic() - started) * 1000, 3),
            }
        body = dump_json(payload) if ns.format == "json" else text
        if ns.out:
            _write_out(ns.out, body)
        else:
            print(body)
        return 0 if ok else 1
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
