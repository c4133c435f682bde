"""Command-line surface: build models, verify relations, export data.

Exit codes: 0 all requested checks pass, 1 a verification failed, 2 usage
error, 3 internal error (an exception no verb expected).  JSON reports are
deterministic for a fixed command and seed; the wall-time field is
informational and excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import adjunction as adj
from .action import ALL_CHECKS, build_action, verify_action, weight_table
from .cartan import (FINITE_RANGE, cartan_matrix, parabolic_split,
                     positive_roots)
from .dgca import (MAX_RANK, Dgca, cyclification_model, free_loop_model,
                   is_chain_map, model_s4, toroidify)
from .derivations import derivation_basis
from .reports import dump_json, model_latex, model_payload, model_text

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line; subparsers share the class."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="ekk",
        description="Exact models of loop-space quotients of the 4-sphere "
                    "and their split Lie algebra symmetries.")
    sub = p.add_subparsers(dest="verb", required=True)

    fmt = {"choices": ["json", "text", "latex"], "default": "text"}

    m = sub.add_parser("model", help="build and print a model")
    m.add_argument("--k", type=int, required=True)
    m.add_argument("--space", choices=["sphere", "loop", "cyclic", "torus"],
                   default="torus")
    m.add_argument("--untruncated", action="store_true")
    m.add_argument("--format", **fmt)
    m.add_argument("--out")

    v = sub.add_parser("verify", help="run the relation checks for one rank")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--checks", default=",".join(ALL_CHECKS))
    v.add_argument("--format", choices=["json", "text"], default="text")
    v.add_argument("--out")

    r = sub.add_parser("roots", help="positive roots for 3 <= k <= 8")
    r.add_argument("--k", type=int, required=True)
    r.add_argument("--format", choices=["json", "text"], default="text")
    r.add_argument("--out")

    pb = sub.add_parser("parabolic", help="Langlands dimension split")
    pb.add_argument("--k", type=int, required=True)
    pb.add_argument("--format", choices=["json", "text"], default="text")
    pb.add_argument("--out")

    dv = sub.add_parser("derivations",
                        help="dimension of the derivation space")
    dv.add_argument("--k", type=int, required=True)
    dv.add_argument("--mode", choices=["linear", "full"], default="linear")
    dv.add_argument("--format", choices=["json", "text"], default="text")
    dv.add_argument("--out")

    ad = sub.add_parser("adjunction-demo",
                        help="round-trip and truncation correspondence demo")
    ad.add_argument("--k", type=int, default=1)
    ad.add_argument("--seed", type=int, default=0)
    ad.add_argument("--samples", type=int, default=10)
    ad.add_argument("--format", choices=["json", "text"], default="text")
    ad.add_argument("--out")

    t = sub.add_parser("table1", help="summary table over a range of ranks")
    t.add_argument("--kmin", type=int, default=0)
    t.add_argument("--kmax", type=int, default=8)
    t.add_argument("--format", choices=["json", "text"], default="text")
    t.add_argument("--out")
    return p


def _emit(ns, payload: dict, text: str, status_ok: bool) -> int:
    fmt = getattr(ns, "format", "text")
    if fmt == "json":
        body = dump_json(payload)
    else:
        body = text
    out_path = getattr(ns, "out", None)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(body + "\n")
        except OSError as exc:
            print(f"cannot write --out: {exc}", file=sys.stderr)
            return 2
    else:
        print(body)
    return 0 if status_ok else 1


def _out_problem(path: str) -> Optional[str]:
    """Why `path` cannot be written, or None; leaves no new file behind."""
    existed = os.path.exists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        return str(exc)
    if not existed:
        os.remove(path)
    return None


def _report(command: str, status_ok: bool, payload: dict,
            started: float) -> dict:
    return {
        "command": command,
        "status": "pass" if status_ok else "fail",
        "payload": payload,
        "wall_ms": round((time.monotonic() - started) * 1000, 3),
    }


def _build_space(ns) -> Dgca:
    s4 = model_s4()
    if ns.space == "sphere":
        return s4
    if ns.space == "loop":
        return free_loop_model(s4, ns.k)
    if ns.space == "cyclic":
        return cyclification_model(s4)
    return toroidify(s4, ns.k, truncated=not ns.untruncated)


def cmd_model(ns) -> int:
    started = time.monotonic()
    if not 0 <= ns.k <= MAX_RANK:
        print(f"model supports 0 <= k <= {MAX_RANK}", file=sys.stderr)
        return 2
    if ns.untruncated and ns.space != "torus":
        print(f"--untruncated applies only to --space torus, not {ns.space}",
              file=sys.stderr)
        return 2
    fixed_rank = {"sphere": 0, "cyclic": 1}.get(ns.space)
    if fixed_rank is not None and ns.k != fixed_rank:
        print(f"--space {ns.space} needs --k {fixed_rank}", file=sys.stderr)
        return 2
    model = _build_space(ns)
    weights = None
    if not ns.untruncated:
        weights = weight_table(model)
    payload = model_payload(model, weights)
    if ns.format == "latex":
        return _emit(ns, payload, model_latex(model), True)
    text = model_text(model)
    return _emit(ns, _report(f"model --k {ns.k}", True, payload, started),
                 text, True)


def cmd_verify(ns) -> int:
    started = time.monotonic()
    if not (0 <= ns.k <= 11):
        print("verify supports 0 <= k <= 11", file=sys.stderr)
        return 2
    checks = [c.strip() for c in ns.checks.split(",") if c.strip()]
    if not checks:
        print("--checks names no check", file=sys.stderr)
        return 2
    bad = set(checks) - set(ALL_CHECKS)
    if bad:
        print(f"unknown checks: {sorted(bad)}", file=sys.stderr)
        return 2
    action = build_action(ns.k)
    report = verify_action(action, checks)
    payload = {"k": ns.k, "checks": report.to_payload()}
    lines = [f"verify k={ns.k}"]
    for entry in report.to_payload():
        lines.append(f"  {entry['check']}: {entry['status']}"
                     + (f" ({len(entry['failures'])} failures)"
                        if entry["failures"] else ""))
    return _emit(ns, _report(f"verify --k {ns.k}", report.ok, payload,
                             started), "\n".join(lines), report.ok)


def cmd_roots(ns) -> int:
    if ns.k not in FINITE_RANGE:
        print("roots supports 3 <= k <= 8", file=sys.stderr)
        return 2
    system = positive_roots(ns.k)
    payload = {"k": ns.k, "count": system.count,
               "positive": [list(r) for r in system.positive]}
    lines = [f"k={ns.k}: {system.count} positive roots"]
    lines.extend("  " + " ".join(map(str, r)) for r in system.positive)
    return _emit(ns, payload, "\n".join(lines), True)


def cmd_parabolic(ns) -> int:
    if ns.k not in FINITE_RANGE:
        print("parabolic supports 3 <= k <= 8", file=sys.stderr)
        return 2
    split = parabolic_split(ns.k)
    payload = {"m": split.dim_levi_semisimple, "a": split.dim_abelian,
               "n": split.dim_nilradical, "total": split.dim_total}
    text = (f"k={ns.k}: m={payload['m']} a={payload['a']} "
            f"n={payload['n']} total={payload['total']}")
    return _emit(ns, payload, text, True)


def cmd_derivations(ns) -> int:
    if ns.k < 0:
        print("derivations needs k >= 0", file=sys.stderr)
        return 2
    if ns.mode == "full" and ns.k > 1:
        print("derivations: full mode supports k <= 1", file=sys.stderr)
        return 2
    model = toroidify(model_s4(), ns.k)
    basis = derivation_basis(model, ns.mode)
    payload = {"dimension": basis.dimension}
    return _emit(ns, payload,
                 f"dim Der({model.label}, {ns.mode}) = {basis.dimension}",
                 True)


def cmd_adjunction_demo(ns) -> int:
    import random
    started = time.monotonic()
    if ns.k < 1 or ns.k > 3:
        print("adjunction-demo supports 1 <= k <= 3", file=sys.stderr)
        return 2
    if ns.samples < 1:
        print("adjunction-demo needs --samples >= 1", file=sys.stderr)
        return 2
    rng = random.Random(ns.seed)
    m = model_s4()
    trd = toroidify(m, ns.k, truncated=False)
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
    payload = {"k": ns.k, "samples": results}
    lines = [f"adjunction demo k={ns.k}: {'pass' if ok else 'FAIL'}"]
    lines.extend(f"  sample {r['sample']} scale={r['scale']}: "
                 f"round_trip={r['round_trip']} chain={r['chain']} "
                 f"hom0={r['hom0_correspondence']}" for r in results)
    return _emit(ns, _report(f"adjunction-demo --k {ns.k} --seed {ns.seed}",
                             ok, payload, started), "\n".join(lines), ok)


def cmd_table1(ns) -> int:
    started = time.monotonic()
    if ns.kmin < 0 or ns.kmax > 11 or ns.kmin > ns.kmax:
        print("table1 supports 0 <= kmin <= kmax <= 11", file=sys.stderr)
        return 2
    rows = []
    ok = True
    for k in range(ns.kmin, ns.kmax + 1):
        row: Dict[str, object] = {"k": k}
        model = toroidify(model_s4(), k)
        row["model_generators"] = len(model.generators)
        if k >= 3:
            C = cartan_matrix(k)
            row["cartan_matrix"] = [list(r) for r in C.entries]
            row["det"] = C.det()
        if k in FINITE_RANGE:
            system = positive_roots(k)
            split = parabolic_split(k)
            row["positive_roots"] = system.count
            row["levi"] = split.dim_levi_semisimple
            row["abelian"] = split.dim_abelian
            row["nilradical"] = split.dim_nilradical
        if k <= 8:
            action = build_action(k, model)
            verified = verify_action(action).ok
            row["verified"] = verified
            ok = ok and verified
        rows.append(row)
    payload = {"rows": rows}
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
    return _emit(ns, _report(
        f"table1 --kmin {ns.kmin} --kmax {ns.kmax}", ok, payload, started),
        "\n".join(lines), ok)


_DISPATCH = {
    "model": cmd_model,
    "verify": cmd_verify,
    "roots": cmd_roots,
    "parabolic": cmd_parabolic,
    "derivations": cmd_derivations,
    "adjunction-demo": cmd_adjunction_demo,
    "table1": cmd_table1,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.out:
        problem = _out_problem(ns.out)
        if problem is not None:
            print(f"cannot write --out: {problem}", file=sys.stderr)
            return 2
    try:
        return _DISPATCH[ns.verb](ns)
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
