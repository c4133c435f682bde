"""Spans and counters recorded from outside ekk, around its public calls.

`Tracer.install()` rebinds public functions of ekk's modules to wrappers, in
every ekk module that holds a reference to them (so `bracket` is rebound in
`ekk.action` as well as `ekk.derivations`, and the names `ekk.cli` imported
are rebound too), and `uninstall()` puts the originals back.  Only the traced
process installs it; the untraced passes run the plain functions.

Coarse public calls record spans: name, start, end, parent span and the
context (workload and rank) the benchmark set for the current op.  The hot
kernel calls (`monomial_product`, `Element.__mul__`, `Derivation.apply`)
only bump counters.  Counters live in one dict per thread, so the counts
stay exact while `verify_action` fans out over worker threads.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# (layer, module, function) for every span-recording wrapper
SPAN_FUNCTIONS = [
    ("dgca.build", "ekk.dgca", "model_s4"),
    ("dgca.build", "ekk.dgca", "toroidify"),
    ("dgca.build", "ekk.dgca", "free_loop_model"),
    ("dgca.build", "ekk.dgca", "cyclification_model"),
    ("dgca.d_squared_zero", "ekk.dgca", "d_squared_zero"),
    ("dgca.is_chain_map", "ekk.dgca", "is_chain_map"),
    ("dgca.hom0_check", "ekk.dgca", "hom0_check"),
    ("derivations.bracket", "ekk.derivations", "bracket"),
    ("derivations.nullspace", "ekk.derivations", "nullspace"),
    ("derivations.sparse_rank", "ekk.derivations", "sparse_rank"),
    ("derivations.derivation_basis", "ekk.derivations", "derivation_basis"),
    ("derivations.commutes_with_differential", "ekk.derivations",
     "commutes_with_differential"),
    ("cartan", "ekk.cartan", "cartan_data"),
    ("cartan", "ekk.cartan", "cartan_matrix"),
    ("cartan", "ekk.cartan", "positive_roots"),
    ("cartan", "ekk.cartan", "parabolic_split"),
    ("action.build_action", "ekk.action", "build_action"),
    ("action.verify", "ekk.action", "verify_action"),
    ("action.gravity_line_rank", "ekk.action", "gravity_line_rank"),
    ("action.torus_automorphism", "ekk.action", "torus_automorphism"),
    ("adjunction.hom_backward", "ekk.adjunction", "hom_backward"),
    ("adjunction.hom_forward", "ekk.adjunction", "hom_forward"),
    ("adjunction.truncated_correspondence", "ekk.adjunction",
     "truncated_correspondence"),
    ("reports.export", "ekk.reports", "model_payload"),
    ("reports.export", "ekk.reports", "dump_json"),
    ("reports.import", "ekk.reports", "model_from_payload"),
    ("cli.main", "ekk.cli", "main"),
]


class Span:
    __slots__ = ("id", "parent", "layer", "name", "context", "start", "end",
                 "note")

    def __init__(self, id_, parent, layer, name, context, start):
        self.id = id_
        self.parent = parent
        self.layer = layer
        self.name = name
        self.context = context
        self.start = start
        self.end = start
        self.note = ""

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "layer": self.layer,
                "name": self.name, "context": self.context,
                "start": self.start, "end": self.end, "note": self.note}


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.context = ""
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counter_dicts: List[Dict[str, float]] = []
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # -- per-thread state ------------------------------------------------
    def _counts(self) -> Dict[str, float]:
        try:
            return self._local.counts
        except AttributeError:
            counts = self._local.counts = defaultdict(int)
            with self._lock:
                self._counter_dicts.append(counts)
            return counts

    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def counters(self) -> Dict[str, float]:
        """Sum of every thread's counters (call between ops, not inside)."""
        total: Dict[str, float] = defaultdict(int)
        with self._lock:
            for counts in self._counter_dicts:
                for key, val in counts.items():
                    total[key] += val
        return dict(total)

    # -- installation ----------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, old, new) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "ekk" and not modname.startswith("ekk."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is old:
                    self._set(mod, attr, new)

    def install(self) -> None:
        import ekk.algebra
        import ekk.dgca
        import ekk.derivations
        for layer, modname, fname in SPAN_FUNCTIONS:
            func = getattr(sys.modules[modname], fname, None)
            if func is not None:
                self._rebind_everywhere(func, self._span_wrapper(layer, func))
        mp = ekk.algebra.monomial_product
        self._rebind_everywhere(mp, self._monomial_product_wrapper(mp))
        self._wrap_method(ekk.algebra.Element, "__mul__", "algebra.element_mul")
        self._wrap_method(ekk.dgca.Dgca, "differential_derivation",
                          "dgca.differential_derivation")
        self._wrap_method(ekk.dgca.DgcaHom, "apply", "dgca.hom_apply")
        self._set(ekk.derivations.Derivation, "apply",
                  self._apply_wrapper(ekk.derivations.Derivation.apply))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, val = self._restore.pop()
            setattr(owner, attr, val)

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, layer: str, func: Callable) -> Callable:
        tracer = self
        name = func.__name__
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(next(tracer._ids), stack[-1].id if stack else None,
                        layer, name, tracer.context, perf())
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = perf()
                stack.pop()
            tracer._observe(span, args, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = name
        return wrapper

    def _observe(self, span: Span, args, result) -> None:
        """Counters that need a public call's arguments or result."""
        counts = self._counts()
        if span.name == "bracket":
            model = args[0].model or args[1].model
            counts["bracket.scanned"] += len(model.generators)
            counts["bracket.images"] += len(result.images)
        elif span.name == "nullspace":
            counts["nullspace.rows"] += len(args[0])
            counts["nullspace.nullity"] += len(result)
        elif span.name == "dump_json" and span.parent is None:
            # model exports only: the CLI's reports carry a wall-clock field,
            # so their size is not a repeatable count
            counts["reports.json_bytes"] += len(result.encode())
        elif span.name == "verify_action":
            for check, rep in result.checks.items():
                counts[f"verify.{check}.checked"] += rep.checked
                counts[f"verify.{check}.failed"] += len(rep.failures)
            span.note = ",".join(result.checks)

    def _monomial_product_wrapper(self, func: Callable) -> Callable:
        counts_of = self._counts

        def monomial_product(a, b):
            result = func(a, b)
            counts = counts_of()
            counts["monomial_product.calls"] += 1
            if result is None:
                counts["monomial_product.vanish"] += 1
            return result

        monomial_product.__wrapped__ = func
        return monomial_product

    def _wrap_method(self, cls, attr: str, key: str) -> None:
        func = getattr(cls, attr)
        counts_of = self._counts

        def method(*args, **kwargs):
            counts_of()[key] += 1
            return func(*args, **kwargs)

        method.__wrapped__ = func
        self._set(cls, attr, method)

    def _apply_wrapper(self, func: Callable) -> Callable:
        counts_of = self._counts
        perf = time.perf_counter

        def apply(self_, x):
            counts = counts_of()
            terms = x.terms
            if len(terms) == 1:
                (mono,) = terms
                if len(mono) == 1 and mono[0][1] == 1:
                    counts["apply.single_gen"] += 1
            start = perf()
            result = func(self_, x)
            counts["apply.seconds"] += perf() - start
            counts["apply.calls"] += 1
            if not result.terms:
                counts["apply.zero"] += 1
            return result

        apply.__wrapped__ = func
        return apply

    # -- summaries ---------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> its duration minus the time its child spans cover."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        return {s.id: (s.end - s.start) - child_time[s.id] for s in self.spans}

    def layer_seconds(self) -> Dict[str, float]:
        """Inclusive seconds per layer, counting only the outermost span of
        each layer so that nested calls within a layer are not counted twice."""
        by_id = {s.id: s for s in self.spans}
        total: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            parent = by_id.get(span.parent)
            if parent is not None and parent.layer == span.layer:
                continue
            key = span.layer
            if span.layer == "action.verify":
                key = f"action.verify.{span.note}"
            total[key] += span.end - span.start
        return dict(total)

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, inclusive and self seconds."""
        selfs = self.self_times()
        out: Dict[str, dict] = {}
        for span in self.spans:
            entry = out.setdefault(f"{span.layer}:{span.name}",
                                   {"calls": 0, "seconds": 0.0,
                                    "self_seconds": 0.0})
            entry["calls"] += 1
            entry["seconds"] += span.end - span.start
            entry["self_seconds"] += selfs[span.id]
        return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, interned_generators: int,
                      plain_wall: float, traced_wall: float,
                      checks) -> Dict[str, float]:
    """The per-layer metric values of one traced pass."""
    c = tracer.counters()
    secs = tracer.layer_seconds()
    selfs = tracer.self_times()

    def ms(layer: str) -> float:
        return secs.get(layer, 0.0) * 1000.0

    cli_self = sum(selfs[s.id] for s in tracer.spans if s.layer == "cli.main")
    out = {
        "algebra.monomial_product.calls": c.get("monomial_product.calls", 0),
        "algebra.element_mul.calls": c.get("algebra.element_mul", 0),
        "algebra.monomial_product.vanish_ratio": ratio(
            c.get("monomial_product.vanish", 0),
            c.get("monomial_product.calls", 0)),
        "algebra.interned_generators": interned_generators,
        "derivations.apply.calls": c.get("apply.calls", 0),
        "derivations.apply.ms": c.get("apply.seconds", 0.0) * 1000.0,
        "derivations.apply.single_gen_share": ratio(
            c.get("apply.single_gen", 0), c.get("apply.calls", 0)),
        "derivations.apply.zero_share": ratio(
            c.get("apply.zero", 0), c.get("apply.calls", 0)),
        "derivations.bracket.calls": sum(
            1 for s in tracer.spans if s.name == "bracket"),
        "derivations.bracket.ms": ms("derivations.bracket"),
        "derivations.bracket.hit_ratio": ratio(
            c.get("bracket.images", 0), c.get("bracket.scanned", 0)),
        "derivations.nullspace.ms": ms("derivations.nullspace"),
        "derivations.nullspace.rows": c.get("nullspace.rows", 0),
        "derivations.nullspace.nullity": c.get("nullspace.nullity", 0),
        "derivations.sparse_rank.ms": ms("derivations.sparse_rank"),
        "derivations.derivation_basis.ms": ms("derivations.derivation_basis"),
        "dgca.build.ms": ms("dgca.build"),
        "dgca.d_squared_zero.ms": ms("dgca.d_squared_zero"),
        "dgca.differential_derivation.calls": c.get(
            "dgca.differential_derivation", 0),
        "dgca.hom_apply.calls": c.get("dgca.hom_apply", 0),
        "action.build_action.ms": ms("action.build_action"),
        "action.gravity_line_rank.ms": ms("action.gravity_line_rank"),
        "action.torus_automorphism.ms": ms("action.torus_automorphism"),
        "cartan.ms": ms("cartan"),
        "adjunction.hom_backward.ms": ms("adjunction.hom_backward"),
        "adjunction.hom_forward.ms": ms("adjunction.hom_forward"),
        "reports.export.ms": ms("reports.export"),
        "reports.import.ms": ms("reports.import"),
        "reports.json_bytes": c.get("reports.json_bytes", 0),
        "cli.main.self_ms": cli_self * 1000.0,
        "trace.overhead_ratio": ratio(traced_wall, plain_wall),
    }
    for check in checks:
        out[f"action.verify.{check}.ms"] = ms(f"action.verify.{check}")
        out[f"action.verify.{check}.checked"] = c.get(
            f"verify.{check}.checked", 0)
        out[f"action.verify.{check}.failed"] = c.get(
            f"verify.{check}.failed", 0)
    return out
