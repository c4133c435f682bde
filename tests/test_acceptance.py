"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every criterion is exact (no numerical tolerances anywhere);
the stated wall-clock budgets are asserted as hard limits.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from ekk.action import (build_action, gravity_line_rank, h_derivation,
                        torus_automorphism, verify_action)
from ekk.adjunction import (hom_backward, hom_forward, scaling_endo,
                            truncated_correspondence)
from ekk.cartan import cartan_matrix, parabolic_split, positive_roots
from ekk.dgca import (cyclification_model, d_squared_zero, free_loop_model,
                      hom0_check, is_chain_map, model_s4, toroidify,
                      torus_exponents)
from ekk.derivations import Derivation, derivation_basis

from _golden import GOLDEN_RANK3, E

S4 = model_s4()


class _Budget:
    def __init__(self, number: int, name: str, limit_s: float):
        self.number = number
        self.name = name
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} ({self.name}): {status} "
              f"[{elapsed:.2f}s / {self.limit_s:.0f}s]")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its {self.limit_s}s budget "
                f"({elapsed:.2f}s)")
        return False



def test_criterion_1_golden_rank3_model():
    with _Budget(1, "golden k=3 model", 1.0):
        m = toroidify(S4, 3)
        assert len(m.generators) == 19
        assert set(GOLDEN_RANK3) == {g.name for g in m.generators}
        for name, terms in GOLDEN_RANK3.items():
            assert m.diff[m.generator(name)] == E(m, *terms), name


def test_criterion_2_d_squared_all_models():
    with _Budget(2, "d^2 = 0 across all models", 60.0):
        assert d_squared_zero(S4).ok
        assert d_squared_zero(cyclification_model(S4)).ok
        for k in range(0, 9):
            assert d_squared_zero(free_loop_model(S4, k)).ok
            assert d_squared_zero(toroidify(S4, k)).ok
        for k in (9, 10, 11):
            assert d_squared_zero(toroidify(S4, k)).ok


def test_criterion_3_cartan_matrices():
    with _Budget(3, "Cartan matrices and determinants", 1.0):
        for k in range(3, 12):
            C = cartan_matrix(k)
            assert C.det() == 9 - k
            for i in range(1, k + 1):
                assert C[i, i] == 2
                for j in range(1, k + 1):
                    assert C[i, j] == C[j, i]
            for j in range(1, k):
                assert C[k, j] == (-1 if (j == 3 and k > 3) else 0)
            for i in range(1, k - 1):
                for j in range(i + 1, k):
                    assert C[i, j] == (-1 if j == i + 1 else 0)


def test_criterion_4_root_and_parabolic_dimensions():
    with _Budget(4, "root system and parabolic dimensions", 5.0):
        expected_roots = {3: 4, 4: 10, 5: 20, 6: 36, 7: 63, 8: 120}
        expected_nil = {3: 1, 4: 4, 5: 10, 6: 21, 7: 42, 8: 92}
        for k in range(3, 9):
            system = positive_roots(k)
            assert system.count == expected_roots[k]
            split = parabolic_split(k)
            assert split.dim_nilradical == expected_nil[k]
            assert split.dim_levi_semisimple == k * k - 1
            assert split.dim_abelian == 1
            assert system.count == k * (k - 1) // 2 + split.dim_nilradical
        assert parabolic_split(8).dim_total == 248


def test_criterion_5_full_action_verification_low_rank():
    with _Budget(5, "relation checks for k = 0..8", 30.0):
        for k in range(0, 9):
            rep = verify_action(build_action(k))
            assert rep.ok, f"k={k}: " + repr(
                {n: len(r.failures) for n, r in rep.checks.items()
                 if not r.ok})


def test_criterion_5_action_verification_high_rank():
    with _Budget(5, "relation checks for k = 9..11", 600.0):
        for k in (9, 10, 11):
            rep = verify_action(build_action(k),
                                checks=("chain", "cartan", "ef", "serre"))
            assert rep.ok, f"k={k}"


def test_criterion_6_derivation_dimensions():
    with _Budget(6, "derivation space dimensions", 30.0):
        assert derivation_basis(S4, "full").dimension == 1
        t1 = toroidify(S4, 1)
        assert derivation_basis(t1, "full").dimension == 5
        assert derivation_basis(t1, "linear").dimension == 2
        assert derivation_basis(toroidify(S4, 2), "linear").dimension == 5


def test_criterion_7_gravity_line_faithfulness():
    with _Budget(7, "gravity line rank = k^2 - 1", 60.0):
        for k in range(2, 9):
            assert gravity_line_rank(build_action(k)) == k * k - 1


def test_criterion_8_adjunction_round_trips():
    with _Budget(8, "adjunction round trips and Hom0", 30.0):
        for k in (1, 2):
            trd = toroidify(S4, k, truncated=False)
            rng = random.Random(1000 + k)
            scales = [Fraction(1)]
            while len(scales) < 11:
                a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                if a:
                    scales.append(a)
            Fs = []
            for a in scales:
                F = scaling_endo(trd, a)
                assert is_chain_map(F).ok
                f = hom_backward(F)
                assert is_chain_map(f).ok
                F2 = hom_forward(f, trd)
                assert all(F.images[g] == F2.images[g]
                           for g in trd.generators)
                f2 = hom_backward(F2)
                assert all(f.images[v] == f2.images[v]
                           for v in S4.generators)
                assert hom0_check(f)
                Fs.append(F)
            assert truncated_correspondence(Fs).ok


def test_criterion_9_torus_action():
    with _Budget(9, "split torus action", 10.0):
        rng = random.Random(2024)
        sampled = 0
        for k in (1, 2, 3, 4):
            m = toroidify(S4, k)

            def q():
                v = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                return -v if rng.random() < 0.4 else v

            for _ in range(5):
                t = tuple(q() for _ in range(k + 1))
                u = tuple(q() for _ in range(k + 1))
                ht = torus_automorphism(t, k, m)
                assert is_chain_map(ht).ok
                sampled += 1
                hu = torus_automorphism(u, k, m)
                prod = torus_automorphism(
                    tuple(a * b for a, b in zip(t, u)), k, m)
                comp = ht.compose(hu)
                assert all(comp.images[g] == prod.images[g]
                           for g in m.generators)
            # tangent pairing: slot-0 curve integrates h_0, slot-j
            # curves integrate -h_j, per the character conventions
            for g in m.generators:
                exps = torus_exponents(g)
                for j in range(k + 1):
                    h = tuple(1 if i == j else 0 for i in range(k + 1))
                    eig = h_derivation(m, h).image(g).coefficient(((g, 1),))
                    slot = exps.get(j, 0)
                    assert slot == (eig if j == 0 else -eig)
        assert sampled >= 20


def _mutations():
    """Ten documented single-sign/single-coefficient corruptions at k=3."""
    def diff_mutation(gen_name, *replacement_terms):
        def run():
            m = toroidify(S4, 3)
            bad = m.with_diff(
                {m.generator(gen_name): E(m, *replacement_terms)})
            return not d_squared_zero(bad).ok
        return run

    def action_mutation(op_kind, idx, gen_name, new_terms):
        def run():
            a = build_action(3)
            ops = a.e if op_kind == "e" else a.f
            images = dict(ops[idx].images)
            images[a.model.generator(gen_name)] = E(a.model, *new_terms)
            ops[idx] = Derivation(0, images, a.model,
                                  name=f"{op_kind}{idx}")
            return not verify_action(a).ok
        return run

    g7_rest = [(1, ["s1g7", "w1"]), (1, ["s2g7", "w2"]), (1, ["s3g7", "w3"])]
    return [
        ("d g7 quadratic coefficient -1/2 -> -1",
         diff_mutation("g7", (Fraction(-1), ["g4", "g4"]), *g7_rest)),
        ("d g7 quadratic sign -1/2 -> +1/2",
         diff_mutation("g7", (Fraction(1, 2), ["g4", "g4"]), *g7_rest)),
        ("d g4 w2 term dropped",
         diff_mutation("g4", (1, ["s1g4", "w1"]), (1, ["s3g4", "w3"]))),
        ("d s1g4 w2-term sign flipped",
         diff_mutation("s1g4", (1, ["s1s2g4", "w2"]),
                       (-1, ["s1s3g4", "w3"]))),
        ("d s1s2s3g7 quadratic g4-term dropped",
         diff_mutation("s1s2s3g7", (1, ["s1g4", "s2s3g4"]),
                       (1, ["s1s2g4", "s3g4"]), (-1, ["s1s3g4", "s2g4"]))),
        ("e3(s1s3g4) sign flipped to +w2",
         action_mutation("e", 3, "s1s3g4", [(1, ["w2"])])),
        ("e3(s1s3g4) retargeted to -w1",
         action_mutation("e", 3, "s1s3g4", [(-1, ["w1"])])),
        ("e1(w1) retargeted to w1",
         action_mutation("e", 1, "w1", [(1, ["w1"])])),
        ("f1(s1g4) sign flipped to +s2g4",
         action_mutation("f", 1, "s1g4", [(1, ["s2g4"])])),
        ("e3(s1s2s3g7) doubled to 2 g4",
         action_mutation("e", 3, "s1s2s3g7", [(2, ["g4"])])),
    ]


def test_criterion_10_mutation_sensitivity():
    with _Budget(10, "mutation sensitivity", 30.0):
        mutations = _mutations()
        assert len(mutations) == 10
        for label, run in mutations:
            assert run(), f"silent pass: {label}"
