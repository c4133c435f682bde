"""The benchmark's own tests, at tiny ranks.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import ekk.algebra  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    record = run.run_workload(workload, seed=3, seconds=0.5, trace=trace,
                              scale="tiny")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in record["metrics"].items()} \
        == {m["name"]: m["unit"] for m in wanted}
    for entry in record["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in record["metrics"].values())
    assert record["correct"]
    assert record["attempted"] >= record["ops_per_pass"]


def test_spec_names_the_three_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"])


def test_wrong_expected_answer_shows_in_fail_ratio(monkeypatch):
    monkeypatch.setitem(oracle.POSITIVE_ROOTS, 3, 5)
    record = run.run_workload("solver", seed=3, seconds=0.1, trace=False,
                              scale="tiny")
    assert not record["correct"]
    assert record["failed"] >= 2   # positive_roots k=3 and `cli roots`
    assert record["info"]["fail_ratio"] == record["failed"] / record["attempted"]
    names = {name for name, _, known in record["failures"] if not known}
    assert "positive_roots k=3" in names


def test_untruncated_round_trips_are_reported_by_name():
    record = run.run_workload("models", seed=3, seconds=0.1, trace=False,
                              scale="tiny")
    assert record["correct"]
    known = {name for name, _, known in record["failures"] if known}
    assert "roundtrip ~T^2" in known
    assert all(known for _, _, known in record["failures"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_but_not_op_count(workload):
    def names(seed):
        return [op.name for g in workloads.build(workload, seed, "tiny")
                for op in g]
    first = names(1)
    others = [names(seed) for seed in range(2, 7)]
    assert all(len(o) == len(first) for o in others)
    assert any(o != first for o in others)
    assert names(1) == first


def test_traced_counts_repeat_exactly_and_tracer_uninstalls():
    original = ekk.algebra.monomial_product
    first = run.run_workload("verify-high", 5, 0.1, True, "tiny")["metrics"]
    second = run.run_workload("verify-high", 6, 0.1, True, "tiny")["metrics"]
    assert ekk.algebra.monomial_product is original
    counts = [name for name, m in first.items()
              if m["unit"] in ("count", "bytes")]
    assert {n: first[n]["value"] for n in counts} == \
        {n: second[n]["value"] for n in counts}
    assert first["derivations.apply.calls"]["value"] > 0
    assert first["action.verify.chain.failed"]["value"] > 0   # the twin


def test_percentile_interpolates_between_ranks():
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile([10, 20], 90) == 19
    assert run.percentile([7], 90) == 7


def test_repeat_rounds_time_short_ops_again_after_their_state(monkeypatch):
    calls = []

    def build(state):
        calls.append("build")
        state["x"] = 1
        return 1

    def use(state):
        calls.append("use")
        return state["x"]

    def slow(state):
        calls.append("slow")
        time.sleep(0.02)
        return 0

    group = [workloads.Op("build", "t", build, 1, sets_state=True),
             workloads.Op("use", "t", use, 1),
             workloads.Op("slow", "t", slow, 0)]
    monkeypatch.setattr(run, "SHORT_LIMIT", 0.01)
    results = run.run_pass([group])
    rounds = run.repeat_rounds([group], results, time.perf_counter() + 0.3,
                               0.01)
    assert rounds >= 2
    assert all(r.ok for r in results)     # `use` always found its state
    assert calls.count("slow") == 1 and len(results[2].times) == 1
    assert len(results[1].times) == rounds + 1


def test_oracle_closed_forms_match_the_paper():
    assert oracle.torus_generators(3) == 19
    assert oracle.torus_generators(11) == 1729
    assert oracle.torus_generators(10, truncated=False) == 2058
    assert oracle.verify_checked("chain", 9) == 3 * 9 * 605
    assert oracle.parabolic_dims(8)["total"] == oracle.E8_TOTAL
    assert [oracle.cartan_det(k) for k in (3, 8, 11)] == [6, 1, -2]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solver", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
