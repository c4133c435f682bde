"""ekk benchmark: seeded workloads run in-process, every verdict checked.

    python3 bench/run.py --workload verify-high --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; ekk is imported from its `src/` directory,
and the run exits with code 2 when that is missing.  With `--trace 0` the
run sets up the workload, runs every op once and checks its verdict, then
repeats rounds over the shorter ops for about `--seconds` seconds; an op's
time is the median of its executions, and the end-to-end metrics of
BENCHMARK.json are computed from those.  With `--trace 1` it runs one
plain pass and one traced pass (fixed work, so counts repeat exactly) and
reports the per-layer metrics.  The last line of stdout is one JSON object;
the lines before it are a readable report, and the full record (machine
block, every op, spans) goes to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# set-up probes per run, half before the timed ops and half after, so that the
# median spans the run rather than one moment of the host's load
SETUP_PROBES = 10
# After its first round over every op, an untraced run repeats a second
# round over the ops that took under the workload's REPEAT_LIMIT, then,
# while it has time left, rounds over the ops that took under SHORT_LIMIT.
# An op's time is the median of its executions.  On a shared host an op runs
# up to 1.5 times slower for whole seconds at a time, so executions spread
# over many rounds, not back to back, give the steadiest median.  The ops
# around the median of verify-high take 0.5-1.1 s, so its second round takes
# them all; the first execution of `toroidify` also fills ekk's table of
# generators, and later ones run faster.  On models the ops under 1.5 s take
# 12 s, which would leave no time for the short rounds; its median is a
# short op, and the ops under 0.5 s take 6 s.
REPEAT_LIMIT = {"verify-high": 1.5, "models": 0.5, "solver": 1.5}
SHORT_LIMIT = 0.05


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def tail_percentile(ops_per_pass: int) -> float:
    """Highest percentile with at least ten ops beyond it.

    Fixed per workload (not per run) so that every run reports the same
    percentile.
    """
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if ops_per_pass * (1 - q / 100) >= 10:
            return q
    return 50.0


def percentile(samples, q: float) -> float:
    """Percentile with linear interpolation between the two nearest ranks.

    Nearest-rank would jump from one op to the next whenever noise swaps
    two ops around the rank, and neighbouring ops can lie 40% apart.
    """
    ordered = sorted(samples)
    pos = q / 100 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def machine_block(jobs: int, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "jobs": jobs, "seed": seed,
            "commit": _git_commit(), "src_lines": src_lines}


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

class OpResult:
    __slots__ = ("name", "context", "seconds", "times", "ok",
                 "known_defect", "reason", "counters")

    def __init__(self, name, context, seconds, ok, known_defect, reason):
        self.name = name
        self.context = context
        self.seconds = seconds      # first execution, then their median
        self.times = [seconds]
        self.ok = ok
        self.known_defect = known_defect
        self.reason = reason
        self.counters = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "context": self.context,
               "seconds": self.seconds, "executions": len(self.times),
               "ok": self.ok}
        if not self.ok:
            out["reason"] = self.reason
            out["known_defect"] = self.known_defect
        if self.counters is not None:
            out["counters"] = self.counters
        return out


def run_pass(groups, tracer=None):
    """Run every op once and check its verdict; the timed region is the op's
    ekk calls only."""
    results = []
    for group in groups:
        state: dict = {}
        for op in group:
            # collect before every op, so that no op pays for the garbage of
            # the ops the seeded order happened to put before it
            gc.collect()
            before = None
            if tracer is not None:
                tracer.context = op.context
                before = tracer.counters()
            start = time.perf_counter()
            try:
                value = op.run(state)
                seconds = time.perf_counter() - start
                observed = op.verdict(value, state)
            except Exception as exc:  # an op that raises is a failed op
                res = OpResult(op.name, op.context,
                               time.perf_counter() - start, False, False,
                               f"raised {type(exc).__name__}: {exc}")
            else:
                ok = observed == op.expected
                res = OpResult(op.name, op.context, seconds, ok,
                               not ok and op.known_defect(observed),
                               None if ok else f"expected {op.expected!r}, "
                                               f"got {observed!r}")
            if tracer is not None:
                after = tracer.counters()
                res.counters = {key: after[key] - before.get(key, 0)
                                for key in after
                                if after[key] != before.get(key, 0)}
            results.append(res)
    return results


def _due(groups, results, limit: float) -> list:
    """Per group, the ops of its first round that took under `limit`; a group
    is left out when one of its ops failed, when an op that builds its state
    took longer, or when only such ops are due."""
    plan = []
    ran = iter(results)
    for group in groups:
        entries = [(op, next(ran)) for op in group]
        if any(not res.ok and not res.known_defect for _, res in entries):
            continue
        if any(op.sets_state and res.seconds >= limit for op, res in entries):
            continue
        due = [(op, res) for op, res in entries if res.seconds < limit]
        if any(not op.sets_state for op, _ in due):
            plan.append(due)
    return plan


def _run_round(plan) -> None:
    """Run the due ops of each group in order, adding to their `times`."""
    for due in plan:
        # one collection per group: a full one costs about as much as a
        # short op
        gc.collect()
        state: dict = {}
        for op, res in due:
            start = time.perf_counter()
            try:
                op.run(state)
            except Exception as exc:  # counts like a failed first run
                res.ok = res.known_defect = False
                res.reason = f"raised {type(exc).__name__}: {exc}"
                break
            res.times.append(time.perf_counter() - start)


def repeat_rounds(groups, results, deadline: float,
                  repeat_limit: float) -> int:
    """Run the second round over the ops under `repeat_limit` (see `_due`),
    then rounds over the ops under SHORT_LIMIT while each would end before
    `deadline` (a `time.perf_counter()` value), judged by the round before
    it.  The second round always runs, so that every run times the same ops
    twice.  Returns the number of rounds run."""
    _run_round(_due(groups, results, repeat_limit))
    rounds, last = 1, None
    while True:
        plan = _due(groups, results, SHORT_LIMIT)
        estimate = last if last is not None else sum(
            res.seconds for due in plan for _, res in due)
        if not plan or time.perf_counter() + estimate > deadline:
            return rounds
        round_started = time.perf_counter()
        _run_round(plan)
        rounds += 1
        last = time.perf_counter() - round_started


def _verify_top_seconds(results) -> tuple:
    """Seconds to a full verdict at the highest verify-high rank: model,
    action and the five checks (the corrupted twin excluded)."""
    ranks = [int(r.context.split("k=")[1]) for r in results]
    top = max(ranks)
    return top, sum(r.seconds for r, k in zip(results, ranks)
                    if k == top and not r.name.startswith("twin"))


def measure_setup(workload: str, seed: int, scale: str, probes: int) -> list:
    """Seconds from spawning a workload process until its first op is ready."""
    samples = []
    for _ in range(probes):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--scale", scale],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> dict:
    """Run one benchmark invocation and return its full record."""
    import workloads
    import tracing
    import ekk.algebra

    spec = _load_spec()
    groups = workloads.build(workload, seed, scale)
    ops_per_pass = sum(len(g) for g in groups)
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "scale": scale, "seconds": seconds,
              "machine": machine_block(workloads.jobs(), seed),
              "ops_per_pass": ops_per_pass}
    info = {}
    if not trace:
        setup = measure_setup(workload, seed, scale, SETUP_PROBES // 2)
        started = time.perf_counter()
        timed = run_pass(groups)
        info["repeat_rounds"] = repeat_rounds(groups, timed, started + seconds,
                                              REPEAT_LIMIT[workload])
        for res in timed:
            res.seconds = statistics.median(res.times)
        passes = [timed]
        setup += measure_setup(workload, seed, scale,
                               SETUP_PROBES - SETUP_PROBES // 2)
        samples_ms = [r.seconds * 1000.0 for r in timed]
        q = tail_percentile(ops_per_pass)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(r.seconds for r in timed),
            "op_ms.p50": statistics.median(samples_ms),
            "op_ms.tail": percentile(samples_ms, q),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info["setup_samples_s"] = setup
        info["op_ms.tail"] = {"percentile": q, "samples": len(samples_ms)}
        info["executions"] = sum(len(r.times) for r in timed)
        wanted = spec["end_to_end"]
    else:
        plain = run_pass(groups)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(groups, tracer)
        finally:
            tracer.uninstall()
        passes = [plain, traced]
        interned = len(getattr(ekk.algebra.Generator, "_interned", {}))
        metrics = tracing.per_layer_metrics(
            tracer, interned, sum(r.seconds for r in plain),
            sum(r.seconds for r in traced), workloads.CHECKS)
        record["spans"] = [s.to_dict() for s in tracer.spans]
        record["span_summary"] = tracer.summary()
        wanted = spec["per_layer"]

    results = [r for p in passes for r in p]
    attempted = len(results)
    failed = sum(1 for r in results if not r.ok)
    info["fail_ratio"] = failed / attempted
    if workload == "verify-high":
        top, top_seconds = _verify_top_seconds(timed if not trace else plain)
        info[f"verify_k{top}_s"] = top_seconds
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    record.update({
        "passes": len(passes),
        "info": info,
        "correct": all(r.ok or r.known_defect for r in results),
        "attempted": attempted,
        "failed": failed,
        "failures": sorted({(r.name, r.reason, r.known_defect)
                            for r in results if not r.ok}),
        "ops": [r.to_dict() for r in passes[-1]],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    })
    return record


def report_lines(record: dict) -> list:
    m = record["machine"]
    lines = [
        f"# ekk benchmark: workload={record['workload']} seed={record['seed']}"
        f" trace={record['trace']} scale={record['scale']}",
        f"# machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']}"
        f" jobs={m['jobs']} commit={m['commit']} src_lines={m['src_lines']}",
        f"# passes={record['passes']} ops/pass={record['ops_per_pass']}"
        f" attempted={record['attempted']} failed={record['failed']}"
        f" correct={record['correct']}",
    ]
    for name, reason, known in record["failures"]:
        tag = "known defect" if known else "FAILED"
        lines.append(f"# {tag}: {name}: {reason}")
    for name, val in record["info"].items():
        lines.append(f"# info {name} = {val}")
    for name, entry in record["metrics"].items():
        lines.append(f"{name} {entry['value']} {entry['unit']}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["verify-high", "models", "solver"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "tiny"], default="full")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "ekk" / "__init__.py").is_file():
        print(f"bench: no ekk sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed, args.scale)
        print(time.monotonic())
        return 0

    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.scale)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                     f"-trace{args.trace}-{args.scale}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for line in report_lines(record):
        print(line)
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
