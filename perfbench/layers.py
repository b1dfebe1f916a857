"""The traced run (``--trace 1``): per-layer metrics.

Each job of one round of the workload runs twice: as the plain CLI
process, and through ``perfbench/traced.py``, which makes the same
public calls and times them as spans.  The traced job must reproduce
the CLI job's exit code, verdict line, ``c checked=``/``c additions=``
counters and ``c bcp:`` counters exactly; otherwise the traced run has
measured a different program and the run fails.

Every per-layer metric is printed on every workload.  A metric whose
layer the workload does not reach (``HOME`` below) is measured on a
small fixed stand-in job for that layer instead (``STAND_INS``), and
the printout names the stand-in.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from collections.abc import Callable

from run import (
    BENCH, JOB_PAD_S, STAND_IN, WORK, WORKLOADS, Context, Gate, Job, Result,
    SpeedProbe, _drup, _pool_flags, _verify, child_env, percentile,
    run_child, run_job, verdict_line)

ALL = tuple(WORKLOADS)
VERIFY_WORKLOADS = ("v2_pipe", "v1_pool", "small_batch")

#: Metric group -> the workloads whose own jobs reach that layer.
HOME = {
    "cli": ALL, "dimacs": ALL, "trace": ALL,
    "proof": VERIFY_WORKLOADS, "checker": VERIFY_WORKLOADS,
    "check": VERIFY_WORKLOADS, "verify": VERIFY_WORKLOADS,
    "bcp": VERIFY_WORKLOADS,
    "v2": ("v2_pipe", "small_batch"),
    "pool": ("v1_pool",),
    "drup": ("drup_delete",), "stream": ("drup_delete",),
}

#: Metric group -> the stand-in that measures it elsewhere.
STAND_IN_OF = {"proof": "verify", "checker": "verify", "check": "verify",
            "verify": "verify", "bcp": "verify", "v2": "verify",
            "pool": "pool", "drup": "drup", "stream": "drup"}

STAND_INS = {
    "verify": lambda ctx: [_verify(ctx, STAND_IN)],
    "pool": lambda ctx: [_verify(ctx, STAND_IN, *_pool_flags(ctx))],
    "drup": lambda ctx: [_drup(ctx, "barrel5", "verify-drup"),
                         _drup(ctx, "barrel5", "verify-stream")],
}

#: name -> unit, in BENCHMARK.json order.
PER_LAYER = {
    "cli.import_s": "s", "cli.glue_s": "s",
    "dimacs.read_s": "s", "dimacs.clauses_per_s": "clauses/s",
    "proof.read_s": "s", "proof.lines_per_s": "lines/s",
    "drup.read_s": "s", "drup.lines_per_s": "lines/s",
    "stream.read_s": "s", "stream.lines_per_s": "lines/s",
    "checker.build_s": "s", "checker.checks_s": "s",
    "check_s.p50": "s", "check_s.p99": "s", "verify.self_s": "s",
    "bcp.assignments": "count", "bcp.watch_visits": "count",
    "bcp.clause_visits": "count", "bcp.purged": "count",
    "bcp.ns_per_visit": "ns",
    "v2.checked": "count", "v2.skipped": "count",
    "v2.marked_ratio": "ratio", "v2.core_ratio": "ratio",
    "pool.wall_s": "s", "pool.seq_wall_s": "s", "pool.speedup": "x",
    "pool.efficiency": "ratio", "pool.watch_visits_ratio": "ratio",
    "pool.worker_failures": "count",
    "drup.check_s": "s", "stream.events_s": "s",
    "stream.window_shifts": "count", "stream.peak_live": "count",
    "stream.deletions_per_s": "deletions/s",
    "trace.overhead": "ratio",
}

EXTRA = ("pool.seq", "stream.read")  # passes the CLI does not make


def _group(metric: str) -> str:
    return metric.split(".")[0].split("_")[0]


def _counters_line(stdout: str) -> dict | None:
    """The CLI's ``c checked=...`` or ``c additions=...`` line as a
    dict, without its ``time=``."""
    for line in stdout.splitlines():
        if line.startswith(("c checked=", "c additions=")):
            pairs = (token.split("=", 1) for token in line[2:].split())
            return {k: v for k, v in pairs if k != "time"}
    return None


def _bcp_line(stdout: str) -> dict | None:
    for line in stdout.splitlines():
        if line.startswith("c bcp: "):
            return {k: int(v) for k, v in
                    (token.split("=", 1) for token in line[7:].split())}
    return None


def compare(cli_stdout: str, cli_exit: int, traced: dict) -> str | None:
    """None when the traced runner reproduced the CLI job exactly.

    A pooled run's ``c bcp:`` counters depend on which worker happened
    to take which shard (two CLI runs of the same pooled job differ),
    so for pooled jobs only their presence and keys are compared; its
    verdict and ``checked=``/``skipped=`` counts still must match."""
    if traced["exit"] != cli_exit:
        return f"exit {traced['exit']} vs CLI {cli_exit}"
    if traced["verdict"] != verdict_line(cli_stdout):
        return (f"verdict {traced['verdict']!r} vs CLI "
                f"{verdict_line(cli_stdout)!r}")
    expected = _counters_line(cli_stdout)
    got = ({k: str(v) for k, v in traced["cli"].items()}
           if "cli" in traced else None)
    if got != expected:
        return f"counters {got} vs CLI {expected}"
    bcp, cli_bcp = traced.get("bcp"), _bcp_line(cli_stdout)
    pooled = got is not None and got.get("jobs", "1") != "1"
    if (sorted(bcp or ()) != sorted(cli_bcp or ()) if pooled
            else bcp != cli_bcp):
        return f"bcp {bcp} vs CLI {cli_bcp}"
    return None


def run_traced(job: Job, env: dict, job_id: str):
    out = WORK / "trace" / f"{job_id}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    result = run_child([sys.executable, str(BENCH / "traced.py"), job_id,
                        str(out), *job.argv], env)
    if result.exit != 0 or not out.with_name(out.name + ".flush").exists():
        return result, None
    traced = json.loads(out.read_text())
    traced["flush_s"] = float(
        out.with_name(out.name + ".flush").read_text())
    return result, traced


def _durations(traced: dict, name: str) -> list[float]:
    return [end - start for _, _, n, start, end in traced["spans"]
            if n == name]


def _self_times(traced: dict, names: tuple[str, ...]) -> float:
    spans = traced["spans"]
    child = [0.0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    return sum(end - start - child[ident]
               for ident, _, n, start, end in spans if n in names)


def aggregate(samples: list[tuple[Job, Result, Result, dict]],
              speed: Callable[[Result], float]) -> dict:
    """Per-layer metrics of one source from (job, CLI run, traced run,
    traced output) per job.  ``speed`` gives a run's CPU speed factor;
    the tracer overhead compares calibrated walls, since the two runs
    of a job happen at different moments."""
    total = {}

    def spans(name):
        return [d for *_, t in samples for d in _durations(t, name)]

    imports, glue = [], []
    for _, _, run, t in samples:
        top = sum(e - s for _, p, _, s, e in t["spans"] if p is None)
        imports.append(sum(_durations(t, "cli.import")))
        glue.append(run.wall - top - t["flush_s"])
    total["cli.import_s"] = statistics.median(imports)
    total["cli.glue_s"] = statistics.median(glue)
    read = sum(spans("dimacs.read"))
    total["dimacs.read_s"] = read
    total["dimacs.clauses_per_s"] = _rate(
        sum(t.get("clauses", 0) for *_, t in samples), read)
    for layer, span in (("proof", "proof.read"), ("drup", "drup.read")):
        seconds = sum(spans(span))
        lines = sum(job.lines for job, *_, t in samples
                    if _durations(t, span))
        total[f"{layer}.read_s"] = seconds
        total[f"{layer}.lines_per_s"] = _rate(lines, seconds)
    streams = [t["stream"] for *_, t in samples if "stream" in t]
    seconds = sum(spans("stream.read"))
    total["stream.read_s"] = seconds
    total["stream.lines_per_s"] = _rate(
        sum(s.get("read_events", 0) for s in streams), seconds)
    checks = spans("check")
    total["checker.build_s"] = sum(spans("checker.build"))
    total["checker.checks_s"] = sum(checks)
    if checks:
        total["check_s.p50"] = statistics.median(checks)
        total["check_s.p99"] = percentile(checks, 99)
    total["verify.self_s"] = sum(_self_times(t, ("verify", "pool.seq"))
                                 for *_, t in samples)

    reports = [r for *_, t in samples for r in t.get("reports", [])]
    cli_reports = [t["reports"][0] for *_, t in samples
                   if t.get("reports")]
    counted = [r["bcp"] for r in cli_reports if r["bcp"] is not None]
    if counted:
        for key in ("assignments", "watch_visits", "clause_visits",
                    "purged"):
            total[f"bcp.{key}"] = sum(c[key] for c in counted)
    in_process = [r["bcp"] for r in reports
                  if not r["pooled"] and r["bcp"] is not None]
    visits = sum(c["watch_visits"] + c["clause_visits"] for c in in_process)
    if checks and visits:
        total["bcp.ns_per_visit"] = sum(checks) / visits * 1e9
    v2 = [r for r in cli_reports if r["procedure"] == "verification2"]
    if v2:
        total["v2.checked"] = sum(r["checked"] for r in v2)
        total["v2.skipped"] = sum(r["skipped"] for r in v2)
        done = [r for r in v2 if r["ok"]]
        total["v2.marked_ratio"] = _rate(
            sum(r["checked"] for r in done),
            sum(r["proof_clauses"] for r in done))
        total["v2.core_ratio"] = _rate(
            sum(r["core"] for r in done),
            sum(r["formula_clauses"] for r in done))
    pooled = [r for r in reports if r["pooled"]]
    if pooled:
        sequential = [r for r in reports
                      if not r["pooled"] and r["procedure"] ==
                      "verification1"]
        wall, seq = sum(spans("pool")), sum(spans("pool.seq"))
        total["pool.wall_s"] = wall
        total["pool.seq_wall_s"] = seq
        total["pool.speedup"] = _rate(seq, wall)
        total["pool.efficiency"] = _rate(seq, wall) / pooled[0]["jobs"]
        total["pool.watch_visits_ratio"] = _rate(
            sum(r["bcp"]["watch_visits"] for r in pooled),
            sum(r["bcp"]["watch_visits"] for r in sequential))
        total["pool.worker_failures"] = sum(r["worker_failures"]
                                            for r in pooled)
    drup_checks = spans("drup.check")
    if drup_checks:
        total["drup.check_s"] = sum(drup_checks)
    if streams:
        events = sum(s["events_s"] for s in streams)
        total["stream.events_s"] = events
        total["stream.window_shifts"] = sum(s["window_shifts"]
                                            for s in streams)
        total["stream.peak_live"] = max(s["peak_live"] for s in streams)
        total["stream.deletions_per_s"] = _rate(
            sum(s["deletions"] for s in streams), events)
    traced = sum((run.wall - sum(d for name in EXTRA
                                 for d in _durations(t, name))) * speed(run)
                 for _, _, run, t in samples)
    total["trace.overhead"] = _rate(
        traced, sum(cli.wall * speed(cli) for _, cli, _, _ in samples)) - 1
    return total


def _rate(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_metrics(workload: str, ctx: Context, gate: Gate,
                   probe: SpeedProbe) -> tuple[dict, tuple[float, float]]:
    """Raw per-layer metrics, as name -> (value, unit), and the
    perf_counter window they were measured in."""
    env = child_env(WORK)
    rng = random.Random(f"{ctx.seed}:{workload}")
    sources = {"own": WORKLOADS[workload].round(ctx, rng)}
    for group, homes in HOME.items():
        if workload not in homes:
            stand_in = STAND_IN_OF[group]
            sources.setdefault(stand_in, STAND_INS[stand_in](ctx))
    runs = {}
    start = time.perf_counter()
    for source, jobs in sources.items():
        samples = runs[source] = []
        for number, job in enumerate(jobs):
            cli = run_job(job, env)
            gate.record(job, cli)
            result, traced = run_traced(job, env, f"{source}-{number}")
            gate.attempted += 1
            problem = ("traced runner failed: exit "
                       f"{result.exit}\n{result.stdout}"
                       if traced is None
                       else compare(cli.stdout, cli.exit, traced))
            if problem is not None:
                gate.fail(f"traced {job.name}: {problem}")
                continue
            samples.append((job, cli, result, traced))
    window = (start, time.perf_counter())
    time.sleep(JOB_PAD_S)  # probe samples for the last job's window

    def speed(result: Result) -> float:
        return probe.factor(result.start - JOB_PAD_S,
                            result.end + JOB_PAD_S)

    measured = {source: aggregate(samples, speed) if samples else {}
                for source, samples in runs.items()}
    print(f"traced: {len(sources['own'])} {workload} jobs; stand-ins "
          + (", ".join(f"{p} ({len(j)} job(s))" for p, j in sources.items()
                       if p != "own") or "none"))
    metrics = {}
    for name, unit in PER_LAYER.items():
        group = _group(name)
        source = ("own" if workload in HOME[group] else STAND_IN_OF[group])
        value = measured[source].get(name)
        if value is None:
            gate.fail(f"per-layer metric {name} was not measured")
            value = 0.0
        if source != "own":
            print(f"  {name}: from the {source} stand-in")
        metrics[name] = (value, unit)
    return metrics, window
