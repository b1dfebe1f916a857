"""The repository's end-to-end benchmark.

Every job is a fresh ``python -m repro.cli ...`` process on pinned
inputs, timed from process start to exit, one at a time (a closed loop
with one client).  Each job's exit code and ``s ...`` verdict line are
compared with the input's known answer.  Run from the repository root:

    python3 perfbench/run.py --workload v2_pipe --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
round of the workload again through ``perfbench/traced.py`` (the same
public calls the CLI makes, timed as spans) and prints the per-layer
metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import lzma
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
INPUTS = BENCH / "inputs"
WORK = BENCH / ".work"

#: The pinned (CNF, conflict-clause proof) pairs and DRUP traces.
PIPE_V2 = ("pipe_2", "pipe_3", "dlx_2")
PIPE_POOL = ("pipe_2", "pipe_3")
SMALL = ("eq_alu4", "eq_add8", "eq_mult4", "longmult_4", "fifo8_6",
         "barrel5")
PROOF_INSTANCES = tuple(dict.fromkeys(PIPE_V2 + PIPE_POOL + SMALL))
#: pipe_2's own solver trace (drup_delete), eq_alu4's (warm-up) and
#: barrel5's (the streaming stand-in of the traced run).
DRUP_INSTANCES = ("pipe_2", "eq_alu4", "barrel5")
CHAIN_LENGTH = 40000
CHAIN = f"chain{CHAIN_LENGTH}"
#: Live-clause budget for verify-stream: far above any pinned trace's
#: peak, so it never trips, but the budget checks run on every event.
MAX_LIVE = 8192
WARMUP = "eq_alu4"
STAND_IN = "eq_add8"  # traced run: layers the workload misses

CORRECT = "s PROOF_IS_CORRECT"
NOT_CORRECT = "s PROOF_IS_NOT_CORRECT"
EXIT_OK, EXIT_BAD, EXIT_PARSE = 0, 1, 65

SETUP_REPS = 3
JOB_TIMEOUT_S = 90.0
#: A job's speed factor averages the probe samples taken while it ran,
#: widened by this much on each side so short jobs get enough samples.
JOB_PAD_S = 1.0
MAX_ROUNDS = 200


@dataclass
class Job:
    """One CLI invocation and its known answer."""

    name: str
    argv: list[str]
    lines: int
    exit: int
    verdict: str | None
    reject: bool = False  # a mutant that must not be accepted
    kind: str = ""  # jobs of one kind do the same work; default: name

    def __post_init__(self) -> None:
        self.kind = self.kind or self.name


@dataclass
class Result:
    start: float  # perf_counter at spawn
    end: float    # perf_counter at reap
    maxrss_kb: int
    exit: int | None
    stdout: str
    timed_out: bool

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Context:
    """What set-up produced: unpacked inputs, derived mutants, jobs."""

    seed: int
    jobs: int
    inputs: Path
    lines: dict[str, int]
    mutants: list[dict] = field(default_factory=list)

    def path(self, fname: str) -> str:
        return str(self.inputs / fname)


def count_lines(path) -> int:
    """Clauses of a CNF, or conflict clauses / add+delete events of a
    proof file: every line that is not blank, a comment or a header."""
    count = 0
    with open(path, "rb") as handle:
        for line in handle:
            line = line.strip()
            if line and line[:1] not in (b"c", b"p"):
                count += 1
    return count


# -- environment ---------------------------------------------------------

def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    """The stamp printed with every result: a figure from a 1-CPU box
    must never pass as a parallel one."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "cffi": _version("cffi"),
        "gcc": shutil.which("gcc") is not None,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# -- CPU speed calibration ----------------------------------------------

#: Nominal duration of one probe unit; calibrated seconds are wall
#: seconds rescaled to a CPU on which the unit takes exactly this long.
PROBE_UNIT_S = 0.001
PROBE_PERIOD_S = 0.05


def _probe_unit(n: int = 4000) -> int:
    """A fixed unit of interpreted work (dict and integer arithmetic,
    like the checker's inner loops); about a millisecond on a 2 GHz
    core."""
    table: dict[int, int] = {}
    total = 0
    for i in range(n):
        table[i & 1023] = table.get((i * 7) & 1023, 0) + i
        total += i * i % 7
    return total


class SpeedProbe:
    """Times one probe unit every PROBE_PERIOD_S on each CPU the jobs
    run on, from a thread pinned to that CPU.

    On a shared virtual machine the speed of one vCPU drifts by tens of
    percent over seconds, independently of the other vCPUs, so a run's
    raw wall times say as much about its neighbours as about the code.
    The probe runs on the jobs' own CPU (taking about 2% of it), and
    the mean probe time over a window gives that window's speed
    factor.  Probes on another CPU do not track the job's CPU.
    """

    def __init__(self, cpus: list[int]):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(cpu,),
                                          daemon=True) for cpu in cpus]

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(threading.get_native_id(), {cpu})
        while not self._stop.wait(PROBE_PERIOD_S):
            start = time.perf_counter()
            _probe_unit()
            end = time.perf_counter()
            self.samples.append((start, end - start))

    def __enter__(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def factor(self, start: float, end: float) -> float:
        """Reference-over-measured CPU speed between two perf_counter
        readings: multiply a wall time by it to calibrate it.  The mean
        drops the top and bottom 5% of samples (preemption spikes)."""
        window = sorted(d for t, d in list(self.samples)
                        if start <= t <= end)
        if not window:
            raise SystemExit("speed probe took no samples")
        trim = len(window) // 20
        kept = window[trim:len(window) - trim]
        return PROBE_UNIT_S / statistics.fmean(kept)


# -- set-up --------------------------------------------------------------

def child_env(work: Path) -> dict:
    """Children write only under the work directory, and no REPRO_*
    override from the caller's environment changes what runs."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PYTHON"))}
    for sub in ("home", "tmp", "history"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    env.update(PYTHONPATH=str(ROOT / "src"),
               HOME=str(work / "home"),
               XDG_CACHE_HOME=str(work / "home" / ".cache"),
               TMPDIR=str(work / "tmp"),
               REPRO_HISTORY_DIR=str(work / "history"))
    return env


def unpack(dest: Path) -> dict[str, int]:
    """Decompress every pinned input into ``dest``; refuse to go on
    when a file's sha256 differs from the manifest."""
    manifest = json.loads((INPUTS / "manifest.json").read_text())
    dest.mkdir(parents=True, exist_ok=True)
    lines = {}
    for fname, meta in manifest["files"].items():
        data = lzma.decompress((INPUTS / f"{fname}.xz").read_bytes())
        if hashlib.sha256(data).hexdigest() != meta["sha256"]:
            raise SystemExit(f"pinned input {fname}: sha256 mismatch, "
                             "refusing to run")
        (dest / fname).write_bytes(data)
        lines[fname] = meta["lines"]
    return lines


def _clear_bytecode() -> None:
    for cache in (ROOT / "src").rglob("__pycache__"):
        shutil.rmtree(cache, ignore_errors=True)


def setup_once(workload: str, seed: int, jobs: int) -> Context:
    """Cold set-up: no bytecode, fresh inputs, derived mutants, then
    one untimed warm-up call per command the workload runs."""
    shutil.rmtree(WORK, ignore_errors=True)
    _clear_bytecode()
    ctx = Context(seed=seed, jobs=jobs, inputs=WORK / "inputs",
                  lines=unpack(WORK / "inputs"))
    env = child_env(WORK)
    if WORKLOADS[workload].mutants:
        out = WORK / "mutants"
        args = [sys.executable, str(BENCH / "derive.py"),
                WORKLOADS[workload].mutants, str(ctx.inputs), str(out),
                str(seed)]
        code = subprocess.run(args, env=env, cwd=ROOT,
                              timeout=JOB_TIMEOUT_S).returncode
        if code != 0:
            raise SystemExit(f"mutant derivation exited {code}")
        ctx.mutants = json.loads((out / "mutants.json").read_text())
    for job in WORKLOADS[workload].warmup(ctx):
        result = run_job(job, env)
        if judge(job, result) is not None:
            raise SystemExit(f"warm-up {job.name} failed: exit "
                             f"{result.exit}\n{result.stdout}")
    return ctx


def setup(workload: str, seed: int, jobs: int
          ) -> tuple[Context, list[tuple[float, float]]]:
    """Set up SETUP_REPS times from cold; returns the last context and
    each repetition's (start, end) perf_counter window."""
    windows = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        ctx = setup_once(workload, seed, jobs)
        windows.append((start, time.perf_counter()))
    return ctx, windows


# -- workloads -----------------------------------------------------------

def _verify(ctx: Context, name: str, *flags: str) -> Job:
    cnf, proof = f"{name}.cnf", f"{name}.ccp"
    return Job(f"verify{''.join(flags)}:{name}",
               ["verify", ctx.path(cnf), ctx.path(proof), *flags],
               ctx.lines[proof], EXIT_OK, CORRECT)


def _pool_flags(ctx: Context) -> tuple[str, ...]:
    return ("--procedure", "verification1", "--jobs", str(ctx.jobs))


def _drup(ctx: Context, name: str, command: str, trace: str | None = None,
          lines: int | None = None, exit: int = EXIT_OK,
          verdict: str | None = CORRECT, reject: bool = False) -> Job:
    trace = trace or ctx.path(f"{name}.drup")
    extra = (["--max-live-clauses", str(MAX_LIVE)]
             if command == "verify-stream" else [])
    return Job(f"{command}:{Path(trace).name}",
               [command, ctx.path(f"{name}.cnf"), trace, *extra],
               lines if lines is not None else ctx.lines[f"{name}.drup"],
               exit, verdict, reject)


def _mutant_job(ctx: Context, mutant: dict, command: str = "verify"
                ) -> Job:
    base = mutant["base"]
    # A duplicate-clause control does its base pair's work plus one
    # check, so it shares the base pair's kind; a reject is its own.
    kind = f"{command}:{base}" + ("" if mutant["accept"] else ":reject")
    exit, verdict = mutant[command]
    if command == "verify":
        return Job(f"verify:{Path(mutant['path']).name}",
                   ["verify", ctx.path(f"{base}.cnf"), mutant["path"]],
                   mutant["lines"], exit, verdict, not mutant["accept"],
                   kind)
    job = _drup(ctx, base, command, trace=mutant["path"],
                lines=mutant["lines"], exit=exit, verdict=verdict,
                reject=not mutant["accept"])
    job.kind = kind
    return job


def round_v2_pipe(ctx: Context, rng: random.Random) -> list[Job]:
    return [_verify(ctx, name) for name in PIPE_V2]


def round_v1_pool(ctx: Context, rng: random.Random) -> list[Job]:
    return [_verify(ctx, name, *_pool_flags(ctx)) for name in PIPE_POOL]


def round_drup_delete(ctx: Context, rng: random.Random) -> list[Job]:
    mutant = rng.choice(ctx.mutants)
    return [_drup(ctx, CHAIN, "verify-drup"),
            _drup(ctx, CHAIN, "verify-stream"),
            _drup(ctx, "pipe_2", "verify-drup"),
            _drup(ctx, "pipe_2", "verify-stream"),
            _mutant_job(ctx, mutant, "verify-drup"),
            _mutant_job(ctx, mutant, "verify-stream")]


def round_small_batch(ctx: Context, rng: random.Random) -> list[Job]:
    """Each small pair four times as itself, once as its seeded
    duplicate-clause control and once as a seeded reject_all mutant:
    a third of the jobs are mutants, and every round has the same mix
    of instances and mutant kinds whatever the seed."""
    jobs = []
    for name in SMALL:
        jobs += [_verify(ctx, name) for _ in range(4)]
        for accept in (True, False):
            eligible = [m for m in ctx.mutants
                        if m["base"] == name and m["accept"] == accept]
            jobs.append(_mutant_job(ctx, rng.choice(eligible)))
    return jobs


@dataclass(frozen=True)
class Workload:
    """How to build one round of jobs, the untimed warm-up calls of
    set-up (one per command the round runs), and which mutant family
    set-up derives.  The reason for each workload is in BENCHMARK.json
    and README.md."""

    make_round: Callable[[Context, random.Random], list[Job]]
    warmup: Callable[[Context], list[Job]]
    mutants: str = ""  # derive.py family, or "" for none

    def round(self, ctx: Context, rng: random.Random) -> list[Job]:
        jobs = self.make_round(ctx, rng)
        rng.shuffle(jobs)
        return jobs


WORKLOADS: dict[str, Workload] = {
    "v2_pipe": Workload(round_v2_pipe,
                        lambda ctx: [_verify(ctx, WARMUP)]),
    "v1_pool": Workload(
        round_v1_pool,
        lambda ctx: [_verify(ctx, WARMUP, *_pool_flags(ctx))]),
    "drup_delete": Workload(
        round_drup_delete,
        lambda ctx: [_drup(ctx, WARMUP, "verify-drup"),
                     _drup(ctx, WARMUP, "verify-stream")],
        mutants="drup"),
    "small_batch": Workload(round_small_batch,
                            lambda ctx: [_verify(ctx, WARMUP)],
                            mutants="cc"),
}


# -- jobs and the correctness gate ---------------------------------------

def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], env: dict, timeout: float = JOB_TIMEOUT_S
              ) -> Result:
    """Run one child to completion: wall time from spawn to reap, and
    the child's own peak RSS from its rusage."""
    out_path = WORK / "job.out"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out,
                                stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT, start_new_session=True)
        fired = threading.Event()

        def expire() -> None:
            fired.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if fired.is_set():
        _kill_group(proc.pid)
    return Result(start, end, usage.ru_maxrss, proc.returncode,
                  out_path.read_text(errors="replace"), fired.is_set())


def run_job(job: Job, env: dict) -> Result:
    return run_child([sys.executable, "-m", "repro.cli", *job.argv], env)


def verdict_line(stdout: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith("s "):
            return line.strip()
    return None


def judge(job: Job, result: Result) -> str | None:
    """None when the job matched its known answer, else why not."""
    if result.timed_out:
        return "timed out"
    if result.exit != job.exit:
        return f"exit {result.exit}, expected {job.exit}"
    got = verdict_line(result.stdout)
    if got != job.verdict:
        return f"verdict {got!r}, expected {job.verdict!r}"
    return None


def false_accept(job: Job, result: Result) -> bool:
    return job.reject and not result.timed_out and result.exit == EXIT_OK


@dataclass
class Gate:
    """Running correctness tally of a run."""

    attempted: int = 0
    failed: int = 0
    false_accepts: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, job: Job, result: Result) -> None:
        self.attempted += 1
        reason = judge(job, result)
        if false_accept(job, result):
            self.false_accepts += 1
            reason = f"FALSE ACCEPT ({reason})"
        if reason is not None:
            self.failed += 1
            self.problems.append(f"{job.name}: {reason}")

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.false_accepts == 0


# -- measurement ---------------------------------------------------------

def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def measure(workload: str, ctx: Context, seconds: float, gate: Gate,
            probe: SpeedProbe) -> dict:
    """Closed loop of whole rounds: another round starts only while
    the run is expected to end near ``seconds``; every round has the
    same instance mix, so rates and percentiles do not depend on how
    many rounds fit.  Returns raw and calibrated figures."""
    env = child_env(WORK)
    rng = random.Random(f"{ctx.seed}:{workload}")
    results: list[tuple[Job, Result]] = []
    start = time.perf_counter()
    last_round = 0.0
    rounds = 0
    while rounds < MAX_ROUNDS:
        elapsed = time.perf_counter() - start
        if rounds and elapsed + last_round / 2 >= seconds:
            break
        rounds += 1
        round_start = time.perf_counter()
        for job in WORKLOADS[workload].round(ctx, rng):
            result = run_job(job, env)
            gate.record(job, result)
            results.append((job, result))
        last_round = time.perf_counter() - round_start
    time.sleep(JOB_PAD_S)  # probe samples for the last job's window
    lines = sum(j.lines for j, _ in results)
    rss = max(r.maxrss_kb for _, r in results) / 1024.0

    def figures(walls: list[float]) -> dict:
        """Each job's wall is replaced by the median wall of its kind in
        this run, so one disturbed job moves a percentile or the rate
        only through its kind's median."""
        by_kind: dict[str, list[float]] = {}
        for (job, _), wall in zip(results, walls):
            by_kind.setdefault(job.kind, []).append(wall)
        smoothed = [statistics.median(by_kind[job.kind])
                    for job, _ in results]
        return {"lines_per_s": (lines / sum(smoothed), "lines/s"),
                "job_s.p50": (statistics.median(smoothed), "s"),
                "peak_rss_mb": (rss, "MiB"),
                "job_s.p90": (percentile(smoothed, 90), "s")}

    return {
        "rounds": rounds, "jobs": len(results), "lines": lines,
        "seconds": time.perf_counter() - start,
        "raw": figures([r.wall for _, r in results]),
        "calibrated": figures(
            [r.wall * probe.factor(r.start - JOB_PAD_S, r.end + JOB_PAD_S)
             for _, r in results]),
    }


def calibrated(value: float, unit: str, factor: float) -> float:
    """Rescale a time (or a per-second rate) to the reference CPU."""
    if unit in ("s", "ns"):
        return value * factor
    if unit.endswith("/s"):
        return value / factor
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    if not (INPUTS / "manifest.json").is_file():
        print("error: pinned inputs missing", file=sys.stderr)
        return 2

    stamp = environment()
    jobs = min(2, stamp["nproc"])
    # Sequential workloads run on one CPU, the pool on `jobs` CPUs; the
    # speed probe samples exactly those.
    cpus = sorted(os.sched_getaffinity(0))[
        :jobs if args.workload == "v1_pool" else 1]
    os.sched_setaffinity(0, cpus)
    stamp["cpus"] = cpus
    print("env " + json.dumps(stamp, sort_keys=True))
    if args.workload == "v1_pool" and jobs < 2:
        print("warning: 1 CPU: v1_pool runs --jobs 1, so its figures "
              "are not parallel figures")
    gate = Gate()
    with SpeedProbe(cpus) as probe:
        ctx, windows = setup(args.workload, args.seed, jobs)
        if args.trace:
            from layers import traced_metrics

            raw, window = traced_metrics(args.workload, ctx, gate,
                                         probe)
            factor = probe.factor(*window)
            metrics = {name: (calibrated(value, unit, factor), unit)
                       for name, (value, unit) in raw.items()}
        else:
            m = measure(args.workload, ctx, args.seconds, gate, probe)
            print(f"run: {m['jobs']} jobs in {m['rounds']} round(s), "
                  f"{m['lines']} proof lines, {m['seconds']:.2f} s")
            raw, metrics = m["raw"], m["calibrated"]
            # A percentile with fewer than ten samples beyond it is not
            # a tail estimate: printed, not part of the result.
            tail = metrics.pop("job_s.p90")
            print(f"job_s.p90 = {tail[0]:.6g} s (raw "
                  f"{raw['job_s.p90'][0]:.6g}; n={m['jobs']}, "
                  f"{m['jobs'] - math.ceil(0.9 * m['jobs'])} beyond; "
                  "not gated)")
    if not args.trace:
        setups = [(end - start,
                   probe.factor(start - JOB_PAD_S, end + JOB_PAD_S))
                  for start, end in windows]
        raw["setup_s"] = (statistics.median(s for s, _ in setups), "s")
        metrics = {"setup_s": (statistics.median(s * f for s, f in setups),
                               "s"), **metrics}
    unit_ms = PROBE_UNIT_S / probe.factor(windows[0][0],
                                          time.perf_counter()) * 1e3
    print(f"cpu speed: probe unit {unit_ms:.4f} ms on cpus {cpus} over "
          f"the run; calibrated = raw time x {PROBE_UNIT_S * 1e3:g} ms "
          "/ measured probe unit")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (raw {raw[name][0]:.6g})")
    error_rate = gate.failed / max(gate.attempted, 1)
    print(f"error_rate = {error_rate:.6g} ratio "
          f"({gate.failed}/{gate.attempted} jobs)")
    print(f"false_accepts = {gate.false_accepts} count")
    for problem in gate.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if gate.false_accepts:
        print(f"FALSE ACCEPTS: {gate.false_accepts} mutated proof(s) "
              "were accepted", file=sys.stderr)
    print(json.dumps({
        "correct": gate.correct, "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    shutil.rmtree(WORK, ignore_errors=True)
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
