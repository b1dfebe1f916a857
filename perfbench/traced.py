"""Traced runner: one benchmark job, made of the same public calls the
CLI command makes, each timed as a span.

    python3 perfbench/traced.py JOB_ID OUT.json <repro CLI arguments>

Only the argument subset the benchmark uses is understood, with the
CLI's effective defaults (verification2 in incremental mode, the
default engine, no budget except ``--max-live-clauses``).  Spans are
kept in memory as ``[id, parent, name, start, end]`` (perf_counter
seconds) and written to OUT.json when the job ends, together with the
verdict, the counters the CLI prints (to be compared with the CLI's
own lines) and the report fields the per-layer metrics use.

Two passes are extra to what the CLI does, and the tracer-overhead
figure leaves them out: the sequential rerun of a pooled verification1
(span ``pool.seq``, for the pool's speedup) and a bare pass of the
chunked DRUP reader (span ``stream.read``).  Checker construction and
every ``check_clause`` call are timed by wrapping the two methods of
``ProofChecker`` in this process only; calls made inside pool workers
are not recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager


class Spans:
    """In-memory span recorder with a parent stack."""

    def __init__(self):
        self.records: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        ident = len(self.records)
        parent = self._stack[-1] if self._stack else None
        record = [ident, parent, name, time.perf_counter(), None]
        self.records.append(record)
        self._stack.append(ident)
        try:
            yield
        finally:
            self._stack.pop()
            record[4] = time.perf_counter()


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("command",
                        choices=("verify", "verify-drup", "verify-stream"))
    parser.add_argument("cnf")
    parser.add_argument("proof")
    parser.add_argument("--procedure", default="verification2")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--max-live-clauses", type=int, default=None)
    return parser.parse_args(argv)


def _instrument_checker(spans: Spans) -> None:
    from repro.verify.checker import ProofChecker

    build, check = ProofChecker.__init__, ProofChecker.check_clause

    def timed_build(self, *args, **kwargs):
        with spans.span("checker.build"):
            build(self, *args, **kwargs)

    def timed_check(self, index):
        with spans.span("check"):
            return check(self, index)

    ProofChecker.__init__ = timed_build
    ProofChecker.check_clause = timed_check


def _exit_code(report) -> int:
    if report.exhausted:
        return 3
    return 0 if report.ok else 1


def _verify(args, spans: Spans, out: dict) -> None:
    from repro.core.dimacs import read_dimacs
    from repro.proofs.trace_format import read_proof
    from repro.verify.verification import verify_proof

    with spans.span("dimacs.read"):
        formula = read_dimacs(args.cnf)
    out["clauses"] = formula.num_clauses
    with spans.span("proof.read"):
        proof = read_proof(args.proof)

    def run(jobs: int):
        return verify_proof(formula, proof, procedure=args.procedure,
                            engine_cls=None, order="backward",
                            mode="incremental", jobs=jobs, budget=None,
                            obs=None, instance=args.cnf)

    with spans.span("pool" if args.jobs > 1 else "verify"):
        report = run(args.jobs)
    out["exit"] = _exit_code(report)
    out["verdict"] = f"s {report.outcome.upper()}"
    out["cli"] = {"checked": report.num_checked,
                  "skipped": report.num_skipped, "mode": report.mode,
                  "engine": report.engine, "jobs": report.jobs}
    out["bcp"] = report.bcp_counters
    out["reports"] = [_verify_summary(report, formula,
                                      pooled=args.jobs > 1)]
    if args.jobs > 1:
        with spans.span("pool.seq"):
            seq = run(1)
        out["reports"].append(_verify_summary(seq, formula, pooled=False))


def _verify_summary(report, formula, pooled: bool) -> dict:
    return {"procedure": report.procedure, "pooled": pooled,
            "ok": report.ok, "jobs": report.jobs,
            "proof_clauses": report.num_proof_clauses,
            "checked": report.num_checked, "skipped": report.num_skipped,
            "core": report.core.size if report.core is not None else None,
            "formula_clauses": formula.num_clauses,
            "bcp": report.bcp_counters,
            "worker_failures": report.worker_failures}


def _verify_drup(args, spans: Spans, out: dict) -> None:
    from repro.core.dimacs import read_dimacs
    from repro.proofs.drup import read_drup
    from repro.verify.forward import check_drup

    with spans.span("dimacs.read"):
        formula = read_dimacs(args.cnf)
    out["clauses"] = formula.num_clauses
    with spans.span("drup.read"):
        trace = read_drup(args.proof)
    with spans.span("drup.check"):
        report = check_drup(formula, trace, budget=None, obs=None,
                            engine_cls=None)
    out["exit"] = _exit_code(report)
    out["verdict"] = f"s {report.outcome.upper()}"
    out["cli"] = {"additions": report.num_additions,
                  "deletions": report.num_deletions,
                  "peak_active": report.peak_active_clauses}


def _verify_stream(args, spans: Spans, out: dict) -> None:
    from repro.core.dimacs import read_dimacs
    from repro.proofs.stream import DEFAULT_CHUNK_BYTES, iter_drup_file
    from repro.verify.budget import CheckBudget
    from repro.verify.streaming import DEFAULT_CHECKPOINT_EVERY, \
        verify_stream

    with spans.span("dimacs.read"):
        formula = read_dimacs(args.cnf)
    out["clauses"] = formula.num_clauses
    budget = (CheckBudget(max_live_clauses=args.max_live_clauses)
              if args.max_live_clauses is not None else None)
    with spans.span("stream.verify"):
        report = verify_stream(
            formula, args.proof, budget=budget, obs=None, engine_cls=None,
            checkpoint_path=None,
            checkpoint_every=DEFAULT_CHECKPOINT_EVERY, resume=False,
            lenient_deletions=False, chunk_bytes=DEFAULT_CHUNK_BYTES)
    out["exit"] = _exit_code(report)
    out["verdict"] = f"s {report.outcome.upper()}"
    out["cli"] = {"additions": report.num_additions,
                  "deletions": report.num_deletions,
                  "peak_live": report.peak_live_clauses,
                  "window_shifts": report.window_shifts,
                  "checkpoints": report.checkpoints_written}
    out["stream"] = {
        "events_s": report.stats.phase_times.get("events", 0.0),
        "deletions": report.num_deletions,
        "window_shifts": report.window_shifts,
        "peak_live": report.peak_live_clauses}
    with spans.span("stream.read"):
        events = sum(1 for _ in iter_drup_file(args.proof))
    out["stream"]["read_events"] = events


def main(argv: list[str]) -> int:
    job_id, out_path, cli_args = argv[0], argv[1], argv[2:]
    spans = Spans()
    out: dict = {"job": job_id, "exit": None, "verdict": None}
    with spans.span("cli.import"):
        import repro.cli  # noqa: F401  (the CLI's own import cost)
    from repro.core.exceptions import DimacsParseError, ProofFormatError

    _instrument_checker(spans)
    args = _parse(cli_args)
    run = {"verify": _verify, "verify-drup": _verify_drup,
           "verify-stream": _verify_stream}[args.command]
    try:
        run(args, spans, out)
    except (DimacsParseError, ProofFormatError):
        out["exit"], out["verdict"] = 65, None
        out.pop("cli", None)
    out["spans"] = spans.records
    flush_start = time.perf_counter()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    # Written last so the parent can leave the flush out of glue time.
    with open(out_path + ".flush", "w", encoding="utf-8") as handle:
        handle.write(repr(time.perf_counter() - flush_start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
