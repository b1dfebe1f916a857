"""Forward DRUP checking with deletions: the one event loop.

The dual of the paper's backward procedures: process the trace in
chronological order, RUP-checking each addition against the *currently
live* clause set and honoring deletion lines.  Deletions keep the
checker's working set as small as the solver's was — the fix for the
memory growth the paper's Section 5 worries about, at the price of
checking every addition (no marking/skipping is possible forward).

:func:`forward_check` is the only implementation, with two entry
points feeding it events (as DRAT-trim and the window-shifting checker
of Chen 2016 do):

* :func:`~repro.verify.forward.check_drup` feeds a trace already in
  memory (:class:`~repro.proofs.drup.DrupProof`), with window shifts
  off — the trace is resident anyway, so reclaiming engine storage
  would bound nothing;
* :func:`verify_stream` feeds the chunked reader
  (:class:`repro.proofs.stream.DrupStreamReader`), so a proof larger
  than RAM is read, checked and discarded one event at a time.

The loop's features, all available to both entry points:

**Bounded memory.**  The resident state is the engine holding the
formula plus the live proof-added clauses, and a clause-key index for
deletion lookup — no second copy of the live set.
:class:`~repro.verify.budget.CheckBudget`'s ``max_live_clauses``/
``max_bytes`` axes cap the live proof-added set — a trace whose
deletions do not keep it under the cap degrades to a
``resource_limit_exceeded`` partial report (with a resume token, so a
bigger budget can pick up where it stopped) instead of an OOM kill.

**Window shifting.**  Deleted clauses are tombstoned by the engines,
but their storage (arena pool words, watch-table slots) is never
reclaimed in place.  When the dead fraction crosses
``window_slack``, the loop rebuilds a fresh engine over only the
live clauses, read back from the old engine (formula clauses first) —
the "window shift" — and the old engine's storage is garbage.
Propagation-work accounting is carried across shifts, so budgets and
reports see one continuous run.  A run carrying a memory sampler
(``obs.mem``) also cross-checks the ``max_bytes`` *estimate* against
*measured* RSS at every shift: growth past both an absolute floor and
a multiple of the estimate emits a ``mem_estimate_drift`` trace event
and bumps ``repro_mem_estimate_drift_total`` — the model being wrong
is surfaced, never fatal.

**Checkpoint/resume** (:func:`verify_stream` only: a token points into
a file).  Every ``checkpoint_every`` events (and on interrupt or budget
exhaustion) the loop flushes a small JSON resume token (schema
``repro.obs.checkpoint/v1``) via the atomic-artifact writer: trace
position (byte offset/line/event index), the live clause window,
deleted-formula indices, and the propagation work spent.
``resume=True`` validates the token against digests of the formula and
the proof file (a mismatch raises
:class:`~repro.core.exceptions.CheckpointError`) and continues from
the recorded offset; an interrupted-then-resumed run reaches the same
verdict as an uninterrupted one.  A run that reaches a verdict deletes
its token — resume is only ever offered from an unfinished run.

**Unknown deletions.**  A deletion naming a clause that is not live is
handled by the ``unknown_deletion`` parameter, one per entry point:
``"reject"`` (``check_drup``) makes it a ``proof_is_not_correct``
verdict; ``"error"`` (``verify_stream``: the chunked reader/fault
injector surfaces these from truncated or corrupt traces) raises
:class:`~repro.core.exceptions.ProofFormatError` → CLI exit 65;
``"skip"`` (``lenient_deletions=True``) downgrades it to a counted
warning and a skip (DRAT-trim's behavior).

Additions may name variables the formula never mentions (a header that
under-declares, or a solver's fresh variables): the engine grows to
hold them instead of crashing the checker.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from array import array
from dataclasses import dataclass, field

from repro.bcp import engine_name, removal_engines, resolve_engine
from repro.bcp.engine import FALSE, TRUE, PropagationCounters, \
    PropagatorBase
from repro.core.exceptions import CheckpointError, ProofFormatError
from repro.core.formula import CnfFormula
from repro.core.literals import decode_clause, encode
from repro.obs.export import atomic_write_text
from repro.obs.mem import record_arena_gauges
from repro.obs.schema import CHECKPOINT_SCHEMA, validate_checkpoint
from repro.proofs.drup import ADD
from repro.proofs.stream import DEFAULT_CHUNK_BYTES, DrupStreamReader
from repro.verify.budget import CheckBudget
from repro.verify.instrument import ReportBuilder
from repro.verify.report import (
    PROOF_IS_CORRECT,
    PROOF_IS_NOT_CORRECT,
    RESOURCE_LIMIT_EXCEEDED,
    VerificationStats,
)

#: Default checkpoint cadence, in processed trace events.
DEFAULT_CHECKPOINT_EVERY = 5000


class _BoundaryInterrupt(KeyboardInterrupt):
    """Interrupt re-raised at an event boundary (state is consistent:
    the resume position points just past a fully-applied event)."""


class _InterruptGuard:
    """Defer SIGINT/SIGTERM to event boundaries while checkpointing.

    A checkpoint written mid-event could record the live set with a
    half-applied addition or deletion; on resume the event would replay
    against it (double-counting, or a strict-mode "unknown deletion").
    The guard turns the *first* signal into a flag the event loop
    checks after each event is fully applied; a *second* signal raises
    immediately — an emergency stop stays available if a check hangs.

    Handlers are installed only when ``install`` is true (a run with
    no checkpoint has no state to keep consistent) and only from the
    main thread; otherwise (`installed` False) the caller falls back to
    catching a raw ``KeyboardInterrupt`` with best-effort consistency.
    """

    def __init__(self, install: bool):
        self.install = install
        self.pending: int | None = None
        self.installed = False
        self._previous: dict = {}

    def _handle(self, signum, frame):
        if self.pending is not None:
            raise KeyboardInterrupt
        self.pending = signum

    def __enter__(self):
        import signal

        if not self.install:
            return self
        try:
            for sig in (signal.SIGINT, signal.SIGTERM):
                self._previous[sig] = signal.signal(sig, self._handle)
            self.installed = True
        except ValueError:
            for sig, old in self._previous.items():
                signal.signal(sig, old)
            self._previous = {}
        return self

    def __exit__(self, *exc):
        import signal

        for sig, old in self._previous.items():
            signal.signal(sig, old)
        return False

#: Rebuild the engine once dead (tombstoned) clauses outnumber live
#: ones by this factor...
DEFAULT_WINDOW_SLACK = 2.0
#: ...but never before this many are dead (rebuilds are O(live); tiny
#: windows would thrash).
_MIN_DEAD_FOR_SHIFT = 32

#: Engine bookkeeping charged per live proof-added clause by the
#: ``max_bytes`` estimate, in 32-bit words: two watch-table entries,
#: each a (cid, blocker) pair, on top of the arena's one offset word
#: per clause.  The original estimate counted pool words only and
#: under-reported the real footprint of short clauses by roughly this
#: factor — ``max_bytes`` budgets tripped far later than the RSS they
#: were meant to bound.
ENGINE_OVERHEAD_WORDS_PER_CLAUSE = 4

#: ``mem_estimate_drift`` fires when measured RSS growth since setup
#: exceeds this multiple of the byte estimate...
MEM_DRIFT_FACTOR = 4.0
#: ...and this absolute floor — interpreter noise and allocator slack
#: dwarf small estimates, so tiny windows never alarm.
MEM_DRIFT_FLOOR_BYTES = 32 * 1024 * 1024


@dataclass
class StreamingCheckReport:
    """Outcome of a forward DRUP check (either entry point).

    Counts are cumulative across resume: ``num_additions``/
    ``num_deletions`` include the events the checkpointed prefix
    processed, so a resumed run's report reads as one uninterrupted
    verification.  ``stopped_at_event`` is set on the
    ``resource_limit_exceeded`` partial outcome; ``checkpoint_path``
    names the resume token left on disk (None once a verdict is
    reached — the token is deleted, there is nothing to resume).
    ``stats`` is the shared :class:`~repro.verify.report.
    VerificationStats` breakdown ("checks" are RUP-checked additions).
    """

    outcome: str
    num_additions: int = 0
    num_deletions: int = 0
    failed_event_index: int | None = None
    failure_reason: str | None = None
    peak_live_clauses: int = 0
    live_clauses: int = 0
    verification_time: float = 0.0
    stopped_at_event: int | None = None
    engine: str = "watched"
    window_shifts: int = 0
    checkpoints_written: int = 0
    resumed_from_event: int | None = None
    checkpoint_path: str | None = None
    warnings: list[str] = field(default_factory=list)
    bcp_counters: dict | None = None
    stats: VerificationStats | None = None

    @property
    def ok(self) -> bool:
        return self.outcome == PROOF_IS_CORRECT

    @property
    def exhausted(self) -> bool:
        return self.outcome == RESOURCE_LIMIT_EXCEEDED

    @property
    def peak_active_clauses(self) -> int:
        """The name ``verify-drup`` reports the peak live set under."""
        return self.peak_live_clauses


def formula_digest(formula: CnfFormula) -> str:
    """Content digest of a formula (clause order included), used to
    pin a checkpoint to the formula it was recorded against."""
    hasher = hashlib.sha256()
    hasher.update(f"p cnf {formula.num_vars}\n".encode())
    for clause in formula:
        hasher.update(" ".join(map(str, clause.literals)).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def file_digest(path, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> str:
    """sha256 of a file, read in bounded chunks."""
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_bytes)
            if not chunk:
                break
            hasher.update(chunk)
    return hasher.hexdigest()


def load_checkpoint(path) -> dict:
    """Read and structurally validate a resume token."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON: {exc}") from exc
    problems = validate_checkpoint(doc)
    if problems:
        raise CheckpointError(
            f"checkpoint {path} is invalid: {'; '.join(problems)}")
    return doc


def _fold_counters(total: PropagationCounters,
                   part: PropagationCounters) -> None:
    total.assignments += part.assignments
    total.watch_visits += part.watch_visits
    total.clause_visits += part.clause_visits
    total.purged += part.purged
    total.detach_misses += part.detach_misses


def _clause_key(literals) -> tuple[int, ...]:
    return tuple(sorted(set(literals)))


def _is_live(engine: PropagatorBase, cid: int) -> bool:
    # A tombstone stores no literals; neither does an empty formula
    # clause, which the engine keeps reporting as a standing conflict.
    return bool(engine.clause_len(cid)) or cid == engine.empty_clause_cid


class _ReaderFeed:
    """The chunked reader as the loop's ``(index, event)`` source.

    Remembers the last two events handed out, so the loop can name the
    current event's line and a checkpoint can point just past the last
    fully applied event, without a position record per event.
    """

    def __init__(self, reader: DrupStreamReader):
        self._reader = reader
        self._start = (reader.start_offset, reader.start_line,
                       reader.start_index)
        self.last = None
        self._before_last = None

    def __iter__(self):
        for streamed in self._reader:
            self._before_last = self.last
            self.last = streamed
            yield streamed.index, streamed.event

    def resume_point(self, applied: int) -> tuple[int, int, int]:
        """``(offset, next_line, next_index)`` just past event
        ``applied`` (the reader's start when it is not one of the two
        newest events: nothing was applied since the start)."""
        for streamed in (self.last, self._before_last):
            if streamed is not None and streamed.index == applied:
                return (streamed.offset, streamed.line_number + 1,
                        applied + 1)
        return self._start


def verify_stream(formula: CnfFormula, proof_path, *,
                  budget: CheckBudget | None = None,
                  obs=None,
                  engine_cls: "type[PropagatorBase] | str | None" = None,
                  checkpoint_path=None,
                  checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                  resume: bool = False,
                  lenient_deletions: bool = False,
                  chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                  window_slack: float = DEFAULT_WINDOW_SLACK,
                  ) -> StreamingCheckReport:
    """One-pass bounded-memory forward check of the DRUP file at
    ``proof_path`` (see module docstring for the full contract).

    Interrupts (``KeyboardInterrupt`` — the CLI maps SIGTERM onto it
    too) flush a final checkpoint before propagating, so a killed run
    is resumable; ``resume=True`` requires ``checkpoint_path``.
    """
    engine_cls = resolve_engine(engine_cls)
    if not engine_cls.supports_removal:
        raise ValueError(
            f"engine '{engine_name(engine_cls)}' does not support "
            "clause removal; streaming verification lives on deletion "
            f"events — use one of {', '.join(removal_engines())}")
    if resume and checkpoint_path is None:
        raise ValueError("resume=True requires a checkpoint_path")

    # -- resume-token validation (before any engine work) ------------------
    digests = (formula_digest(formula), file_digest(proof_path,
                                                     chunk_bytes))
    token = None
    start_offset, start_line, start_index = 0, 1, 0
    if resume:
        token = load_checkpoint(checkpoint_path)
        if token["formula_sha256"] != digests[0]:
            raise CheckpointError(
                f"checkpoint {checkpoint_path} was recorded against a "
                "different formula (digest mismatch)")
        if token["proof_sha256"] != digests[1]:
            raise CheckpointError(
                f"checkpoint {checkpoint_path} was recorded against a "
                "different proof file (digest mismatch)")
        start_offset = token["offset"]
        start_line = token["next_line"]
        start_index = token["next_index"]

    feed = _ReaderFeed(DrupStreamReader(
        proof_path, start_offset=start_offset, start_line=start_line,
        start_index=start_index, chunk_bytes=chunk_bytes))
    return forward_check(
        formula, feed, engine_cls=engine_cls, budget=budget, obs=obs,
        window_slack=window_slack,
        unknown_deletion="skip" if lenient_deletions else "error",
        feed=feed, checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every, token=token, digests=digests)


def forward_check(formula: CnfFormula, events, *,
                  engine_cls: type[PropagatorBase],
                  budget: CheckBudget | None = None,
                  obs=None,
                  window_slack: float = DEFAULT_WINDOW_SLACK,
                  unknown_deletion: str,
                  total_events: int = 0,
                  feed: _ReaderFeed | None = None,
                  checkpoint_path=None,
                  checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                  token: dict | None = None,
                  digests: tuple[str, str] | None = None,
                  ) -> StreamingCheckReport:
    """The forward-DRUP event loop behind both entry points.

    ``events`` yields ``(index, DrupEvent)`` pairs in trace order.
    The ``budget`` (if given) is consulted before every event; when it
    runs out the check aborts with ``resource_limit_exceeded`` and
    partial progress instead of a verdict.  ``obs`` attaches the
    optional instrumentation layer (per-addition timing, trace spans,
    progress over ``total_events`` when known).  ``window_slack`` is
    the dead/live ratio that triggers a window shift (``math.inf``:
    never); ``unknown_deletion`` is ``"reject"``, ``"error"`` or
    ``"skip"`` (see module docstring).

    The checkpoint arguments come from :func:`verify_stream`: ``feed``
    is the reader the events come from (for line numbers and resume
    positions), ``token`` a validated resume token to start from and
    ``digests`` the (formula, proof file) sha256 pair a new token
    records.
    """
    build = ReportBuilder(StreamingCheckReport, obs=obs,
                          total_checks=total_events,
                          progress_label="events",
                          engine=engine_name(engine_cls))
    warnings: list[str] = []

    with build.phase("setup", procedure="drup-forward"):
        engine = engine_cls(formula.num_vars)
        units: dict[int, int] = {}   # cid -> encoded literal
        # Clause key -> list of live cids (for deletion lookup).
        active: dict[tuple[int, ...], list[int]] = {}

        def load(literals) -> int:
            """Add a clause; return its stored (deduplicated) length."""
            cid = engine.add_clause([encode(lit) for lit in literals],
                                    propagate_units=False)
            length = engine.clause_len(cid)
            if length == 1:
                units[cid] = engine.clause_lits(cid)[0]
            active.setdefault(_clause_key(literals), []).append(cid)
            return length

        # The formula clauses are the engine's first `num_formula` cids,
        # loaded in formula order: cid's formula index is
        # formula_ids[cid] (an array once some clause is left out).
        formula_ids = range(formula.num_clauses)
        if token is not None and token["deleted_formula_indices"]:
            deleted = set(token["deleted_formula_indices"])
            formula_ids = array("i", (findex for findex in formula_ids
                                      if findex not in deleted))
        for findex in formula_ids:
            load(formula.clauses[findex].literals)
        num_formula = len(formula_ids)

        live_additions = 0       # live proof-added clauses
        live_addition_words = 0  # their literal count (for max_bytes)
        additions = 0
        deletions = 0
        window_shifts = 0
        checkpoints_written = 0
        resumed_from = None
        peak = 0
        if token is not None:
            for lits in token["live_additions"]:
                live_addition_words += load(lits)
                live_additions += 1
            additions = token["additions"]
            deletions = token["deletions"]
            window_shifts = token["window_shifts"]
            resumed_from = token["next_index"]
            peak = token["peak_live_clauses"]
            if obs is not None:
                obs.event("stream_resumed", offset=token["offset"],
                          event_index=resumed_from)
        live = num_formula + live_additions
        loaded = live            # cids allocated in the current engine
        peak = max(peak, live)

        # RSS baseline for the estimate-vs-measured cross-check: any
        # resident growth past this point is attributable to the
        # proof's live set (plus interpreter/allocator noise — hence
        # the drift floor).  Only armed when the run carries a memory
        # sampler; a dead sampler silently disarms it.
        mem_sampler = getattr(obs, "mem", None) \
            if obs is not None else None
        baseline_rss = None
        if mem_sampler is not None:
            baseline_sample = mem_sampler.sample()
            if baseline_sample is not None:
                baseline_rss = baseline_sample["rss_bytes"]

        meter = budget.start(engine.counters) \
            if budget is not None else None
        # Work done before the current engine existed: prior resumed
        # runs, plus engines retired by window shifts.  Kept so budgets
        # and the final counters see one continuous run.
        prior_counters = PropagationCounters()
        if token is not None:
            prior_counters.assignments = token["budget_spent"]["props"]
            if meter is not None:
                # Pre-charge the resumed work against max_props (the
                # wall clock restarts; work units are cumulative).
                meter._base -= token["budget_spent"]["props"]

    counters = engine.counters

    def total_props() -> int:
        # prior_counters already carries resumed + pre-shift work.
        return prior_counters.total_work() + counters.total_work()

    def merged_counters() -> dict:
        merged = PropagationCounters(**prior_counters.as_dict())
        _fold_counters(merged, counters)
        return merged.as_dict()

    def live_bytes() -> int:
        # Engine-agnostic estimate over the *proof-added* live set:
        # one int32 word per literal, one arena offset word per
        # clause, plus the engine's own bookkeeping
        # (ENGINE_OVERHEAD_WORDS_PER_CLAUSE — watch-table entries).
        # The formula is resident in any checker and is not charged
        # to the proof cap.
        return (live_addition_words
                + live_additions
                * (1 + ENGINE_OVERHEAD_WORDS_PER_CLAUSE)) * 4

    def set_live_gauges() -> None:
        obs.gauge_set("repro_stream_live_clauses", live,
                      help="Live clauses (formula + proof) in the "
                           "streaming window")
        obs.gauge_set("repro_stream_live_proof_clauses", live_additions,
                      help="Live proof-added clauses in the streaming "
                           "window")

    # Index of the last fully applied event: a resume token points
    # just past it.
    applied = -1
    run_start = time.perf_counter()

    def write_checkpoint() -> None:
        nonlocal checkpoints_written
        if checkpoint_path is None:
            return
        offset, next_line, next_index = feed.resume_point(applied)
        seconds = time.perf_counter() - run_start
        if token is not None:
            seconds += token["budget_spent"]["seconds"]
        live_formula = {formula_ids[cid] for cid in range(num_formula)
                        if _is_live(engine, cid)}
        doc = {
            "schema": CHECKPOINT_SCHEMA,
            "formula_sha256": digests[0],
            "proof_sha256": digests[1],
            "offset": offset,
            "next_line": next_line,
            "next_index": next_index,
            "additions": additions,
            "deletions": deletions,
            "peak_live_clauses": peak,
            "window_shifts": window_shifts,
            "deleted_formula_indices": [
                findex for findex in range(formula.num_clauses)
                if findex not in live_formula],
            "live_additions": [
                list(decode_clause(engine.clause_lits(cid)))
                for cid in range(num_formula, loaded)
                if engine.clause_len(cid)],
            "budget_spent": {"props": total_props(),
                             "seconds": seconds},
            "engine": engine_name(engine_cls),
        }
        atomic_write_text(checkpoint_path,
                          json.dumps(doc, separators=(",", ":")))
        checkpoints_written += 1
        if obs is not None:
            obs.event("checkpoint_written", offset=offset,
                      event_index=next_index, live_clauses=live)
            obs.counter_add("repro_checkpoints_written_total",
                            help="Streaming resume tokens flushed")

    def discard_checkpoint() -> None:
        # A verdict was reached: the resume token is spent.  Leaving it
        # would invite resuming a *finished* run, which cannot re-derive
        # the verdict (the events past the empty clause were never read).
        if checkpoint_path is not None \
                and (checkpoints_written or token is not None):
            try:
                os.unlink(checkpoint_path)
            except FileNotFoundError:
                pass

    def shift_window() -> None:
        """Rebuild the engine over only the live clauses.

        The rebuild is traced as a ``window_shift`` *span* (not an
        instant event): it is real wall time the timeline must
        account for, and on long streams the shifts show up as the
        critical path's serial segments.
        """
        nonlocal engine, counters, loaded, units, active, meter, \
            window_shifts, num_formula, formula_ids
        window_shifts += 1
        span_cm = (obs.tracer.span("window_shift",
                                   shift=window_shifts)
                   if obs is not None and obs.tracer is not None
                   else None)
        end_attrs = span_cm.__enter__() if span_cm is not None else None
        try:
            _fold_counters(prior_counters, counters)
            if meter is not None:
                meter = meter.rebase(None)
                meter._base = -prior_counters.total_work()
            old = engine
            kept = [cid for cid in range(num_formula)
                    if _is_live(old, cid)]
            if len(kept) < num_formula:
                formula_ids = array("i", (formula_ids[cid]
                                          for cid in kept))
            engine = engine_cls(old.num_vars)
            units = {}
            active = {}
            for cid in kept:
                load(decode_clause(old.clause_lits(cid)))
            for cid in range(num_formula, loaded):
                if old.clause_len(cid):
                    load(decode_clause(old.clause_lits(cid)))
            num_formula = len(kept)
            counters = engine.counters
            loaded = live
        finally:
            if span_cm is not None:
                end_attrs["live_clauses"] = live
                span_cm.__exit__(None, None, None)
        if obs is not None:
            obs.counter_add("repro_stream_window_shifts_total",
                            help="Engine rebuilds over the live window")
            record_arena_gauges(obs, engine)
        # Cross-check the byte *estimate* against *measured* RSS at
        # every shift (the natural cadence: the live set just changed
        # shape).  A large multiple says the max_bytes model no longer
        # tracks reality — surfaced as an event, never a failure.
        if mem_sampler is not None and baseline_rss is not None:
            shift_sample = mem_sampler.sample()
            if shift_sample is not None:
                growth = shift_sample["rss_bytes"] - baseline_rss
                estimate = live_bytes()
                if growth > MEM_DRIFT_FLOOR_BYTES \
                        and growth > MEM_DRIFT_FACTOR \
                        * max(estimate, 1):
                    obs.event("mem_estimate_drift",
                              measured_growth_bytes=growth,
                              estimated_live_bytes=estimate,
                              shift=window_shifts)
                    obs.counter_add(
                        "repro_mem_estimate_drift_total",
                        help="Window shifts where measured RSS growth "
                             "left the max_bytes estimate behind")

    def rup_check(literals) -> bool:
        engine.new_level()
        conflict = False
        for lit in literals:
            negated = encode(lit) ^ 1
            value = engine.value(negated)
            if value == TRUE:
                continue
            if value == FALSE:
                conflict = True
                break
            engine.enqueue(negated, None)
        if not conflict:
            for cid, enc in units.items():
                value = engine.value(enc)
                if value == TRUE:
                    continue
                if value == FALSE:
                    conflict = True
                    break
                engine.enqueue(enc, cid)
        if not conflict:
            conflict = engine.propagate() is not None
        engine.backtrack(0)
        return conflict

    def build_report(outcome: str, **fields) -> StreamingCheckReport:
        # BCP counter totals are published by build() itself (it gets
        # bcp_counters=); only the DRUP-specific metrics live here.
        if obs is not None:
            obs.counter_add("repro_drup_additions_total", additions,
                            help="DRUP additions RUP-checked")
            obs.counter_add("repro_drup_deletions_total", deletions,
                            help="DRUP deletion events honored")
            obs.gauge_set("repro_drup_peak_active_clauses", peak,
                          help="Peak size of the active clause set")
            record_arena_gauges(obs, engine)
        return build.build(
            outcome, bcp_counters=merged_counters(),
            num_additions=additions, num_deletions=deletions,
            peak_live_clauses=peak, live_clauses=live,
            window_shifts=window_shifts,
            checkpoints_written=checkpoints_written,
            resumed_from_event=resumed_from,
            warnings=warnings, **fields)

    def partial(reason: str, index: int) -> StreamingCheckReport:
        if obs is not None:
            obs.event("budget_exhausted", reason=reason)
            obs.counter_add("repro_budget_exhausted_total")
        write_checkpoint()
        return build_report(
            RESOURCE_LIMIT_EXCEEDED, stopped_at_event=index,
            failure_reason=reason,
            checkpoint_path=(str(checkpoint_path)
                             if checkpoint_path is not None else None))

    def verdict(outcome: str, **fields) -> StreamingCheckReport:
        discard_checkpoint()
        return build_report(outcome, **fields)

    derived_empty = False
    events_since_checkpoint = 0
    # The per-event tail (gauges, interrupts, checkpoints, window
    # shifts) has nothing to do in an unobserved in-memory check.
    bookkeeping = obs is not None or checkpoint_path is not None \
        or window_slack < math.inf
    guard = _InterruptGuard(install=checkpoint_path is not None)
    try:
        with guard, build.phase("events"):
            for index, event in events:
                if meter is not None:
                    reason = meter.exhausted(counters)
                    if reason is not None:
                        return partial(reason, index)
                literals = event.literals
                if event.kind == ADD:
                    if meter is not None and literals:
                        reason = meter.exhausted(
                            live_clauses=live_additions + 1,
                            live_bytes=live_bytes()
                            + (len(literals) + 1
                               + ENGINE_OVERHEAD_WORDS_PER_CLAUSE) * 4)
                        if reason is not None:
                            return partial(reason, index)
                    additions += 1
                    if literals:
                        top = max(map(abs, literals))
                        if top > engine.num_vars:
                            engine.ensure_vars(top)
                    if obs is None:
                        passed = rup_check(literals)
                    else:
                        with build.check(index, counters):
                            passed = rup_check(literals)
                    if not passed:
                        return verdict(
                            PROOF_IS_NOT_CORRECT,
                            failed_event_index=index,
                            failure_reason=(
                                f"addition {literals} is not RUP"))
                    if not literals:
                        derived_empty = True
                        break
                    live_addition_words += load(literals)
                    loaded += 1
                    live_additions += 1
                    live += 1
                    if live > peak:
                        peak = live
                else:
                    deletions += 1
                    cids = active.get(_clause_key(literals))
                    if cids:
                        cid = cids.pop()
                        if cid >= num_formula:
                            live_additions -= 1
                            live_addition_words -= engine.clause_len(cid)
                        engine.remove_clause(cid)
                        units.pop(cid, None)
                        live -= 1
                    elif unknown_deletion == "reject":
                        return verdict(
                            PROOF_IS_NOT_CORRECT,
                            failed_event_index=index,
                            failure_reason=(
                                f"deletion of inactive clause "
                                f"{literals}"))
                    elif unknown_deletion == "skip":
                        warnings.append(
                            f"event {index}: skipped deletion of "
                            f"unknown clause {list(literals)}")
                    else:
                        where = (f"line {feed.last.line_number}"
                                 if feed is not None else f"event {index}")
                        raise ProofFormatError(
                            f"{where}: deletion of unknown or "
                            f"already-deleted clause {list(literals)} "
                            "(use lenient deletions to skip)")
                    if build.progress is not None:
                        build.progress.update(additions + deletions)
                if not bookkeeping:
                    continue
                applied = index
                if obs is not None:
                    set_live_gauges()
                if guard.pending is not None:
                    raise _BoundaryInterrupt
                if checkpoint_path is not None:
                    events_since_checkpoint += 1
                    if events_since_checkpoint >= checkpoint_every:
                        write_checkpoint()
                        events_since_checkpoint = 0
                dead = loaded - live
                if dead >= _MIN_DEAD_FOR_SHIFT \
                        and dead > window_slack * (live or 1):
                    shift_window()
    except KeyboardInterrupt as exc:
        # Flush a final resume token before the interrupt propagates
        # (the CLI turns this into exit 130) — but only when the state
        # is consistent: at an event boundary, or in the no-guard
        # fallback (non-main thread) where best effort is all there is.
        # A second, emergency signal mid-event skips the write; the
        # last cadence checkpoint remains the resume point.
        if isinstance(exc, _BoundaryInterrupt) or not guard.installed:
            write_checkpoint()
        raise

    if not derived_empty:
        return verdict(
            PROOF_IS_NOT_CORRECT,
            failure_reason="trace never derives the empty clause")
    return verdict(PROOF_IS_CORRECT)
