"""Tests for the memory telemetry layer (``repro.obs.mem``).

Covers procfs parsing and the getrusage fallback, gauge max-merge
associativity (the algebra the cross-worker peak-RSS aggregation
relies on), sampler fault injection (a dying sampler must never touch
the verdict), the timeline memory section, peak RSS as trend-only
output of the regression gate, and one end-to-end CLI run asserting
that memory data reaches every place that carries it: the trace, the
timeline, the metrics document, the history fingerprint, and the
progress heartbeat.
"""

import json
import re

import pytest

from repro.obs import (
    MemSampler,
    MetricsRegistry,
    Obs,
    Tracer,
    build_timeline,
    check_regression,
    compare_runs,
    format_bytes,
    parse_proc_status,
    read_rss,
    render_timeline_text,
    reset_peak_rss,
)
from repro.obs.mem import (
    MAX_CONSECUTIVE_FAILURES,
    arena_mem_stats,
)

PROC_STATUS = """\
Name:\trepro
Umask:\t0022
VmPeak:\t  123456 kB
VmSize:\t  100000 kB
VmHWM:\t   51200 kB
VmRSS:\t   40960 kB
Threads:\t1
"""


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_reader(rss=1000, peak=2000, source="proc"):
    def reader():
        return (rss, peak, source)
    return reader


# -- RSS sources -----------------------------------------------------------

class TestReadRss:
    def test_parse_proc_status(self):
        parsed = parse_proc_status(PROC_STATUS)
        assert parsed == {"rss_bytes": 40960 * 1024,
                          "peak_rss_bytes": 51200 * 1024}

    def test_parse_tolerates_junk(self):
        assert parse_proc_status("") == {}
        assert parse_proc_status("VmRSS:\n") == {}
        assert parse_proc_status("VmRSS:\tnot-a-number kB\n") == {}
        # A file with only the peak still yields the peak.
        assert parse_proc_status("VmHWM:\t10 kB\n") == {
            "peak_rss_bytes": 10 * 1024}

    def test_proc_source(self, tmp_path):
        status = tmp_path / "status"
        status.write_text(PROC_STATUS)
        reading = read_rss(proc_status_path=str(status))
        assert reading == (40960 * 1024, 51200 * 1024, "proc")

    def test_getrusage_fallback(self, tmp_path):
        reading = read_rss(
            proc_status_path=str(tmp_path / "does-not-exist"))
        assert reading is not None
        rss, peak, source = reading
        assert source == "getrusage"
        assert rss == peak > 0

    def test_total_failure_returns_none(self, tmp_path, monkeypatch):
        import resource

        def boom(who):
            raise OSError("injected")
        monkeypatch.setattr(resource, "getrusage", boom)
        assert read_rss(
            proc_status_path=str(tmp_path / "missing")) is None

    def test_reset_peak_rss_unsupported_path(self, tmp_path):
        assert reset_peak_rss(
            clear_refs_path=str(tmp_path / "no" / "clear_refs")) \
            is False


# -- gauge algebra ---------------------------------------------------------

class TestGaugeMaxMerge:
    """Cross-worker peak aggregation rests on max-merge being
    associative and commutative; pin it down."""

    def _registry_with(self, value):
        registry = MetricsRegistry()
        registry.gauge("repro_mem_peak_rss_bytes").set(value)
        return registry

    def test_merge_orders_agree(self):
        values = (300, 100, 200)
        left = self._registry_with(values[0])
        left.merge(self._registry_with(values[1]).snapshot())
        left.merge(self._registry_with(values[2]).snapshot())

        right = self._registry_with(values[2])
        right.merge(self._registry_with(values[0]).snapshot())
        right.merge(self._registry_with(values[1]).snapshot())

        entry_l = left.snapshot()["repro_mem_peak_rss_bytes"]
        entry_r = right.snapshot()["repro_mem_peak_rss_bytes"]
        assert entry_l["value"]["max"] == entry_r["value"]["max"] == 300

    def test_max_survives_lower_set(self):
        registry = self._registry_with(500)
        registry.gauge("repro_mem_peak_rss_bytes").set(50)
        entry = registry.snapshot()["repro_mem_peak_rss_bytes"]
        assert entry["value"]["value"] == 50
        assert entry["value"]["max"] == 500


# -- the sampler -----------------------------------------------------------

class TestMemSampler:
    def test_sample_publishes_everywhere(self):
        clock = FakeClock()
        metrics = MetricsRegistry()
        tracer = Tracer(run_id="r", clock=clock, epoch=0.0)
        sampler = MemSampler(metrics=metrics, tracer=tracer,
                             reader=make_reader(rss=1111, peak=2222),
                             wall=clock)
        with tracer.span("verify"):
            entry = sampler.sample()
        assert entry == {"ts": 0.0, "rss_bytes": 1111,
                         "peak_rss_bytes": 2222}
        assert sampler.peak_rss_bytes == 2222
        assert sampler.rss_bytes == 1111
        assert sampler.source == "proc"
        snap = metrics.snapshot()
        assert snap["repro_mem_rss_bytes"]["value"]["value"] == 1111
        assert snap["repro_mem_peak_rss_bytes"]["value"]["max"] == 2222
        events = [e for e in tracer.events if e["type"] == "event"]
        assert events and events[0]["name"] == "mem_sample"
        assert events[0]["attrs"]["rss_bytes"] == 1111

    def test_death_after_consecutive_failures(self):
        calls = []

        def failing_reader():
            calls.append(1)
            raise OSError("injected procfs failure")

        sampler = MemSampler(reader=failing_reader)
        for _ in range(MAX_CONSECUTIVE_FAILURES):
            assert sampler.sample() is None
        assert sampler.dead
        assert sampler.failures == MAX_CONSECUTIVE_FAILURES
        # Dead means quiet: no further reader calls.
        assert sampler.sample() is None
        assert len(calls) == MAX_CONSECUTIVE_FAILURES
        summary = sampler.summary()
        assert summary["sampler_dead"] is True
        assert summary["num_samples"] == 0

    def test_success_resets_failure_streak(self):
        readings = iter([None] * (MAX_CONSECUTIVE_FAILURES - 1)
                        + [(10, 20, "fake")] + [None] * 3)
        sampler = MemSampler(reader=lambda: next(readings))
        for _ in range(MAX_CONSECUTIVE_FAILURES + 3):
            sampler.sample()
        assert not sampler.dead

    def test_sample_counter_counts_every_reading(self):
        """The sampler keeps a count, not a buffer: memory stays
        constant however long the run, and failed reads don't count."""
        readings = iter([(10, 20, "fake")] * 5000 + [None])
        sampler = MemSampler(reader=lambda: next(readings))
        for _ in range(5001):
            sampler.sample()
        assert sampler.samples == 5000
        assert sampler.summary()["num_samples"] == 5000

    def test_dead_sampler_never_affects_verdict(self):
        """Fault injection: an instrumented run whose sampler dies
        (unreadable RSS source) must verify exactly as if memory
        telemetry were absent."""
        from repro.benchgen.php import pigeonhole
        from repro.proofs.conflict_clause import ConflictClauseProof
        from repro.solver.cdcl import solve
        from repro.verify.verification import verify_proof_v1

        formula = pigeonhole(4)
        result = solve(formula)
        assert result.is_unsat
        proof = ConflictClauseProof.from_log(result.log)

        def failing_reader():
            raise OSError("injected")

        sampler = MemSampler(reader=failing_reader)
        obs = Obs(metrics=MetricsRegistry(), mem=sampler)
        sampler.sample()  # pre-run beat, already failing
        report = verify_proof_v1(formula, proof, obs=obs)
        sampler.sample()
        assert report.ok
        summary = sampler.summary()
        assert summary["sampler_failures"] > 0
        assert summary["num_samples"] == 0
        assert summary["peak_rss_bytes"] is None


@pytest.mark.parametrize("value,text", [
    (None, "-"), (0, "-"), (512, "512B"), (1536, "1.5K"),
    (27 * 1024 * 1024, "27.0M"), (3 * 1024 ** 5, "3072.0T")])
def test_format_bytes(value, text):
    assert format_bytes(value) == text


# -- arena gauges ----------------------------------------------------------

class TestArenaStats:
    def test_arena_engine_reports(self):
        from repro.bcp.arena import ArenaPropagator
        from repro.core.literals import encode

        engine = ArenaPropagator(3)
        cid = engine.add_clause([encode(1), encode(2), encode(3)],
                                propagate_units=False)
        stats = arena_mem_stats(engine)
        assert stats is not None
        assert stats["pool_bytes"] > 0
        assert stats["live_clauses"] == 1
        # Two watched literals, each holding a (cid, blocker) pair.
        assert stats["watch_entries"] == 4
        assert stats["fragmentation"] == 0.0
        engine.remove_clause(cid)
        after = arena_mem_stats(engine)
        assert after["live_clauses"] == 0
        assert after["fragmentation"] > 0.0

    def test_marking_keeps_watch_entries(self):
        # mark_core moves entries into the marked table; the gauge
        # counts both tables, so it must not move.
        from repro.bcp.arena import ArenaPropagator
        from repro.core.literals import encode

        engine = ArenaPropagator(4)
        cids = [engine.add_clause([encode(lit) for lit in lits],
                                  propagate_units=False)
                for lits in ([1, 2, 3], [-1, 4], [2, -3, -4], [1, 3])]
        before = arena_mem_stats(engine)
        for cid in cids[:3]:
            engine.mark_core(cid)
        after = arena_mem_stats(engine)
        assert sum(map(len, engine.core_cids)) == 6
        assert after["watch_entries"] == before["watch_entries"] == 16
        assert after["watch_bytes"] == before["watch_bytes"]

    def test_non_arena_engine_is_none(self):
        from repro.bcp.watched import WatchedPropagator

        assert arena_mem_stats(WatchedPropagator(2)) is None


# -- timeline memory lane --------------------------------------------------

class TestTimelineMemory:
    def _trace_with_samples(self):
        clock = FakeClock()
        tracer = Tracer(run_id="main", clock=clock, epoch=0.0)
        sampler = MemSampler(tracer=tracer, wall=clock,
                             reader=make_reader(rss=100, peak=150))
        with tracer.span("verify"):
            clock.now = 1.0
            sampler.sample()
            clock.now = 2.0
            sampler.sample()
            clock.now = 3.0
        return tracer.events

    def test_memory_section_built(self):
        doc = build_timeline(self._trace_with_samples())
        memory = doc["memory"]
        assert memory is not None
        assert [s["ts"] for s in memory["samples"]] == [1.0, 2.0]
        assert memory["peak_rss_bytes"] == 150

    def test_no_samples_no_section(self):
        clock = FakeClock()
        tracer = Tracer(run_id="main", clock=clock, epoch=0.0)
        with tracer.span("verify"):
            clock.now = 1.0
        doc = build_timeline(tracer.events)
        assert doc["memory"] is None
        # And the renderer skips the lane without complaint.
        assert "memory" not in render_timeline_text(doc)

    def test_shard_peaks_fold_into_run_peak(self):
        """Per-shard peak_rss end-attrs from pool workers raise the
        run-wide peak even when they exceed every parent sample."""
        clock = FakeClock()
        tracer = Tracer(run_id="main", clock=clock, epoch=0.0)
        sampler = MemSampler(tracer=tracer, wall=clock,
                             reader=make_reader(rss=100, peak=150))
        with tracer.span("verify"):
            with tracer.span("pool"):
                worker = Tracer(run_id="w", clock=clock, epoch=0.0)
                clock.now = 0.5
                with worker.span("shard", lo=0, hi=4, pid=7):
                    clock.now = 1.0
                worker.events[-1]["attrs"].update(
                    checks=4, wall=0.5, peak_rss=9000)
                tracer.replay(worker.events)
                clock.now = 1.5
                sampler.sample()
            clock.now = 2.0
        doc = build_timeline(tracer.events)
        assert doc["memory"]["peak_rss_bytes"] == 9000
        text = render_timeline_text(doc)
        assert "memory" in text
        assert "rss=" in text


# -- the regression gate ---------------------------------------------------

class TestPeakRssGate:
    """Peak RSS is trend-only: it is compared, never gated."""

    def _fingerprint(self, peak):
        record = {"outcome": "correct", "command": "verify",
                  "jobs": 1, "checks": 10, "props": 100,
                  "wall_time": 1.0}
        if peak is not None:
            record["memory"] = {"peak_rss_bytes": peak}
        return record

    def test_growth_is_a_worse_trend_row(self):
        base = self._fingerprint(100_000_000)
        grown = self._fingerprint(140_000_000)
        rows = {row["metric"]: row for row in compare_runs(base, grown)}
        row = rows["memory:peak_rss_bytes"]
        assert row["delta_pct"] == pytest.approx(40.0)
        assert row["worse"] is True
        assert check_regression(base, grown) == []

    @pytest.mark.parametrize("baseline_peak,current_peak",
                             [(None, 140_000_000),
                              (100_000_000, None),
                              (None, None)])
    def test_missing_memory_skips_gate(self, baseline_peak,
                                       current_peak):
        """An unmeasured run gates exactly like a measured one."""
        assert check_regression(
            self._fingerprint(baseline_peak),
            self._fingerprint(current_peak)) == []

    def test_gate_off_by_default(self):
        assert check_regression(
            self._fingerprint(100), self._fingerprint(100_000)) == []


# -- end to end: every home of the memory data -----------------------------

class TestMemoryHomes:
    """One pooled arena run with a fast background sampler: the
    samples, peaks and arena accounting must land in every artifact
    that carries memory data."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        from repro.benchgen.php import pigeonhole
        from repro.cli import main
        from repro.core.dimacs import write_dimacs

        root = tmp_path_factory.mktemp("memhomes")
        cnf, proof = root / "php6.cnf", root / "php6.ccp"
        write_dimacs(pigeonhole(6), cnf)
        assert main(["solve", str(cnf), "--proof", str(proof)]) == 20
        paths = {"metrics": root / "m.json", "trace": root / "t.jsonl",
                 "history": root / "hist", "cnf": cnf, "proof": proof}
        assert main(["verify", str(cnf), str(proof),
                     "--engine", "arena", "--procedure", "verification1",
                     "--jobs", "2",
                     "--metrics-out", str(paths["metrics"]),
                     "--trace-out", str(paths["trace"]),
                     "--mem-sample-period", "0.01",
                     "--history-dir", str(paths["history"])]) == 0
        return paths

    def test_trace_carries_samples(self, run):
        from repro.obs import read_jsonl

        samples = [event["attrs"] for event in read_jsonl(run["trace"])
                   if event.get("name") == "mem_sample"]
        assert len(samples) >= 2
        for attrs in samples:
            assert {"rss_bytes", "peak_rss_bytes", "source"} <= set(attrs)

    def test_timeline_memory_lane(self, run):
        from repro.obs import read_jsonl

        doc = build_timeline(read_jsonl(run["trace"]))
        assert doc["memory"]["peak_rss_bytes"] > 0

    def test_metrics_gauges(self, run):
        metrics = json.loads(run["metrics"].read_text())["metrics"]
        for name in ("repro_mem_peak_rss_bytes",
                     "repro_mem_arena_pool_bytes"):
            assert metrics[name]["kind"] == "gauge"
            assert metrics[name]["value"]["max"] > 0

    def test_history_memory_section(self, run):
        from repro.obs import HistoryStore

        (record,) = HistoryStore(str(run["history"])).read()
        memory = record["memory"]
        assert memory["peak_rss_bytes"] > 0
        assert memory["arena_peak_bytes"] > 0

    def test_live_view_rss_columns(self, run, capsys):
        """The live view is the progress heartbeat: every
        ``c progress:`` line ends with the beat's RSS reading."""
        from repro.cli import main

        capsys.readouterr()
        assert main(["verify", str(run["cnf"]), str(run["proof"]),
                     "--engine", "arena", "--progress",
                     "--no-history"]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("c progress:")]
        assert lines
        for line in lines:
            assert re.search(r", rss \d+\.\dM$", line), line
