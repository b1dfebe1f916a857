"""Fault tolerance of the parallel verification1 backend.

Worker death (simulated with a hard ``os._exit``, as an OOM kill would
look) must never wedge a run or change its verdict: lost shards are
retried once on a fresh pool, then fall back to in-process sequential
checking, each step leaving a trace in the report's ``warnings`` /
``worker_failures``.
"""

import pytest

from repro.benchgen.registry import pigeonhole
from repro.proofs.conflict_clause import ConflictClauseProof
from repro.solver.cdcl import solve
from repro.verify import RESOURCE_LIMIT_EXCEEDED, CheckBudget
from repro.verify import parallel
from repro.verify.parallel import (
    clear_faults,
    install_fault,
    make_shards,
    planned_shards,
    run_sharded_v1,
)
from repro.verify.verification import verify_proof_v1


def _shards(formula, proof, mode="incremental", jobs=4):
    """The bounds the run under test will execute (the planner's
    partition — faults are keyed by exact shard bounds)."""
    return list(planned_shards(formula, proof, jobs, mode=mode).shards)


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    clear_faults()


@pytest.fixture(scope="module")
def instance():
    formula = pigeonhole(5)
    result = solve(formula, reduce_base=20, reduce_growth=10)
    assert result.is_unsat
    return formula, ConflictClauseProof.from_log(result.log)


@pytest.fixture(scope="module")
def bad_instance(instance):
    """The same proof with a unit over a fresh variable injected at
    position 0: F alone cannot derive it by BCP, so verification1 must
    fail exactly there (every genuine check still passes — its prefix
    only gained a clause)."""
    formula, proof = instance
    fresh = max(formula.num_vars, proof.max_var()) + 1
    clauses = [(fresh,)] + list(proof.clauses)
    return formula, ConflictClauseProof(clauses)


class TestShards:
    @pytest.mark.parametrize("num_indices,jobs",
                             [(1, 1), (7, 4), (100, 4), (3, 8)])
    def test_cover_exactly_once(self, num_indices, jobs):
        shards = make_shards(num_indices, jobs)
        seen = [index for lo, hi in shards for index in range(lo, hi)]
        assert sorted(seen) == list(range(num_indices))
        assert len(seen) == len(set(seen))

    def test_empty(self):
        assert make_shards(0, 4) == []


class TestWorkerDeath:
    def test_retry_recovers(self, instance):
        formula, proof = instance
        shards = _shards(formula, proof)
        install_fault(shards[0], deaths=1)
        report = verify_proof_v1(formula, proof, jobs=4,
                                 mode="incremental")
        assert report.ok
        assert report.num_checked == len(proof)
        assert report.worker_failures >= 1
        assert any("retrying" in w for w in report.warnings)

    def test_repeated_death_degrades_in_process(self, instance):
        formula, proof = instance
        shards = _shards(formula, proof)
        install_fault(shards[0], deaths=2)
        report = verify_proof_v1(formula, proof, jobs=4,
                                 mode="incremental")
        assert report.ok
        assert report.num_checked == len(proof)
        assert any("degraded" in w for w in report.warnings)

    def test_verdict_matches_sequential_on_bad_proof(self, bad_instance):
        formula, proof = bad_instance
        sequential = verify_proof_v1(formula, proof, jobs=1)
        assert not sequential.ok
        shards = _shards(formula, proof, mode="rebuild")
        install_fault(shards[-1], deaths=2)
        parallel_report = verify_proof_v1(formula, proof, jobs=4)
        assert not parallel_report.ok
        assert (parallel_report.failed_clause_index
                == sequential.failed_clause_index)


    def test_death_during_submission_keeps_verdict(self, bad_instance,
                                                  monkeypatch):
        """A worker that dies while the parent is still submitting makes
        ``submit`` raise ``BrokenProcessPool``: the run records the
        failure and leaves the unsubmitted shards to the retry pool."""
        from concurrent.futures.process import BrokenProcessPool

        formula, proof = bad_instance
        sequential = verify_proof_v1(formula, proof, jobs=1)
        submits = []

        class BreaksOnSecondSubmit(parallel.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submits.append(args)
                if len(submits) == 2:
                    raise BrokenProcessPool("worker died mid-submit")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor",
                            BreaksOnSecondSubmit)
        report = verify_proof_v1(formula, proof, jobs=4)
        assert report.worker_failures == 1
        assert any("retrying" in w for w in report.warnings)
        assert not report.ok
        assert report.failed_clause_index \
            == sequential.failed_clause_index
        assert report.num_checked >= sequential.num_checked


class TestDegradedPlatform:
    def test_spawn_runs_requested_engine(self, instance, monkeypatch):
        """A fork-less platform spawns its workers, which run the
        engine that was asked for: the report names it, carries no
        warning, and matches the fork run's verdict and check count."""
        import multiprocessing

        if not {"fork", "spawn"} <= set(
                multiprocessing.get_all_start_methods()):
            pytest.skip("needs both fork and spawn")
        formula, proof = instance
        forked = verify_proof_v1(formula, proof, "watched", jobs=2)
        monkeypatch.setattr(parallel, "get_all_start_methods",
                            lambda: ["spawn"])
        spawned = verify_proof_v1(formula, proof, "watched", jobs=2)
        assert spawned.engine == forked.engine == "watched"
        assert spawned.warnings == ()
        assert spawned.ok == forked.ok
        assert spawned.num_checked == forked.num_checked == len(proof)

    def test_no_start_method_degrades_sequential(self, instance,
                                                 monkeypatch):
        """Only a platform with *no* start method at all degrades to
        the in-process sequential fallback (with a loud warning)."""
        from repro.bcp.watched import WatchedPropagator

        formula, proof = instance
        monkeypatch.setattr(parallel, "get_all_start_methods",
                            lambda: [])
        run = run_sharded_v1(formula, proof, WatchedPropagator,
                             "backward", "incremental", 4)
        assert run.failed_index is None
        assert run.num_checked == len(proof)
        assert any("parallel backend unavailable" in w
                   for w in run.warnings)

    def test_forced_start_method_must_exist(self, instance, monkeypatch):
        from repro.bcp.watched import WatchedPropagator

        formula, proof = instance
        monkeypatch.setattr(parallel, "get_all_start_methods",
                            lambda: ["fork"])
        with pytest.raises(ValueError, match="not available"):
            run_sharded_v1(formula, proof, WatchedPropagator,
                           "backward", "incremental", 2,
                           start_method="spawn")


class TestParallelBudget:
    def test_deadline_yields_clean_partial_report(self, instance):
        formula, proof = instance
        report = verify_proof_v1(formula, proof, jobs=4,
                                 budget=CheckBudget(timeout=1e-6))
        assert report.outcome == RESOURCE_LIMIT_EXCEEDED
        assert not report.ok
        assert report.num_checked <= len(proof)
        assert report.failure_reason

    def test_props_budget_with_worker_death(self, instance):
        """Budget exhaustion and fault recovery compose: the run still
        ends in a well-formed partial report."""
        formula, proof = instance
        shards = _shards(formula, proof, mode="rebuild")
        install_fault(shards[0], deaths=1)
        report = verify_proof_v1(formula, proof, jobs=4,
                                 budget=CheckBudget(max_props=50))
        assert report.outcome in (RESOURCE_LIMIT_EXCEEDED,
                                  "proof_is_correct")
        assert report.num_checked <= len(proof)


class TestTraceReplayUnderFaults:
    """Shard retry and in-process degradation must leave the merged
    trace duplicate- and orphan-free: exactly one shard span per shard
    bound in the reconstructed timeline."""

    def _timeline(self, formula, proof, jobs=4):
        import io

        from repro.obs import (
            MetricsRegistry,
            Obs,
            Tracer,
            build_timeline,
            read_jsonl,
            validate_trace,
        )
        obs = Obs(metrics=MetricsRegistry(), tracer=Tracer())
        report = verify_proof_v1(formula, proof, jobs=jobs,
                                 mode="incremental", obs=obs)
        buf = io.StringIO()
        obs.tracer.write_jsonl(buf)
        events = read_jsonl(io.StringIO(buf.getvalue()))
        assert validate_trace(events) == []
        return report, build_timeline(events)

    def _assert_one_span_per_shard(self, doc, expected_shards):
        shard_spans = [s for s in doc["spans"]
                       if s["name"] == "shard"]
        bounds = sorted((s["attrs"]["lo"], s["attrs"]["hi"])
                        for s in shard_spans)
        assert bounds == sorted(expected_shards)
        assert len(bounds) == len(set(bounds))
        assert doc["dropped"]["orphans"] == 0
        assert doc["dropped"]["open"] == 0
        # Every shard span sits on a worker lane with cost attrs.
        for span in shard_spans:
            assert span["worker"].startswith("worker-")
            assert span["attrs"]["checks"] == (span["attrs"]["hi"]
                                               - span["attrs"]["lo"])
            assert span["attrs"]["props"] >= 0

    def test_retried_shard_yields_single_span(self, instance):
        formula, proof = instance
        shards = _shards(formula, proof)
        install_fault(shards[0], deaths=1)
        report, doc = self._timeline(formula, proof)
        assert report.ok
        assert report.worker_failures >= 1
        self._assert_one_span_per_shard(doc, shards)
        # Dedup happened at absorb time or merge time — either way
        # nothing duplicated survives and attribution is complete.
        assert len(doc["attribution"]["shards"]) == len(shards)
        assert doc["utilization"] is not None

    def test_degraded_shard_attempt_attr_and_single_span(
            self, instance):
        formula, proof = instance
        shards = _shards(formula, proof)
        install_fault(shards[0], deaths=2)
        report, doc = self._timeline(formula, proof)
        assert report.ok
        assert any("degraded" in w for w in report.warnings)
        self._assert_one_span_per_shard(doc, shards)
        degraded = next(s for s in doc["spans"]
                        if s["name"] == "shard"
                        and tuple(s["attrs"]["shard"]) == shards[0])
        assert degraded["attrs"]["attempt"] == 2

    def test_clean_run_attempt_zero_everywhere(self, instance):
        formula, proof = instance
        shards = _shards(formula, proof)
        report, doc = self._timeline(formula, proof)
        assert report.ok
        self._assert_one_span_per_shard(doc, shards)
        assert all(s["attrs"]["attempt"] == 0
                   for s in doc["spans"] if s["name"] == "shard")
        assert doc["dropped"]["duplicates"] == 0


class TestSpawnTraceRebasing:
    def test_spawn_run_yields_coherent_timeline(self, instance,
                                                monkeypatch):
        """Under the spawn start method the workers rebase onto
        the parent's time axis (see ``repro.obs.spans.rebase_epoch``):
        shard spans must land *inside* the parent's pool span, carry
        the parent's trace id, and build a valid timeline — the
        regression this guards is worker timestamps on an unrelated
        monotonic origin."""
        import multiprocessing

        from repro.obs import MetricsRegistry, Obs, Tracer, \
            build_timeline, validate_timeline

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no spawn start method")
        monkeypatch.setattr(parallel, "get_all_start_methods",
                            lambda: ["spawn"])
        formula, proof = instance
        obs = Obs(metrics=MetricsRegistry(), tracer=Tracer())
        report = verify_proof_v1(formula, proof, jobs=2,
                                 mode="incremental", obs=obs)
        assert report.ok
        assert all(e["trace"] == obs.tracer.trace_id
                   for e in obs.tracer.events)
        doc = build_timeline(obs.tracer.events)
        assert validate_timeline(doc) == []
        pool = next(s for s in doc["spans"] if s["name"] == "pool")
        shard_spans = [s for s in doc["spans"]
                       if s["name"] == "shard"]
        assert shard_spans
        slack = 2.0  # wall-anchor rebase is wall-read accurate
        for span in shard_spans:
            assert span["begin"] >= pool["begin"] - slack
            assert span["end"] <= pool["end"] + slack
        assert doc["utilization"] is not None
        assert doc["dropped"]["orphans"] == 0


@pytest.fixture(scope="module")
def mid_failure(instance):
    """The proof with a fresh-variable unit injected half way: every
    other check still passes, so the first failure a backward scan
    meets is exactly the injected index, with shards above and below
    it."""
    formula, proof = instance
    fresh = max(formula.num_vars, proof.max_var()) + 1
    clauses = list(proof.clauses)
    middle = len(clauses) // 2
    clauses.insert(middle, (fresh,))
    return formula, ConflictClauseProof(clauses), middle


class TestRetirementInPool:
    """Backward incremental workers retire clauses above each shard:
    the pool's watch work stays near the sequential pass's, and
    verdicts and failure indices stay those of ``--jobs 1``."""

    @pytest.mark.parametrize("engine,start_method", [
        ("watched", "fork"), ("arena", "fork"), ("arena", "spawn"),
        ("watched", "spawn")])
    def test_pooled_watch_visits_near_sequential(self, instance, engine,
                                                 start_method):
        import multiprocessing

        from repro.bcp import resolve_engine

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"platform has no {start_method} start method")
        formula, proof = instance
        engine_cls = resolve_engine(engine)
        sequential = verify_proof_v1(formula, proof, engine_cls,
                                     mode="incremental")
        run = run_sharded_v1(formula, proof, engine_cls, "backward",
                             "incremental", 2, start_method=start_method)
        assert run.failed_index is None
        assert run.num_checked == sequential.num_checked == len(proof)
        assert run.counters["purged"] > 0
        assert (run.counters["watch_visits"]
                <= 1.25 * sequential.bcp_counters["watch_visits"])

    @pytest.mark.parametrize("ascending", [True, False])
    @pytest.mark.parametrize("engine", ["watched", "arena"])
    def test_shards_out_of_order_rebuild_the_checker(
            self, mid_failure, monkeypatch, engine, ascending):
        """One worker (here: in process) handed its shards in ascending
        order rebuilds its checker for every shard after the first
        instead of raising; in descending order it never does.  Either
        way the reduced verdict is the sequential one."""
        from repro.bcp import resolve_engine

        formula, proof, middle = mid_failure
        monkeypatch.setattr(parallel, "_SHARED", {})
        parallel._init_worker({
            "formula": formula, "proof": proof,
            "engine_cls": resolve_engine(engine), "order": "backward",
            "mode": "incremental", "retire": True})
        shards = planned_shards(formula, proof, 2).scan_order(
            "forward" if ascending else "backward")
        results = {shard: parallel._shard_worker(shard, 0)
                   for shard in shards}
        rebuilds = [results[s].rebuilt for s in shards]
        assert rebuilds == [False] + [ascending] * (len(shards) - 1)
        assert sum(r.counter_delta["purged"]
                   for r in results.values()) > 0
        run = parallel._reduce(results, "backward", 0, [])
        sequential = verify_proof_v1(formula, proof, mode="incremental")
        assert run.failed_index == sequential.failed_clause_index \
            == middle

    def test_degraded_fallback_retires(self, mid_failure, monkeypatch):
        from repro.bcp.watched import WatchedPropagator

        formula, proof, middle = mid_failure
        monkeypatch.setattr(parallel, "get_all_start_methods",
                            lambda: [])
        run = run_sharded_v1(formula, proof, WatchedPropagator,
                             "backward", "incremental", 4)
        assert run.failed_index == middle
        assert run.counters["purged"] > 0

    def test_forward_order_unchanged(self, mid_failure):
        """Forward passes raise the ceiling, so their workers keep
        ``retire=False``: nothing is purged and the failure index is
        the sequential forward scan's."""
        from repro.bcp.watched import WatchedPropagator
        from repro.obs import MetricsRegistry, Obs, Tracer

        formula, proof, middle = mid_failure
        sequential = verify_proof_v1(formula, proof, order="forward",
                                     mode="incremental")
        obs = Obs(metrics=MetricsRegistry(), tracer=Tracer())
        run = run_sharded_v1(formula, proof, WatchedPropagator,
                             "forward", "incremental", 2, obs=obs)
        assert run.failed_index == sequential.failed_clause_index \
            == middle
        assert run.counters["purged"] == 0
        plan_event = next(e for e in obs.tracer.events
                          if e.get("name") == "shard_plan")
        first = _shards(formula, proof, jobs=2)[0]
        assert plan_event["attrs"]["first_dispatched"] == list(first)

    @pytest.mark.parametrize("deaths", [1, 2])
    @pytest.mark.parametrize("position", [0, "middle", -1])
    def test_worker_death_keeps_failure_index(self, mid_failure,
                                              position, deaths):
        formula, proof, middle = mid_failure
        shards = _shards(formula, proof)
        if position == "middle":
            shard = next(s for s in shards if s[0] <= middle < s[1])
        else:
            shard = shards[position]
        install_fault(shard, deaths=deaths)
        sequential = verify_proof_v1(formula, proof, mode="incremental")
        report = verify_proof_v1(formula, proof, jobs=4,
                                 mode="incremental")
        assert report.worker_failures >= 1
        assert not report.ok
        assert report.failed_clause_index \
            == sequential.failed_clause_index == middle


class TestPoolShutdown:
    def test_no_manager_thread_outlives_the_run(self, instance):
        """A run whose futures were all collected joins its pool: no
        executor manager thread is left to race interpreter exit."""
        import threading
        from concurrent.futures.process import _ExecutorManagerThread

        from repro.bcp.watched import WatchedPropagator

        formula, proof = instance
        run = run_sharded_v1(formula, proof, WatchedPropagator,
                             "backward", "incremental", 2)
        assert run.failed_index is None
        assert not [t for t in threading.enumerate()
                    if isinstance(t, _ExecutorManagerThread)
                    and t.is_alive()]
