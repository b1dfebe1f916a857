"""Tests for the run-history store, comparison, and regression gate."""

import json

import pytest

from repro.core.formula import CnfFormula
from repro.obs import (
    HistoryStore,
    Obs,
    check_regression,
    compare_runs,
    fingerprint,
)
from repro.obs.insight.analytics import analyze_proof_shape
from repro.obs.insight.history import (
    RUN_SCHEMA,
    format_compare_table,
    format_history,
    load_fingerprint,
)
from repro.proofs.conflict_clause import (
    ENDING_FINAL_PAIR,
    ConflictClauseProof,
)
from repro.verify.verification import verify_proof_v2

PAPER_F = CnfFormula([[1, 2], [1, -2], [-1, 3], [-1, -3], [4, 5]])
PAPER_PROOF = ConflictClauseProof([(1,), (-1,)], ENDING_FINAL_PAIR)


def real_fingerprint(run_id="r-test-1", with_analytics=False):
    obs = Obs.enabled(depgraph=with_analytics)
    report = verify_proof_v2(PAPER_F, PAPER_PROOF, obs=obs)
    assert report.ok
    analytics = (analyze_proof_shape(PAPER_PROOF, report, obs.depgraph)
                 if with_analytics else None)
    return fingerprint(report, run_id=run_id, command="verify",
                       instance="paper.cnf", analytics=analytics)


def synthetic(run_id, wall, props_per_sec, outcome="proof_is_correct",
              phase_times=None):
    return {"schema": RUN_SCHEMA, "id": run_id, "utc": "2026-01-01",
            "command": "verify", "instance": "x.cnf",
            "outcome": outcome, "procedure": "verification2",
            "mode": "rebuild", "jobs": 1, "wall_time": wall,
            "checks": 100, "props": int(wall * props_per_sec),
            "props_per_sec": props_per_sec,
            "checks_per_sec": 100 / wall,
            "phase_times": phase_times or {}, "analytics": None}


class TestFingerprint:
    def test_from_real_report(self):
        record = real_fingerprint()
        assert record["schema"] == RUN_SCHEMA
        assert record["outcome"] == "proof_is_correct"
        assert record["procedure"] == "verification2"
        assert record["checks"] == 2
        assert record["wall_time"] >= 0
        assert record["analytics"] is None

    def test_analytics_subset(self):
        record = real_fingerprint(with_analytics=True)
        shape = record["analytics"]
        assert shape["local_clauses"] == 2
        assert shape["core_size"] == 4
        assert "check_props" not in shape  # only the compact subset

    def test_json_round_trip(self):
        record = real_fingerprint()
        assert json.loads(json.dumps(record)) == record


class TestHistoryStore:
    def test_append_and_read(self, tmp_path):
        store = HistoryStore(str(tmp_path / ".repro"))
        store.append(synthetic("r-a", 1.0, 1000.0))
        store.append(synthetic("r-b", 2.0, 900.0))
        records = store.read()
        assert [record["id"] for record in records] == ["r-a", "r-b"]

    def test_read_skips_torn_tail_and_foreign_lines(self, tmp_path):
        store = HistoryStore(str(tmp_path / ".repro"))
        store.append(synthetic("r-a", 1.0, 1000.0))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "other/v1"}\n')
            handle.write('{"schema": "repro.obs.run/v1", "id": "torn')
        records = store.read()
        assert [record["id"] for record in records] == ["r-a"]

    def test_select_by_index_and_prefix(self, tmp_path):
        store = HistoryStore(str(tmp_path / ".repro"))
        store.append(synthetic("alpha-1", 1.0, 1000.0))
        store.append(synthetic("beta-2", 2.0, 900.0))
        assert store.select("0")["id"] == "alpha-1"
        assert store.select("-1")["id"] == "beta-2"
        assert store.select("beta")["id"] == "beta-2"

    def test_select_errors(self, tmp_path):
        store = HistoryStore(str(tmp_path / ".repro"))
        with pytest.raises(LookupError, match="empty"):
            store.select("-1")
        store.append(synthetic("run-a", 1.0, 1000.0))
        store.append(synthetic("run-b", 2.0, 900.0))
        with pytest.raises(LookupError, match="out of range"):
            store.select("7")
        with pytest.raises(LookupError, match="no run with id"):
            store.select("zzz")
        with pytest.raises(LookupError, match="ambiguous"):
            store.select("run-")

    def test_load_fingerprint_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"schema": "nope/v1"}))
        with pytest.raises(ValueError, match="repro.obs.run/v1"):
            load_fingerprint(path)
        path.write_text(json.dumps(synthetic("r-x", 1.0, 1000.0)))
        assert load_fingerprint(path)["id"] == "r-x"


class TestCompare:
    def test_delta_rows(self):
        a = synthetic("r-a", 1.0, 1000.0,
                      phase_times={"setup": 0.1, "checks": 0.9})
        b = synthetic("r-b", 1.5, 600.0,
                      phase_times={"setup": 0.1, "checks": 1.4})
        rows = {row["metric"]: row for row in compare_runs(a, b)}
        wall = rows["wall_time"]
        assert wall["delta"] == pytest.approx(0.5)
        assert wall["delta_pct"] == pytest.approx(50.0)
        assert wall["worse"] is True
        pps = rows["props_per_sec"]
        assert pps["delta_pct"] == pytest.approx(-40.0)
        assert pps["worse"] is True
        assert rows["checks"]["worse"] is None  # direction-free
        assert rows["phase:checks"]["worse"] is True

    def test_table_marks_regressions(self):
        a = synthetic("r-a", 1.0, 1000.0)
        b = synthetic("r-b", 1.5, 600.0)
        table = format_compare_table(a, b)
        lines = table.splitlines()
        assert "metric" in lines[0] and "r-a" in lines[0]
        wall_line = next(line for line in lines
                         if line.startswith("wall_time"))
        assert "+50.0% !" in wall_line

    def test_analytics_rows_present_when_both_carry_them(self):
        a, b = (real_fingerprint("r-a", with_analytics=True),
                real_fingerprint("r-b", with_analytics=True))
        metrics = {row["metric"] for row in compare_runs(a, b)}
        assert "analytics:local_clauses" in metrics


class TestCheckRegression:
    def test_identical_runs_pass(self):
        a = synthetic("r-a", 1.0, 1000.0, phase_times={"checks": 0.9})
        assert check_regression(a, dict(a)) == []

    def test_wall_and_rate_drift_is_trend_only(self):
        """A 10x slowdown with the same work counters is no
        regression: wall, rates, phases and memory never gate."""
        a = synthetic("r-a", 1.0, 1000.0, phase_times={"checks": 0.9})
        b = dict(a, id="r-b", wall_time=10.0, props_per_sec=100.0,
                 checks_per_sec=10.0, phase_times={"checks": 9.0},
                 memory={"peak_rss_bytes": 10 ** 10})
        assert check_regression(a, b) == []

    def test_counter_change_violates(self):
        a = synthetic("r-a", 1.0, 1000.0)
        assert check_regression(a, dict(a, props=1001)) \
            == ["props 1000 -> 1001"]
        assert check_regression(a, dict(a, checks=99)) \
            == ["checks 100 -> 99"]

    def test_accepts_old_records_with_kernel_key(self):
        """Records written before the engine set shrank carry a
        ``kernel`` field; fresh fingerprints do not, and the two still
        compare."""
        current = real_fingerprint()
        assert "kernel" not in current
        old = dict(current, id="r-old", kernel="numpy")
        assert check_regression(old, current) == []
        assert compare_runs(old, current)

    def test_outcome_change_is_always_a_violation(self):
        a = synthetic("r-a", 1.0, 1000.0)
        b = dict(a, id="r-b", outcome="proof_is_not_correct")
        assert check_regression(a, b) == [
            "outcome proof_is_correct -> proof_is_not_correct"]

    @pytest.mark.parametrize("field", ["outcome", "checks", "props"])
    def test_missing_counter_is_an_error(self, field):
        a = synthetic("r-a", 1.0, 1000.0)
        bare = {key: value for key, value in a.items() if key != field}
        with pytest.raises(ValueError, match=f"baseline r-a has no {field}"):
            check_regression(bare, a)
        with pytest.raises(ValueError, match=f"current r-a has no {field}"):
            check_regression(a, bare)

    @pytest.mark.parametrize("field,value", [
        ("command", "verify-drup"), ("procedure", "verification1"),
        ("mode", "incremental"), ("engine", "arena"), ("jobs", 2)])
    def test_config_mismatch_is_an_error(self, field, value):
        a = synthetic("r-a", 1.0, 1000.0)
        with pytest.raises(ValueError, match=f"not comparable: {field}"):
            check_regression(a, dict(a, **{field: value}))

    def test_pooled_runs_are_refused(self):
        a = dict(synthetic("r-a", 1.0, 1000.0), jobs=4)
        with pytest.raises(ValueError, match="pooled run"):
            check_regression(a, dict(a))


class TestFormatHistory:
    def test_empty(self):
        assert format_history([]) == "history is empty"

    def test_listing_and_limit(self):
        records = [synthetic(f"r-{i}", 1.0 + i, 1000.0)
                   for i in range(5)]
        text = format_history(records, limit=2)
        assert "r-4" in text and "r-3" in text
        assert "r-0" not in text
        # Positions are absolute, so selectors keep working.
        assert text.splitlines()[2].startswith("3")


def _attribution(utilization, skew=1.2, workers=4):
    return {"utilization": utilization, "skew_ratio": skew,
            "workers": workers, "shards": [], "top_stragglers": []}


class TestPrune:
    def test_keeps_newest_n(self, tmp_path):
        store = HistoryStore(str(tmp_path))
        for i in range(5):
            store.append(synthetic(f"r-{i}", 1.0, 1000.0))
        removed = store.prune(keep=2)
        assert removed == 3
        assert [r["id"] for r in store.read()] == ["r-3", "r-4"]
        # The rewrite is a well-formed JSONL file.
        lines = (tmp_path / "history.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["schema"] == RUN_SCHEMA
                   for line in lines)

    def test_noop_when_small_enough(self, tmp_path):
        store = HistoryStore(str(tmp_path))
        store.append(synthetic("r-0", 1.0, 1000.0))
        assert store.prune(keep=5) == 0
        assert store.prune(keep=1) == 0
        assert [r["id"] for r in store.read()] == ["r-0"]

    def test_keep_zero_empties(self, tmp_path):
        store = HistoryStore(str(tmp_path))
        store.append(synthetic("r-0", 1.0, 1000.0))
        assert store.prune(keep=0) == 1
        assert store.read() == []

    def test_negative_keep_rejected(self, tmp_path):
        store = HistoryStore(str(tmp_path))
        with pytest.raises(ValueError):
            store.prune(keep=-1)

    def test_missing_file_is_empty(self, tmp_path):
        store = HistoryStore(str(tmp_path / "absent"))
        assert store.prune(keep=3) == 0


class TestAttribution:
    def test_fingerprint_carries_attribution(self):
        obs = Obs.enabled()
        report = verify_proof_v2(PAPER_F, PAPER_PROOF, obs=obs)
        record = fingerprint(report, run_id="r-attr",
                             command="verify",
                             attribution=_attribution(0.9))
        assert record["attribution"]["utilization"] == 0.9
        again = json.loads(json.dumps(record))
        assert again["attribution"] == record["attribution"]
        # Sequential runs record None.
        plain = fingerprint(report, run_id="r-seq", command="verify")
        assert plain["attribution"] is None

    def test_compare_adds_attribution_rows(self):
        a = synthetic("r-a", 1.0, 1000.0)
        b = synthetic("r-b", 1.0, 1000.0)
        a["attribution"] = _attribution(0.9, skew=1.1)
        b["attribution"] = _attribution(0.6, skew=1.8)
        rows = {row["metric"]: row for row in compare_runs(a, b)}
        util = rows["attribution:utilization"]
        assert util["worse"] is True  # utilization dropped
        assert rows["attribution:skew_ratio"]["worse"] is True
        assert rows["attribution:workers"]["worse"] is None

    def test_compare_skips_rows_without_attribution(self):
        a = synthetic("r-a", 1.0, 1000.0)
        b = synthetic("r-b", 1.0, 1000.0)
        metrics = {row["metric"] for row in compare_runs(a, b)}
        assert not any(m.startswith("attribution:") for m in metrics)
