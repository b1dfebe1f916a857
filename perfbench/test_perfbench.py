"""Self-tests of the benchmark harness: the correctness gate, the
derived mutants' known answers, the pinned-input digest check, the
traced-runner comparison and the refusal to run outside a checkout.
Run from the repository root (about 20 s):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run


@pytest.fixture
def work(tmp_path, monkeypatch):
    """Pinned inputs unpacked into a private work directory."""
    monkeypatch.setattr(run, "WORK", tmp_path)
    ctx = run.Context(seed=0, jobs=1, inputs=tmp_path / "inputs",
                      lines=run.unpack(tmp_path / "inputs"))
    return ctx, run.child_env(tmp_path)


def _gate(job, env) -> run.Gate:
    gate = run.Gate()
    gate.record(job, run.run_job(job, env))
    return gate


def test_known_answer_passes_the_gate(work):
    ctx, env = work
    gate = _gate(run._verify(ctx, "eq_alu4"), env)
    assert gate.correct and (gate.attempted, gate.failed) == (1, 0)


@pytest.mark.parametrize("exit, verdict", [
    (run.EXIT_BAD, run.NOT_CORRECT),   # wrong exit code and verdict
    (run.EXIT_OK, run.NOT_CORRECT),    # right exit code, wrong verdict
])
def test_mislabeled_known_answer_trips_the_gate(work, exit, verdict):
    ctx, env = work
    job = run._verify(ctx, "eq_alu4")
    job.exit, job.verdict = exit, verdict
    gate = _gate(job, env)
    assert not gate.correct and gate.failed == 1
    assert gate.false_accepts == 0


def test_accepted_reject_mutant_is_a_false_accept(work):
    ctx, env = work
    job = run._verify(ctx, "eq_alu4")
    # Labelled as a mutant the checker must refuse, but it is the
    # sound solver proof: the CLI accepts it.
    job.reject, job.exit, job.verdict = True, run.EXIT_PARSE, None
    gate = _gate(job, env)
    assert gate.false_accepts == 1 and not gate.correct
    assert "FALSE ACCEPT" in gate.problems[0]


@pytest.mark.parametrize("family, commands", [
    ("cc", ("verify",)),
    ("drup", ("verify-drup", "verify-stream")),
])
def test_derived_mutants_meet_their_known_answers(work, family, commands):
    ctx, env = work
    out = run.WORK / "mutants"
    code = subprocess.run([sys.executable, str(run.BENCH / "derive.py"),
                           family, str(ctx.inputs), str(out), "3"],
                          env=env, cwd=run.ROOT).returncode
    assert code == 0
    ctx.mutants = json.loads((out / "mutants.json").read_text())
    mutants = [m for m in ctx.mutants if m["base"] in ("eq_alu4", "pipe_2")]
    assert mutants and any(not m["accept"] for m in mutants)
    gate = run.Gate()
    for mutant in mutants:
        for command in commands:
            job = run._mutant_job(ctx, mutant, command)
            gate.record(job, run.run_job(job, env))
    assert gate.correct, gate.problems


def test_timeout_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    result = run.run_child(
        [sys.executable, "-c", "import time; time.sleep(30)"], {},
        timeout=0.5)
    assert result.timed_out and result.wall < 10
    assert run.judge(run.Job("sleep", [], 1, 0, None), result) \
        == "timed out"


def test_unpack_refuses_a_digest_mismatch(tmp_path, monkeypatch):
    pinned = tmp_path / "pinned"
    shutil.copytree(run.INPUTS, pinned)
    manifest = json.loads((pinned / "manifest.json").read_text())
    manifest["files"]["eq_alu4.ccp"]["sha256"] = "0" * 64
    (pinned / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.setattr(run, "INPUTS", pinned)
    with pytest.raises(SystemExit, match="sha256 mismatch"):
        run.unpack(tmp_path / "out")


CLI_OUT = ("s PROOF_IS_CORRECT\n"
           "c checked=3 skipped=1 time=0.100s mode=incremental "
           "engine=watched jobs=1\n"
           "c bcp: assignments=5 watch_visits=7\n")


def _traced(**changes) -> dict:
    traced = {"exit": 0, "verdict": "s PROOF_IS_CORRECT",
              "cli": {"checked": 3, "skipped": 1, "mode": "incremental",
                      "engine": "watched", "jobs": 1},
              "bcp": {"assignments": 5, "watch_visits": 7}}
    traced.update(changes)
    return traced


def test_compare_accepts_an_exact_reproduction():
    assert layers.compare(CLI_OUT, 0, _traced()) is None


@pytest.mark.parametrize("changes", [
    {"exit": 1},
    {"verdict": "s PROOF_IS_NOT_CORRECT"},
    {"cli": {"checked": 4, "skipped": 1, "mode": "incremental",
             "engine": "watched", "jobs": 1}},
    {"cli": {"checked": 3, "skipped": 1, "mode": "rebuild",
             "engine": "watched", "jobs": 1}},
    {"bcp": {"assignments": 5, "watch_visits": 8}},
])
def test_compare_rejects_any_difference(changes):
    assert layers.compare(CLI_OUT, 0, _traced(**changes)) is not None


def test_traced_runner_reproduces_the_cli(work, monkeypatch):
    ctx, env = work
    monkeypatch.setattr(layers, "WORK", run.WORK)
    for job in (run._verify(ctx, "eq_alu4"),
                run._drup(ctx, "barrel5", "verify-stream")):
        cli = run.run_job(job, env)
        _, traced = layers.run_traced(job, env, "t")
        assert traced is not None
        assert layers.compare(cli.stdout, cli.exit, traced) is None
        assert {"cli.import", "dimacs.read"} <= {
            name for _, _, name, _, _ in traced["spans"]}


def test_speed_factor_is_a_trimmed_mean():
    probe = run.SpeedProbe([])
    probe.samples = [(t, run.PROBE_UNIT_S * 2) for t in range(40)]
    probe.samples.append((5, 1.0))  # one preempted sample
    assert probe.factor(0, 100) == pytest.approx(0.5)
    assert run.calibrated(4.0, "s", 0.5) == 2.0
    assert run.calibrated(4.0, "lines/s", 0.5) == 8.0
    assert run.calibrated(4.0, "count", 0.5) == 4.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
