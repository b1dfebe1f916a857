"""Tests for Proof_verification2: marking, skipping, core extraction."""

import random

import pytest

from repro.bcp.counting import CountingPropagator
from repro.benchgen.php import pigeonhole
from repro.core.formula import CnfFormula
from repro.proofs.conflict_clause import (
    ENDING_FINAL_PAIR,
    ConflictClauseProof,
)
from repro.solver.cdcl import solve
from repro.obs import Obs
from repro.solver.dpll import dpll_solve
from repro.verify.core_extraction import validate_core
from repro.verify.verification import verify_proof_v1, verify_proof_v2

from tests.conftest import random_formula


def proof_of(formula, **solver_kwargs):
    result = solve(formula, **solver_kwargs)
    assert result.is_unsat
    return ConflictClauseProof.from_log(result.log)


class TestBasic:
    def test_accepts_correct_proof(self, tiny_unsat):
        report = verify_proof_v2(tiny_unsat, proof_of(tiny_unsat))
        assert report.ok
        assert report.core is not None

    def test_rejects_bogus_clause(self):
        formula = CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        proof = ConflictClauseProof([(1,), (-1,)], ENDING_FINAL_PAIR)
        assert verify_proof_v2(formula, proof).ok
        # A "proof" for a satisfiable formula must be rejected.
        sat_formula = CnfFormula([[1, 2, 3]])
        bogus = ConflictClauseProof([(1,), (-1,)], ENDING_FINAL_PAIR)
        report = verify_proof_v2(sat_formula, bogus)
        assert not report.ok
        assert report.failed_clause_index is not None

    def test_counting_engine_agrees(self, tiny_unsat):
        proof = proof_of(tiny_unsat)
        watched = verify_proof_v2(tiny_unsat, proof)
        counting = verify_proof_v2(tiny_unsat, proof,
                                   engine_cls=CountingPropagator)
        assert watched.ok == counting.ok
        assert watched.core.clause_indices == counting.core.clause_indices
        assert watched.num_checked == counting.num_checked


class TestSkipping:
    def test_redundant_clause_skipped(self):
        """A deduced clause no later clause depends on is never tested."""
        formula = CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2], [3, 4]])
        # (3 4) with (1)... inject a junk (but valid) deduced clause
        # that nothing uses: (1, 3) is RUP (falsify both: 1=0 → BCP on
        # (1 2),(1 -2) conflicts), but the refutation never touches it.
        proof = ConflictClauseProof([(1, 3), (1,), (-1,)],
                                    ENDING_FINAL_PAIR)
        report = verify_proof_v2(formula, proof)
        assert report.ok
        assert report.num_skipped == 1
        assert report.num_checked == 2
        assert 0 not in report.marked_proof_indices

    def test_v2_never_checks_more_than_v1(self):
        rng = random.Random(77)
        for _ in range(20):
            formula = random_formula(rng, 8, 35)
            if not dpll_solve(formula).is_unsat:
                continue
            proof = proof_of(formula)
            v1 = verify_proof_v1(formula, proof)
            v2 = verify_proof_v2(formula, proof)
            assert v1.ok and v2.ok
            assert v2.num_checked <= v1.num_checked
            assert v2.num_checked + v2.num_skipped == len(proof)

    def test_skipped_on_real_instance(self):
        formula = pigeonhole(5)
        report = verify_proof_v2(formula, proof_of(formula))
        assert report.ok
        # PHP proofs from a restarting solver always contain some
        # redundant clauses.
        assert report.tested_fraction <= 1.0
        assert report.num_checked >= 1


class TestCoreExtraction:
    def test_core_is_unsat(self, tiny_unsat):
        report = verify_proof_v2(tiny_unsat, proof_of(tiny_unsat))
        core_formula = report.core.as_formula()
        assert dpll_solve(core_formula).is_unsat

    def test_core_subset_of_formula(self, tiny_unsat):
        report = verify_proof_v2(tiny_unsat, proof_of(tiny_unsat))
        assert all(0 <= i < tiny_unsat.num_clauses
                   for i in report.core.clause_indices)
        assert len(set(report.core.clause_indices)) == report.core.size

    def test_core_excludes_irrelevant_clauses(self):
        # Clauses over variables 5,6 cannot matter for the 1/2 conflict.
        formula = CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2],
                              [5, 6], [-5, 6]])
        report = verify_proof_v2(formula, proof_of(formula))
        assert report.ok
        assert 4 not in report.core.clause_indices
        assert 5 not in report.core.clause_indices

    def test_cores_on_random_unsat(self):
        rng = random.Random(31)
        cores_checked = 0
        for _ in range(25):
            formula = random_formula(rng, 7, 30)
            result = solve(formula)
            if not result.is_unsat:
                continue
            proof = ConflictClauseProof.from_log(result.log)
            report = verify_proof_v2(formula, proof)
            assert report.ok
            assert dpll_solve(report.core.as_formula()).is_unsat
            cores_checked += 1
        assert cores_checked > 3

    def test_core_fraction(self, tiny_unsat):
        report = verify_proof_v2(tiny_unsat, proof_of(tiny_unsat))
        assert 0 < report.core.fraction <= 1.0
        assert report.core.size == len(report.core.clauses())

    def test_empty_clause_in_input_core(self):
        formula = CnfFormula([[1, 2], []])
        report = verify_proof_v2(formula, proof_of(formula))
        assert report.ok
        # The empty clause alone is the core.
        assert report.core.clause_indices == (1,)


class TestAgreementWithV1:
    @pytest.mark.parametrize("seed", range(5))
    def test_verdicts_agree(self, seed):
        rng = random.Random(500 + seed)
        for _ in range(15):
            formula = random_formula(rng, 8, 30)
            result = solve(formula)
            if not result.is_unsat:
                continue
            proof = ConflictClauseProof.from_log(result.log)
            assert (verify_proof_v1(formula, proof).ok
                    == verify_proof_v2(formula, proof).ok)


class TestCoreFirst:
    """verification2 propagates core-first; its cores must stay valid
    on every engine, and depgraph capture keeps the plain order."""

    ENGINES = ("watched", "arena", "counting")
    # The paper's worked example: (4 5) is padding outside the cone.
    PAPER_F = CnfFormula([[1, 2], [1, -2], [-1, 3], [-1, -3], [4, 5]])
    PAPER_PROOF = ConflictClauseProof([(1,), (-1,)], ENDING_FINAL_PAIR)

    @pytest.fixture(scope="class")
    def php5(self):
        formula = pigeonhole(5)
        return formula, proof_of(formula)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("mode", ["rebuild", "incremental"])
    def test_pigeonhole_core_is_valid(self, php5, engine, mode):
        formula, proof = php5
        report = verify_proof_v2(formula, proof, engine, mode=mode)
        assert report.ok
        assert validate_core(report.core)
        # The marked proof clauses refute the core on their own.
        trimmed = ConflictClauseProof(
            [proof[i] for i in report.marked_proof_indices],
            proof.ending)
        assert verify_proof_v1(report.core.as_formula(), trimmed).ok

    @pytest.mark.parametrize("engine", ENGINES)
    def test_paper_example_core_is_valid(self, engine):
        report = verify_proof_v2(self.PAPER_F, self.PAPER_PROOF, engine)
        assert report.ok
        assert report.core.clause_indices == (0, 1, 2, 3)
        assert validate_core(report.core)

    @pytest.mark.parametrize("engine", [None, "watched", "arena"])
    @pytest.mark.parametrize("mode", ["rebuild", "incremental"])
    def test_capture_keeps_plain_order(self, php5, engine, mode):
        from repro.bcp import resolve_engine

        base = CountingPropagator if engine is None \
            else resolve_engine(engine)

        class Unmarked(base):
            def mark_core(self, cid):
                pass

        formula, proof = php5
        plain = verify_proof_v2(formula, proof, Unmarked, mode=mode)
        captured = verify_proof_v2(formula, proof, engine, mode=mode,
                                   obs=Obs.enabled(depgraph=True))
        assert captured.num_checked == plain.num_checked
        assert captured.bcp_counters == plain.bcp_counters
        assert captured.core.clause_indices == plain.core.clause_indices
