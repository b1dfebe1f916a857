"""Tests for ``ProofChecker.from_arena`` over a shared clause arena.

A checker adopted over an arena (local or attached from shared memory,
the parallel workers' path) always runs ``ArenaPropagator``.
"""

from repro.bcp.arena import ArenaPropagator, ClauseArena, build_arena
from repro.core.formula import CnfFormula
from repro.proofs.conflict_clause import (
    ENDING_FINAL_PAIR,
    ConflictClauseProof,
)
from repro.verify.checker import ProofChecker

# The paper's running example (Section 4).
PAPER_F = CnfFormula([[1, 2], [1, -2], [-1, 3], [-1, -3], [4, 5]])
PAPER_PROOF = ConflictClauseProof([(1,), (-1,)], ENDING_FINAL_PAIR)


class TestSharedMemoryView:
    def test_checker_over_attached_arena(self):
        """A checker built over a shared-memory-attached arena reaches
        the same verdict as one built over the local arena."""
        arena, num_input = build_arena(PAPER_F, PAPER_PROOF)
        handle = arena.to_shared_memory()
        try:
            attached = ClauseArena.from_shared_memory(handle)
            checker = ProofChecker.from_arena(attached, num_input)
            assert isinstance(checker.engine, ArenaPropagator)
            for index in (1, 0):
                assert checker.check_clause(index).conflict
                checker.reset()
            attached.detach()
        finally:
            arena.release_shared(unlink=True)

    def test_from_arena_default_is_arena_engine(self):
        arena, num_input = build_arena(PAPER_F, PAPER_PROOF)
        checker = ProofChecker.from_arena(arena, num_input)
        assert isinstance(checker.engine, ArenaPropagator)
