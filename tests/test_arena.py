"""Unit tests for the flat clause arena and its BCP engine."""

from repro.bcp.arena import ArenaPropagator, ClauseArena
from repro.core.formula import CnfFormula
from repro.core.literals import encode
from repro.proofs.conflict_clause import (
    ENDING_FINAL_PAIR,
    ConflictClauseProof,
)
from repro.verify.checker import ProofChecker


def enc_clause(lits):
    return [encode(lit) for lit in lits]


class TestClauseArena:
    def test_append_and_lits(self):
        arena = ClauseArena()
        cid = arena.append(enc_clause([1, -2]))
        assert cid == 0
        assert arena.num_clauses == 1
        assert list(arena.lits(0)) == enc_clause([1, -2])
        assert arena.length(0) == 2
        assert arena.num_vars == 2

    def test_empty_clause(self):
        arena = ClauseArena()
        arena.append([])
        assert arena.length(0) == 0
        assert list(arena.lits(0)) == []

    def test_csr_offsets_dense(self):
        arena = ClauseArena()
        arena.append(enc_clause([1, 2, 3]))
        arena.append([])
        arena.append(enc_clause([-1]))
        assert list(arena.starts) == [0, 3, 3, 4]

    def test_tombstone_hides_lits(self):
        arena = ClauseArena()
        arena.append(enc_clause([1, 2]))
        arena.flags[0] |= 1
        assert tuple(arena.lits(0)) == ()
        # length() reads the offsets; the propagator's clause_len is
        # the flag-aware accessor.

    def test_live_accounting(self):
        """The streaming window-shift trigger reads these counters:
        appends grow them, tombstones shrink them, idempotently."""
        arena = ClauseArena()
        arena.append(enc_clause([1, 2, 3]))
        arena.append(enc_clause([-1]))
        assert arena.live_clauses == 2
        assert arena.live_words == 4
        assert arena.dead_words == 0
        bytes_before = arena.live_bytes()
        assert bytes_before == (4 + 2) * arena.pool.itemsize

        arena.tombstone(0)
        assert arena.live_clauses == 1
        assert arena.live_words == 1
        assert arena.dead_words == 3
        assert arena.live_bytes() < bytes_before
        # The pool itself never shrinks — only the live view does.
        assert len(arena.pool) == 4

        arena.tombstone(0)     # idempotent: no double decrement
        assert arena.live_clauses == 1
        assert arena.live_words == 1

    def test_remove_clause_tombstones(self):
        propagator = ArenaPropagator(3)
        cid = propagator.add_clause(enc_clause([1, 2, 3]),
                                    propagate_units=False)
        live_before = propagator.arena.live_clauses
        propagator.remove_clause(cid)
        assert propagator.arena.live_clauses == live_before - 1
        assert propagator.clause_len(cid) == 0


class TestBuildArena:
    """A checker over the arena engine loads ``F`` then ``F*`` into one
    arena, so proof clause ``k`` is arena clause ``num_input + k``."""

    @staticmethod
    def _arena(formula, proof):
        checker = ProofChecker(formula, proof, ArenaPropagator)
        return checker.engine.arena, checker.num_input

    def test_layout_matches_checker_cids(self):
        formula = CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        proof = ConflictClauseProof([(1,), (-1,)], ENDING_FINAL_PAIR)
        arena, num_input = self._arena(formula, proof)
        assert num_input == 4
        assert arena.num_clauses == 6
        # Proof clause k is arena clause num_input + k.
        assert list(arena.lits(4)) == enc_clause([1])
        assert list(arena.lits(5)) == enc_clause([-1])

    def test_duplicate_literals_deduped(self):
        formula = CnfFormula([[1, 1, -2]])
        proof = ConflictClauseProof([()], "empty")
        arena, _ = self._arena(formula, proof)
        assert list(arena.lits(0)) == enc_clause([1, -2])


class TestArenaPropagator:
    def test_blocker_hit_skips_body(self):
        engine = ArenaPropagator()
        engine.add_clause(enc_clause([1, 2]), propagate_units=False)
        engine.new_level()
        engine.enqueue(encode(2), None)   # blocker of watch on ¬1 …
        engine.propagate()
        before = engine.counters.clause_visits
        engine.enqueue(encode(-1), None)  # … now visiting keeps it true
        engine.propagate()
        assert engine.counters.clause_visits == before
        assert engine.counters.watch_visits >= 1
