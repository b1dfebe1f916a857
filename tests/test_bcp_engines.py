"""Unit and differential tests for the BCP engines."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bcp import ENGINES as REGISTRY
from repro.bcp import removal_engines, resolve_engine
from repro.bcp.arena import ArenaPropagator
from repro.bcp.counting import CountingPropagator
from repro.bcp.engine import FALSE, TRUE, UNDEF
from repro.bcp.watched import WatchedPropagator
from repro.core.literals import encode

ENGINES = [WatchedPropagator, CountingPropagator, ArenaPropagator]


def enc_clause(lits):
    return [encode(lit) for lit in lits]


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestBasicPropagation:
    def test_unit_propagates_at_level0(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        assert engine.propagate() is None
        assert engine.value(encode(1)) == TRUE
        assert engine.value(encode(-1)) == FALSE

    def test_chain(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        engine.add_clause(enc_clause([-1, 2]))
        engine.add_clause(enc_clause([-2, 3]))
        assert engine.propagate() is None
        for var in (1, 2, 3):
            assert engine.value(encode(var)) == TRUE

    def test_conflict_detected(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        engine.add_clause(enc_clause([-1, 2]))
        cid = engine.add_clause(enc_clause([-1, -2]))
        assert engine.propagate() == cid

    def test_conflicting_units(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        cid = engine.add_clause(enc_clause([-1]))
        assert engine.propagate() == cid

    def test_empty_clause_conflicts(self, engine_cls):
        engine = engine_cls()
        cid = engine.add_clause([])
        assert engine.propagate() == cid

    def test_reason_and_level_recorded(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        cid = engine.add_clause(enc_clause([-1, 2]))
        engine.propagate()
        assert engine.reasons[2] == cid
        assert engine.levels[2] == 0

    def test_no_spurious_propagation(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1, 2]))
        assert engine.propagate() is None
        assert engine.value(encode(1)) == UNDEF
        assert engine.value(encode(2)) == UNDEF


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestAssumptionsAndBacktracking:
    def test_assume_and_propagate(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([-1, 2]))
        engine.assume(encode(1))
        assert engine.propagate() is None
        assert engine.value(encode(2)) == TRUE
        assert engine.levels[2] == 1

    def test_backtrack_restores(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([-1, 2]))
        engine.assume(encode(1))
        engine.propagate()
        engine.backtrack(0)
        assert engine.value(encode(1)) == UNDEF
        assert engine.value(encode(2)) == UNDEF
        assert engine.decision_level == 0
        assert not engine.trail

    def test_backtrack_keeps_lower_levels(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([3]))
        engine.propagate()
        engine.assume(encode(1))
        engine.propagate()
        engine.assume(encode(2))
        engine.propagate()
        engine.backtrack(1)
        assert engine.value(encode(3)) == TRUE
        assert engine.value(encode(1)) == TRUE
        assert engine.value(encode(2)) == UNDEF

    def test_backtrack_after_conflict_then_repropagate(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([-1, 2]))
        engine.add_clause(enc_clause([-1, -2]))
        engine.assume(encode(1))
        assert engine.propagate() is not None
        engine.backtrack(0)
        engine.assume(encode(-1))
        assert engine.propagate() is None

    def test_enqueue_opposite_fails(self, engine_cls):
        engine = engine_cls(2)
        engine.assume(encode(1))
        assert engine.enqueue(encode(-1), None) is False
        assert engine.enqueue(encode(1), None) is True  # no-op


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestCeiling:
    def test_ceiling_blocks_later_clause(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1, 2]), propagate_units=False)   # 0
        cid = engine.add_clause(enc_clause([-1]), propagate_units=False)
        engine.new_level()
        engine.enqueue(encode(-2), None)
        # Without the unit clause (-1) in scope, nothing conflicts.
        assert engine.propagate(ceiling=1) is None
        assert engine.value(encode(1)) == TRUE  # clause 0 propagated 1
        del cid

    def test_ceiling_zero_blocks_everything(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1, 2]), propagate_units=False)
        engine.new_level()
        engine.enqueue(encode(-1), None)
        engine.enqueue(encode(-2), None)
        assert engine.propagate(ceiling=0) is None

    def test_full_propagation_conflicts(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1, 2]), propagate_units=False)
        engine.new_level()
        engine.enqueue(encode(-1), None)
        engine.enqueue(encode(-2), None)
        assert engine.propagate(ceiling=1) == 0

    def test_ceiling_respects_empty_clause(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]), propagate_units=False)
        cid = engine.add_clause([])
        assert engine.propagate(ceiling=1) is None
        assert engine.propagate(ceiling=2) == cid


class TestClauseRemoval:
    def test_removed_clause_inert(self):
        engine = WatchedPropagator()
        engine.add_clause(enc_clause([1]))
        cid = engine.add_clause(enc_clause([-1, 2]))
        engine.remove_clause(cid)
        assert engine.propagate() is None
        assert engine.value(encode(2)) == UNDEF

    def test_counting_rejects_removal(self):
        engine = CountingPropagator()
        cid = engine.add_clause(enc_clause([1, 2]))
        with pytest.raises(NotImplementedError):
            engine.remove_clause(cid)

    def test_tombstone_empty(self):
        engine = WatchedPropagator()
        cid = engine.add_clause(enc_clause([1, 2, 3]))
        engine.remove_clause(cid)
        assert engine.clauses[cid] == []

    def test_arena_removed_clause_inert(self):
        engine = ArenaPropagator()
        engine.add_clause(enc_clause([1]))
        cid = engine.add_clause(enc_clause([-1, 2]))
        engine.remove_clause(cid)
        assert engine.propagate() is None
        assert engine.value(encode(2)) == UNDEF
        # The pool is immutable: removal flags the clause instead of
        # rewriting it, and the accessors respect the tombstone.
        assert engine.clause_len(cid) == 0
        assert tuple(engine.clause_lits(cid)) == ()


class TestDifferential:
    """Every engine must agree on every propagation outcome."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_engines_agree(self, data):
        num_vars = data.draw(st.integers(min_value=2, max_value=10))
        num_clauses = data.draw(st.integers(min_value=1, max_value=25))
        seed = data.draw(st.integers(min_value=0, max_value=10_000))
        rng = random.Random(seed)
        clauses = []
        for _ in range(num_clauses):
            size = rng.randint(1, 4)
            variables = rng.sample(range(1, num_vars + 1),
                                   min(size, num_vars))
            clauses.append([v if rng.random() < .5 else -v
                            for v in variables])
        decisions = [rng.choice([v, -v])
                     for v in rng.sample(range(1, num_vars + 1),
                                         num_vars)]

        def run(engine_cls):
            engine = engine_cls(num_vars)
            for cl in clauses:
                engine.add_clause(enc_clause(cl))
            conflicts = []
            confl = engine.propagate()
            if confl is not None:
                return set(), ["L0"]
            for lit in decisions:
                if engine.value(encode(lit)) != UNDEF:
                    continue
                engine.assume(encode(lit))
                confl = engine.propagate()
                if confl is not None:
                    conflicts.append(lit)
                    engine.backtrack(engine.decision_level - 1)
            assigned = {engine.trail[i] for i in range(len(engine.trail))}
            return assigned, conflicts

        trail_w, confl_w = run(WatchedPropagator)
        trail_c, confl_c = run(CountingPropagator)
        trail_a, confl_a = run(ArenaPropagator)
        # Same assignments deduced and the same decisions conflicted.
        assert trail_w == trail_c == trail_a
        assert confl_w == confl_c == confl_a


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestRetirement:
    def test_retired_clause_does_not_propagate(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1, 2]), propagate_units=False)
        engine.add_clause(enc_clause([-1, 3]), propagate_units=False)
        engine.retire_above(1)
        engine.new_level()
        engine.enqueue(encode(-2), None)
        assert engine.propagate() is None
        assert engine.value(encode(1)) == TRUE   # clause 0 is live
        assert engine.value(encode(3)) == UNDEF  # clause 1 is retired

    def test_retire_ceiling_only_lowers(self, engine_cls):
        engine = engine_cls(3)
        engine.retire_above(5)
        engine.retire_above(10)
        assert engine.retire_ceiling == 5
        engine.retire_above(2)
        assert engine.retire_ceiling == 2

    def test_retired_empty_clause_no_standing_conflict(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]), propagate_units=False)
        cid = engine.add_clause([])
        engine.retire_above(cid)
        assert engine.propagate() is None

    def test_purge_counted(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1, 2]), propagate_units=False)
        engine.add_clause(enc_clause([1, 3]), propagate_units=False)
        engine.retire_above(1)
        engine.new_level()
        engine.enqueue(encode(-1), None)
        assert engine.propagate() is None
        assert engine.counters.purged >= 1
        assert engine.value(encode(2)) == TRUE
        assert engine.value(encode(3)) == UNDEF


class TestWatchedLazyPurge:
    def test_retired_entry_dropped_from_watch_list(self):
        engine = WatchedPropagator()
        engine.add_clause(enc_clause([1, 2]), propagate_units=False)
        cid = engine.add_clause(enc_clause([1, 3]),
                                propagate_units=False)
        assert cid in engine.watches[encode(1)]
        engine.retire_above(cid)
        engine.new_level()
        engine.enqueue(encode(-1), None)
        engine.propagate()
        assert cid not in engine.watches[encode(1)]

    def test_detach_after_purge_counts_miss(self):
        engine = WatchedPropagator()
        cid = engine.add_clause(enc_clause([1, 2]),
                                propagate_units=False)
        engine.retire_above(cid)
        engine.new_level()
        engine.enqueue(encode(-1), None)
        engine.propagate()  # purges the watches[1] entry
        engine.backtrack(0)
        engine.remove_clause(cid)
        assert engine.counters.detach_misses == 1


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestUnwindTo:
    def test_partial_unwind_and_rescan(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        engine.add_clause(enc_clause([-1, 2]))
        assert engine.propagate() is None
        assert engine.trail == [encode(1), encode(2)]
        engine.unwind_to(1)
        assert engine.value(encode(1)) == TRUE
        assert engine.value(encode(2)) == UNDEF
        assert engine.reasons[2] is None
        # The surviving prefix was already scanned; re-closing the
        # trail requires an explicit rescan from the start.
        engine.qhead = 0
        assert engine.propagate() is None
        assert engine.value(encode(2)) == TRUE

    def test_unwind_noop_past_end(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        engine.propagate()
        engine.unwind_to(5)
        assert engine.trail == [encode(1)]

    def test_unwind_below_open_level_rejected(self, engine_cls):
        engine = engine_cls(2)
        engine.add_clause(enc_clause([1]))
        engine.propagate()
        engine.assume(encode(2))
        with pytest.raises(ValueError):
            engine.unwind_to(0)


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestCounters:
    def test_assignments_counted(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        engine.add_clause(enc_clause([-1, 2]))
        engine.propagate()
        assert engine.counters.assignments == 2

    def test_counter_reset_and_dict(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        engine.propagate()
        snapshot = engine.counters.as_dict()
        assert snapshot["assignments"] == 1
        assert set(snapshot) == {"assignments", "watch_visits",
                                 "clause_visits", "purged",
                                 "detach_misses"}
        engine.counters.reset()
        assert engine.counters.assignments == 0


class TestCountingVisitsUnderMarking:
    """The counting engine's core-first passes filter one set of
    occurrence lists by the core byte, so each pass reads every entry:
    ``watch_visits`` must count them all, or marking would hide scan
    work."""

    @staticmethod
    def full_propagate_visits(clauses, num_vars, decision, marks):
        engine = CountingPropagator(num_vars)
        for lits in clauses:
            engine.add_clause(enc_clause(lits), propagate_units=False)
        for cid in marks:
            engine.mark_core(cid)
        engine.assume(encode(decision))
        confl = engine.propagate()
        return confl, set(engine.trail), engine.counters.watch_visits

    def test_marking_never_lowers_full_propagate_visits(self):
        full_runs = 0
        for seed in range(40):
            rng = random.Random(seed)
            num_vars = 12
            clauses = []
            for _ in range(24):
                variables = rng.sample(range(1, num_vars + 1),
                                       rng.choice([2, 2, 3]))
                clauses.append([v if rng.random() < .5 else -v
                                for v in variables])
            decision = rng.choice([1, -1])
            marks = [cid for cid in range(len(clauses))
                     if rng.random() < .4]
            plain = self.full_propagate_visits(clauses, num_vars,
                                               decision, [])
            marked = self.full_propagate_visits(clauses, num_vars,
                                                decision, marks)
            if plain[0] is not None or marked[0] is not None:
                continue  # a conflict ends the passes early
            full_runs += 1
            assert marked[1] == plain[1]
            # Both passes read every occurrence entry of every trail
            # literal once.
            assert marked[2] == 2 * plain[2] >= plain[2]
        assert full_runs >= 20


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestAssignmentView:
    def test_assignment_mapping(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        engine.add_clause(enc_clause([-2]))
        engine.propagate()
        assert engine.assignment() == {1: True, 2: False}

    def test_empty(self, engine_cls):
        assert engine_cls(3).assignment() == {}


class TestRegistry:
    def test_exactly_three_engines(self):
        assert REGISTRY == {"watched": WatchedPropagator,
                            "counting": CountingPropagator,
                            "arena": ArenaPropagator}
        assert removal_engines() == ("watched", "arena")

    @pytest.mark.parametrize("name", ["vector", "vector-inc", "auto"])
    def test_retired_names_are_unknown(self, name):
        with pytest.raises(ValueError, match="unknown BCP engine"):
            resolve_engine(name)


# -- core-first propagation -------------------------------------------------

def table_entries(engine, cid):
    """``(plain, marked)`` watch-table entries of clause ``cid``.

    The counting engine has no second table: its occurrence lists are
    split by the core byte instead."""
    if isinstance(engine, CountingPropagator):
        entries = sum(occs.count(cid) for occs in engine.occurrences)
        marked = engine.core is not None and engine.core[cid]
        return (0, entries) if marked else (entries, 0)
    if isinstance(engine, ArenaPropagator):
        plain, marked = engine.watch_cids, engine.core_cids
    else:
        plain, marked = engine.watches, engine.core_watches

    def count(table):
        return sum(row.count(cid) for row in table or ())

    return count(plain), count(marked)


def marked_tables(engine):
    if isinstance(engine, ArenaPropagator):
        return engine.core_cids, engine.core_blockers
    if isinstance(engine, WatchedPropagator):
        return (engine.core_watches,)
    return ()


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestMarkCore:
    def build_mix(self, engine_cls):
        """Two long clauses, a binary, a unit and a clause whose
        watch-list entry retirement has already purged."""
        engine = engine_cls(5)
        cids = {name: engine.add_clause(enc_clause(lits),
                                        propagate_units=False)
                for name, lits in (("long", [1, 2, 3, 4]),
                                   ("long2", [-1, -2, 3, 5]),
                                   ("binary", [2, -3]),
                                   ("unit", [4]),
                                   ("retired", [-4, 5, 1]))}
        engine.retire_above(cids["retired"])
        engine.assume(encode(4))  # falsifies the retired clause's watch
        assert engine.propagate() is None
        engine.backtrack(0)
        assert engine.counters.purged == 1
        return engine, cids

    def test_each_live_clause_in_exactly_one_table(self, engine_cls):
        engine, cids = self.build_mix(engine_cls)
        for name in ("long", "binary", "unit", "retired"):
            engine.mark_core(cids[name])
            engine.mark_core(cids[name])  # idempotent
        counting = engine_cls is CountingPropagator
        for name in ("long", "long2", "binary", "unit"):
            cid = cids[name]
            size = engine.clause_len(cid)
            expected = size if counting else (2 if size >= 2 else 0)
            plain, marked = table_entries(engine, cid)
            if name == "long2":
                assert (plain, marked) == (expected, 0)
            else:
                assert (plain, marked) == (0, expected)
        assert all(engine.core[cid] for name, cid in cids.items()
                   if name != "long2")
        # Retired before it was marked: it only gets the core byte.
        if not counting:
            assert table_entries(engine, cids["retired"])[1] == 0

    def test_marked_clauses_still_propagate(self, engine_cls):
        engine, cids = self.build_mix(engine_cls)
        engine.mark_core(cids["binary"])
        engine.mark_core(cids["long"])
        engine.assume(encode(-2))
        assert engine.propagate() is None
        # (2 ∨ ¬3) forces ¬3 from the marked table.
        assert engine.value(encode(-3)) == TRUE
        engine.assume(encode(-1))
        assert engine.propagate() is None
        assert engine.value(encode(4)) == TRUE
        assert engine.reasons[4] == cids["long"]

    def test_mark_after_conflict_rescans_pending_literals(self,
                                                         engine_cls):
        # The plain table stops at a conflict while the marked head is
        # already past literal 3; a clause marked now must still see it.
        engine = engine_cls(6)
        add = [engine.add_clause(enc_clause(lits), propagate_units=False)
               for lits in ([-1, 2], [-1, 3], [-2, -3], [-3, 6])]
        engine.mark_core(add[0])
        engine.assume(encode(1))
        assert engine.propagate() == add[2]
        engine.mark_core(add[3])
        engine.propagate()
        assert engine.value(encode(6)) == TRUE


@pytest.mark.parametrize("engine_cls",
                         [cls for cls in ENGINES if cls.supports_removal])
def test_remove_marked_clause_detaches_cleanly(engine_cls):
    engine = engine_cls(4)
    cid = engine.add_clause(enc_clause([1, 2, 3]), propagate_units=False)
    binary = engine.add_clause(enc_clause([-1, 4]), propagate_units=False)
    engine.mark_core(cid)
    engine.mark_core(binary)
    engine.remove_clause(cid)
    engine.remove_clause(binary)
    assert engine.counters.detach_misses == 0
    assert table_entries(engine, cid) == (0, 0)
    assert table_entries(engine, binary) == (0, 0)


class TestCoreFirstDifferential:
    """Marking changes the order BCP visits clauses, never what the
    fixpoint contains or whether a conflict exists."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_marks_do_not_change_outcomes(self, data):
        num_vars = data.draw(st.integers(min_value=2, max_value=10))
        num_clauses = data.draw(st.integers(min_value=1, max_value=25))
        seed = data.draw(st.integers(min_value=0, max_value=10_000))
        rng = random.Random(seed)
        clauses = []
        for _ in range(num_clauses):
            variables = rng.sample(range(1, num_vars + 1),
                                   min(rng.randint(1, 4), num_vars))
            clauses.append([v if rng.random() < .5 else -v
                            for v in variables])
        decisions = [rng.choice([v, -v])
                     for v in rng.sample(range(1, num_vars + 1),
                                         num_vars)]
        # Marks arrive before the search and between decisions, the
        # way verification2 marks between checks.
        marks = [[cid for cid in range(num_clauses) if rng.random() < .3]
                 for _ in range(len(decisions) + 1)]

        def run(engine_cls, marking):
            engine = engine_cls(num_vars)
            for cl in clauses:
                engine.add_clause(enc_clause(cl), propagate_units=False)
            engine.new_level()
            for cid, cl in enumerate(clauses):
                if len(cl) == 1 and not engine.enqueue(encode(cl[0]),
                                                       cid):
                    return set(), ["unit"]
            if marking:
                for cid in marks[0]:
                    engine.mark_core(cid)
            if engine.propagate() is not None:
                return set(), ["root"]
            conflicts = []
            for step, lit in enumerate(decisions, 1):
                if marking:
                    for cid in marks[step]:
                        engine.mark_core(cid)
                if engine.value(encode(lit)) != UNDEF:
                    continue
                engine.assume(encode(lit))
                if engine.propagate() is not None:
                    conflicts.append(lit)
                    engine.backtrack(engine.decision_level - 1)
            return set(engine.trail), conflicts

        for engine_cls in ENGINES:
            assert run(engine_cls, True) == run(engine_cls, False)


class TestMarkedTablesLazy:
    """Nothing outside verification2 marks, so nothing else allocates
    the marked tables: the core-first machinery costs them no memory."""

    @pytest.fixture
    def engines(self, monkeypatch):
        from repro.bcp.engine import PropagatorBase

        created = []
        init = PropagatorBase.__init__

        def recording_init(self, *args, **kwargs):
            created.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PropagatorBase, "__init__", recording_init)
        return created

    def assert_unmarked(self, engines):
        assert engines
        for engine in engines:
            assert engine.core is None
            assert all(table is None for table in marked_tables(engine))

    @pytest.mark.parametrize("engine", ["watched", "counting"])
    def test_solver(self, engines, engine):
        from repro.benchgen.php import pigeonhole
        from repro.solver.cdcl import solve

        assert solve(pigeonhole(4), engine=engine).is_unsat
        self.assert_unmarked(engines)

    @pytest.mark.parametrize("engine", sorted(REGISTRY))
    @pytest.mark.parametrize("mode", ["rebuild", "incremental"])
    def test_sequential_v1(self, engines, engine, mode):
        from repro.benchgen.php import pigeonhole
        from repro.proofs.conflict_clause import ConflictClauseProof
        from repro.solver.cdcl import solve
        from repro.verify.verification import verify_proof_v1

        formula = pigeonhole(4)
        proof = ConflictClauseProof.from_log(solve(formula).log)
        del engines[:]
        assert verify_proof_v1(formula, proof, engine, mode=mode).ok
        self.assert_unmarked(engines)

    @pytest.mark.parametrize("engine", removal_engines())
    def test_check_drup(self, engines, engine):
        from repro.benchgen.php import pigeonhole
        from repro.proofs.drup import DrupProof
        from repro.solver.cdcl import solve
        from repro.verify.forward import check_drup

        formula = pigeonhole(4)
        drup = DrupProof.from_log(solve(formula).log)
        del engines[:]
        assert check_drup(formula, drup, engine_cls=engine).ok
        self.assert_unmarked(engines)
