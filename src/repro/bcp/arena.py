"""Flat clause-arena BCP engine.

The list-of-lists clause database of the other engines pays a Python
object per clause and a pointer chase per literal.  DRAT-trim (Heule
2016) stores its whole clause database in one flat literal array and
window shifting (Chen 2016) demonstrates that memory layout is the
decisive factor in proof-checking throughput; this module is that
observation applied to our engines.

:class:`ClauseArena` is a struct-of-arrays clause store:

* ``pool`` — every clause's encoded literals, concatenated, in one
  ``array('i')``;
* ``starts`` — CSR-style offsets (``len == num_clauses + 1``), clause
  ``cid`` occupying ``pool[starts[cid]:starts[cid+1]]``;
* ``flags`` — one byte per clause; bit 0 marks a deletion tombstone
  (the pool itself is never compacted, cids stay dense and stable).

:class:`ArenaPropagator` implements the :class:`~repro.bcp.engine.
PropagatorBase` contract over an arena.  The watch machinery lives
*outside* the append-only pool:

* ``watch_a``/``watch_b`` — the two watched literals per clause
  (MiniSat normalizes watches by reordering the clause body; the pool
  is never written after an append, so the watch *table* is what
  moves);
* a list mirror of ``pool``/``starts`` that the hot loop scans —
  CPython builds a fresh int object per ``array`` element access,
  while list elements are pre-built objects, so mirroring the compact
  buffers into lists buys back the per-access boxing cost;
* ``watch_cids``/``watch_blockers`` — per-literal watch lists as
  parallel flat lists, each entry carrying a *blocker* literal (any
  literal of the clause, typically the other watch).  A visit whose
  blocker is already true keeps the entry and never touches the clause
  body — the branch-light fast path that skips most of the inner loop
  on the long conflict clauses proofs are made of.

Counter semantics match the other engines: ``watch_visits`` counts
watch-list entries scanned, ``clause_visits`` counts clause bodies
inspected (a blocker hit is a watch visit but *not* a clause visit —
that saved body inspection is precisely the optimization, and it is
observable), ``assignments``/``purged``/``detach_misses`` as in
:class:`~repro.bcp.engine.PropagationCounters`.

Marked clauses (:meth:`~repro.bcp.engine.PropagatorBase.mark_core`)
keep their entries in a second pair of columns, ``core_cids``/
``core_blockers``, allocated on the first mark; the scan is the same
code over either pair.
"""

from __future__ import annotations

from array import array

from repro.bcp.engine import FALSE, TRUE, NO_CEILING as _NO_CEILING, \
    PropagatorBase

# flags bits
_DELETED = 1


class ClauseArena:
    """Struct-of-arrays clause store (flat literal pool + offsets)."""

    def __init__(self) -> None:
        self.pool: "array[int]" = array("i")
        self.starts: "array[int]" = array("i", [0])
        self.flags = bytearray()
        self.num_vars = 0
        # Live-set accounting: clauses/pool words not yet tombstoned.
        # The streaming verifier budgets and evicts on these, so they
        # are maintained eagerly by append()/tombstone() instead of
        # recomputed by scanning flags.
        self.live_clauses = 0
        self.live_words = 0

    @property
    def num_clauses(self) -> int:
        return len(self.starts) - 1

    @property
    def dead_words(self) -> int:
        """Pool words held by tombstoned clauses (the pool is never
        compacted in place — eviction means rebuilding elsewhere)."""
        return len(self.pool) - self.live_words

    def live_bytes(self) -> int:
        """Estimated resident footprint of the *live* clause set:
        live pool words plus one offset word per live clause."""
        return (self.live_words + self.live_clauses) \
            * self.pool.itemsize

    def append(self, enc_lits) -> int:
        """Append a clause of encoded literals; return its cid."""
        cid = len(self.starts) - 1
        pool = self.pool
        num_vars = self.num_vars
        for enc in enc_lits:
            pool.append(enc)
            var = enc >> 1
            if var > num_vars:
                num_vars = var
        self.num_vars = num_vars
        self.live_words += len(pool) - self.starts[cid]
        self.live_clauses += 1
        self.starts.append(len(pool))
        self.flags.append(0)
        return cid

    def tombstone(self, cid: int) -> None:
        """Mark clause ``cid`` deleted and update the live accounting
        (idempotent: a second tombstone of the same cid is a no-op)."""
        if self.flags[cid] & _DELETED:
            return
        self.flags[cid] |= _DELETED
        self.live_clauses -= 1
        self.live_words -= self.length(cid)

    def length(self, cid: int) -> int:
        return self.starts[cid + 1] - self.starts[cid]

    def lits(self, cid: int):
        """The literals of clause ``cid`` (empty if tombstoned)."""
        if self.flags[cid] & _DELETED:
            return ()
        return self.pool[self.starts[cid]:self.starts[cid + 1]]


class ArenaPropagator(PropagatorBase):
    """Two-watched-literal BCP over a flat clause arena, with blockers."""

    def __init__(self, num_vars: int = 0):
        self.arena = ClauseArena()
        # Scan mirror of the arena's pool/starts.  The compact
        # ``array('i')`` buffers are the storage format, but CPython
        # materializes a fresh int object on every array element
        # access; a plain list derefs a cached object instead, which
        # is what the hot loop needs.  The mirror is extended lazily
        # as the arena grows.
        self._pool: list[int] = []
        self._starts: list[int] = [0]
        # Watched literals per clause (-1 for clauses with < 2
        # literals, which carry no watches).
        self.watch_a: list[int] = []
        self.watch_b: list[int] = []
        # Per-literal watch lists: parallel (cid, blocker) columns.
        self.watch_cids: list[list[int]] = [[], []]
        self.watch_blockers: list[list[int]] = [[], []]
        # The marked table's columns (None until the first mark_core).
        self.core_cids: list[list[int]] | None = None
        self.core_blockers: list[list[int]] | None = None
        super().__init__(num_vars)

    # -- storage ----------------------------------------------------------

    def _on_new_var(self) -> None:
        self.watch_cids.append([])
        self.watch_cids.append([])
        self.watch_blockers.append([])
        self.watch_blockers.append([])
        if self.core_cids is not None:
            self.core_cids += ([], [])
            self.core_blockers += ([], [])

    @property
    def num_clauses(self) -> int:
        return self.arena.num_clauses

    def _store_clause(self, lits: list[int]) -> int:
        cid = self.arena.append(lits)
        if len(lits) >= 2:
            self.watch_a.append(lits[0])
            self.watch_b.append(lits[1])
        else:
            self.watch_a.append(-1)
            self.watch_b.append(-1)
        return cid

    def _sync_mirror(self) -> None:
        arena = self.arena
        pool_len = arena.starts[arena.num_clauses]
        if len(self._pool) != pool_len:
            self._pool.extend(arena.pool[len(self._pool):pool_len])
            self._starts.extend(
                arena.starts[len(self._starts):arena.num_clauses + 1])

    def clause_lits(self, cid: int):
        return self.arena.lits(cid)

    def clause_len(self, cid: int) -> int:
        if self.arena.flags[cid] & _DELETED:
            return 0
        return self.arena.length(cid)

    # -- watch maintenance -------------------------------------------------

    def _attach(self, cid: int) -> None:
        lit_a = self.watch_a[cid]
        if lit_a < 0:
            return  # units/empties carry no watches
        lit_b = self.watch_b[cid]
        self.watch_cids[lit_a].append(cid)
        self.watch_blockers[lit_a].append(lit_b)
        self.watch_cids[lit_b].append(cid)
        self.watch_blockers[lit_b].append(lit_a)

    def _detach(self, cid: int) -> None:
        lit_a = self.watch_a[cid]
        if lit_a < 0:
            return
        if self.core is not None and self.core[cid]:
            cids, blockers = self.core_cids, self.core_blockers
        else:
            cids, blockers = self.watch_cids, self.watch_blockers
        for enc in (lit_a, self.watch_b[cid]):
            watchlist = cids[enc]
            try:
                pos = watchlist.index(cid)
            except ValueError:
                # Legitimate only when retirement already purged the
                # entry; counted so double-scan bugs stay visible.
                self.counters.detach_misses += 1
            else:
                del watchlist[pos]
                del blockers[enc][pos]

    def _alloc_core_table(self) -> None:
        self.core_cids = [[] for _ in self.watch_cids]
        self.core_blockers = [[] for _ in self.watch_cids]

    def _move_to_core(self, cid: int) -> None:
        for enc in (self.watch_a[cid], self.watch_b[cid]):
            watchlist = self.watch_cids[enc]
            pos = watchlist.index(cid)
            del watchlist[pos]
            self.core_cids[enc].append(cid)
            self.core_blockers[enc].append(
                self.watch_blockers[enc].pop(pos))

    def remove_clause(self, cid: int) -> None:
        """Tombstone a clause via its flag byte (the pool is never
        rewritten)."""
        if self.arena.flags[cid] & _DELETED:
            return
        if self.arena.length(cid):
            self._detach(cid)
        self.arena.tombstone(cid)

    # -- propagation -------------------------------------------------------

    def _scan(self, marked: bool, head: int, ceiling: int | None,
              stop_on_assign: bool) -> tuple[int | None, int]:
        values = self.values
        self._sync_mirror()
        pool = self._pool
        starts = self._starts
        watch_a = self.watch_a
        watch_b = self.watch_b
        if marked:
            watch_cids = self.core_cids
            watch_blockers = self.core_blockers
        else:
            watch_cids = self.watch_cids
            watch_blockers = self.watch_blockers
        retire = self.retire_ceiling
        counters = self.counters
        trail = self.trail
        levels = self.levels
        reasons = self.reasons
        # One comparison per entry instead of an is-None test + compare.
        ceil = _NO_CEILING if ceiling is None else ceiling
        visits = 0
        body_visits = 0
        assigns = 0
        purged = 0
        try:
            while head < len(trail):
                enc = trail[head]
                head += 1
                false_lit = enc ^ 1
                watchlist = watch_cids[false_lit]
                blockers = watch_blockers[false_lit]
                i = 0
                # Deferred compaction: j stays -1 (no write-back at
                # all) until the first entry is dropped — most scans
                # drop nothing, and skipping the kept-entry copy is
                # the bulk of the per-visit saving over the plain
                # watched loop.  A kept entry's stale blocker is still
                # a literal of its clause, so leaving it in place is
                # sound.
                j = -1
                end = len(watchlist)
                while i < end:
                    cid = watchlist[i]
                    blocker = blockers[i]
                    i += 1
                    visits += 1
                    if cid >= retire:
                        # Lazy purge: the retired entry is not copied
                        # back, so this list never re-visits it.
                        purged += 1
                        if j < 0:
                            j = i - 1
                        continue
                    if values[blocker] == TRUE:
                        # Blocker satisfied: the clause is true and its
                        # body is never touched (no clause visit).
                        if j >= 0:
                            watchlist[j] = cid
                            blockers[j] = blocker
                            j += 1
                        continue
                    if cid >= ceil:
                        if j >= 0:
                            watchlist[j] = cid
                            blockers[j] = blocker
                            j += 1
                        continue
                    body_visits += 1
                    # Normalize in the watch *table*: A holds the other
                    # watch, B the falsified one (the pool is immutable).
                    first = watch_a[cid]
                    if first == false_lit:
                        first = watch_b[cid]
                        watch_a[cid] = first
                        watch_b[cid] = false_lit
                    first_val = values[first]
                    if first_val == TRUE:
                        if j >= 0:
                            watchlist[j] = cid
                            blockers[j] = first
                            j += 1
                        else:
                            # Refresh the blocker in place: the other
                            # watch is the literal most likely to be
                            # TRUE on the next visit.
                            blockers[i - 1] = first
                        continue
                    k = starts[cid]
                    stop = starts[cid + 1]
                    moved = False
                    # Binary clauses (k + 2 == stop) skip the scan:
                    # both literals are watches, so no replacement can
                    # exist.
                    if k + 2 < stop:
                        while k < stop:
                            other = pool[k]
                            k += 1
                            # values first: on the hot path most body
                            # literals are already false, so the two
                            # watch-exclusion tests rarely need to run.
                            if values[other] != FALSE \
                                    and other != first \
                                    and other != false_lit:
                                watch_b[cid] = other
                                watch_cids[other].append(cid)
                                watch_blockers[other].append(first)
                                moved = True
                                break
                        if moved:
                            if j < 0:
                                j = i - 1
                            continue
                    # No replacement: the clause is unit or conflicting.
                    if j >= 0:
                        watchlist[j] = cid
                        blockers[j] = first
                        j += 1
                    else:
                        blockers[i - 1] = first
                    if first_val == FALSE:
                        if j >= 0:
                            # Conflict: keep the rest of the list.
                            while i < end:
                                watchlist[j] = watchlist[i]
                                blockers[j] = blockers[i]
                                j += 1
                                i += 1
                            del watchlist[j:]
                            del blockers[j:]
                        return cid, head
                    assigns += 1
                    values[first] = TRUE
                    values[first ^ 1] = FALSE
                    var = first >> 1
                    levels[var] = len(self.trail_lim)
                    reasons[var] = cid
                    trail.append(first)
                if j >= 0:
                    del watchlist[j:]
                    del blockers[j:]
                if stop_on_assign and assigns:
                    break
            return None, head
        finally:
            counters.watch_visits += visits
            counters.clause_visits += body_visits
            counters.assignments += assigns
            counters.purged += purged
