"""Two-watched-literal BCP engine.

The propagation machinery of Chaff [16 in the paper] that the paper's own
verifier uses (Section 6): each clause is watched through two of its
literals, and work is done only when a watched literal becomes false.  The
paper notes this is "especially effective" for conflict clause proofs
because ``F*`` contains many long clauses — a falsified long clause is
visited only when one of its two watches fires, not on every assignment.

The implementation follows MiniSat: the falsified watch is normalized to
position 1 of the clause, position 0 holds the other watch, and watch
lists are compacted in place during the scan.  Marked clauses
(:meth:`~repro.bcp.engine.PropagatorBase.mark_core`) keep their watches
in a second per-literal table, ``core_watches``, allocated on the first
mark.
"""

from __future__ import annotations

from repro.bcp.engine import FALSE, TRUE, PropagatorBase


class WatchedPropagator(PropagatorBase):
    """BCP engine using the two-watched-literal scheme."""

    def __init__(self, num_vars: int = 0):
        self.watches: list[list[int]] = [[], []]
        self.core_watches: list[list[int]] | None = None
        super().__init__(num_vars)

    def _on_new_var(self) -> None:
        self.watches.append([])
        self.watches.append([])
        if self.core_watches is not None:
            self.core_watches.append([])
            self.core_watches.append([])

    def _alloc_core_table(self) -> None:
        self.core_watches = [[] for _ in self.watches]

    def _move_to_core(self, cid: int) -> None:
        lits = self.clauses[cid]
        for enc in (lits[0], lits[1]):
            self.watches[enc].remove(cid)
            self.core_watches[enc].append(cid)

    def _attach(self, cid: int) -> None:
        lits = self.clauses[cid]
        if len(lits) == 1:
            # Units have no second watch; they are driven by enqueue
            # (solver) or by the verifier's explicit unit pass.
            return
        self.watches[lits[0]].append(cid)
        self.watches[lits[1]].append(cid)

    def _detach(self, cid: int) -> None:
        lits = self.clauses[cid]
        if len(lits) == 1:
            return
        table = self.core_watches if self.core is not None \
            and self.core[cid] else self.watches
        for enc in (lits[0], lits[1]):
            watchlist = table[enc]
            try:
                watchlist.remove(cid)
            except ValueError:
                # A missing entry is legitimate only when retirement
                # already purged it from the list; it is counted rather
                # than silently swallowed so double-scan bugs surface in
                # the instrumentation.
                self.counters.detach_misses += 1

    def _scan(self, marked: bool, head: int, ceiling: int | None,
              stop_on_assign: bool) -> tuple[int | None, int]:
        values = self.values
        clauses = self.clauses
        watches = self.core_watches if marked else self.watches
        trail = self.trail
        retire = self.retire_ceiling
        counters = self.counters
        visits = 0
        body_visits = 0
        assigns = 0
        purged = 0
        try:
            while head < len(trail):
                enc = trail[head]
                head += 1
                false_lit = enc ^ 1
                watchlist = watches[false_lit]
                i = 0
                j = 0
                end = len(watchlist)
                while i < end:
                    cid = watchlist[i]
                    i += 1
                    visits += 1
                    if cid >= retire:
                        # Lazily purge the retired entry: do not copy it
                        # back, so this list never re-visits it.
                        purged += 1
                        continue
                    if ceiling is not None and cid >= ceiling:
                        watchlist[j] = cid
                        j += 1
                        continue
                    body_visits += 1
                    clause = clauses[cid]
                    # Normalize: the false watch sits at position 1.
                    if clause[0] == false_lit:
                        clause[0] = clause[1]
                        clause[1] = false_lit
                    first = clause[0]
                    if values[first] == TRUE:
                        watchlist[j] = cid
                        j += 1
                        continue
                    moved = False
                    for k in range(2, len(clause)):
                        other = clause[k]
                        if values[other] != FALSE:
                            clause[1] = other
                            clause[k] = false_lit
                            watches[other].append(cid)
                            moved = True
                            break
                    if moved:
                        continue
                    # No replacement: the clause is unit or conflicting.
                    watchlist[j] = cid
                    j += 1
                    if values[first] == FALSE:
                        # Conflict: keep the rest of the watch list intact.
                        while i < end:
                            watchlist[j] = watchlist[i]
                            j += 1
                            i += 1
                        del watchlist[j:]
                        return cid, head
                    assigns += 1
                    values[first] = TRUE
                    values[first ^ 1] = FALSE
                    var = first >> 1
                    self.levels[var] = len(self.trail_lim)
                    self.reasons[var] = cid
                    trail.append(first)
                del watchlist[j:]
                if stop_on_assign and assigns:
                    break
            return None, head
        finally:
            counters.watch_visits += visits
            counters.clause_visits += body_visits
            counters.assignments += assigns
            counters.purged += purged
