"""In-memory entry point of the forward DRUP checker.

The checker itself — one event loop for in-memory and streamed traces
— is :func:`repro.verify.streaming.forward_check`; see that module for
the algorithm and its report.
"""

from __future__ import annotations

import math

from repro.bcp import engine_name, removal_engines, resolve_engine
from repro.bcp.engine import PropagatorBase
from repro.core.formula import CnfFormula
from repro.proofs.drup import DELETE, DrupProof
from repro.verify.budget import CheckBudget
from repro.verify.streaming import StreamingCheckReport, forward_check


def check_drup(formula: CnfFormula, proof: DrupProof,
               budget: CheckBudget | None = None,
               obs=None,
               engine_cls: "type[PropagatorBase] | str | None" = None,
               ) -> StreamingCheckReport:
    """Check a DRUP trace forward; report the first bad event.

    The ``budget`` (if given) is consulted before every trace event;
    when it runs out the check aborts with ``resource_limit_exceeded``
    and partial progress instead of a verdict.  ``obs`` attaches the
    optional instrumentation layer (per-addition timing, trace spans,
    progress over trace events).  ``engine_cls`` selects the BCP
    engine (a :data:`repro.bcp.ENGINES` name or class; default
    watched); an engine without clause-removal support (counting) is
    rejected when the trace contains deletions — honoring them is the
    point of forward checking.  A deletion of a clause that is not
    live makes the proof incorrect.  The whole trace is in memory
    already, so window shifts are off.
    """
    engine_cls = resolve_engine(engine_cls)
    if not engine_cls.supports_removal \
            and any(event.kind == DELETE for event in proof.events):
        raise ValueError(
            f"engine '{engine_name(engine_cls)}' does not support "
            "clause removal, but the DRUP trace contains deletions; "
            f"use one of {', '.join(removal_engines())}")
    return forward_check(
        formula, enumerate(proof.events), engine_cls=engine_cls,
        budget=budget, obs=obs, window_slack=math.inf,
        unknown_deletion="reject", total_events=len(proof.events))
