"""``repro.obs`` — tracing, metrics, and progress instrumentation.

A zero-dependency observability layer for the verification pipeline:

* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` and associative snapshot merging (worker
  aggregation);
* :class:`Tracer` spans emitting a structured JSONL event log with a
  cross-process trace context (``trace_id`` + monotonic/wall epoch
  anchors rebased into pool workers);
* the :mod:`repro.obs.timeline` reconstructor — one global timeline
  per trace with utilization, idle gaps, shard skew, critical path,
  and per-shard attribution;
* :class:`ProgressReporter` heartbeat lines (``c progress:``, each
  ending with the beat's RSS reading);
* the :mod:`repro.obs.mem` resource sampler — heartbeat-riding RSS
  sampling (:class:`MemSampler`) and arena-native memory gauges;
* exporters (JSON summary, Prometheus text, ``c stats:`` footer) and
  validators for the five artifact schemas (metrics, trace, depgraph,
  checkpoint, timeline);
* the :mod:`repro.obs.insight` subpackage — proof dependency graphs,
  Section-5 shape analytics, and the run-history store whose exact
  work-counter gate (``repro obs check-regression``) CI runs, plus
  cProfile/flamegraph hooks.

Instrumentation is strictly opt-in: every entry point takes
``obs: Obs | None = None`` and the disabled path never touches this
package (see :mod:`repro.obs.context`).
"""

from repro.obs.context import Obs
from repro.obs.export import (
    METRICS_FORMATS,
    atomic_write_text,
    collapsed_stack_text,
    metrics_document,
    prometheus_text,
    stats_footer,
    write_metrics_json,
    write_metrics_prometheus,
)
from repro.obs.insight import (
    DEPGRAPH_SCHEMA,
    RUN_SCHEMA,
    DepGraphRecorder,
    HistoryStore,
    ProofShapeAnalytics,
    analyze_proof_shape,
    check_regression,
    compare_runs,
    depgraph_deterministic_view,
    fingerprint,
    write_depgraph_dot,
    write_depgraph_jsonl,
)
from repro.obs.mem import (
    MemSampler,
    arena_mem_stats,
    format_bytes,
    parse_proc_status,
    read_rss,
    record_arena_gauges,
    reset_peak_rss,
)
from repro.obs.progress import ProgressReporter
from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS,
    DEFAULT_WORK_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.schema import (
    CHECKPOINT_SCHEMA,
    KNOWN_SCHEMAS,
    METRICS_SCHEMA,
    TIMELINE_SCHEMA,
    TRACE_SCHEMA,
    deterministic_view,
    validate_any,
    validate_checkpoint,
    validate_depgraph,
    validate_metrics,
    validate_timeline,
    validate_trace,
)
from repro.obs.spans import (
    Tracer,
    make_run_id,
    make_trace_id,
    read_jsonl,
    rebase_epoch,
    worker_tracer,
)
from repro.obs.timeline import (
    attribution_summary,
    build_timeline,
    render_timeline_html,
    render_timeline_text,
    write_timeline_json,
)

__all__ = [
    "Obs",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "ProgressReporter",
    "metrics_document",
    "write_metrics_json",
    "write_metrics_prometheus",
    "prometheus_text",
    "stats_footer",
    "validate_metrics",
    "validate_trace",
    "validate_depgraph",
    "validate_any",
    "deterministic_view",
    "depgraph_deterministic_view",
    "read_jsonl",
    "make_run_id",
    "atomic_write_text",
    "collapsed_stack_text",
    "DepGraphRecorder",
    "HistoryStore",
    "ProofShapeAnalytics",
    "analyze_proof_shape",
    "check_regression",
    "compare_runs",
    "fingerprint",
    "write_depgraph_dot",
    "write_depgraph_jsonl",
    "KNOWN_SCHEMAS",
    "METRICS_SCHEMA",
    "CHECKPOINT_SCHEMA",
    "validate_checkpoint",
    "TRACE_SCHEMA",
    "DEPGRAPH_SCHEMA",
    "RUN_SCHEMA",
    "METRICS_FORMATS",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_WORK_BUCKETS",
    "TIMELINE_SCHEMA",
    "validate_timeline",
    "make_trace_id",
    "rebase_epoch",
    "worker_tracer",
    "build_timeline",
    "attribution_summary",
    "render_timeline_text",
    "render_timeline_html",
    "write_timeline_json",
    "format_bytes",
    "MemSampler",
    "read_rss",
    "reset_peak_rss",
    "parse_proc_status",
    "arena_mem_stats",
    "record_arena_gauges",
]
