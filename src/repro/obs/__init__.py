"""Cross-layer observability: span tracing, ledgers, exporters, provenance.

The subsystem threads through every layer of the simulator:

* :mod:`repro.obs.observers` — the one way to attach instrumentation:
  :func:`use_observers` puts observers in scope and every machine built
  inside it attaches them through ``Machine.attach``;
* :mod:`repro.obs.spans` — hierarchical span tracer on the simulated cycle
  clock, with a zero-cost null tracer seen outside any tracer's scope;
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto) and
  collapsed-stack flamegraph exporters;
* :mod:`repro.obs.ledger` — hierarchical cycle-attribution ledger: every
  charged cycle is tagged ``(layer, mitigation, primitive)`` and the
  entries sum exactly to the machine TSC delta;
* :mod:`repro.obs.leakage` — taint-tracking leakage tracer: secret labels
  propagate through the microarchitectural structures and every tainted
  touch of an observable channel during a transient window files a
  :class:`~repro.obs.leakage.LeakageEvent`, keyed parallel to the ledger;
* :mod:`repro.obs.baseline` — bench snapshots (``BENCH_<n>.json``) and
  the noise-aware regression gate behind ``spectresim check``
  (imported directly, not re-exported: it pulls in the CPU catalog,
  which this package must not do at import time);
* :mod:`repro.obs.history` — SQLite run-history store plus the shared
  noise-aware diff/attribution engine (ledger blame waterfalls);
* :mod:`repro.obs.report` — static HTML dashboard over the history
  store (trends, waterfalls, simulator self-performance);
* :mod:`repro.obs.provenance` — run manifests stamped into exported
  artifacts.

See ``docs/observability.md`` for the span vocabulary and usage.
"""

from .history import (
    HistoryStore,
    RunDiff,
    default_history_db,
    diff_payloads,
    render_diff,
)
from .leakage import LeakageEvent, LeakageSummary, LeakageTracer
from .ledger import CycleLedger, ledger_scope
from .observers import current_observers, use_observers
from .spans import NULL_TRACER, NullTracer, Span, SpanTracer, current_tracer
from .export import (
    to_chrome_trace,
    to_chrome_trace_json,
    to_collapsed_stacks,
)
from .provenance import (
    RunManifest,
    build_manifest,
    code_fingerprint,
    config_to_dict,
    settings_to_dict,
)

__all__ = [
    "CycleLedger",
    "HistoryStore",
    "LeakageEvent",
    "LeakageSummary",
    "LeakageTracer",
    "NULL_TRACER",
    "NullTracer",
    "RunDiff",
    "RunManifest",
    "Span",
    "SpanTracer",
    "build_manifest",
    "code_fingerprint",
    "config_to_dict",
    "current_observers",
    "current_tracer",
    "default_history_db",
    "diff_payloads",
    "ledger_scope",
    "render_diff",
    "settings_to_dict",
    "to_chrome_trace",
    "to_chrome_trace_json",
    "to_collapsed_stacks",
    "use_observers",
]
