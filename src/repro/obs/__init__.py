"""repro.obs — causal tracing, crash flight recording, structured logs.

The observability layer is deliberately inert with respect to the
protocol: span ids come from a per-context counter (no randomness), the
clock feeds *metadata only*, and nothing here touches the keystore,
the hash counter, the nonce stream or the evidence trail — a traced
run is byte-identical to an untraced one (pinned in
``tests/test_obs.py``).

Three pieces:

* :class:`~repro.obs.trace.TraceContext` — span/event recording.  Every
  host (serial Monitor, serve service, cluster coordinator) owns one;
  the round pool traces each worker's in-flight batch as a ``slice``
  span of its host's context.
* :class:`~repro.obs.recorder.FlightRecorder` — a bounded ring of the
  most recent closed records plus every still-open span, dumped to
  JSONL when something goes wrong (worker reap, parity failure,
  ``ClusterError``).
* :mod:`repro.obs.log` — the one structured emitter behind every CLI's
  ``[component] message`` lines (``--log-json`` flips them to JSON).

``python -m repro.obs`` renders timelines, critical paths and trace
diffs from dumped records.
"""

from repro.obs.log import configure_logging, emit
from repro.obs.recorder import FlightRecorder
from repro.obs.timeline import critical_path, load_records
from repro.obs.trace import Span, Stopwatch, TraceContext

__all__ = [
    "FlightRecorder",
    "Span",
    "Stopwatch",
    "TraceContext",
    "configure_logging",
    "critical_path",
    "emit",
    "load_records",
]
