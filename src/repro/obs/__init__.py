"""Observability spine: one attachment point for events, metrics, exporters.

* :class:`~repro.obs.bus.ObsBus` — the typed event bus.  Components hold
  :class:`~repro.obs.bus.Probe` objects (or ``None``, the zero-overhead
  default) and emit timestamped events; subscribers fan in.
* :class:`~repro.obs.registry.MetricsRegistry` — labeled counters,
  gauges, and histograms (``l2.miss{cause=coherence,node=3}``) fed push-
  style from hot components or pull-style via collectors
  (:mod:`repro.obs.collect`).
* exporters (:mod:`repro.obs.export`) — Chrome/Perfetto trace JSON for
  timelines, flat JSON/CSV for metrics.

:class:`Observability` bundles the three and is what hangs off the
engine (``engine.obs``).  The invariant checker's recent-event context
(:mod:`repro.check`) is one more bus subscriber.

The zero-overhead contract, restated: a machine built without a spine
has ``engine.obs is None``; components then hold ``None`` probes and an
instrumented call site costs one ``is None`` test.  With a spine but no
subscriber for a category, the site additionally checks ``probe.live``
before building any event strings.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs.bus import ObsBus, Probe, Subscriber
from repro.obs.export import (PerfettoExporter, validate_perfetto,
                              write_metrics_csv, write_metrics_json)
from repro.obs.registry import (Counter, Gauge, Histogram, MetricsRegistry,
                                series_name)
from repro.obs.trace import (NOOP_SPAN, Span, SpanContext, Tracer,
                             current_scope, trace_scope)


class Observability:
    """Bus + registry + exporters for one simulated machine.

    Construct it *before* the machine components are built and install it
    with :meth:`~repro.sim.engine.Engine.install_obs` — the fabric, L2
    controllers, processors, and slipstream pairs capture ``engine.obs``
    (and their probes) at construction time, exactly like the checker and
    fault hooks always have.
    """

    def __init__(self, engine, metrics: bool = False):
        self.engine = engine
        self.bus = ObsBus(engine)
        self.registry = MetricsRegistry()
        #: push-style metrics enabled: hot components create registry
        #: handles at construction and feed them inline
        self.metrics_on = metrics

    # ------------------------------------------------------------------
    # Bus facade
    # ------------------------------------------------------------------
    def probe(self, category: str) -> Probe:
        return self.bus.probe(category)

    def publish(self, category: str, subject: str, detail: str = "",
                **args) -> None:
        self.bus.publish(category, subject, detail, **args)

    def subscribe(self, fn: Subscriber,
                  categories: Optional[Iterable[str]] = None) -> Subscriber:
        return self.bus.subscribe(fn, categories)

    def unsubscribe(self, fn: Subscriber) -> None:
        self.bus.unsubscribe(fn)

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def add_perfetto(self, run_label: str = "repro") -> PerfettoExporter:
        """Attach (and return) a Chrome/Perfetto trace exporter that will
        capture every event published from this point on."""
        exporter = PerfettoExporter(run_label)
        self.bus.subscribe(exporter.on_event)
        return exporter

    def __repr__(self) -> str:
        return (f"<Observability metrics={'on' if self.metrics_on else 'off'} "
                f"{self.bus!r} {self.registry!r}>")


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "ObsBus",
    "Observability",
    "PerfettoExporter",
    "Probe",
    "Span",
    "SpanContext",
    "Tracer",
    "current_scope",
    "series_name",
    "trace_scope",
    "validate_perfetto",
    "write_metrics_csv",
    "write_metrics_json",
]
