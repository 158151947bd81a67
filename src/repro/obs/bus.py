"""Typed event bus: probes, subscribers, categories.

The bus is the fan-out point of the observability spine.  Producers hold
:class:`Probe` objects — one per event category — and call them with a
subject and detail; the bus delivers each event to every subscriber
registered for that category.  The design goal is the same zero-overhead
contract the engine already uses for ``checker``/``faults``: a component
built on a machine *without* an observability spine holds ``None``
instead of a probe, so the hot-path cost of an instrumented call site is
one ``is None`` test and nothing else.  With a spine attached, a probe
call is one method call plus one loop over the (usually one or two)
subscribers.

Subscribers receive ``(time, category, subject, detail, args)`` where
``args`` is the probe call's keyword dict (structured payload for the
Perfetto exporter; the checker's recent-event context ignores it).
Subscribing is cheap at any point: probes hold a tuple of their current
subscribers, and the bus refreshes those tuples whenever the
subscription set changes, so late subscribers see every event from the
moment they attach.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: subscriber signature: (time, category, subject, detail, args)
Subscriber = Callable[[int, str, str, str, dict], None]

_EMPTY_ARGS: dict = {}


class Probe:
    """One event category's emission point.

    Calling the probe publishes an event stamped with the engine's
    current time to every subscriber of the category.  Probes are
    created via :meth:`ObsBus.probe` and cached per category, so the
    same call site always reuses the same object.
    """

    __slots__ = ("category", "_engine", "_subs")

    def __init__(self, category: str, engine):
        self.category = category
        self._engine = engine
        self._subs: Tuple[Subscriber, ...] = ()

    @property
    def live(self) -> bool:
        """True when at least one subscriber will receive this probe."""
        return bool(self._subs)

    def __call__(self, subject: str, detail: str = "", **args) -> None:
        now = self._engine.now
        category = self.category
        for fn in self._subs:
            fn(now, category, subject, detail, args if args else _EMPTY_ARGS)

    def __repr__(self) -> str:
        return f"<Probe {self.category!r} subs={len(self._subs)}>"


class ObsBus:
    """Category-keyed publish/subscribe hub for one simulated machine."""

    def __init__(self, engine):
        self.engine = engine
        self._probes: Dict[str, Probe] = {}
        #: subscribers to every category
        self._global: List[Subscriber] = []
        #: subscribers to specific categories
        self._by_category: Dict[str, List[Subscriber]] = {}

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def probe(self, category: str) -> Probe:
        """The (cached) :class:`Probe` for ``category``."""
        probe = self._probes.get(category)
        if probe is None:
            probe = Probe(category, self.engine)
            self._probes[category] = probe
            self._refresh(probe)
        return probe

    def publish(self, category: str, subject: str, detail: str = "",
                **args) -> None:
        """One-shot emission without holding a probe (cold call sites)."""
        self.probe(category)(subject, detail, **args)

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def subscribe(self, fn: Subscriber,
                  categories: Optional[Iterable[str]] = None) -> Subscriber:
        """Deliver events to ``fn`` (all categories, or just the given
        ones).  Returns ``fn`` so it can be passed to :meth:`unsubscribe`."""
        if categories is None:
            self._global.append(fn)
        else:
            for category in categories:
                self._by_category.setdefault(category, []).append(fn)
        self._refresh_all()
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        """Remove ``fn`` from every category it was subscribed to."""
        if fn in self._global:
            self._global.remove(fn)
        for subs in self._by_category.values():
            if fn in subs:
                subs.remove(fn)
        self._refresh_all()

    # ------------------------------------------------------------------
    # Wiring internals
    # ------------------------------------------------------------------
    def _refresh(self, probe: Probe) -> None:
        probe._subs = tuple(self._global
                            + self._by_category.get(probe.category, []))

    def _refresh_all(self) -> None:
        for probe in self._probes.values():
            self._refresh(probe)

    def __repr__(self) -> str:
        return (f"<ObsBus probes={len(self._probes)} "
                f"subs={len(self._global)}+"
                f"{sum(len(s) for s in self._by_category.values())}>")
