"""The observability hub: one object the whole pipeline reports to.

An :class:`ObsHub` bundles a :class:`~repro.obs.metrics.MetricsRegistry`
and a :class:`~repro.obs.trace.Tracer` and pre-binds every instrument
the enforcement pipeline uses, so hot-path call sites pay one attribute
read + one ``enabled`` check before touching a metric.  The engine
creates a hub by default and wires it into the detector
(``detector.obs``), the rule manager (``manager.obs``) and the timer
service (``timers.on_fire``); audit-record counts are mirrored from
the audit log at collect time (:meth:`ObsHub.attach_audit_log`); see
docs/ARCHITECTURE.md, Observability.

Metrics are **default-on** (cheap counters/histograms); the tracer is
**off** until ``hub.tracer.enabled = True``.  Setting ``hub.enabled =
False`` turns the whole layer into near-no-ops — the benchmark smoke
job compares exactly these two states to bound instrumentation
overhead.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.obs.metrics import (
    DEPTH_BUCKETS,
    MetricsRegistry,
)
from repro.obs.trace import Tracer

__all__ = ["ObsHub"]


class ObsHub:
    """Metrics + tracing facade for the active-rule enforcement pipeline."""

    def __init__(self, metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 enabled: bool = True) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.enabled = enabled
        m = self.metrics
        # -- event substrate ------------------------------------------------
        self.events_raised = m.counter(
            "repro_events_raised_total",
            "primitive event raises (external and cascaded), by event",
            ("event",))
        self.events_detected = m.counter(
            "repro_events_detected_total",
            "occurrence detections dispatched (primitive and composite), "
            "by event", ("event",))
        self.listener_dispatch = m.counter(
            "repro_listener_dispatch_total",
            "listener callbacks invoked by detector dispatch")
        self.listener_fanout = m.histogram(
            "repro_listener_fanout",
            "listeners notified per dispatch", buckets=DEPTH_BUCKETS)
        # -- rule pool ------------------------------------------------------
        self.rule_firings = m.counter(
            "repro_rule_firings_total",
            "rule firings by rule and branch entered (then/else); "
            "derived from the rule pool's own counters at collect time",
            ("rule", "outcome"))
        self.rule_errors = m.counter(
            "repro_rule_errors_total",
            "rule firings that raised a typed error, by rule and error",
            ("rule", "error"))
        self.condition_ns = m.histogram(
            "repro_rule_condition_eval_ns",
            "W-clause (condition) evaluation latency in ns, by rule "
            "(sampled: every timing_interval-th firing)",
            ("rule",))
        self.action_ns = m.histogram(
            "repro_rule_action_ns",
            "T/E-branch (action) execution latency in ns, by rule "
            "(sampled: every timing_interval-th firing)",
            ("rule",))
        self.cascade_depth = m.histogram(
            "repro_rule_cascade_depth",
            "rule-firing cascade depth per dispatch",
            buckets=DEPTH_BUCKETS)
        # -- fault containment ----------------------------------------------
        self.rule_faults = m.counter(
            "repro_rule_faults_total",
            "unexpected (non-ReproError) clause exceptions contained by "
            "the rule manager, by rule and exception type",
            ("rule", "error"))
        self.quarantines = m.counter(
            "repro_rule_quarantines_total",
            "rules quarantined by the per-rule circuit breaker, by rule",
            ("rule",))
        self.deadline_exceeded = m.counter(
            "repro_deadline_exceeded_total",
            "access checks denied because a deadline budget tripped, "
            "by budget axis", ("reason",))
        self.observer_errors = m.counter(
            "repro_observer_errors_total",
            "firing-observer callbacks that raised (contained)")
        self.transient_retries = m.counter(
            "repro_transient_retries_total",
            "transient-fault retry attempts, by call site", ("site",))
        # -- durability (WAL) ----------------------------------------------
        self.wal_appends = m.counter(
            "repro_wal_appends_total",
            "write-ahead-log records appended, by operation", ("op",))
        self.wal_fsyncs = m.counter(
            "repro_wal_fsyncs_total",
            "WAL group-commit fsyncs (batch_size appends share one)")
        self.wal_replays = m.counter(
            "repro_wal_records_replayed_total",
            "WAL records replayed during recovery")
        self.wal_torn_tails = m.counter(
            "repro_wal_torn_tail_truncations_total",
            "recoveries that detected and truncated a torn WAL tail")
        self.wal_rotations = m.counter(
            "repro_wal_rotations_total",
            "WAL rotations (checkpoint compactions)")
        # -- timers / clock -------------------------------------------------
        self.timer_callbacks = m.counter(
            "repro_timer_callbacks_total",
            "timer callbacks fired by TimerService.run_due/advance")
        self.clock_advances = m.counter(
            "repro_clock_advances_total",
            "engine.advance_time calls")
        # -- engine operations ----------------------------------------------
        self.decisions = m.counter(
            "repro_check_access_total",
            "checkAccess decisions by result", ("decision",))
        self.decision_ns = m.histogram(
            "repro_check_access_ns",
            "end-to-end checkAccess latency in ns, by result",
            ("decision",))
        self.session_churn = m.counter(
            "repro_session_churn_total",
            "session lifecycle commits", ("op",))
        self.activation_churn = m.counter(
            "repro_activation_churn_total",
            "role activation/deactivation commits", ("op",))
        self.audit_records = m.counter(
            "repro_audit_records_total",
            "audit log records by kind", ("kind",))
        # -- decision plane (PolicyKernel) -----------------------------------
        self.kernel_builds = m.counter(
            "repro_kernel_builds_total",
            "PolicyKernel compilations, by trigger "
            "(cold/epoch/rules/detector/engine)", ("reason",))
        self.kernel_build_ns = m.histogram(
            "repro_kernel_build_ns",
            "PolicyKernel compile latency in ns")
        self.kernel_decisions = m.counter(
            "repro_kernel_decisions_total",
            "checkAccess decisions by kernel path "
            "(grant/deny answered compiled; fallback ran interpreted)",
            ("path",))
        self.kernel_fallbacks = m.counter(
            "repro_kernel_fallback_reasons_total",
            "checkAccess decisions the compiled kernel did not answer, "
            "by provenance taxonomy reason (kernel-internal punts plus "
            "engine-level bypasses; see repro.obs.provenance)",
            ("reason",))
        self.hierarchy_invalidations = m.counter(
            "repro_hierarchy_closure_invalidations_total",
            "role-hierarchy closure-cache entries dropped by targeted "
            "invalidation; mirrored from the hierarchy at collect time")
        # -- hot-path child caches ------------------------------------------
        # labels() coerces and validates on every call; the recording
        # hooks below memoise the child series per label value so the
        # steady state is one dict lookup + one add.  Safe across
        # reset(): the registry zeroes series in place, keeping these
        # references live.
        self._raised_cache: dict = {}
        self._timing_cache: dict = {}
        self._error_cache: dict = {}
        self._wal_append_cache: dict = {}
        self._fallback_reason_cache: dict = {}
        self._grant_count = self.decisions.labels("grant")
        self._deny_count = self.decisions.labels("deny")
        self._grant_ns = self.decision_ns.labels("grant")
        self._deny_ns = self.decision_ns.labels("deny")
        self._kernel_grant = self.kernel_decisions.labels("grant")
        self._kernel_deny = self.kernel_decisions.labels("deny")
        self._kernel_fallback = self.kernel_decisions.labels("fallback")
        # -- cascade-depth fast path ----------------------------------------
        # Almost every dispatch enters at depth 1; that case is a plain
        # int increment here and folded into the histogram at collect
        # time.  Depth 1 owns bucket index 0 exclusively (DEPTH_BUCKETS
        # starts at 1, deeper observations land at index >= 1), so the
        # fold can overwrite the bucket idempotently.  Deep entries
        # update _counts inline but accumulate their sum here, so the
        # collector can also set _sum absolutely.
        self._cascade_shallow = 0
        self._cascade_deep_sum = 0
        m.add_collector(self._collect_cascade)
        # -- latency-histogram sampling -------------------------------------
        # Rule W/T/E timing is *sampled*: every ``timing_interval``-th
        # firing pays the three perf_counter_ns stamps and the two
        # histogram updates; counters stay exact.  The rule manager
        # reads these attributes inline (plain attrs, not properties —
        # this is a per-firing read); change the interval through
        # :meth:`set_timing_interval` so the tick restarts.
        self.timing_interval = 8
        self._timing_tick = 1

    # -- state ---------------------------------------------------------------

    @property
    def tracing(self) -> bool:
        """True when spans should be constructed on the hot path."""
        return self.enabled and self.tracer.enabled

    def reset(self) -> None:
        """Zero every metric and drop every captured trace."""
        self._cascade_shallow = 0
        self._cascade_deep_sum = 0
        self.metrics.reset()
        self.tracer.clear()

    # -- hot-path recording hooks -------------------------------------------
    # Each guards on ``self.enabled`` so instrumented components can hold
    # a hub unconditionally and still be switched off in one place.
    # Counter children are bumped through ``_value`` directly and the
    # histogram-update body is inlined at the four per-request observe
    # sites below (deliberately duplicating Histogram.observe): the hub
    # only ever touches unlabeled child series with non-negative
    # amounts, and at ~10 hook invocations per checkAccess the method
    # dispatch + guard cost alone blows the <10% budget the benchmark
    # smoke job (benchmarks/smoke_profile.py) enforces.

    def event_raised(self, event: str) -> None:
        """Count a raise that will NOT reach dispatch (disabled node).
        The common raise→dispatch path is counted inline by the
        detector's dispatch through :meth:`bind_node` pairs."""
        if self.enabled:
            child = self._raised_cache.get(event)
            if child is None:
                child = self._raised_cache[event] = \
                    self.events_raised.labels(event)
            child._value += 1

    def bind_node(self, node) -> tuple:
        """Create and cache the ``(raise_child | None, detect_child)``
        pair on an event node.  The detector's dispatch inlines the
        per-detection counter bumps (one attribute read + two adds) and
        calls this once per node to set the cache up; a primitive
        dispatch is exactly a raise, so the pair bakes the raise child
        in (None for composites — their raises never reach dispatch).
        Listener fan-out / dispatch totals are derived at collect time
        (:meth:`attach_detector`), not per dispatch."""
        pair = (
            self.events_raised.labels(node.name)
            if node.is_primitive else None,
            self.events_detected.labels(node.name))
        node.obs_pair = pair
        return pair

    def bind_error(self, rule_name: str, error: Exception):
        """Create and cache the error-counter child for one (rule,
        error-type) pair; the rule manager inlines the per-firing bump
        and calls this on first sight of the pair."""
        child = self._error_cache[(rule_name, type(error))] = \
            self.rule_errors.labels(rule_name, type(error).__name__)
        return child

    def set_timing_interval(self, interval: int) -> None:
        """Sample every ``interval``-th rule firing for the W/T/E
        latency histograms (1 = time every firing); restarts the tick
        so the change takes effect on the next firing."""
        if interval < 1:
            raise ValueError("timing interval must be >= 1")
        self.timing_interval = interval
        self._timing_tick = 1

    def rule_timing(self, rule_name: str, cond_ns: int, act_ns: int) -> None:
        """Record one sampled firing's W-clause and branch latencies
        (the manager calls this for every ``timing_interval``-th
        firing)."""
        if self.enabled:
            pair = self._timing_cache.get(rule_name)
            if pair is None:
                pair = self._timing_cache[rule_name] = (
                    self.condition_ns.labels(rule_name),
                    self.action_ns.labels(rule_name))
            h = pair[0]
            h._counts[bisect_left(h.bounds, cond_ns)] += 1
            h._sum += cond_ns
            h = pair[1]
            h._counts[bisect_left(h.bounds, act_ns)] += 1
            h._sum += act_ns

    def cascade_entered(self, depth: int) -> None:
        if self.enabled:
            if depth == 1:
                self._cascade_shallow += 1
            else:
                h = self.cascade_depth
                h._counts[bisect_left(h.bounds, depth)] += 1
                self._cascade_deep_sum += depth

    def _collect_cascade(self) -> None:
        """Fold the depth-1 fast-path counter into the cascade-depth
        histogram (bucket 0 and the sum are set absolutely, so repeated
        collects are idempotent)."""
        if not self.enabled:
            return
        h = self.cascade_depth
        h._counts[0] = self._cascade_shallow
        h._sum = self._cascade_deep_sum + self._cascade_shallow

    def rule_fault(self, rule_name: str, error: Exception) -> None:
        """Count one contained clause fault (cold path — faults are
        exceptional, so no child caching needed)."""
        if self.enabled:
            self.rule_faults.labels(rule_name, type(error).__name__).inc()

    def rule_quarantined(self, rule_name: str) -> None:
        if self.enabled:
            self.quarantines.labels(rule_name).inc()

    def deadline_hit(self, reason: str) -> None:
        if self.enabled:
            self.deadline_exceeded.labels(reason or "unknown").inc()

    def observer_fault(self) -> None:
        if self.enabled:
            self.observer_errors._value += 1

    def retry_attempted(self, site: str) -> None:
        if self.enabled:
            self.transient_retries.labels(site).inc()

    def timer_fired(self) -> None:
        if self.enabled:
            self.timer_callbacks._value += 1

    def clock_advanced(self) -> None:
        if self.enabled:
            self.clock_advances._value += 1

    def access_decision(self, granted: bool, elapsed_ns: int) -> None:
        if self.enabled:
            if granted:
                self._grant_count._value += 1
                h = self._grant_ns
            else:
                self._deny_count._value += 1
                h = self._deny_ns
            h._counts[bisect_left(h.bounds, elapsed_ns)] += 1
            h._sum += elapsed_ns

    def kernel_fallback(self, reason: str) -> None:
        """Count one check the kernel did not answer, by taxonomy
        reason.  Child-cached: the engine bumps this on every fallback
        and every pre-consult bypass, which can be the per-check steady
        state (deadline budgets, kernel disabled)."""
        if self.enabled:
            child = self._fallback_reason_cache.get(reason)
            if child is None:
                child = self._fallback_reason_cache[reason] = \
                    self.kernel_fallbacks.labels(reason)
            child._value += 1

    def kernel_built(self, reason: str, elapsed_ns: int) -> None:
        """Count one PolicyKernel compilation and its latency.  Cold
        path: builds happen once per policy epoch, not per check."""
        if self.enabled:
            self.kernel_builds.labels(reason).inc()
            self.kernel_build_ns.observe(elapsed_ns)

    def wal_appended(self, op: str, synced: bool = False) -> None:
        """Count one WAL append (plus the fsync when this append closed
        a group-commit batch).  Child caching matters: session churn
        logs one record per commit on the enforcement path."""
        if self.enabled:
            child = self._wal_append_cache.get(op)
            if child is None:
                child = self._wal_append_cache[op] = \
                    self.wal_appends.labels(op)
            child._value += 1
            if synced:
                self.wal_fsyncs._value += 1

    def wal_rotated(self) -> None:
        if self.enabled:
            self.wal_rotations._value += 1

    def wal_recovered(self, replayed: int, torn: bool = False) -> None:
        if self.enabled:
            self.wal_replays._value += replayed
            if torn:
                self.wal_torn_tails._value += 1

    def session_changed(self, op: str) -> None:
        if self.enabled:
            self.session_churn.labels(op).inc()

    def activation_changed(self, op: str) -> None:
        if self.enabled:
            self.activation_churn.labels(op).inc()

    def attach_rules(self, manager) -> None:
        """Derive per-rule firing counts at collect time.

        Every :class:`~repro.rules.rule.OWTERule` already maintains
        ``then_count`` / ``else_count`` (seed behaviour, updated in both
        hub states), so ``repro_rule_firings_total`` is mirrored from
        the pool instead of paying a counter hook per firing.  The
        series count *branches entered*: a firing whose action then
        raises is still counted under the branch it took (the typed
        error itself is counted exactly by :meth:`rule_error`).  Counts
        survive hub-disabled windows and reset only with the pool."""
        def collect() -> None:
            if not self.enabled:
                return
            for child in self.rule_firings._children.values():
                child._value = 0  # rules can be removed from the pool
            labels = self.rule_firings.labels
            for rule in manager:
                if rule.then_count:
                    labels(rule.name, "then")._value = rule.then_count
                if rule.else_count:
                    labels(rule.name, "else")._value = rule.else_count
        self.metrics.add_collector(collect)

    def attach_detector(self, detector) -> None:
        """Derive listener fan-out / dispatch totals at collect time.

        Fan-out is a function of the subscription registry, which only
        changes when rules or observers are (un)registered — never per
        dispatch — so ``fanout(event) * detections(event)`` reconstructs
        the dispatch totals exactly for a stable registry, at zero
        hot-path cost.  (If subscriptions change mid-run the derived
        series reflect the *current* registry; policy builds subscribe
        everything up front, so in practice the two agree.)"""
        def collect() -> None:
            if not self.enabled:
                return
            h = self.listener_fanout
            h._counts = [0] * len(h._counts)
            h._sum = 0.0
            dispatched = 0
            for labels, series in self.events_detected._children.items():
                fanout = detector.fanout(labels[0])
                n = series._value
                h._counts[bisect_left(h.bounds, fanout)] += n
                h._sum += fanout * n
                dispatched += fanout * n
            self.listener_dispatch._value = dispatched
        self.metrics.add_collector(collect)

    def attach_hierarchy(self, hierarchy) -> None:
        """Mirror the hierarchy's cumulative closure-cache invalidation
        count at collect time (the hierarchy maintains the plain int;
        the mutation path pays nothing for the metric)."""
        def collect() -> None:
            if not self.enabled:
                return
            self.hierarchy_invalidations._value = hierarchy.invalidations
        self.metrics.add_collector(collect)

    def attach_audit_log(self, log) -> None:
        """Mirror the audit log's per-kind record counts into
        ``repro_audit_records_total`` at collect (exposition) time
        rather than per record — the log already maintains the counts,
        so the metric costs nothing on the enforcement hot path."""
        def collect() -> None:
            if not self.enabled:
                return
            for child in self.audit_records._children.values():
                child._value = 0  # kinds can vanish only via reset()
            for kind, n in log.counts_by_kind().items():
                self.audit_records.labels(kind)._value = n
        self.metrics.add_collector(collect)

    # -- summaries -----------------------------------------------------------

    def rule_latency_profile(self, top: int = 10,
                             q: float = 0.99
                             ) -> list[tuple[str, int, float, float]]:
        """The ``top`` slowest rules by latency quantile:
        ``(rule, samples, cond_p99_ns, action_p99_ns)`` rows, ordered
        by the worse of the two clause quantiles (bucket-resolution
        estimates; see :meth:`Histogram.quantile`)."""
        per_rule: dict[str, list] = {}
        for index, hist in ((0, self.condition_ns),
                            (1, self.action_ns)):
            for labels, series in hist.series():
                if not series.count:
                    continue
                rule = labels.get("rule", "?")
                entry = per_rule.setdefault(rule, [0, 0.0, 0.0])
                entry[0] = max(entry[0], series.count)
                entry[1 + index] = series.quantile(q)
        rows = [(rule, entry[0], entry[1], entry[2])
                for rule, entry in per_rule.items()]
        rows.sort(key=lambda row: -max(row[2], row[3]))
        return rows[:top]
