"""Staged policy rollout: shadow canary, atomic promotion, rollback.

The lifecycle turns "edit the policy in place" into a guarded
deployment pipeline over :class:`~repro.config.configset.ConfigSet`
versions:

1. **stage** — validate the candidate (monotone version id, checksum
   integrity), compute the deployment delta with
   :func:`~repro.config.differ.diff_specs`, and compile the candidate's
   own :class:`~repro.kernel.PolicyKernel` *off to the side* (a shadow
   engine built from the candidate spec; the live decision plane is
   untouched).  The engine's decision tap starts mirroring live check
   traffic into a :class:`ShadowComparator`.
2. **shadow-compare** — every live decision served by the *kernel*
   path is re-decided by the candidate kernel's one role loop,
   :meth:`~repro.kernel.PolicyKernel.decide`, the loop live checks
   run too (the live session's active roles the candidate compiled
   and the live user are the input, so the candidate's assignment
   scope bounds apply; runtime state stays with the live engine).
   Decisions either side classifies dynamic (context gates, privacy,
   interpreted-path fallbacks) are tallied *indeterminate*, never
   divergent — the canary only ever compares statically comparable
   answers.
3. **promote** — once the :class:`RolloutBudget` is satisfied (enough
   comparable samples, divergence and error counts inside budget), the
   delta is applied through the one administrative op table
   (:meth:`ActiveRBACEngine.apply`: session revocation, SoD enforcement,
   the validator's descriptor checks and audit all behave exactly as a
   hand-applied change would, and an op the live state refuses writes
   nothing; extension descriptors are ops like any other), the roles
   whose rule signature the batch moved are regenerated once, after
   its last op (:func:`~repro.synthesis.regenerate.rule_signatures` —
   the rule a single admin op follows too; untouched rule objects
   keep their identity and their quarantine/counter state), and the
   decision plane swaps in **one** epoch bump with an eagerly
   recompiled kernel.  The WAL carries a single
   ``config.promote`` record with the version id and the full rendered
   post-swap policy; intermediate per-op epoch records are
   suppressed (the promotion is one logical swap).
4. **hold** — after promotion the tap keeps mirroring, now against the
   *previous* kernel, under the same budget: a promotion that starts
   changing live answers beyond budget (an operator forced past a
   failing canary) or a breaker trip reported via :meth:`note_failure`
   triggers **automatic rollback** — the promote delta is reverted
   (drift outside the delta survives), WAL-logged as
   ``config.rollback``, flight-recorded and audited.

The tap only *marks* tallies; every state transition (promote, refuse,
rollback, settle) happens in :meth:`PolicyLifecycle.poll`, which the
serving plane calls from its control path — a decision can never
re-enter the engine to mutate policy mid-check.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

from repro.clock import VirtualClock
from repro.config.configset import ConfigSet, policy_checksum
from repro.config.differ import diff_specs
from repro.config.loader import ConfigError
from repro.errors import ReproError
from repro.kernel import KERNEL_FALLBACK, KERNEL_GRANT
from repro.synthesis.regenerate import moved_roles, rule_signatures

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine import ActiveRBACEngine
    from repro.kernel import PolicyKernel
    from repro.policy.spec import PolicySpec

__all__ = ["PolicyLifecycle", "RolloutBudget", "ShadowComparator",
           "load_version"]

@dataclass(frozen=True)
class RolloutBudget:
    """What a rollout must prove (canary) and sustain (hold).

    ``max_divergence`` is a *fraction* of comparable samples; the
    default ``0.0`` means a rollout must be decision-identical on
    observed traffic — intentional semantic changes need an explicitly
    raised budget (or a forced promote, which the hold then polices).
    """

    #: comparable samples required before the canary can pass
    min_samples: int = 50
    #: tolerated diverging fraction of comparable samples
    max_divergence: float = 0.0
    #: tolerated shadow-evaluation errors
    max_errors: int = 0
    #: tapped decisions the post-promotion hold observes before the
    #: promotion settles
    hold_checks: int = 100

    def describe(self) -> dict[str, Any]:
        return asdict(self)


class ShadowComparator:
    """Tally live decisions against a shadow kernel.

    ``observe`` is called from the engine's decision tap (data plane):
    it only updates counters and never raises into the live check —
    any shadow-side error is itself a tallied outcome.  Verdicts are
    read on the control plane (:meth:`verdict` /
    :meth:`PolicyLifecycle.poll`).
    """

    #: divergence samples kept verbatim for the operator
    DETAIL_CAP = 16

    def __init__(self, engine: "ActiveRBACEngine", kernel: "PolicyKernel",
                 budget: RolloutBudget, label: str) -> None:
        self.engine = engine
        self.kernel = kernel
        self.budget = budget
        self.label = label
        self.observed = 0       # every tapped decision
        self.samples = 0        # statically comparable on both sides
        self.matches = 0
        self.divergences = 0
        self.indeterminate = 0  # dynamic on either side: not comparable
        self.errors = 0
        self.details: list[dict[str, Any]] = []

    def observe(self, path: str, session_id: str, user: str | None,
                operation: str, obj: str, granted: bool,
                scope: str | None = None) -> None:
        self.observed += 1
        if path != "kernel":
            # the live answer came from the interpreted pipeline —
            # something about it was dynamic, so the static shadow
            # verdict is not comparable
            self.indeterminate += 1
            return
        try:
            session = self.engine.model.sessions.get(session_id)
            if session is None or session.user in self.engine.locked_users:
                # runtime deny causes the shadow kernel cannot see
                self.indeterminate += 1
                return
            # a role the shadow policy does not define grants nothing
            known = self.kernel.grant_masks
            verdict, _reason = self.kernel.decide(
                [role for role in session.active_roles if role in known],
                session.user, operation, obj, scope)
        except Exception:  # noqa: BLE001 - shadow faults are tallied
            self.errors += 1
            return
        if verdict == KERNEL_FALLBACK:
            self.indeterminate += 1
            return
        self.samples += 1
        shadow = verdict == KERNEL_GRANT
        if shadow == granted:
            self.matches += 1
            return
        self.divergences += 1
        if len(self.details) < self.DETAIL_CAP:
            self.details.append({
                "session": session_id, "user": user,
                "operation": operation, "object": obj,
                "live": granted, "shadow": shadow,
            })

    @property
    def divergence_rate(self) -> float:
        return self.divergences / self.samples if self.samples else 0.0

    def over_budget(self) -> str | None:
        """Why the tallies already bust the budget, or None."""
        if self.errors > self.budget.max_errors:
            return (f"{self.errors} shadow error(s) exceed budget "
                    f"{self.budget.max_errors}")
        if self.samples and self.divergence_rate > self.budget.max_divergence:
            return (f"divergence {self.divergences}/{self.samples} "
                    f"exceeds budget {self.budget.max_divergence}")
        return None

    def verdict(self) -> str:
        """Canary state: ``refuse`` | ``insufficient`` | ``promote``."""
        if self.over_budget() is not None:
            return "refuse"
        if self.samples < self.budget.min_samples:
            return "insufficient"
        return "promote"

    def stats(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "observed": self.observed,
            "samples": self.samples,
            "matches": self.matches,
            "divergences": self.divergences,
            "divergence_rate": self.divergence_rate,
            "indeterminate": self.indeterminate,
            "errors": self.errors,
            "details": list(self.details),
        }


def load_version(state_dir: str, version: int) -> ConfigSet:
    """Load a persisted config artifact (``configs/v{N}.rbac``).

    Every staged version is persisted before its fate is decided, so
    refused and rolled-back versions remain loadable for audit and
    for :func:`~repro.config.replay.replay_wal`.
    """
    from repro.policy.dsl import parse_policy
    path = os.path.join(state_dir, "configs", f"v{int(version)}.rbac")
    if not os.path.exists(path):
        raise ConfigError(f"no persisted config version {version} "
                          f"under {state_dir!r} (expected {path})")
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    return ConfigSet.of(parse_policy(source), int(version), origin=path)


class PolicyLifecycle:
    """Versioned rollout controller for one live engine.

    ``state_dir`` (default: the attached Durability directory) receives
    one ``configs/v{N}.rbac`` artifact per staged version plus a
    ``manifest.json`` recording each version's checksum and fate.
    ``auto_promote`` lets :meth:`poll` promote on its own once the
    canary budget is satisfied (the SIGHUP/admin ``reload`` path);
    turn it off to require an explicit :meth:`promote`.
    """

    def __init__(self, engine: "ActiveRBACEngine", *,
                 state_dir: str | None = None,
                 budget: RolloutBudget | None = None,
                 auto_promote: bool = True) -> None:
        self.engine = engine
        self.budget = budget if budget is not None else RolloutBudget()
        if state_dir is None:
            wal = getattr(engine, "wal", None)
            state_dir = wal.directory if wal is not None else None
        self.state_dir = state_dir
        self.auto_promote = auto_promote
        #: the config version currently serving (None until adopt())
        self.active: ConfigSet | None = None
        #: staged candidate under canary, if any
        self.candidate: ConfigSet | None = None
        #: shadow comparator for the staged candidate
        self.comparator: ShadowComparator | None = None
        #: post-promotion hold comparator (previous kernel as shadow)
        self.hold: ShadowComparator | None = None
        #: (pre-promote spec, version) — the rollback target
        self._previous: tuple["PolicySpec", int | None] | None = None
        #: the promoted config the hold is policing
        self._promoted: ConfigSet | None = None
        #: cheap data-plane flag: a stage or hold is mirroring traffic
        self.armed = False
        #: transition log (stage/refuse/promote/rollback/settle rows)
        self.history: list[dict[str, Any]] = []
        self._stage_diff: dict[str, Any] | None = None
        self._pending_failure: str | None = None
        #: wall-clock nanoseconds the last swap spent between kernel
        #: invalidation and the fresh kernel being ready (the
        #: "swap pause" benchmarks/smoke_policy.py budgets)
        self.last_swap_ns: int | None = None
        # keep the shadow engine alive while its kernel is in use
        self._shadow_engine: Any = None

    # ------------------------------------------------------------------
    # data plane: the decision tap (marks tallies, never transitions)
    # ------------------------------------------------------------------

    def _tap(self, path: str, session_id: str, user: str | None,
             operation: str, obj: str, granted: bool,
             scope: str | None = None) -> None:
        if self.hold is not None:
            self.hold.observe(path, session_id, user, operation, obj,
                              granted, scope)
        elif self.comparator is not None:
            self.comparator.observe(path, session_id, user, operation,
                                    obj, granted, scope)

    def note_failure(self, kind: str) -> None:
        """Record an out-of-band failure signal (breaker trip, guard
        rejection storm).  Applied at the next :meth:`poll`: during a
        hold it forces rollback, during a canary it refuses."""
        if self.armed:
            self._pending_failure = kind

    # ------------------------------------------------------------------
    # control plane: transitions
    # ------------------------------------------------------------------

    def adopt(self, version: int = 1, origin: str = "adopted",
              config: ConfigSet | None = None) -> ConfigSet:
        """Bless the engine's current policy as the active config.

        The baseline every later stage/promote/rollback is versioned
        against; WAL-logged as a ``config.promote`` so recovery knows
        which version was live.  ``config``, when given, must be the
        canonical form of that policy (the set the engine was just
        built from, as at boot); it is adopted as is, with its own
        version and origin, instead of canonicalising the policy again.
        Either way the engine and the active set share one spec until
        the engine's next edit copies it.
        """
        engine = self.engine
        if config is not None:
            version = config.version
        floor = engine.config_version or 0
        if version <= floor:
            raise ConfigError(
                f"config version must advance: {version} <= live {floor}")
        if config is None:
            config = ConfigSet.of(engine.shared_policy(), version,
                                  origin=origin)
        self.active = config.settled()
        engine.config_version = config.version
        self._persist(config, "active")
        engine._log("config.promote", version=config.version,
                    epoch=engine.policy_epoch, policy=config.source,
                    checksum=config.checksum, reason="adopt")
        engine.audit.record("config.adopt", version=config.version,
                            checksum=config.checksum)
        self._note("adopt", version=config.version)
        return config

    def stage(self, config: ConfigSet) -> dict[str, Any]:
        """Stage a candidate: validate, diff, compile, start the canary."""
        engine = self.engine
        if self.candidate is not None:
            raise ConfigError(
                f"candidate v{self.candidate.version} is already staged; "
                "promote, refuse or let the canary decide first")
        if self.hold is not None:
            raise ConfigError(
                f"promotion of v{self._promoted.version} is still in its "
                "hold window; wait for it to settle or roll back")
        floor = engine.config_version or 0
        if config.version <= floor:
            raise ConfigError(
                f"config version must advance: staged {config.version} "
                f"<= live {floor}")
        if policy_checksum(config.source) != config.checksum:
            raise ConfigError(
                f"config v{config.version} checksum mismatch: the "
                "artifact was modified after canonicalisation")
        base = self.active.spec if self.active is not None else engine.policy
        diff = diff_specs(base, config.spec)
        # candidate decision plane, compiled off to the side — the live
        # engine and its kernel are untouched until promotion
        from repro.engine import ActiveRBACEngine
        shadow = ActiveRBACEngine.from_policy(
            config.spec, clock=VirtualClock(start=engine.clock.now))
        kernel = shadow.kernel()
        self._shadow_engine = shadow
        self.candidate = config
        self._stage_diff = diff.summary()
        self.comparator = ShadowComparator(
            engine, kernel, self.budget, label=f"canary v{config.version}")
        engine.config_candidate = config.version
        engine.decision_tap = self._tap
        self.armed = True
        self._pending_failure = None
        self._persist(config, "staged")
        engine._log("config.stage", version=config.version,
                    checksum=config.checksum, diff=self._stage_diff)
        engine.audit.record("config.stage", version=config.version,
                            checksum=config.checksum,
                            changed_roles=self._stage_diff["changed_roles"])
        self._note("stage", version=config.version, diff=self._stage_diff)
        return {"staged": config.version, "diff": self._stage_diff,
                "budget": self.budget.describe()}

    def poll(self) -> dict[str, Any] | None:
        """Apply whatever transition the tallies justify (control plane).

        The serving plane calls this between requests; tests and the
        CLI call it directly.  Returns the transition report, or None
        when nothing changed.
        """
        failure = self._pending_failure
        if self.hold is not None:
            if failure is not None:
                self._pending_failure = None
                return self.rollback(f"failure:{failure}")
            burst = self.hold.over_budget()
            if burst is not None:
                return self.rollback(f"hold {burst}")
            if self.hold.observed >= self.budget.hold_checks:
                return self._settle()
            return None
        if self.candidate is not None:
            if failure is not None:
                self._pending_failure = None
                return self.refuse(f"failure:{failure}")
            verdict = self.comparator.verdict()
            if verdict == "refuse":
                return self.refuse(
                    f"canary {self.comparator.over_budget()}")
            if verdict == "promote" and self.auto_promote:
                return self.promote()
        return None

    def promote(self, force: bool = False) -> dict[str, Any]:
        """Swap the staged candidate in (the atomic hot-swap).

        Without ``force`` the canary budget must be satisfied; a
        failing canary refuses instead.  A forced promotion past a
        failing (or unsampled) canary still enters the hold window —
        divergence there triggers automatic rollback.
        """
        if self.candidate is None:
            raise ConfigError("no candidate staged")
        engine = self.engine
        config = self.candidate
        canary = self.comparator.stats()
        if not force:
            verdict = self.comparator.verdict()
            if verdict == "refuse":
                return self.refuse(
                    f"canary {self.comparator.over_budget()}")
            if verdict == "insufficient":
                raise ConfigError(
                    f"canary has {self.comparator.samples}/"
                    f"{self.budget.min_samples} comparable samples; "
                    "keep shadowing or promote(force=True)")
        # the previous decision plane, compiled before any state moves:
        # the hold shadows it to detect live-answer drift post-swap
        prev_kernel = engine._kernel
        if prev_kernel is None or not prev_kernel.fresh(engine):
            prev_kernel = engine.kernel()
        self._previous = (engine.shared_policy(), engine.config_version)
        apply_report = self._apply_delta(engine.policy, config.spec)
        swap = self._swap("config.promote", version=config.version,
                          checksum=config.checksum, forced=force,
                          canary_samples=canary["samples"],
                          canary_divergences=canary["divergences"])
        engine.config_version = config.version
        engine.config_candidate = None
        self.active = self._promoted = config.settled()
        self.candidate = None
        self.comparator = None
        self._shadow_engine = None
        # hold: keep mirroring, now against the previous kernel
        self.hold = ShadowComparator(engine, prev_kernel, self.budget,
                                     label=f"hold v{config.version}")
        self._persist(config, "active")
        engine.audit.record("config.promote", version=config.version,
                            forced=force, samples=canary["samples"],
                            divergences=canary["divergences"],
                            skipped_ops=len(apply_report["skipped"]))
        report = {"promoted": config.version, "forced": force,
                  "canary": canary, "apply": apply_report, "swap": swap,
                  "hold_checks": self.budget.hold_checks}
        self._note("promote", **{k: report[k] for k in
                                 ("promoted", "forced", "swap")})
        return report

    def refuse(self, reason: str) -> dict[str, Any]:
        """Refuse the staged candidate (never served a live decision)."""
        if self.candidate is None:
            raise ConfigError("no candidate staged")
        engine = self.engine
        config = self.candidate
        canary = self.comparator.stats() if self.comparator else None
        engine._log("config.refuse", version=config.version,
                    checksum=config.checksum, reason=reason)
        engine.audit.record("config.refuse", version=config.version,
                            reason=reason)
        engine.config_candidate = None
        self.candidate = None
        self.comparator = None
        self._stage_diff = None
        self._shadow_engine = None
        self._disarm()
        self._manifest_update(config.version, "refused")
        self._note("refuse", version=config.version, reason=reason)
        return {"refused": config.version, "reason": reason,
                "canary": canary}

    def rollback(self, reason: str) -> dict[str, Any]:
        """Revert the last promotion (automatic or operator-driven).

        Only the promote *delta* is reverted: administrative changes
        made after the promotion that are outside the delta survive,
        so a rollback converges with an engine that never promoted but
        received the same concurrent administration.
        """
        if self._previous is None or self._promoted is None:
            raise ConfigError("no promotion to roll back")
        engine = self.engine
        promoted = self._promoted
        prev_spec, prev_version = self._previous
        hold_stats = self.hold.stats() if self.hold is not None else None
        apply_report = self._apply_delta(promoted.spec, prev_spec)
        swap = self._swap("config.rollback",
                          version=int(prev_version or 0),
                          from_version=promoted.version, reason=reason)
        engine.config_version = prev_version
        engine.config_candidate = None
        engine.config_last_rollback = {
            "from_version": promoted.version,
            "to_version": prev_version,
            "reason": reason,
            "at": engine.clock.now,
        }
        self.active = (ConfigSet.of(prev_spec, prev_version,
                                    origin="rollback").settled()
                       if prev_version else None)
        self.hold = None
        self._previous = None
        self._promoted = None
        self._disarm()
        # forensics: the decisions that led here are in the ring
        engine.dump_flight(f"config.rollback:{reason}")
        engine.audit.record("config.rollback", version=promoted.version,
                            to_version=prev_version, reason=reason)
        self._manifest_update(promoted.version, "rolled-back")
        report = {"rolled_back": promoted.version,
                  "restored": prev_version, "reason": reason,
                  "hold": hold_stats, "apply": apply_report,
                  "swap": swap}
        self._note("rollback", version=promoted.version, reason=reason)
        return report

    def _settle(self) -> dict[str, Any]:
        """The hold window passed clean: the promotion is final."""
        stats = self.hold.stats() if self.hold is not None else None
        version = self._promoted.version if self._promoted else None
        self.hold = None
        self._previous = None
        self._promoted = None
        self._disarm()
        self.engine.audit.record("config.settle", version=version)
        self._note("settle", version=version)
        return {"settled": version, "hold": stats}

    def _disarm(self) -> None:
        """Stop mirroring once nothing is staged or held."""
        if self.candidate is None and self.hold is None:
            self.armed = False
            self._pending_failure = None
            if self.engine.decision_tap == self._tap:
                self.engine.decision_tap = None

    # ------------------------------------------------------------------
    # the swap machinery
    # ------------------------------------------------------------------

    def _apply_delta(self, old_spec: "PolicySpec",
                     new_spec: "PolicySpec") -> dict[str, Any]:
        """Apply the old→new delta to the live engine.

        Every op, extension descriptors included, goes through the
        engine's one op table
        (:meth:`~repro.engine.ActiveRBACEngine.apply`), so session
        revocation, SoD enforcement, the validator's checks and audit
        behave exactly like a hand-applied change; an op the drifted
        live state no longer accepts is skipped, leaves no trace, and
        is reported, never fatal.  Only the delta moves, so policy
        drift outside it survives on both legs.
        Rules regenerate once, after the last op, for the roles whose
        rule signature moved between the live policy before the first
        op and after the last; per-op ``policy.epoch`` WAL records are
        suppressed — the caller logs the one swap record that carries
        the final policy.
        """
        engine = self.engine
        diff = diff_specs(old_spec, new_spec)
        before = rule_signatures(engine.policy)
        skipped: list[dict[str, Any]] = []
        for op in diff.model_ops:
            try:
                engine.apply(op, batch=True)
            except (ReproError, KeyError, ValueError) as exc:
                skipped.append({"op": op[0],
                                "args": [repr(a) for a in op[1:]],
                                "error": str(exc)})
        roles = moved_roles(before, engine.policy)
        report = engine._regenerate(roles) if roles else None
        return {"diff": diff.summary(), "skipped": skipped,
                "regenerated": sorted(report.affected_roles
                                      if report else ())}

    def _swap(self, op: str, **data: Any) -> dict[str, Any]:
        """The atomic decision-plane swap: one epoch bump, one WAL
        record carrying the final rendered policy, eager recompile.

        Readers keep the old kernel until the fresh one is published
        (RCU discipline: the engine swaps ``_kernel`` in one
        assignment); ``last_swap_ns`` is the recompile pause the
        benchmark budgets."""
        engine = self.engine
        engine._note_policy_change(op, **data)
        start = time.perf_counter_ns()
        engine.invalidate_kernel()
        rebuilt = False
        if engine.kernel_enabled:
            engine.kernel()
            rebuilt = True
        self.last_swap_ns = time.perf_counter_ns() - start
        return {"epoch": engine.policy_epoch,
                "kernel_rebuilt": rebuilt,
                "pause_ns": self.last_swap_ns}

    # ------------------------------------------------------------------
    # persistence + status
    # ------------------------------------------------------------------

    def _configs_dir(self) -> str | None:
        if self.state_dir is None:
            return None
        path = os.path.join(self.state_dir, "configs")
        os.makedirs(path, exist_ok=True)
        return path

    def _persist(self, config: ConfigSet, status: str) -> str | None:
        directory = self._configs_dir()
        if directory is None:
            return None
        path = os.path.join(directory, f"v{config.version}.rbac")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(config.source)
        self._manifest_update(config.version, status,
                              row=config.describe())
        return path

    def _manifest_update(self, version: int, status: str,
                         row: dict[str, Any] | None = None) -> None:
        directory = self._configs_dir()
        if directory is None:
            return
        path = os.path.join(directory, "manifest.json")
        manifest: dict[str, Any] = {"versions": {}}
        if os.path.exists(path):
            try:
                with open(path, encoding="utf-8") as handle:
                    manifest = json.load(handle)
            except (OSError, ValueError):
                manifest = {"versions": {}}
        versions = manifest.setdefault("versions", {})
        entry = versions.setdefault(str(version), {})
        if row is not None:
            entry.update(row)
        entry["status"] = status
        entry["at"] = self.engine.clock.now
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)

    def _note(self, event: str, **data: Any) -> None:
        self.history.append({"event": event, "t": self.engine.clock.now,
                             **data})

    def status(self) -> dict[str, Any]:
        if self.hold is not None:
            phase = "hold"
        elif self.candidate is not None:
            phase = "canary"
        else:
            phase = "idle"
        return {
            "phase": phase,
            "active_version": self.engine.config_version,
            "candidate_version": self.engine.config_candidate,
            "budget": self.budget.describe(),
            "auto_promote": self.auto_promote,
            "canary": (self.comparator.stats()
                       if self.comparator is not None else None),
            "hold": self.hold.stats() if self.hold is not None else None,
            "last_rollback": self.engine.config_last_rollback,
            "last_swap_ns": self.last_swap_ns,
            "state_dir": self.state_dir,
            "history": self.history[-10:],
        }
