"""Multi-tenant shards: one engine + WAL + published kernel per domain.

The service plane serves many tenants from one process.  Each tenant
("shard") is a full :class:`~repro.engine.ActiveRBACEngine` — its own
policy, rule pool, WAL and compiled :class:`~repro.kernel.PolicyKernel`
— registered as a domain of a :class:`~repro.federation.Federation`, so
cross-tenant visits ride the existing role-mapping machinery unchanged.

**RCU-style epoch swap.**  The kernel is immutable per policy epoch
(see ``repro/kernel.py``), which makes it exactly the artifact that can
be read lock-free behind a request loop: a :class:`Shard` holds the
*published* kernel in one attribute, request handlers read that
reference once per check (a single atomic load under the GIL), and the
control plane publishes a new epoch by recompiling and then performing
one reference assignment (:meth:`Shard.publish`).  Readers that loaded
the old reference keep deciding against the old epoch until they
finish — the classic read-copy-update contract — and never pay (or
wait on) a recompile: the control plane compiles, readers only swing a
pointer.  ``tests/integration/test_serve.py`` verifies the contract
differentially (old reference keeps answering the old epoch while the
router already serves the new one).

Routing is keyed on **home domain**: ``wei@hq`` routes to shard ``hq``
unless an explicit target domain says otherwise, in which case the
federation's role mappings provision a guest principal in the host
shard (:meth:`ShardRouter.resolve`).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.clock import Deadline
from repro.engine import OPS, SCOPED, ActiveRBACEngine, with_scope
from repro.errors import (
    AdministrationError,
    DeadlineExceeded,
    OperationDenied,
    ReproError,
    RuleExecutionError,
)
from repro.federation import Federation, RoleMapping, guest_principal
from repro.kernel import KERNEL_GRANT, PolicyKernel

__all__ = ["Shard", "ShardRouter", "ADMIN_OPS", "LIFECYCLE_OPS", "wire_op"]


#: Control-plane operations the service front-end accepts over
#: ``POST /v1/admin``: wire name -> (target, argument keys).  A target
#: in :data:`repro.engine.OPS` is a policy edit; the rest are engine
#: methods.  The shard republishes the kernel afterwards, so a
#: mutation is one epoch swap from the readers' point of view.
ADMIN_OPS: dict[str, tuple[str, ...]] = {
    "grant": ("grant", "role", "operation", "object"),
    "revoke": ("revoke", "role", "operation", "object"),
    "add_permission": ("add_permission", "operation", "object"),
    "add_role": ("add_role", "role"),
    "add_scope": ("add_scope", "scope"),
    "remove_scope": ("remove_scope", "scope"),
    "assign": ("assign_user", "user", "role"),
    "deassign": ("deassign_user", "user", "role"),
    "enable_role": ("enable_role", "role"),
    "disable_role": ("disable_role", "role"),
    "lock_user": ("lock_user", "user"),
    "unlock_user": ("unlock_user", "user"),
}


def wire_op(op: str, args: dict[str, Any]) -> tuple[Any, ...]:
    """The op tuple one :data:`ADMIN_OPS` request applies: ``assign``
    with a ``scope`` is ``("assign_scoped", user, role, scope)``, and
    ``add_scope`` takes an optional ``parent``.  A missing argument
    raises KeyError (the front end answers 400)."""
    name, *keys = ADMIN_OPS[op]
    values = [args[key] for key in keys]
    if name == "add_scope":
        return (name, *values, args.get("parent"))
    if name in SCOPED:
        return with_scope((name, *values), args.get("scope"))
    return (name, *values)


#: Policy-lifecycle operations (``repro/config/lifecycle.py``) the
#: admin endpoint accepts alongside :data:`ADMIN_OPS`.  Unlike plain
#: admin ops these do not mutate the live policy directly: ``reload``
#: and ``config_stage`` start a shadow-compare canary, and the swap
#: only happens through the lifecycle's budgeted promotion.
LIFECYCLE_OPS = frozenset({
    "reload", "config_stage", "config_promote", "config_rollback",
    "config_status",
})


class Shard:
    """One tenant: an engine, its durability, and the published kernel."""

    def __init__(self, name: str, engine: ActiveRBACEngine,
                 durability: Any = None,
                 config_path: str | None = None) -> None:
        self.name = name
        self.engine = engine
        #: optional :class:`~repro.wal.Durability`; the server's
        #: graceful shutdown flushes its group-commit buffer
        self.durability = durability
        #: config file SIGHUP / ``reload`` re-reads (the ``--shard
        #: NAME=FILE`` path the shard was booted from)
        self.config_path = config_path
        #: staged-rollout controller, created on first lifecycle op
        self.lifecycle: Any = None
        #: user/principal -> live session id (lazily created)
        self._sessions: dict[str, str] = {}
        #: epoch swaps published (reference replacements, not compiles)
        self.swaps = 0
        #: checks served through this shard (both paths)
        self.checks = 0
        #: checks that carried an explicit scope (subset of ``checks``)
        self.scoped_checks = 0
        self._kernel: PolicyKernel | None = None
        self.publish()

    # -- the RCU surface ---------------------------------------------------

    @property
    def kernel(self) -> PolicyKernel | None:
        """The published kernel — the single reference readers load."""
        return self._kernel

    @property
    def epoch(self) -> int:
        kernel = self._kernel
        return -1 if kernel is None else kernel.epoch

    def publish(self) -> PolicyKernel:
        """Compile (if stale) and swap the published reference.

        Compilation happens here, on the control plane; the swap itself
        is one attribute assignment, so a reader either sees the old
        kernel or the new one, never a half-built state.  Returns the
        kernel now published.
        """
        kernel = self.engine.kernel()
        if kernel is not self._kernel:
            self._kernel = kernel
            self.swaps += 1
        return kernel

    def admin_op(self, op: str, args: dict[str, Any]) -> dict[str, Any]:
        """Apply a named :data:`ADMIN_OPS` mutation, then republish;
        returns the swap summary the HTTP admin endpoint responds with.

        The mutation and the republish run back-to-back on the control
        plane; request handlers keep reading whichever kernel reference
        they already hold.
        """
        if op in LIFECYCLE_OPS:
            return self.lifecycle_op(op, args)
        if op not in ADMIN_OPS:
            raise AdministrationError(f"unknown admin op {op!r}")
        name, *values = change = wire_op(op, args)
        before = self.epoch
        try:
            if name in OPS:
                self.engine.apply(change)
            else:
                getattr(self.engine, name)(*values)
        finally:
            self.publish()
        return {"op": op, "shard": self.name, "epoch": self.epoch,
                "previous_epoch": before,
                "swapped": self.epoch != before}

    # -- policy lifecycle --------------------------------------------------

    def ensure_lifecycle(self, budget: Any = None) -> Any:
        """The shard's rollout controller, created on first use.

        Versions and manifest persist next to the shard's WAL (its
        Durability directory) when one is attached.
        """
        if self.lifecycle is None:
            from repro.config.lifecycle import PolicyLifecycle
            self.lifecycle = PolicyLifecycle(self.engine, budget=budget)
        return self.lifecycle

    def lifecycle_op(self, op: str, args: dict[str, Any]) -> dict[str, Any]:
        """Apply one staged-rollout operation (``reload``,
        ``config_stage``, ``config_promote``, ``config_rollback``,
        ``config_status``).

        ``reload`` re-reads the shard's config file (or ``args.path``)
        and *stages* it — the hot path keeps serving the published
        kernel; promotion happens through the canary budget (or an
        explicit ``config_promote``).  Every op republishes, so any
        swap the lifecycle performed becomes visible immediately.
        """
        from repro.config.loader import (
            ConfigError,
            MissingConfigVersion,
            load_config,
        )
        lifecycle = self.ensure_lifecycle()
        try:
            if op == "config_status":
                return {"op": op, "shard": self.name,
                        "status": lifecycle.status()}
            if op in ("reload", "config_stage"):
                # staged under the live policy's name (the shard name
                # for a served boot): a promotion never renames the
                # policy, so the name must not move the checksum
                name = self.engine.policy.name
                path = args.get("path") or self.config_path
                version = args.get("version")
                if args.get("source") is not None:
                    from repro.config.loader import parse_config
                    config = parse_config(
                        str(args["source"]), args.get("format", "yaml"),
                        version=version, name=name)
                elif path is not None:
                    try:
                        config = load_config(path, version=version,
                                             name=name)
                    except MissingConfigVersion:
                        # raw DSL files carry no version key: a reload
                        # of one auto-assigns the next version id
                        config = load_config(
                            path,
                            version=(self.engine.config_version or 1) + 1,
                            name=name)
                else:
                    raise AdministrationError(
                        f"{op}: shard {self.name!r} has no config path "
                        "and no source was supplied")
                active = lifecycle.active
                if active is not None \
                        and config.checksum == active.checksum:
                    # repeated SIGHUPs of an unchanged file are no-ops:
                    # same canonical policy, nothing to stage
                    return {"op": op, "shard": self.name,
                            "unchanged": True,
                            "active_version": active.version,
                            "checksum": config.checksum}
                if lifecycle.active is None \
                        and self.engine.config_version is None \
                        and config.version > 1:
                    # first rollout ever: version the running policy so
                    # a later rollback has a concrete baseline version
                    # (a v1 stage diffs against the live policy as-is)
                    lifecycle.adopt(config.version - 1)
                report = lifecycle.stage(config)
                return {"op": op, "shard": self.name, **report}
            if op == "config_promote":
                report = lifecycle.promote(force=bool(args.get("force")))
                return {"op": op, "shard": self.name, **report}
            if op == "config_rollback":
                report = lifecycle.rollback(
                    str(args.get("reason", "operator")))
                return {"op": op, "shard": self.name, **report}
            raise AdministrationError(f"unknown lifecycle op {op!r}")
        except ConfigError as exc:
            raise AdministrationError(str(exc)) from None
        finally:
            self.publish()

    def poll_lifecycle(self) -> dict[str, Any] | None:
        """Control-plane tick: let the lifecycle apply any transition
        its tallies justify, republishing if the policy swapped.
        Cheap no-op (two attribute reads) when nothing is in flight."""
        lifecycle = self.lifecycle
        if lifecycle is None or not lifecycle.armed:
            return None
        transition = lifecycle.poll()
        if transition is not None:
            self.publish()
        return transition

    # -- sessions ----------------------------------------------------------

    def session_for(self, user: str) -> str:
        """The user's live served session, created on first touch.

        A served session activates every assigned role (best-effort:
        DSD/cardinality conflicts skip the offending role rather than
        failing the whole login), mirroring what a stateless check API
        means by "may the user do this".  Sessions destroyed underneath
        us (lockout, countermeasures) are transparently re-created on
        the next request — or denied, if the rules now say so.  The
        table is keyed on the policy's own copy of the name
        (:attr:`RBACModel.names <repro.rbac.model.RBACModel.names>`),
        not on the string parsed from the first request.
        """
        engine = self.engine
        user = engine.model.names.get(user, user)
        sid = self._sessions.get(user)
        if sid is not None and sid in engine.model.sessions:
            return sid
        sid = engine.create_session(user)
        self.activate_assigned(sid, user)
        self._sessions[user] = sid
        return sid

    def activate_assigned(self, sid: str, user: str) -> None:
        """Best-effort activate every assigned role in ``sid``."""
        engine = self.engine
        for role in sorted(engine.model.assigned_roles(user)):
            try:
                engine.add_active_role(sid, role)
            except ReproError:
                pass

    def sessions(self) -> int:
        """Live served sessions (stale cache entries excluded)."""
        live = self.engine.model.sessions
        return sum(1 for sid in self._sessions.values() if sid in live)

    # -- the read path -----------------------------------------------------

    def check(self, user: str, operation: str, obj: str,
              purpose: str | None = None,
              deadline: Deadline | None = None,
              scope: str | None = None) -> dict[str, Any]:
        """Serve one access check against the published kernel.

        Provisions the caller's session, loads the published reference
        once and hands both to :meth:`ActiveRBACEngine.require_access
        <repro.engine.ActiveRBACEngine.require_access>`, whose one
        gate decides the path — the same path, counters and audit
        records an in-process check gets.  Readers never compile: a
        stale engine keeps being answered from the reference loaded
        here until the control plane publishes.

        ``deadline`` is the per-request budget the front-end threads
        down from the ``X-Deadline-Ms`` header / ``--request-timeout-ms``
        default, under the engine's one rule: a live budget keeps a
        static check on the kernel, a budget exhausted before dispatch
        denies fail-closed, and the response carries ``timed_out`` so
        the front-end can separate overload denials from policy
        denials.
        """
        sid = self.session_for(user)
        self.checks += 1
        if scope is not None:
            self.scoped_checks += 1
        kernel = self._kernel  # the single atomic reference read
        result = {"allowed": False, "path": None,
                  "shard": self.name, "session": sid, "epoch": self.epoch}
        try:
            result["path"] = self.engine.require_access(
                sid, operation, obj, purpose, deadline=deadline,
                scope=scope, kernel=kernel)
            result["allowed"] = True
        except DeadlineExceeded as denial:
            result.update(path=denial.path, timed_out=True)
        except (OperationDenied, RuleExecutionError) as denial:
            result["path"] = denial.path
        return result

    def _after_check(self) -> None:
        """Post-decision control-plane tick (the front-end calls this
        outside the response path; direct callers get it via
        :meth:`checked`)."""
        self.poll_lifecycle()

    def checked(self, user: str, operation: str, obj: str,
                purpose: str | None = None,
                deadline: Deadline | None = None,
                scope: str | None = None) -> dict[str, Any]:
        """:meth:`check` plus the lifecycle tick — the entry point for
        embedded callers that have no serving loop to poll from."""
        try:
            return self.check(user, operation, obj, purpose=purpose,
                              deadline=deadline, scope=scope)
        finally:
            self._after_check()

    def check_degraded(self, user: str, operation: str, obj: str,
                       scope: str | None = None) -> dict[str, Any]:
        """Answer one read from the frozen published kernel only.

        The degraded-mode read path the front-end serves while this
        shard's circuit breaker is open: no engine pipeline, no
        session provisioning, no events — one pure evaluate against the
        last-good published kernel epoch.  Strictly fail-closed:

        * a caller with no already-live served session is denied (a
          session cannot be provisioned without touching the faulting
          engine);
        * anything the kernel classifies dynamic (context-gated roles,
          privacy-regulated objects, quarantined coverage) is denied
          rather than delegated — there is no interpreted pipeline to
          delegate to.

        Each decision is still recorded in the engine's flight
        recorder (path ``degraded``) so forensics cover the outage
        window.
        """
        self.checks += 1
        if scope is not None:
            self.scoped_checks += 1
        kernel = self._kernel
        sid = self._sessions.get(user)
        allowed, reason = False, "no_session"
        if sid is not None:
            reason = "no_kernel"
            if kernel is not None:
                # evaluate is pure: no fallback counter moves, so the
                # taxonomy only ever reflects the live path
                verdict, reason = kernel.evaluate(sid, operation, obj,
                                                  scope)
                allowed = verdict == KERNEL_GRANT
        engine = self.engine
        engine.flight.note_decision(
            engine.clock.now, "degraded", sid or "-", user, operation,
            obj, "grant" if allowed else "deny",
            reason=reason, cause="breaker_open")
        return {"allowed": allowed, "path": "degraded",
                "shard": self.name, "session": sid,
                "epoch": self.epoch, "degraded": True}

    def explain(self, user: str, operation: str, obj: str,
                purpose: str | None = None,
                scope: str | None = None) -> dict[str, Any]:
        """Read-only derivation for one check (``GET /v1/explain``)."""
        sid = self.session_for(user)
        payload = self.engine.explain(sid, operation, obj,
                                      purpose=purpose,
                                      scope=scope).to_dict()
        payload["shard"] = self.name
        payload["epoch"] = self.epoch
        return payload

    # -- health ------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """The engine's degradation summary plus serve-plane fields."""
        report = self.engine.health()
        report["serve"] = {
            "shard": self.name,
            "published_epoch": self.epoch,
            "epoch_swaps": self.swaps,
            "checks": self.checks,
            "scoped_checks": self.scoped_checks,
            "sessions": self.sessions(),
            "wal_attached": self.durability is not None,
        }
        if self.lifecycle is not None:
            status = self.lifecycle.status()
            report["lifecycle"] = {
                "phase": status["phase"],
                "active_version": status["active_version"],
                "candidate_version": status["candidate_version"],
                "canary": status["canary"],
                "hold": status["hold"],
            }
        return report


class ShardRouter:
    """Route requests to tenant shards by home domain.

    A thin registry over a :class:`~repro.federation.Federation`: every
    shard is a federation domain, so the existing cross-domain role
    mappings double as the cross-*shard* entitlement rules.  Routing:

    1. an explicit ``domain`` field wins;
    2. else a ``name@home`` user routes to their home shard;
    3. else, with exactly one shard registered, that shard serves;
    4. anything else is an :class:`~repro.errors.AdministrationError`.

    A ``name@home`` user targeting a *different* domain is a visitor:
    the federation's mappings provision the guest principal (and its
    guest session) in the host shard on first touch, so every host-side
    constraint applies to the visitor exactly as to locals.
    """

    def __init__(self, federation: Federation | None = None) -> None:
        self.federation = federation if federation is not None \
            else Federation()
        self._shards: dict[str, Shard] = {}
        #: mappings :meth:`sync_federation` registered from config
        #: declarations (the only ones it will ever remove)
        self._synced_mappings: set[RoleMapping] = set()

    # -- registry ----------------------------------------------------------

    def add_shard(self, name: str, engine: ActiveRBACEngine,
                  durability: Any = None,
                  config_path: str | None = None) -> Shard:
        self.federation.add_domain(name, engine)
        shard = self._shards[name] = Shard(name, engine, durability,
                                           config_path=config_path)
        return shard

    def add_mapping(self, mapping: RoleMapping) -> None:
        self.federation.add_mapping(mapping)

    def sync_federation(self) -> dict[str, Any]:
        """Reconcile federation mappings with the shards' config state.

        Each shard's ``engine.policy.federation_maps`` declares the
        mappings *originating* from that shard (``home_domain`` is the
        shard itself) — the config-set form of the CLI's ``--map``.
        Desired-state sync: declared-but-missing mappings are added,
        and mappings *this sync itself registered* whose declaration
        disappeared (a promoted config dropped them) are removed.
        Hand-registered mappings (CLI ``--map`` / ``add_mapping``) are
        never touched.  A declaration whose host shard or host role
        does not (yet) exist is *skipped* fail-closed and reported —
        nothing is guessed, and the next sync picks it up once the
        host side exists.
        """
        desired: set[RoleMapping] = set()
        for name, shard in self._shards.items():
            for home_role, host_domain, host_role in getattr(
                    shard.engine.policy, "federation_maps", ()):
                if host_domain == name:
                    continue  # RoleMapping refuses same-domain maps
                desired.add(RoleMapping(name, home_role, host_domain,
                                        host_role))
        added: list[str] = []
        removed: list[str] = []
        skipped: list[dict[str, str]] = []
        current = set(self.federation._mappings)
        for mapping in sorted(desired - current,
                              key=RoleMapping.describe):
            try:
                self.federation.add_mapping(mapping)
                self._synced_mappings.add(mapping)
                added.append(mapping.describe())
            except ReproError as exc:
                skipped.append({"mapping": mapping.describe(),
                                "error": str(exc)})
        for mapping in sorted(self._synced_mappings - desired,
                              key=RoleMapping.describe):
            self.federation.remove_mapping(mapping)
            self._synced_mappings.discard(mapping)
            removed.append(mapping.describe())
        return {"added": added, "removed": removed, "skipped": skipped}

    def shard(self, name: str) -> Shard:
        try:
            return self._shards[name]
        except KeyError:
            raise AdministrationError(f"unknown shard {name!r}") from None

    def shards(self) -> Iterator[Shard]:
        return iter(self._shards.values())

    def __len__(self) -> int:
        return len(self._shards)

    # -- routing -----------------------------------------------------------

    def route(self, user: str,
              domain: str | None = None) -> tuple[Shard, str]:
        """Pure routing: map ``(user, domain?)`` to ``(shard, principal)``.

        Side-effect free — no guest provisioning, no engine touched —
        so the front-end can pick the target shard (and consult its
        bulkhead/breaker guard) *before* committing any work to it.
        The principal is the name the shard's engine knows the caller
        by: the bare name at home, the ``name@home`` guest principal
        when visiting.
        """
        name, at, home = user.partition("@")
        if not name:
            raise AdministrationError(f"empty user in {user!r}")
        if domain is None:
            if at:
                domain = home
            elif len(self._shards) == 1:
                domain = next(iter(self._shards))
            else:
                raise AdministrationError(
                    f"cannot route {user!r}: no domain given and "
                    f"{len(self._shards)} shards registered")
        shard = self.shard(domain)
        if not at or home == domain:
            return shard, name
        return shard, guest_principal(name, home)

    def resolve(self, user: str,
                domain: str | None = None) -> tuple[Shard, str]:
        """:meth:`route`, plus guest provisioning on first touch.

        Guest provisioning (user + mapped roles + session) happens
        here, through :meth:`Federation.visit` — fail-closed: an
        unreachable home domain raises
        :class:`~repro.errors.RetryExhausted` rather than guessing
        entitlements.
        """
        shard, principal = self.route(user, domain)
        name, at, home = user.partition("@")
        if not at or home == shard.name:
            return shard, principal
        # cross-shard visit: provision the guest on first touch
        engine = shard.engine
        if (principal not in engine.model.users
                or not engine.model.assigned_roles(principal)):
            sid = self.federation.visit(home, name, shard.name)
            # visit() opens the guest session with no roles active;
            # a stateless check API means "with everything the guest
            # is entitled to", so activate the mapped roles now
            shard.activate_assigned(sid, principal)
            shard._sessions[principal] = sid
        return shard, principal

    # -- request surface ---------------------------------------------------

    def check(self, user: str, operation: str, obj: str,
              domain: str | None = None,
              purpose: str | None = None,
              deadline: Deadline | None = None,
              scope: str | None = None) -> dict[str, Any]:
        shard, principal = self.resolve(user, domain)
        return shard.check(principal, operation, obj, purpose=purpose,
                           deadline=deadline, scope=scope)

    def explain(self, user: str, operation: str, obj: str,
                domain: str | None = None,
                purpose: str | None = None,
                scope: str | None = None) -> dict[str, Any]:
        shard, principal = self.resolve(user, domain)
        return shard.explain(principal, operation, obj, purpose=purpose,
                             scope=scope)

    def health(self) -> dict[str, Any]:
        """Aggregate health: ``ok`` only when every shard is ``ok``."""
        shards = {name: shard.health()
                  for name, shard in self._shards.items()}
        status = "ok" if all(
            report["status"] == "ok" for report in shards.values()
        ) else "degraded"
        return {"status": status, "shards": shards}

    def describe(self) -> str:
        lines = [f"router: {len(self._shards)} shard(s)"]
        for name, shard in sorted(self._shards.items()):
            lines.append(
                f"  {name}: epoch {shard.epoch}, "
                f"{len(shard.engine.rules)} rules, "
                f"{len(shard.engine.model.users)} users, "
                f"wal={'on' if shard.durability is not None else 'off'}")
        return "\n".join(lines)
