"""Command-line interface: the administrator's console.

Usage (also via ``python -m repro``)::

    repro-rbac check policy.rbac [--trace]  # parse + validate + verify
    repro-rbac graph policy.rbac            # the Figure 1 graph
    repro-rbac rules policy.rbac [--role R] # generated OWTE rules
    repro-rbac simulate policy.rbac --requests 1000 --seed 7 [--trace]
    repro-rbac metrics policy.rbac          # simulate + dump metrics
    repro-rbac fmt policy.rbac              # canonical DSL rendering
    repro-rbac health policy.rbac [--chaos-seed N]  # degradation summary
    repro-rbac recover state-dir/           # snapshot + WAL replay
    repro-rbac kernel policy.rbac           # compiled decision plane stats
    repro-rbac explain policy.rbac USER OPERATION OBJECT  # derivation
    repro-rbac flightrec policy.rbac        # drive + dump flight recorder
    repro-rbac obs top policy.rbac          # hottest / slowest rules
    repro-rbac serve --shard hq=hq.rbac --shard lab=lab.rbac  # HTTP plane
    repro-rbac serve --synthetic 2 --users 10000    # synthetic fleet
    repro-rbac config validate deploy.yaml          # versioned config set
    repro-rbac config diff v1.yaml v2.yaml          # staged change script
    repro-rbac replay state-dir/ --config-version 2 # deterministic replay

``--trace`` turns on the structured tracer and prints span trees for
denied operations ("explain why this request was denied"); ``metrics``
drives the same synthetic stream as ``simulate`` and dumps the metrics
registry in Prometheus text and/or JSON.

Exit status: 0 on success/clean, 1 on validation or verification
errors, 2 on usage/IO errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import ActiveRBACEngine, PolicyGraph, parse_policy
from repro.errors import PolicySyntaxError, ReproError
from repro.policy.dsl import render_policy
from repro.policy.validator import validate_policy
from repro.synthesis.verify import (
    errors_only,
    render_findings,
    verify_rule_pool,
)


def _load(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    try:
        return parse_policy(text)
    except PolicySyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _print_traces(engine, header: str = "traces") -> None:
    """Render captured span trees: denied operations first (the
    "explain the denial" view), else the most recent roots."""
    tracer = engine.obs.tracer
    denied = tracer.render_forest(only_errors=True, limit=5)
    if denied:
        shown = sum(1 for r in tracer.roots() if r.has_error())
        print(f"--- {header}: {len(tracer)} captured, "
              f"{shown} denied (showing up to 5) ---")
        print(denied)
    elif len(tracer):
        print(f"--- {header}: {len(tracer)} captured, none denied "
              f"(showing up to 3) ---")
        print(tracer.render_forest(limit=3))
    else:
        print(f"--- {header}: nothing captured ---")
    if tracer.dropped:
        print(f"({tracer.dropped} older trace(s) dropped by the "
              f"capacity bound)")


def cmd_check(args: argparse.Namespace) -> int:
    spec = _load(args.policy)
    issues = validate_policy(spec)
    if issues:
        print(f"{len(issues)} validation issue(s):")
        for issue in issues:
            print(f"  - {issue}")
        return 1
    print(f"policy {spec.name!r}: valid "
          f"({len(spec.roles)} roles, {len(spec.users)} users)")
    engine = ActiveRBACEngine(spec)
    findings = verify_rule_pool(engine)
    print(render_findings(findings))
    print(f"generated {len(engine.rules)} rules, "
          f"{len(engine.detector)} events")
    if getattr(args, "trace", False):
        _probe_with_trace(engine, spec)
    return 1 if errors_only(findings) else 0


def _probe_with_trace(engine, spec) -> None:
    """Drive one live probe (session + activation + access checks) with
    the tracer on, then print the span trees — a dynamic complement to
    the static pool verification."""
    engine.obs.tracer.enabled = True
    try:
        if spec.assignments:
            user, role = spec.assignments[0]
            sid = engine.create_session(user)
            engine.add_active_role(sid, role)
            for operation, obj in spec.permissions[:3]:
                engine.check_access(sid, operation, obj)
            # one guaranteed denial so the trace shows the ELSE path
            engine.check_access(sid, "__probe_op__", "__probe_obj__")
        else:
            print("(no assignments in policy; nothing to probe)")
    except ReproError as exc:
        print(f"(probe stopped on {type(exc).__name__}: {exc})")
    finally:
        engine.obs.tracer.enabled = False
    _print_traces(engine, header="probe traces")


def cmd_graph(args: argparse.Namespace) -> int:
    spec = _load(args.policy)
    print(PolicyGraph(spec).render())
    return 0


def cmd_rules(args: argparse.Namespace) -> int:
    spec = _load(args.policy)
    engine = ActiveRBACEngine(spec)
    if args.role:
        rules = engine.rules.by_tags(**{f"role:{args.role}": "1"})
        if not rules:
            print(f"no rules tagged for role {args.role!r}",
                  file=sys.stderr)
            return 1
        for rule in sorted(rules, key=lambda r: r.name):
            print(rule.render())
            print()
    else:
        print(engine.rules.render_pool())
    return 0


def _drive_stream(engine, spec, requests: int,
                  seed: int) -> tuple[int, int, int]:
    """Run the synthetic request stream against an engine; returns
    ``(allowed, denied, rejected_with_error)``.  Shared by ``simulate``
    and ``metrics``."""
    from repro.workloads import generate_request_stream

    sessions: dict[str, str] = {}
    allowed = denied = errors = 0
    for request in generate_request_stream(spec, requests, seed=seed):
        try:
            if request.kind == "create_session":
                sessions[request.user] = engine.create_session(
                    request.user)
            elif request.kind == "activate":
                sid = sessions.get(request.user)
                if sid is None:
                    sid = sessions[request.user] = \
                        engine.create_session(request.user)
                engine.add_active_role(sid, request.role)
                allowed += 1
            elif request.kind == "check":
                sid = sessions.get(request.user)
                if sid is None:
                    sid = sessions[request.user] = \
                        engine.create_session(request.user)
                if engine.check_access(sid, request.operation,
                                       request.obj):
                    allowed += 1
                else:
                    denied += 1
        except ReproError:
            errors += 1
    return allowed, denied, errors


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _load(args.policy)
    engine = ActiveRBACEngine(spec)
    if args.trace:
        engine.obs.tracer.enabled = True
    allowed, denied, errors = _drive_stream(engine, spec,
                                            args.requests, args.seed)
    print(f"simulated {args.requests} requests over policy "
          f"{spec.name!r}")
    print(f"  allowed: {allowed}  denied: {denied}  "
          f"rejected-with-error: {errors}")
    print(f"  detector: {engine.detector.stats()}")
    print()
    print(engine.audit.report())
    if args.trace:
        print()
        _print_traces(engine)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Drive the simulated stream, then dump the metrics registry."""
    spec = _load(args.policy)
    engine = ActiveRBACEngine(spec)
    allowed, denied, errors = _drive_stream(engine, spec,
                                            args.requests, args.seed)
    print(f"# simulated {args.requests} requests over policy "
          f"{spec.name!r} (allowed={allowed} denied={denied} "
          f"errors={errors})")
    registry = engine.obs.metrics
    if args.format in ("prom", "both"):
        print(registry.render_prometheus(), end="")
    if args.format in ("json", "both"):
        print(registry.render_json_text())
    return 0


def cmd_fmt(args: argparse.Namespace) -> int:
    print(render_policy(_load(args.policy)))
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    """Drive the synthetic stream, then print the degradation summary.

    With ``--chaos-seed`` a deterministic fault schedule is injected
    into the highest-priority checkAccess rule first, demonstrating
    fail-closed containment and quarantine on a live policy.
    Exit status: 0 when the engine reports ``ok``, 1 when degraded.
    """
    import json as _json

    spec = _load(args.policy)
    engine = ActiveRBACEngine(spec)
    chaos = None
    if args.chaos_seed is not None:
        from repro.testing.faults import FaultInjector

        chaos = FaultInjector(seed=args.chaos_seed, clock=engine.clock)
        victims = engine.rules.rules_for_event("checkAccess")
        if victims:
            point = chaos.instrument_rule(victims[0], clause="then")
            chaos.arm(point, error=ZeroDivisionError, rate=args.chaos_rate)
    try:
        allowed, denied, errors = _drive_stream(engine, spec,
                                                args.requests, args.seed)
    finally:
        if chaos is not None:
            chaos.restore()
    health = engine.health()
    health["stream"] = {"allowed": allowed, "denied": denied,
                        "rejected_with_error": errors}
    if chaos is not None:
        health["chaos"] = chaos.summary()
    print(_json.dumps(health, indent=2, sort_keys=True))
    return 0 if health["status"] == "ok" else 1


def cmd_recover(args: argparse.Namespace) -> int:
    """Rebuild an engine from a durability directory (snapshot + WAL).

    Prints the recovery report; with ``--checkpoint`` the replayed
    tail is folded into a fresh snapshot and the WAL rotated, so the
    next recovery starts clean.  Exit status: 0 on a clean recovery,
    1 when a torn tail was truncated (state recovered, but the crash
    lost unsynced records), 2 when there is nothing to recover.
    """
    import json as _json

    from repro import wal as wal_mod

    try:
        engine, report = wal_mod.recover(args.directory)
    except FileNotFoundError as exc:
        print(f"error: no recoverable state in {args.directory}: {exc}",
              file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: corrupt durability state: {exc}", file=sys.stderr)
        return 2
    if args.checkpoint:
        durability = wal_mod.Durability(engine, args.directory)
        durability.close()
        report["checkpointed"] = True
    print(_json.dumps(report, indent=2, sort_keys=True))
    return 1 if report["torn"] else 0


def cmd_kernel(args: argparse.Namespace) -> int:
    """Compile the decision plane and print its statistics.

    Builds the engine, compiles the :class:`~repro.kernel.PolicyKernel`
    eagerly, optionally drives the synthetic request stream (so the
    kernel-vs-interpreted decision split is populated), and prints one
    JSON report: compilation stats (interned entities, bitset sizes,
    static/dynamic rule split, build time), fallback reasons, and the
    grant/deny/fallback decision counters from the observability hub.
    Exit status: 0 when the kernel compiled with full coverage, 1 when
    a coverage gap forces every check through the interpreted pipeline.
    """
    import json as _json

    spec = _load(args.policy)
    engine = ActiveRBACEngine(spec)
    kernel = engine.kernel()
    stream = None
    if args.requests:
        allowed, denied, errors = _drive_stream(engine, spec,
                                                args.requests, args.seed)
        stream = {"requests": args.requests, "allowed": allowed,
                  "denied": denied, "rejected_with_error": errors}
        # the stream may have mutated policy-adjacent state; report the
        # kernel that is actually live after the drive
        kernel = engine.kernel()
    report = kernel.stats()
    decisions = engine.obs.kernel_decisions
    report["decisions"] = {
        path: decisions.labels(path).value
        for path in ("grant", "deny", "fallback")
    }
    # the fallback-reason taxonomy split (cumulative across recompiles,
    # including engine-level bypasses)
    report["fallback_reasons"] = {
        labels["reason"]: child.value
        for labels, child in engine.obs.kernel_fallbacks.series()
    }
    if stream is not None:
        report["stream"] = stream
    print(_json.dumps(report, indent=2, sort_keys=True))
    return 1 if report["coverage_gap"] else 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Explain one access decision: build the engine, stand up a
    session for the user (activating ``--roles``, default: every
    assigned role, best-effort), and print the derivation —
    permission → role → hierarchy chain, context gates, privacy,
    serving path and fallback reason.  Exit status mirrors the
    verdict: 0 granted, 1 denied.
    """
    import json as _json

    spec = _load(args.policy)
    engine = ActiveRBACEngine(spec)
    if args.user not in engine.model.users:
        print(f"error: unknown user {args.user!r}", file=sys.stderr)
        return 2
    sid = engine.create_session(args.user)
    roles = (args.roles.split(",") if args.roles
             else sorted(engine.model.assigned_roles(args.user)))
    skipped = []
    for role in roles:
        try:
            engine.add_active_role(sid, role.strip())
        except ReproError as exc:
            skipped.append((role.strip(), type(exc).__name__))
    explanation = engine.explain(sid, args.operation, args.object,
                                 purpose=args.purpose, scope=args.scope)
    if args.json:
        payload = explanation.to_dict()
        if skipped:
            payload["activation_skipped"] = [
                {"role": role, "error": error} for role, error in skipped]
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(explanation.describe())
        for role, error in skipped:
            print(f"  (could not activate {role}: {error})")
    return 0 if explanation.allowed else 1


def cmd_flightrec(args: argparse.Namespace) -> int:
    """Drive the simulated stream with the flight recorder on, then
    dump the ring (JSON file + audit entry) and print a summary: the
    kernel/interpreted decision split, the fallback-reason taxonomy,
    and the most recent records.
    """
    import json as _json

    from repro.obs import FlightRecorder

    spec = _load(args.policy)
    engine = ActiveRBACEngine(spec)
    if args.capacity:
        engine.flight = FlightRecorder(capacity=args.capacity)
    allowed, denied, errors = _drive_stream(engine, spec,
                                            args.requests, args.seed)
    path = engine.dump_flight("cli.flightrec", directory=args.out)
    records = engine.flight.snapshot()
    by_path: dict[str, int] = {}
    firings = 0
    for record in records:
        if record["kind"] == "decision":
            by_path[record["path"]] = by_path.get(record["path"], 0) + 1
        else:
            firings += 1
    summary = {
        "stream": {"requests": args.requests, "allowed": allowed,
                   "denied": denied, "rejected_with_error": errors},
        "recorded": {"entries": len(records),
                     "total_seen": engine.flight.seq,
                     "capacity": engine.flight.capacity,
                     "decisions_by_path": by_path,
                     "rule_firings": firings},
        "fallback_reasons": {
            labels["reason"]: child.value
            for labels, child in engine.obs.kernel_fallbacks.series()},
        "dump": path,
    }
    print(_json.dumps(summary, indent=2, sort_keys=True))
    if args.tail:
        print(f"--- last {args.tail} records ---")
        for record in engine.flight.tail(args.tail):
            print(_json.dumps(record, sort_keys=True))
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """``obs top``: hottest rules by firing count and slowest rules by
    latency p99, from the metrics registry after driving the simulated
    stream.  Timing sampling is forced to every firing (which also
    routes checks through the interpreted pipeline) so the latency
    histograms cover every rule that fired.
    """
    spec = _load(args.policy)
    engine = ActiveRBACEngine(spec)
    engine.obs.set_timing_interval(1)  # full-fidelity rule timing
    _drive_stream(engine, spec, args.requests, args.seed)

    hottest = sorted(
        ((rule.name, rule.then_count + rule.else_count)
         for rule in engine.rules),
        key=lambda row: -row[1])[:args.top]
    print(f"hottest rules by firings (top {args.top}):")
    for name, count in hottest:
        if not count:
            break
        print(f"  {count:8d}  {name}")

    print(f"slowest rules by p99 latency (top {args.top}, "
          f"bucket-resolution):")
    for name, samples, cond_p99, act_p99 in \
            engine.obs.rule_latency_profile(args.top):
        print(f"  cond {cond_p99 / 1000:8.1f} us  "
              f"action {act_p99 / 1000:8.1f} us  "
              f"({samples} samples)  {name}")
    return 0


def _load_shard_file(name: str, path: str):
    """One shard boot file: raw DSL (the historical form) or a
    versioned config-set document (YAML subset / JSON) — the same
    formats the ``reload`` lifecycle op stages later, loaded under the
    same shard-name override.  Returns ``(spec, config)``: ``config``
    is the loaded :class:`~repro.config.configset.ConfigSet`, or
    ``None`` for raw DSL, which only gets a config version once a
    rollout stages one."""
    from repro.config.loader import (
        ConfigError,
        MissingConfigVersion,
        load_config,
    )

    if not Path(path).exists():
        print(f"error: cannot read {path}: no such file",
              file=sys.stderr)
        raise SystemExit(2)
    try:
        config = load_config(path, name=name)
    except MissingConfigVersion:  # valid policy, no version id
        spec = _load(path)
        spec.name = name
        return spec, None
    except ConfigError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(1)
    return config.spec, config


def _fleet_specs(args: argparse.Namespace) -> tuple[dict, dict, dict]:
    """The shard name -> PolicySpec map the service plane boots from:
    explicit ``--shard NAME=FILE`` pairs win; otherwise the
    deterministic synthetic fleet from ``(shards, users, roles, seed)``
    — the same derivation a load client uses, so client and server agree
    on every name with no coordination.  Also returns the shard name ->
    config file path map (empty for synthetic shards): file-backed
    shards keep their path so SIGHUP / the ``reload`` admin op can
    re-read and *stage* the file through the rollout lifecycle — and
    the shard name -> loaded config set map for files that declare a
    version, so the booted version is adopted and an unchanged re-read
    is a no-op."""
    specs: dict = {}
    paths: dict = {}
    configs: dict = {}
    for item in getattr(args, "shard", None) or []:
        name, sep, path = item.partition("=")
        if not sep or not name:
            print(f"error: --shard expects NAME=FILE, got {item!r}",
                  file=sys.stderr)
            raise SystemExit(2)
        specs[name], config = _load_shard_file(name, path)
        paths[name] = path
        if config is not None:
            configs[name] = config
    if not specs:
        from repro.workloads import generate_fleet

        specs = generate_fleet(args.synthetic, args.users,
                               args.roles, args.seed)
    return specs, paths, configs


def _boot_router(args: argparse.Namespace):
    """Build every shard ``serve`` boots: engine, optional WAL, and
    the adopted config version of a versioned boot file.  Returns
    ``(router, durabilities)``."""
    import os

    from repro.serve import ShardRouter

    specs, config_paths, configs = _fleet_specs(args)
    router = ShardRouter()
    durabilities = []
    for name in sorted(specs):
        engine = ActiveRBACEngine(specs[name])
        durability = None
        if args.wal:
            from repro.wal import Durability

            durability = Durability(engine,
                                    os.path.join(args.wal, name))
            durabilities.append(durability)
            if getattr(args, "decision_journal", False):
                engine.decision_journal = True
        shard = router.add_shard(name, engine, durability,
                                 config_path=config_paths.get(name))
        if name in configs:
            # the booted file declared a version: adopt the set it was
            # loaded as, so a SIGHUP re-read of the unchanged file is a
            # no-op and the first real push must advance the version
            shard.ensure_lifecycle().adopt(config=configs[name])
    return router, durabilities


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the service plane: one engine (+ optional WAL) per shard
    behind the asyncio HTTP front-end; serves until SIGTERM/SIGINT,
    then drains, flushes every WAL, and dumps every flight recorder.
    """
    import asyncio
    import os

    from repro.federation import RoleMapping
    from repro.serve import ServeApp

    if getattr(args, "decision_journal", False) and not args.wal:
        print("error: --decision-journal requires --wal",
              file=sys.stderr)
        return 2
    router, durabilities = _boot_router(args)
    for item in args.map or []:
        try:
            home, host = item.split("=", 1)
            home_domain, home_role = home.split(":", 1)
            host_domain, host_role = host.split(":", 1)
        except ValueError:
            print(f"error: --map expects HOME:ROLE=HOST:ROLE, "
                  f"got {item!r}", file=sys.stderr)
            return 2
        router.add_mapping(RoleMapping(home_domain, home_role,
                                       host_domain, host_role))
    # config-declared federation maps (the --map equivalents baked
    # into each shard's policy file) reconcile after every shard and
    # explicit mapping is registered
    router.sync_federation()
    flightrec_dir = (args.flightrec_dir
                     or os.environ.get("REPRO_FLIGHTREC_DIR"))
    app = ServeApp(router, drain_grace=args.drain_grace,
                   flightrec_dir=flightrec_dir,
                   max_inflight=args.max_inflight,
                   request_timeout=args.request_timeout_ms / 1000.0,
                   max_head_bytes=args.max_head_bytes,
                   max_body_bytes=args.max_body_bytes,
                   shard_concurrency=args.shard_concurrency,
                   breaker_threshold=args.breaker_threshold,
                   breaker_cooldown=args.breaker_cooldown,
                   watch_interval=args.watch_interval)
    if args.chaos_check:
        # deterministic shard-fault injection for the chaos-serve CI
        # job: after WARM clean calls, the next FAILS checks raise
        # TransientError (503s that trip the shard's breaker)
        from repro.errors import TransientError
        from repro.testing.faults import FaultInjector

        try:
            shard_name, warm_s, fails_s = args.chaos_check.split(":")
            warm, fails = int(warm_s), int(fails_s)
        except ValueError:
            print(f"error: --chaos-check expects SHARD:WARM:FAILS, "
                  f"got {args.chaos_check!r}", file=sys.stderr)
            return 2
        try:
            shard = router.shard(shard_name)
        except ReproError as exc:
            print(f"error: --chaos-check: {exc}", file=sys.stderr)
            return 2
        chaos = FaultInjector(seed=args.seed)
        point = f"serve.chaos.{shard_name}.check"
        chaos.arm(point, error=TransientError,
                  at=range(warm + 1, warm + 1 + fails))
        chaos.patch(shard, "check", point)
        print(f"chaos-check armed: shard {shard_name} fails checks "
              f"{warm + 1}..{warm + fails}", flush=True)
    print(router.describe(), flush=True)
    try:
        asyncio.run(app.run(args.host, args.port,
                            port_file=args.port_file))
    finally:
        for durability in durabilities:
            durability.close()
    return 0


def _load_configset(path: str, version: int | None = None):
    from repro.config import load_config
    from repro.config.loader import ConfigError

    try:
        return load_config(path, version=version)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(1)


def cmd_config(args: argparse.Namespace) -> int:
    """Config-set tooling: ``validate`` parses + validates one
    versioned config document (YAML/JSON/raw DSL) and verifies the
    rule pool it would generate; ``diff`` prints the structured change
    script between two config files — exactly the operations a staged
    promotion would apply (exit 1 when the configs differ, mirroring
    ``diff(1)``)."""
    import json as _json

    if args.action == "validate":
        config = _load_configset(args.file, version=args.version)
        engine = ActiveRBACEngine(config.spec)
        findings = verify_rule_pool(engine)
        report = config.describe()
        report["rules"] = len(engine.rules)
        report["events"] = len(engine.detector)
        report["verification"] = [str(f) for f in findings]
        if args.json:
            print(_json.dumps(report, indent=2, sort_keys=True))
        else:
            print(f"config v{config.version} ({config.origin}): valid")
            print(f"  checksum: {config.checksum}")
            print(f"  roles: {len(config.spec.roles)}  "
                  f"users: {len(config.spec.users)}  "
                  f"rules: {len(engine.rules)}")
            print(render_findings(findings))
        return 1 if errors_only(findings) else 0
    if args.action == "diff":
        from repro.config import diff_specs

        old = _load_configset(args.old, version=1)
        new = _load_configset(args.new, version=2)
        diff = diff_specs(old.spec, new.spec)
        payload = diff.summary()
        payload["model_ops"] = [
            {"op": op, "args": [repr(item) for item in rest]}
            for op, *rest in diff.model_ops]
        payload["regen_seeds"] = sorted(diff.regen_seeds)
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0 if diff.is_empty else 1
    print(f"error: unknown config action {args.action!r}",
          file=sys.stderr)
    return 2


def cmd_replay(args: argparse.Namespace) -> int:
    """Deterministic WAL replay under a pinned config version.

    Re-runs the decision stream of a durability directory's WAL under
    ``--config-version N`` (a version persisted by the lifecycle under
    ``DIR/configs/``, or an explicit ``--config FILE``); the replayed
    stream's sha256 digest is the determinism fingerprint CI asserts
    across seeds.  ``--compare-version M`` replays the same WAL a
    second time and prints the per-decision divergence between the two
    versions.  Exit: 0 clean, 1 when ``--expect-digest`` mismatches,
    2 on a missing WAL/config.
    """
    import json as _json

    from repro.config.lifecycle import load_version
    from repro.config.loader import ConfigError, load_config
    from repro.config.replay import diff_streams, replay_wal

    try:
        if args.config:
            config = load_config(args.config,
                                 version=args.config_version)
        else:
            config = load_version(args.directory, args.config_version)
        result = replay_wal(args.directory, config)
        payload: dict = result.summary()
        if args.compare_version is not None:
            other = replay_wal(
                args.directory,
                load_version(args.directory, args.compare_version))
            payload = {"replay": payload, "compare": other.summary(),
                       "diff": diff_streams(result, other)}
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"replayed {result.records} WAL record(s) under config "
              f"v{config.version} ({len(result.decisions)} decisions, "
              f"{len(result.mismatches)} mismatch(es), "
              f"{len(result.gaps)} gap(s), "
              f"{result.pinned_swaps} pinned swap(s))")
        print(f"  digest: {result.digest}")
        if args.compare_version is not None:
            diff = payload["diff"]
            print(f"  vs v{args.compare_version}: "
                  f"{'identical' if diff['identical'] else 'diverged'} "
                  f"({len(diff['differing'])} differing decision(s) "
                  f"of {diff['compared']})")
    if args.expect_digest and result.digest != args.expect_digest:
        print(f"FAIL: digest {result.digest} != expected "
              f"{args.expect_digest}", file=sys.stderr)
        return 1
    return 0


def cmd_hygiene(args: argparse.Namespace) -> int:
    from repro.analysis import policy_hygiene, who_can

    spec = _load(args.policy)
    engine = ActiveRBACEngine(spec)
    report = policy_hygiene(engine)
    print(report.describe())
    if args.who_can:
        try:
            operation, obj = args.who_can.split(":", 1)
        except ValueError:
            print("error: --who-can expects OPERATION:OBJECT",
                  file=sys.stderr)
            return 2
        entitled = who_can(engine, operation, obj)
        if not entitled:
            print(f"nobody can {operation} on {obj}")
        else:
            print(f"users able to {operation} on {obj}:")
            for user in sorted(entitled):
                roles = ", ".join(sorted(entitled[user]))
                print(f"  {user} (via {roles})")
    return 0 if report.is_clean() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rbac",
        description="OWTE active-authorization-rule RBAC engine "
                    "(ICDE 2005 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check",
                           help="validate a policy and verify its "
                                "generated rule pool")
    check.add_argument("policy")
    check.add_argument("--trace", action="store_true",
                       help="also run a traced live probe and print "
                            "its span trees")
    check.set_defaults(fn=cmd_check)

    graph = sub.add_parser("graph",
                           help="print the access-specification graph")
    graph.add_argument("policy")
    graph.set_defaults(fn=cmd_graph)

    rules = sub.add_parser("rules", help="print generated OWTE rules")
    rules.add_argument("policy")
    rules.add_argument("--role", help="only rules tagged for this role")
    rules.set_defaults(fn=cmd_rules)

    simulate = sub.add_parser("simulate",
                              help="drive a synthetic request stream")
    simulate.add_argument("policy")
    simulate.add_argument("--requests", type=int, default=1000)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--trace", action="store_true",
                          help="record span trees and print the denied "
                               "operations' traces")
    simulate.set_defaults(fn=cmd_simulate)

    metrics = sub.add_parser(
        "metrics", help="drive the simulated stream and dump the "
                        "metrics registry")
    metrics.add_argument("policy")
    metrics.add_argument("--requests", type=int, default=1000)
    metrics.add_argument("--seed", type=int, default=7)
    metrics.add_argument("--format", choices=("prom", "json", "both"),
                         default="both",
                         help="exposition format (default: both)")
    metrics.set_defaults(fn=cmd_metrics)

    fmt = sub.add_parser("fmt", help="canonical DSL rendering")
    fmt.add_argument("policy")
    fmt.set_defaults(fn=cmd_fmt)

    health = sub.add_parser(
        "health", help="drive the simulated stream and print the "
                       "engine degradation summary (exit 1 if degraded)")
    health.add_argument("policy")
    health.add_argument("--requests", type=int, default=1000)
    health.add_argument("--seed", type=int, default=7)
    health.add_argument("--chaos-seed", type=int, default=None,
                        help="inject a deterministic fault schedule "
                             "into a checkAccess rule first")
    health.add_argument("--chaos-rate", type=float, default=0.2,
                        help="per-call fault probability under "
                             "--chaos-seed (default: 0.2)")
    health.set_defaults(fn=cmd_health)

    recover = sub.add_parser(
        "recover", help="rebuild engine state from a durability "
                        "directory (newest snapshot + WAL replay)")
    recover.add_argument("directory",
                         help="directory holding snapshot.json + wal.log")
    recover.add_argument("--checkpoint", action="store_true",
                         help="also fold the replayed tail into a fresh "
                              "snapshot and rotate the WAL")
    recover.set_defaults(fn=cmd_recover)

    kernel = sub.add_parser(
        "kernel", help="compile the decision plane and print its "
                       "statistics (exit 1 on a coverage gap)")
    kernel.add_argument("policy")
    kernel.add_argument("--requests", type=int, default=0,
                        help="also drive the simulated stream first so "
                             "the kernel/interpreted decision split is "
                             "populated (default: 0 = skip)")
    kernel.add_argument("--seed", type=int, default=7)
    kernel.set_defaults(fn=cmd_kernel)

    explain = sub.add_parser(
        "explain", help="explain one access decision: the permission "
                        "derivation, serving path, and deny cause "
                        "(exit 1 when denied)")
    explain.add_argument("policy")
    explain.add_argument("user")
    explain.add_argument("operation")
    explain.add_argument("object")
    explain.add_argument("--roles",
                         help="comma-separated roles to activate "
                              "(default: every assigned role)")
    explain.add_argument("--purpose", default=None,
                         help="access purpose for privacy-extended "
                              "policies")
    explain.add_argument("--scope", default=None,
                         help="evaluate the S-A-O-C check within this "
                              "scope (default: the root scope, i.e. a "
                              "flat check)")
    explain.add_argument("--json", action="store_true",
                         help="machine-readable derivation instead of "
                              "the narrative form")
    explain.set_defaults(fn=cmd_explain)

    flightrec = sub.add_parser(
        "flightrec", help="drive the simulated stream, dump the "
                          "flight-recorder ring, and print the "
                          "decision-path / fallback-reason split")
    flightrec.add_argument("policy")
    flightrec.add_argument("--requests", type=int, default=1000)
    flightrec.add_argument("--seed", type=int, default=7)
    flightrec.add_argument("--capacity", type=int, default=0,
                           help="override the ring capacity "
                                "(default: keep the engine's)")
    flightrec.add_argument("--out", default=None,
                           help="directory for the dump file "
                                "(default: $REPRO_FLIGHTREC_DIR, else "
                                "a fresh temp directory)")
    flightrec.add_argument("--tail", type=int, default=0,
                           help="also print the last N records")
    flightrec.set_defaults(fn=cmd_flightrec)

    obs = sub.add_parser(
        "obs", help="observability reports over the simulated stream")
    obs_sub = obs.add_subparsers(dest="report", required=True)
    obs_top = obs_sub.add_parser(
        "top", help="hottest rules by firings, slowest by p99 latency")
    obs_top.add_argument("policy")
    obs_top.add_argument("--requests", type=int, default=1000)
    obs_top.add_argument("--seed", type=int, default=7)
    obs_top.add_argument("--top", type=int, default=10)
    obs_top.set_defaults(fn=cmd_obs)

    serve = sub.add_parser(
        "serve", help="boot the asyncio HTTP service plane over one "
                      "or more tenant shards (SIGTERM drains, flushes "
                      "WALs, dumps flight recorders)")
    serve.add_argument("--shard", action="append", metavar="NAME=FILE",
                       help="register a tenant shard from a policy "
                            "file (repeatable)")
    serve.add_argument("--synthetic", type=int, default=2,
                       metavar="SHARDS",
                       help="without --shard: number of synthetic "
                            "shards to generate (default: 2)")
    serve.add_argument("--users", type=int, default=10_000,
                       help="synthetic fleet: total simulated users "
                            "across shards (default: 10000)")
    serve.add_argument("--roles", type=int, default=50,
                       help="synthetic fleet: roles per shard "
                            "(default: 50)")
    serve.add_argument("--seed", type=int, default=7,
                       help="synthetic fleet seed (default: 7)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default: 0 = ephemeral)")
    serve.add_argument("--port-file", default=None,
                       help="write the bound port here (how the CI "
                            "smoke job finds an ephemeral port)")
    serve.add_argument("--wal", default=None, metavar="DIR",
                       help="attach WAL durability; each shard logs "
                            "under DIR/<shard>/")
    serve.add_argument("--decision-journal", action="store_true",
                       help="journal every decision to the WAL so "
                            "`repro-rbac replay` can re-run and diff "
                            "the stream under pinned config versions "
                            "(requires --wal)")
    serve.add_argument("--flightrec-dir", default=None,
                       help="flight-recorder dump directory (default: "
                            "$REPRO_FLIGHTREC_DIR, else one temp "
                            "directory per process)")
    serve.add_argument("--map", action="append",
                       metavar="HOME:ROLE=HOST:ROLE",
                       help="cross-shard role mapping (repeatable)")
    serve.add_argument("--drain-grace", type=float, default=5.0,
                       help="seconds to wait for in-flight requests "
                            "on shutdown (default: 5)")
    serve.add_argument("--max-inflight", type=int, default=256,
                       help="admission control: requests handled "
                            "concurrently before shedding 503 "
                            "(default: 256)")
    serve.add_argument("--request-timeout-ms", type=float,
                       default=1000.0,
                       help="per-request i/o timeout and default "
                            "deadline budget in ms (default: 1000)")
    serve.add_argument("--max-body-bytes", type=int,
                       default=4 * 1024 * 1024,
                       help="request body size bound (default: 4 MiB)")
    serve.add_argument("--max-head-bytes", type=int, default=16 * 1024,
                       help="request head size bound (default: 16 KiB)")
    serve.add_argument("--shard-concurrency", type=int, default=64,
                       help="per-shard bulkhead slots (default: 64)")
    serve.add_argument("--breaker-threshold", type=int, default=5,
                       help="consecutive shard failures that trip its "
                            "circuit breaker (default: 5)")
    serve.add_argument("--breaker-cooldown", type=float, default=2.0,
                       help="seconds an open breaker waits before its "
                            "half-open probe (default: 2)")
    serve.add_argument("--watch-interval", type=float, default=0.0,
                       metavar="SECONDS",
                       help="poll file-backed shard configs every "
                            "SECONDS and stage changed files without "
                            "SIGHUP (default: 0 = off)")
    serve.add_argument("--chaos-check", default=None,
                       metavar="SHARD:WARM:FAILS",
                       help="fault injection: after WARM clean checks "
                            "on SHARD, fail the next FAILS with "
                            "TransientError (trips the breaker "
                            "deterministically; CI chaos harness)")
    serve.set_defaults(fn=cmd_serve)

    config = sub.add_parser(
        "config", help="versioned config-set tooling: validate one "
                       "document, or diff two into the staged change "
                       "script")
    config_sub = config.add_subparsers(dest="action", required=True)
    config_validate = config_sub.add_parser(
        "validate", help="parse + validate a YAML/JSON/DSL config and "
                         "verify its generated rule pool")
    config_validate.add_argument("file")
    config_validate.add_argument("--version", type=int, default=None,
                                 help="override (or, for raw DSL, "
                                      "supply) the config version")
    config_validate.add_argument("--json", action="store_true",
                                 help="machine-readable report")
    config_validate.set_defaults(fn=cmd_config)
    config_diff = config_sub.add_parser(
        "diff", help="structured delta between two config files — the "
                     "operations a staged promotion would apply "
                     "(exit 1 when they differ)")
    config_diff.add_argument("old")
    config_diff.add_argument("new")
    config_diff.set_defaults(fn=cmd_config)

    replay = sub.add_parser(
        "replay", help="re-run a WAL's decision stream under a pinned "
                       "config version; the digest is the determinism "
                       "fingerprint")
    replay.add_argument("directory",
                        help="durability directory holding wal.log "
                             "(and the lifecycle's configs/)")
    replay.add_argument("--config-version", type=int, required=True,
                        help="config version to replay under (loaded "
                             "from DIR/configs/vN.rbac unless "
                             "--config is given)")
    replay.add_argument("--config", default=None, metavar="FILE",
                        help="explicit config file instead of the "
                             "persisted artifact")
    replay.add_argument("--compare-version", type=int, default=None,
                        help="also replay under this persisted version "
                             "and print the decision divergence")
    replay.add_argument("--expect-digest", default=None,
                        help="fail (exit 1) unless the replay digest "
                             "equals this value")
    replay.add_argument("--json", action="store_true",
                        help="machine-readable report")
    replay.set_defaults(fn=cmd_replay)

    hygiene = sub.add_parser(
        "hygiene", help="staleness/redundancy report, optional "
                        "entitlement review")
    hygiene.add_argument("policy")
    hygiene.add_argument("--who-can", metavar="OPERATION:OBJECT",
                         help="also list users able to perform this")
    hygiene.set_defaults(fn=cmd_hygiene)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
