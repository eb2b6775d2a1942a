"""Property: the compiled decision plane (PolicyKernel) and the
interpreted OWTE pipeline make identical decisions.

The kernel is an optimization, not a semantics change: for any random
enterprise, any stream of session churn, activations, access checks
*and live policy mutations* (which bump the policy epoch and force
recompiles), an engine answering kernel-first must produce exactly the
outcome trace of an engine with the kernel disabled — including the
denial types, the post-mutation flips, and the state both engines end
in.  A third property pins the equivalence across a WAL crash/recovery
cycle, where the kernel is recompiled eagerly from the replayed state.
The last two check the compiled assignment scope limits and the SSD
refusal of assignments against references computed the long way.
"""

from __future__ import annotations

import random
import tempfile

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro import ActiveRBACEngine
from repro.errors import ReproError, SsdViolationError
from repro.policy.spec import PolicySpec, build_model
from repro.workloads import EnterpriseShape, generate_enterprise


def outcome_of(callable_):
    try:
        return ("ok", callable_())
    except ReproError as exc:
        return ("err", type(exc).__name__)


def run_stream(engine, spec, seed, length):
    """Deterministic stream mixing authorization checks with policy
    mutations; returns the outcome trace."""
    rng = random.Random(seed)
    users = sorted(spec.users)
    roles = sorted(spec.roles)
    perms = spec.permissions or [("op0", "obj0")]
    sessions: list[str] = []
    trace = []
    for step in range(length):
        draw = rng.random()
        if draw < 0.12 or not sessions:
            user = rng.choice(users)
            sid = f"s{step}"
            trace.append(outcome_of(
                lambda: engine.create_session(user, session_id=sid)))
            if sid in engine.model.sessions:
                sessions.append(sid)
        elif draw < 0.35:
            sid = rng.choice(sessions)
            role = rng.choice(roles)
            trace.append(outcome_of(
                lambda: engine.add_active_role(sid, role)))
        elif draw < 0.70:
            # checks dominate: this is the path the kernel answers
            sid = rng.choice(sessions)
            operation, obj = rng.choice(perms)
            trace.append(("check",
                          engine.check_access(sid, operation, obj)))
        elif draw < 0.80:
            # policy-epoch bump: grant or revoke a permission
            role = rng.choice(roles)
            operation, obj = rng.choice(perms)
            if rng.random() < 0.5:
                trace.append(outcome_of(
                    lambda: engine.grant_permission(role, operation,
                                                    obj)))
            else:
                trace.append(outcome_of(
                    lambda: engine.revoke_permission(role, operation,
                                                     obj)))
        elif draw < 0.88:
            user = rng.choice(users)
            role = rng.choice(roles)
            if rng.random() < 0.5:
                trace.append(outcome_of(
                    lambda: engine.assign_user(user, role)))
            else:
                trace.append(outcome_of(
                    lambda: engine.deassign_user(user, role)))
        elif draw < 0.94:
            # hierarchy edit: recompile with new closure bitsets
            senior = rng.choice(roles)
            junior = rng.choice(roles)
            if rng.random() < 0.5:
                trace.append(outcome_of(
                    lambda: engine.add_inheritance(senior, junior)))
            else:
                trace.append(outcome_of(
                    lambda: engine.delete_inheritance(senior, junior)))
        else:
            role = rng.choice(roles)
            if rng.random() < 0.5:
                trace.append(outcome_of(
                    lambda: engine.disable_role(role)))
            else:
                trace.append(outcome_of(
                    lambda: engine.enable_role(role)))
    return trace


def state_fingerprint(engine):
    return {
        "sessions": {
            sid: (session.user, tuple(sorted(session.active_roles)))
            for sid, session in engine.model.sessions.items()
        },
        "enabled": {
            name: role.enabled
            for name, role in engine.model.roles.items()
        },
        "epoch": engine.policy_epoch,
    }


def check_sweep(engine, spec, seed, count=40):
    """Pure access-check sweep over existing sessions (no mutations)."""
    rng = random.Random(seed)
    sessions = sorted(engine.model.sessions)
    perms = spec.permissions or [("op0", "obj0")]
    if not sessions:
        return []
    return [
        engine.check_access(rng.choice(sessions), *rng.choice(perms))
        for _ in range(count)
    ]


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shape_seed=st.integers(0, 10_000),
       stream_seed=st.integers(0, 10_000))
def test_kernel_and_interpreted_decide_identically(shape_seed,
                                                   stream_seed):
    spec = generate_enterprise(EnterpriseShape(
        roles=12, users=8, tree_fanout=3, tree_depth=2,
        operations=2, objects=6, grants_per_role=2,
        ssd_sets=1, dsd_sets=1, seed=shape_seed))
    compiled = ActiveRBACEngine(spec)
    interpreted = ActiveRBACEngine(spec)
    compiled.kernel_enabled = True
    interpreted.kernel_enabled = False
    compiled_trace = run_stream(compiled, spec, stream_seed, length=90)
    interpreted_trace = run_stream(interpreted, spec, stream_seed,
                                   length=90)
    assert compiled_trace == interpreted_trace
    assert state_fingerprint(compiled) == state_fingerprint(interpreted)
    # the fast path actually ran (this policy has no dynamic features,
    # so kernel-answered decisions should dominate)
    answered = sum(
        compiled.obs.kernel_decisions.labels(path).value
        for path in ("grant", "deny"))
    assert answered > 0


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stream_seed=st.integers(0, 10_000))
def test_kernel_agrees_on_dynamic_features(stream_seed):
    """Context-gated roles and privacy-regulated objects force the
    kernel to fall back — and the fallback must be seamless."""
    from repro.policy import parse_policy
    spec = parse_policy("""
    policy aware {
      role Field; role Desk;
      user u0; user u1;
      assign u0 to Field; assign u1 to Desk;
      permission read on secret; permission read on public;
      grant read on secret to Field;
      grant read on public to Desk;
      context Field requires network == "secure" for access;
      purpose ops; purpose audit under ops;
      object_policy read on secret for ops;
    }
    """)
    compiled = ActiveRBACEngine(spec)
    interpreted = ActiveRBACEngine(spec)
    compiled.kernel_enabled = True
    interpreted.kernel_enabled = False
    rng = random.Random(stream_seed)
    sessions: list[str] = []
    traces = ([], [])
    for step in range(60):
        draw = rng.random()
        if draw < 0.15:
            value = rng.choice(["secure", "insecure"])
            for engine in (compiled, interpreted):
                engine.context.set("network", value)
            continue
        if draw < 0.3 or not sessions:
            user = rng.choice(["u0", "u1"])
            sid = f"s{step}"
            for trace, engine in zip(traces, (compiled, interpreted)):
                trace.append(outcome_of(
                    lambda e=engine: e.create_session(user,
                                                      session_id=sid)))
            sessions.append(sid)
        elif draw < 0.55:
            sid = rng.choice(sessions)
            role = rng.choice(["Field", "Desk"])
            for trace, engine in zip(traces, (compiled, interpreted)):
                trace.append(outcome_of(
                    lambda e=engine: e.add_active_role(sid, role)))
        else:
            sid = rng.choice(sessions)
            obj = rng.choice(["secret", "public"])
            purpose = rng.choice([None, "ops", "audit", "marketing"])
            for trace, engine in zip(traces, (compiled, interpreted)):
                trace.append(("check", engine.check_access(
                    sid, "read", obj, purpose=purpose)))
    assert traces[0] == traces[1]


def explain_sweep(engine, spec, seed, count=40, purposes=(None,)):
    """For random (session, operation, object, purpose) probes assert
    ``engine.explain`` predicts exactly what the live check decides —
    explain first (it must be read-only), live check second."""
    rng = random.Random(seed)
    sessions = sorted(engine.model.sessions) or ["no-such-session"]
    perms = spec.permissions or [("op0", "obj0")]
    for _ in range(count):
        sid = rng.choice(sessions)
        operation, obj = rng.choice(perms)
        purpose = rng.choice(purposes)
        explanation = engine.explain(sid, operation, obj,
                                     purpose=purpose)
        try:
            live = engine.check_access(sid, operation, obj,
                                       purpose=purpose)
        except ReproError:
            live = False
        assert explanation.allowed == live, (
            f"explain said {explanation.allowed} "
            f"({explanation.deny_cause}) but the live check said "
            f"{live} for {sid}/{operation}/{obj}/{purpose}")
        assert (explanation.to_dict()["verdict"]
                == ("grant" if live else "deny"))


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shape_seed=st.integers(0, 10_000),
       stream_seed=st.integers(0, 10_000),
       kernel_on=st.booleans())
def test_explain_matches_live_verdict(shape_seed, stream_seed,
                                      kernel_on):
    """``engine.explain`` predicts the live verdict on both serving
    paths, across random policies and post-mutation states."""
    spec = generate_enterprise(EnterpriseShape(
        roles=12, users=8, tree_fanout=3, tree_depth=2,
        operations=2, objects=6, grants_per_role=2,
        ssd_sets=1, dsd_sets=1, seed=shape_seed))
    engine = ActiveRBACEngine(spec)
    engine.kernel_enabled = kernel_on
    run_stream(engine, spec, stream_seed, length=90)
    explain_sweep(engine, spec, stream_seed)
    # unknown entities must also agree (deny on both sides)
    explanation = engine.explain("no-such-session", "nope", "nothing")
    assert not explanation.allowed
    assert explanation.deny_cause == "unknown session"


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stream_seed=st.integers(0, 10_000))
def test_explain_matches_on_dynamic_features(stream_seed):
    """Context-gated roles and privacy purposes: the explanation must
    track the context registry and purpose tree, not just the grants."""
    from repro.policy import parse_policy
    spec = parse_policy("""
    policy aware {
      role Field; role Desk;
      user u0; user u1;
      assign u0 to Field; assign u1 to Desk;
      permission read on secret; permission read on public;
      grant read on secret to Field;
      grant read on public to Desk;
      context Field requires network == "secure" for access;
      purpose ops; purpose audit under ops;
      object_policy read on secret for ops;
    }
    """)
    engine = ActiveRBACEngine(spec)
    rng = random.Random(stream_seed)
    sessions: list[str] = []
    for step in range(40):
        draw = rng.random()
        if draw < 0.2:
            engine.context.set("network",
                               rng.choice(["secure", "insecure"]))
        elif draw < 0.45 or not sessions:
            sid = f"s{step}"
            outcome_of(lambda: engine.create_session(
                rng.choice(["u0", "u1"]), session_id=sid))
            if sid in engine.model.sessions:
                sessions.append(sid)
        else:
            outcome_of(lambda: engine.add_active_role(
                rng.choice(sessions), rng.choice(["Field", "Desk"])))
    explain_sweep(engine, spec, stream_seed,
                  purposes=(None, "ops", "audit", "marketing"))


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shape_seed=st.integers(0, 10_000),
       stream_seed=st.integers(0, 10_000))
def test_explain_matches_after_wal_recovery(shape_seed, stream_seed):
    """A recovered engine's explanations must track its replayed state."""
    from repro import wal as wal_mod

    spec = generate_enterprise(EnterpriseShape(
        roles=8, users=6, tree_fanout=3, tree_depth=2,
        operations=2, objects=4, grants_per_role=2,
        ssd_sets=1, dsd_sets=0, seed=shape_seed))
    with tempfile.TemporaryDirectory() as directory:
        engine = ActiveRBACEngine(spec)
        durability = wal_mod.Durability(engine, directory)
        run_stream(engine, spec, stream_seed, length=50)
        durability.wal.sync()
        recovered, _report = wal_mod.recover(directory)
        explain_sweep(recovered, spec, stream_seed)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shape_seed=st.integers(0, 10_000),
       stream_seed=st.integers(0, 10_000))
# admin streams that once drove a role alone into both members of an
# SSD set: the model allowed it, the validator (and so stage) did not
@example(shape_seed=10, stream_seed=190)
@example(shape_seed=1, stream_seed=708)
def test_promote_then_rollback_equals_never_promoted(shape_seed,
                                                     stream_seed):
    """Safe-rollout property: force-promoting a config and rolling it
    back leaves the engine indistinguishable from one that never saw
    the candidate — even when identical concurrent administration
    lands between the promote and the rollback.  The candidate delta
    touches only freshly-named entities, so the concurrent stream
    (which draws from the original spec) can never overlap it."""
    import copy

    from repro.config import ConfigSet, PolicyLifecycle, RolloutBudget

    spec = generate_enterprise(EnterpriseShape(
        roles=10, users=8, tree_fanout=3, tree_depth=2,
        operations=2, objects=5, grants_per_role=2,
        ssd_sets=1, dsd_sets=1, seed=shape_seed))
    subject = ActiveRBACEngine(spec)
    reference = ActiveRBACEngine(spec)
    assert run_stream(subject, spec, stream_seed, length=40) \
        == run_stream(reference, spec, stream_seed, length=40)

    with tempfile.TemporaryDirectory() as state_dir:
        lifecycle = PolicyLifecycle(
            subject, state_dir=state_dir,
            budget=RolloutBudget(min_samples=1, hold_checks=100_000))
        lifecycle.adopt(1)
        candidate = copy.deepcopy(subject.policy)
        candidate.add_role("rollout_probe")
        candidate.grants.append(("rollout_probe",
                                 *candidate.permissions[0]))
        lifecycle.stage(ConfigSet.from_spec(candidate, 2))
        lifecycle.promote(force=True)
        assert "rollout_probe" in subject.model.roles

        # identical concurrent administration on pre-existing entities
        assert run_stream(subject, spec, stream_seed + 1, length=40) \
            == run_stream(reference, spec, stream_seed + 1, length=40)

        lifecycle.rollback("property-probe")

    assert "rollout_probe" not in subject.model.roles
    assert subject.config_version == 1
    assert subject.config_last_rollback["from_version"] == 2
    fp_subject = state_fingerprint(subject)
    fp_reference = state_fingerprint(reference)
    # the subject's epoch moved with each swap; everything else must
    # converge exactly
    fp_subject.pop("epoch")
    fp_reference.pop("epoch")
    assert fp_subject == fp_reference
    assert check_sweep(subject, spec, stream_seed) \
        == check_sweep(reference, spec, stream_seed)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shape_seed=st.integers(0, 10_000),
       stream_seed=st.integers(0, 10_000))
def test_equivalence_survives_wal_recovery(shape_seed, stream_seed):
    """Crash + WAL replay, then kernel-first vs interpreted answers on
    the recovered state must agree (recover() recompiles eagerly)."""
    from repro import wal as wal_mod

    spec = generate_enterprise(EnterpriseShape(
        roles=8, users=6, tree_fanout=3, tree_depth=2,
        operations=2, objects=4, grants_per_role=2,
        ssd_sets=1, dsd_sets=0, seed=shape_seed))
    with tempfile.TemporaryDirectory() as directory:
        engine = ActiveRBACEngine(spec)
        durability = wal_mod.Durability(engine, directory)
        run_stream(engine, spec, stream_seed, length=50)
        durability.wal.sync()  # crash here: nothing else gets flushed

        recovered_a, report_a = wal_mod.recover(directory)
        recovered_b, report_b = wal_mod.recover(directory)
        assert report_a["kernel_rebuild_us"] is not None
        assert recovered_a._kernel is not None  # eager recompile
        recovered_a.kernel_enabled = True
        recovered_b.kernel_enabled = False
        assert state_fingerprint(recovered_a) == \
            state_fingerprint(recovered_b)
        sweep_a = check_sweep(recovered_a, spec, stream_seed)
        sweep_b = check_sweep(recovered_b, spec, stream_seed)
        assert sweep_a == sweep_b


# ----------------------------------------------------------------------
# compile-time tables against references computed the long way
# ----------------------------------------------------------------------

ROLES = ("R0", "R1", "R2", "R3", "R4")
USERS = ("u0", "u1", "u2", "u3")
SCOPES = (("a", None), ("a/b", "a"), ("a/b/c", "a/b"), ("d", None))


@st.composite
def bounded_policies(draw):
    """Random hierarchies over ROLES (edges only from a lower to a
    higher index, so acyclic) with every (user, role) pair either
    unassigned, assigned unbounded, or bounded to one or more scopes —
    senior-bounded pairs arise wherever a bounded role has juniors."""
    spec = PolicySpec(name="bounded")
    for role in ROLES:
        spec.add_role(role)
    for user in USERS:
        spec.add_user(user)
    spec.scopes = list(SCOPES)
    pairs = [(s, j) for i, s in enumerate(ROLES) for j in ROLES[i + 1:]]
    spec.hierarchy = draw(st.lists(st.sampled_from(pairs), unique=True,
                                   max_size=6))
    scope_names = [name for name, _parent in SCOPES]
    for user in USERS:
        for role in ROLES:
            kind = draw(st.sampled_from(("none", "flat", "bounded")))
            if kind == "flat":
                spec.assignments.append((user, role))
            elif kind == "bounded":
                for scope in draw(st.lists(st.sampled_from(scope_names),
                                           min_size=1, max_size=2,
                                           unique=True)):
                    spec.scoped_assignments.append((user, role, scope))
    return spec


def all_users_scope_limited(kernel, model):
    """The (user, role) -> bound scope bits table, walking every user of
    the model (the kernel walks only users holding a bounded pair)."""
    bounded: dict[tuple[str, str], int] = {}
    unbounded: set[tuple[str, str]] = set()
    for user, assigned in model._ua.items():
        for holder in assigned:
            bounds = model._ua_scopes.get((user, holder))
            lim = 0
            for bound in bounds or ():
                lim |= 1 << kernel.scope_ids[bound]
            for member in model.hierarchy.juniors_inclusive(holder):
                if bounds is None:
                    unbounded.add((user, member))
                else:
                    bounded[user, member] = \
                        bounded.get((user, member), 0) | lim
    return {key: lim for key, lim in bounded.items()
            if key not in unbounded}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=bounded_policies(), drop_seed=st.integers(0, 10_000))
def test_scope_limited_table_matches_all_users_reference(spec, drop_seed):
    """The compiled assignment scope limits equal the all-users walk,
    at boot and after a deassignment recompiles the kernel."""
    engine = ActiveRBACEngine(spec)
    kernel = engine.kernel()
    assert kernel._scope_limited == all_users_scope_limited(
        kernel, engine.model)
    held = sorted((user, role) for user, roles in engine.model._ua.items()
                  for role in roles)
    if held:
        engine.deassign_user(*random.Random(drop_seed).choice(held))
        kernel = engine.kernel()
        assert kernel._scope_limited == all_users_scope_limited(
            kernel, engine.model)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=bounded_policies(),
       ssd=st.lists(st.sampled_from(ROLES), min_size=2, max_size=2,
                    unique=True),
       pair=st.tuples(st.sampled_from(USERS), st.sampled_from(ROLES)))
def test_ssd_refuses_violating_assignments(spec, ssd, pair):
    """With an SSD set present, build_model and assign_user refuse
    exactly the assignments whose authorized-role closure holds both of
    its roles."""
    def violates(assigned):
        authorized, todo = set(), list(assigned)
        while todo:
            role = todo.pop()
            if role not in authorized:
                authorized.add(role)
                todo.extend(j for s, j in spec.hierarchy if s == role)
        return set(ssd) <= authorized

    # a role authorized for both SSD roles alone is a hierarchy
    # conflict, refused before any assignment is considered
    assume(not any(violates({role}) for role in ROLES))
    spec.add_ssd("sod", set(ssd))
    assigned = {user: set() for user in USERS}
    for user, role in spec.assignments:
        assigned[user].add(role)
    for user, role, _scope in spec.scoped_assignments:
        assigned[user].add(role)
    if any(violates(roles) for roles in assigned.values()):
        with pytest.raises(SsdViolationError):
            build_model(spec)
        return
    model = build_model(spec)
    user, role = pair
    if role in assigned[user]:
        return
    if violates(assigned[user] | {role}):
        with pytest.raises(SsdViolationError):
            model.assign_user(user, role)
        assert role not in model.assigned_roles(user)
    else:
        model.assign_user(user, role)
        assert role in model.assigned_roles(user)
