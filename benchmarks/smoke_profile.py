#!/usr/bin/env python3
"""Benchmark smoke: bound the pipeline's wrapper costs on the B3 hot path.

Runs the B3 check-access kernel (one session, one active role, repeated
``check_access``) on the same engine in two on/off comparisons:

* **observability** — hub enabled (metrics default-on) vs disabled;
  budget 10% (``OBS_OVERHEAD_BUDGET`` env var overrides);
* **fault containment** — ``rules.containment`` on (deadline probes +
  the fail-closed except path, the production default) vs off (the raw
  seed behaviour); the kernel is fault-free, so this measures the
  wrappers alone.  Budget 5% (``CONTAINMENT_OVERHEAD_BUDGET``);
* **write-ahead log** — a :class:`repro.wal.Durability` attached vs
  detached.  ``check_access`` commits nothing, so a fault-free B3
  check never appends — this comparison bounds the hook probes
  themselves and polices WAL work creeping onto the read path.
  Budget 8% (``WAL_OVERHEAD_BUDGET``).

Plus two *decision-plane* comparisons (``engine.kernel_enabled`` on vs
off, i.e. compiled PolicyKernel vs interpreted OWTE pipeline):

* **static-heavy workload** — pure repeated checks; the kernel must be
  at least 2x faster than the interpreted pipeline
  (``KERNEL_SPEEDUP_MIN``) or the compile is not paying for itself;
* **policy-mutation round** — grant + checks + revoke + checks; every
  mutation bumps the policy epoch and forces a lazy recompile, so this
  bounds the compile cost amortized over a realistic round.  The
  kernel may cost at most 5% over interpreted here
  (``KERNEL_MUTATION_OVERHEAD_BUDGET``).

Both kernel verdicts (and their raw numbers) are also written to
``benchmarks/results/BENCH_kernel.json`` for CI and EXPERIMENTS.md.
``--kernel-only`` skips the wrapper-cost legs and runs just the two
decision-plane comparisons.

Plus one *provenance* comparison (``engine.flight.enabled`` on vs off
with the kernel path live): the flight-recorder ring append on every
decision may cost at most 3% (``PROVENANCE_OVERHEAD_BUDGET``) over a
recorder-free check.  Written to
``benchmarks/results/BENCH_provenance.json``; ``--provenance-only``
runs just this leg (the CI gate).

Plus one *footprint* leg, counted rather than timed: a full audit ring
of ``decision.allow`` records, with names parsed fresh from request
JSON, may cost at most 160 bytes per retained record
(``AUDIT_RECORD_BUDGET``) under :mod:`tracemalloc`.  The bytes
per provisioned principal are reported beside it.  Byte counts are
exact, so this leg gives the same verdict on every rerun.  Written to
``benchmarks/results/BENCH_footprint.json``.

Measurement methodology: the shared on/off discipline of
``_harness.py`` — short sub-quantum rounds (~50 checks, ~1.5 ms, so the
per-state *minimum* comes from an unpreempted window), interleaved
states, two estimators with the conservative one deciding, and one
re-measure at double the rounds when a verdict fails.  Every leg
leaves the engine with its feature switched back on.

Exit status 0 when every comparison is within budget, 1 otherwise.
Run from the repo root::

    PYTHONPATH=src python benchmarks/smoke_profile.py
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(__file__))  # for _harness

from _harness import (  # noqa: E402
    gate,
    interleave,
    overhead,
    profiled,
    speedup,
)

from repro import ActiveRBACEngine  # noqa: E402
from repro.serve.shard import Shard  # noqa: E402
from repro.testing.footprint import (  # noqa: E402
    audit_record_bytes,
    principal_bytes,
)
from repro.wal import Durability  # noqa: E402
from repro.workloads import EnterpriseShape, generate_enterprise  # noqa: E402

CHECKS = 50         # checkAccess calls per timed round (sub-quantum)
ROUNDS = 120        # alternating on/off round pairs
MUTATION_CHECKS = 200   # checks after each mutation in a mutation round
MUTATION_ROUNDS = 40    # alternating on/off mutation round pairs
AUDIT_RECORDS = 20_000  # audit ring capacity in the footprint leg
PRINCIPALS = 300        # principals provisioned per footprint batch
AUDIT_RECORD_BUDGET = 160   # bytes per retained audit record
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def build_engine() -> tuple[ActiveRBACEngine, str, str, str]:
    spec = generate_enterprise(EnterpriseShape(
        roles=100, users=100, tree_depth=2, tree_fanout=3, seed=13))
    engine = ActiveRBACEngine(spec)
    user, role = engine.policy.assignments[0]
    sid = engine.create_session(user)
    engine.add_active_role(sid, role)
    operation, obj = engine.policy.permissions[0]
    return engine, sid, operation, obj


def kernel(engine, sid, operation, obj, checks: int = CHECKS) -> None:
    for _ in range(checks):
        engine.check_access(sid, operation, obj)


def set_obs(engine, on: bool) -> None:
    engine.obs.enabled = on


def set_containment(engine, on: bool) -> None:
    engine.rules.containment = on


def set_kernel(engine, on: bool) -> None:
    engine.kernel_enabled = on


def set_flight(engine, on: bool) -> None:
    engine.flight.enabled = on


def check_round(engine, sid, operation, obj, set_state):
    """One short kernel round in a given state, in us/check."""
    def run(on: bool) -> float:
        set_state(engine, on)
        start = time.perf_counter_ns()
        kernel(engine, sid, operation, obj)
        return (time.perf_counter_ns() - start) / CHECKS / 1000
    return run


def _spare_grant(engine) -> tuple[str, str, str]:
    """A (role, operation, obj) the policy does not already grant, so a
    grant/revoke pair leaves the engine exactly where it started."""
    role = engine.policy.assignments[0][1]
    held = {(p.operation, p.obj)
            for p in engine.model.role_permissions(role)}
    for operation, obj in engine.policy.permissions:
        if (operation, obj) not in held:
            return role, operation, obj
    raise RuntimeError("no spare permission for the mutation round")


def mutation_round(engine, sid, operation, obj):
    """One policy-mutation round in a given kernel state, in us.

    grant -> checks -> revoke -> checks: each mutation bumps the policy
    epoch, so with the kernel on the first check after it pays a lazy
    recompile.  The round time therefore bounds compile cost amortized
    over a realistic mutate-then-serve cycle.
    """
    g_role, g_op, g_obj = _spare_grant(engine)

    def run(on: bool) -> float:
        set_kernel(engine, on)
        start = time.perf_counter_ns()
        engine.grant_permission(g_role, g_op, g_obj)
        kernel(engine, sid, operation, obj, MUTATION_CHECKS)
        engine.revoke_permission(g_role, g_op, g_obj)
        kernel(engine, sid, operation, obj, MUTATION_CHECKS)
        return (time.perf_counter_ns() - start) / 1000
    return run


def compare(engine, set_state, run_round, estimate=overhead):
    """``rounds -> (on, off, verdict)`` for :func:`_harness.gate`;
    each measurement leaves the engine in the production ("on")
    state."""
    def measure(rounds: int) -> tuple[float, float, float]:
        times = interleave(run_round, rounds)
        set_state(engine, True)
        return estimate(*times)
    return measure


def check_budget(engine, sid, operation, obj, set_state,
                 label: str, budget: float) -> tuple[bool, tuple]:
    """One on/off overhead comparison against its budget:
    ``(passed, (on_us, off_us, overhead))``."""
    return gate(
        compare(engine, set_state,
                check_round(engine, sid, operation, obj, set_state)),
        ROUNDS, lambda r: r[2] <= budget,
        lambda r: f"B3 checkAccess hot path [{label}]: on {r[0]:.2f} "
                  f"us/op, off {r[1]:.2f} us/op -> overhead "
                  f"{r[2]:+.1%} (budget {budget:.0%})")


def write_result(name: str, result: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def check_kernel(engine, sid, operation, obj,
                 speedup_min: float, mutation_budget: float) -> bool:
    """The two decision-plane verdicts + BENCH_kernel.json emission."""
    static_ok, (on_us, off_us, ratio) = gate(
        compare(engine, set_kernel,
                check_round(engine, sid, operation, obj, set_kernel),
                speedup),
        ROUNDS, lambda r: r[2] >= speedup_min,
        lambda r: f"B3 checkAccess hot path [policy kernel]: compiled "
                  f"{r[0]:.2f} us/op, interpreted {r[1]:.2f} us/op -> "
                  f"speedup {r[2]:.2f}x (minimum {speedup_min:.1f}x)")
    if not static_ok:
        print("FAIL: kernel speedup under the floor on a static-heavy "
              "workload", file=sys.stderr)
    mutation_ok, (mut_on, mut_off, mut_overhead) = gate(
        compare(engine, set_kernel,
                mutation_round(engine, sid, operation, obj)),
        MUTATION_ROUNDS, lambda r: r[2] <= mutation_budget,
        lambda r: f"policy-mutation round [policy kernel]: compiled "
                  f"{r[0]:.0f} us, interpreted {r[1]:.0f} us -> "
                  f"overhead {r[2]:+.1%} (budget {mutation_budget:.0%})")
    if not mutation_ok:
        print("FAIL: kernel recompiles exceed the mutation-round "
              "budget", file=sys.stderr)
    ok = static_ok and mutation_ok
    result = {
        "workload": "B3 checkAccess, 100 roles / 100 users, depth 2",
        "checks_per_round": CHECKS,
        "static": {
            "kernel_us_per_check": round(on_us, 3),
            "interpreted_us_per_check": round(off_us, 3),
            "speedup": round(ratio, 2),
            "speedup_min": speedup_min,
            "pass": static_ok,
        },
        "mutation_round": {
            "checks_per_mutation": MUTATION_CHECKS,
            "kernel_us_per_round": round(mut_on, 1),
            "interpreted_us_per_round": round(mut_off, 1),
            "overhead": round(mut_overhead, 4),
            "budget": mutation_budget,
            "pass": mutation_ok,
        },
        "kernel_build_us": round(engine.kernel().build_ns / 1000, 1),
        "pass": ok,
    }
    write_result("BENCH_kernel.json", result)
    return ok


def check_provenance(engine, sid, operation, obj,
                     budget: float) -> bool:
    """Flight-recorder on/off on the kernel path + BENCH_provenance.json.

    The kernel fast path is the cheapest check in the system, so the
    flight-recorder tuple append is proportionally at its worst here —
    if it fits the budget on this path it fits everywhere.
    """
    set_kernel(engine, True)
    ok, (on_us, off_us, flight_overhead) = check_budget(
        engine, sid, operation, obj, set_flight, "flight recorder", budget)
    if not ok:
        print("FAIL: flight-recorder overhead exceeds the provenance "
              "budget", file=sys.stderr)
    result = {
        "workload": "B3 checkAccess, 100 roles / 100 users, depth 2, "
                    "kernel path",
        "checks_per_round": CHECKS,
        "flight_on_us_per_check": round(on_us, 3),
        "flight_off_us_per_check": round(off_us, 3),
        "overhead": round(flight_overhead, 4),
        "budget": budget,
        "capacity": engine.flight.capacity,
        "pass": ok,
    }
    write_result("BENCH_provenance.json", result)
    return ok


def check_footprint(budget: float) -> bool:
    """Bytes per retained audit record against ``budget``, and bytes
    per provisioned principal, + BENCH_footprint.json."""
    spec = generate_enterprise(EnterpriseShape(
        roles=100, users=2 * PRINCIPALS, tree_depth=2, tree_fanout=3,
        seed=13))

    def measure(_rounds: int) -> tuple[float, float]:
        engine = ActiveRBACEngine(spec, audit_capacity=AUDIT_RECORDS)
        per_record = audit_record_bytes(engine)
        return per_record, principal_bytes(Shard("footprint", engine),
                                           PRINCIPALS)

    ok, (per_record, per_principal) = gate(
        measure, 1, lambda r: r[0] <= budget,
        lambda r: f"audit footprint: {r[0]:.1f} B per retained "
                  f"decision.allow record (budget {budget:.0f} B), "
                  f"{r[1]:.0f} B per provisioned principal")
    if not ok:
        print("FAIL: audit records exceed the footprint budget",
              file=sys.stderr)
    write_result("BENCH_footprint.json", {
        "workload": f"{AUDIT_RECORDS} decision.allow records, names "
                    f"parsed from JSON; {PRINCIPALS} principals after "
                    f"{PRINCIPALS} untraced ones",
        "bytes_per_record": round(per_record, 1),
        "budget_bytes_per_record": budget,
        "bytes_per_principal": round(per_principal, 1),
        "pass": ok,
    })
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernel-only", action="store_true",
                        help="run only the decision-plane comparisons "
                             "(kernel speedup + mutation-round budget)")
    parser.add_argument("--provenance-only", action="store_true",
                        help="run only the flight-recorder overhead "
                             "comparison on the kernel path")
    args = parser.parse_args(argv)
    obs_budget = float(os.environ.get("OBS_OVERHEAD_BUDGET", "0.10"))
    containment_budget = float(
        os.environ.get("CONTAINMENT_OVERHEAD_BUDGET", "0.05"))
    wal_budget = float(os.environ.get("WAL_OVERHEAD_BUDGET", "0.08"))
    speedup_min = float(os.environ.get("KERNEL_SPEEDUP_MIN", "2.0"))
    mutation_budget = float(
        os.environ.get("KERNEL_MUTATION_OVERHEAD_BUDGET", "0.05"))
    provenance_budget = float(
        os.environ.get("PROVENANCE_OVERHEAD_BUDGET", "0.03"))
    engine, sid, operation, obj = build_engine()

    if args.provenance_only:
        engine.obs.enabled = True
        ok = check_provenance(engine, sid, operation, obj,
                              provenance_budget)
        if ok:
            print("OK")
        return 0 if ok else 1

    if args.kernel_only:
        engine.obs.enabled = True
        ok = check_kernel(engine, sid, operation, obj,
                          speedup_min, mutation_budget)
        if ok:
            print("OK")
        return 0 if ok else 1

    engine.obs.enabled = True
    prof, _ = profiled(kernel, engine, sid, operation, obj,
                       registry=engine.obs.metrics,
                       label="B3 hot path (instrumented)")
    print(prof.report())
    print()

    ok = True
    if not check_budget(engine, sid, operation, obj, set_obs,
                        "obs hub", obs_budget)[0]:
        print("FAIL: instrumentation overhead exceeds budget",
              file=sys.stderr)
        ok = False

    # containment is measured with the hub in its default-on state so
    # the comparison isolates the containment wrappers alone
    engine.obs.enabled = True
    if not check_budget(engine, sid, operation, obj, set_containment,
                        "fault containment", containment_budget)[0]:
        print("FAIL: containment overhead exceeds budget", file=sys.stderr)
        ok = False

    # WAL: attached vs detached on the same engine.  The fault-free
    # check kernel commits nothing, so no records are appended — the
    # budget bounds the engine.wal hook probes and fails the job if
    # anyone ever puts an append on the check path.
    engine.obs.enabled = True
    wal_dir = tempfile.mkdtemp(prefix="smoke-wal-")
    durability = Durability(engine, wal_dir, batch_size=64)

    def set_wal(engine, on: bool) -> None:
        engine.wal = durability if on else None

    try:
        if not check_budget(engine, sid, operation, obj, set_wal,
                            "write-ahead log", wal_budget)[0]:
            print("FAIL: WAL overhead exceeds budget", file=sys.stderr)
            ok = False
    finally:
        durability.close()
        shutil.rmtree(wal_dir, ignore_errors=True)

    engine.obs.enabled = True
    if not check_kernel(engine, sid, operation, obj,
                        speedup_min, mutation_budget):
        ok = False

    engine.obs.enabled = True
    if not check_provenance(engine, sid, operation, obj,
                            provenance_budget):
        ok = False

    if not check_footprint(AUDIT_RECORD_BUDGET):
        ok = False

    if ok:
        print("OK")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
