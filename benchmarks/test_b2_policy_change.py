"""B2 — policy change: regeneration vs simulated manual editing.

The paper's §5 maintainability argument: a policy change (the
day-doctor shift) is one high-level edit plus regeneration, while in
"current systems" an administrator hand-edits low-level descriptors —
cost growing with the pool and error-prone.  We apply the same change
(give one role an enabling window) at several enterprise sizes and
compare (a) incremental regeneration, (b) full regeneration, (c) the
manual-edit cost model.  The timed kernel is one incremental
regeneration at 200 roles.
"""

from itertools import cycle

from benchmarks._harness import report, timed

from repro import ActiveRBACEngine
from repro.gtrbac.periodic import PeriodicInterval
from repro.synthesis.regenerate import (
    PolicyEditor,
    full_regeneration,
    simulate_manual_edit,
)
from repro.workloads import EnterpriseShape, generate_enterprise

SWEEP = (20, 50, 200, 500)
SHIFT = PeriodicInterval.daily("09:00", "17:00")
#: the shift the timed kernel alternates with SHIFT: re-setting the
#: window a role already has changes nothing and regenerates nothing
EARLY = PeriodicInterval.daily("08:00", "16:00")


def build(roles: int) -> ActiveRBACEngine:
    spec = generate_enterprise(EnterpriseShape(
        roles=roles, users=roles, seed=7))
    return ActiveRBACEngine(spec)


def target_role(engine: ActiveRBACEngine) -> str:
    return sorted(engine.policy.roles)[0]


def test_b2_policy_change_strategies(benchmark):
    rows = []
    for roles in SWEEP:
        engine = build(roles)
        role = target_role(engine)
        manual = simulate_manual_edit(engine, {role})
        editor = PolicyEditor(engine)
        incr_time, incr_report = timed(
            editor.set_enabling_window, role, SHIFT)
        full_time, full_report = timed(full_regeneration, engine)
        rows.append((
            roles, len(engine.rules),
            incr_report.rules_touched, f"{incr_time * 1e3:.2f}",
            len(full_report.added_rules), f"{full_time * 1e3:.1f}",
            manual.rules_scanned, f"{manual.expected_errors:.2f}",
        ))
    report(
        "B2", "one shift change: incremental vs full vs manual",
        ("roles", "pool", "incr rules", "incr ms",
         "full rules", "full ms", "manual scan", "manual E[err]"),
        rows,
        notes="expected shape: incremental touches O(1) rules at any "
              "pool size; full regen and manual scanning grow with the "
              "pool (paper §5)",
    )

    # shape assertions: incremental is pool-size independent, the
    # others are not
    engine = build(500)
    editor = PolicyEditor(engine)
    incr = editor.set_enabling_window(target_role(engine), SHIFT)
    assert incr.rules_touched <= 10
    manual = simulate_manual_edit(engine, {target_role(engine)})
    assert manual.rules_scanned == len(engine.rules) > 1000

    big = build(200)
    big_editor = PolicyEditor(big)
    shifts = cycle((EARLY, SHIFT))
    benchmark(lambda: big_editor.set_enabling_window(
        target_role(big), next(shifts)))
