#!/usr/bin/env python3
"""Benchmark smoke: scoped S-A-O-C checks stay on the kernel fast path.

Builds a synthetic enterprise (50 roles / 100 users) and layers a
multi-org scope tree on it — 12 orgs x 12 collections x 8 resources,
1308 scopes — with scoped grants over the org/collection anchors and
org-bounded assignments, so the containment closure implies millions of
user-scope-role triples without materialising any.

Three verdicts:

* **overhead** — interleaved flat-vs-scoped rounds on the same engine
  and session.  A scoped check resolves the scope and walks the
  ancestor-closure bitsets on top of the flat decision; it may cost at
  most ``SCOPE_OVERHEAD_BUDGET`` (default 1.0, i.e. scoped <= 2x flat)
  over the flat check;
* **kernel path** — the policy is static during measurement, so every
  check (flat and scoped) must be answered by the compiled kernel: the
  fallback decision counter may not move;
* **containment** — for a role granted at an org anchor, *every* one of
  the anchor's descendants must grant and every non-descendant must
  deny; for a role granted at a leaf resource, every strict ancestor
  (including the platform root, i.e. the flat call) must deny.  The
  sweep covers all 1308 scopes.

Raw numbers go to ``benchmarks/results/BENCH_scope.json``.  Same
measurement methodology as ``smoke_profile.py``, from ``_harness.py``:
short sub-quantum rounds, interleaved states, min-vs-min and
paired-median estimators (smaller wins), one retry with doubled
rounds.

Exit status 0 when every verdict passes, 1 otherwise.  Run from the
repo root::

    PYTHONPATH=src python benchmarks/smoke_scope.py
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))  # for _harness

from _harness import gate, interleave, overhead  # noqa: E402

from repro import ActiveRBACEngine  # noqa: E402
from repro.workloads import (  # noqa: E402
    EnterpriseShape,
    add_scoped_layer,
    generate_enterprise,
)

CHECKS = 50     # checkAccess calls per timed round (sub-quantum)
ROUNDS = 120    # alternating flat/scoped round pairs
ORGS = 12
COLLECTIONS = 12
RESOURCES = 8
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

ANCHOR_ORG = "org00"        # the org-anchored containment probe
LEAF_SCOPE = "org01/col00/res00"  # the leaf-anchored reverse probe


def build() -> tuple[ActiveRBACEngine, list[str], dict[str, str]]:
    spec = generate_enterprise(EnterpriseShape(
        roles=50, users=100, seed=13))
    scopes = add_scoped_layer(
        spec, orgs=ORGS, collections_per_org=COLLECTIONS,
        resources_per_collection=RESOURCES, scoped_grants_per_role=2,
        scoped_assignment_fraction=0.5, extra_scoped_assignments=100,
        seed=17)

    operation, obj = spec.permissions[0]
    # three probe roles with exactly one grant each, so the sweep's
    # expected verdict is a pure function of scope containment
    spec.add_role("BenchFlat")
    spec.add_role("BenchOrg")
    spec.add_role("BenchLeaf")
    spec.add_grant("BenchFlat", operation, obj)
    spec.add_scoped_grant("BenchOrg", operation, obj, ANCHOR_ORG)
    spec.add_scoped_grant("BenchLeaf", operation, obj, LEAF_SCOPE)
    spec.add_user("benchflat")
    spec.add_user("benchorg")
    spec.add_user("benchleaf")
    spec.add_assignment("benchflat", "BenchFlat")
    spec.add_assignment("benchorg", "BenchOrg")
    spec.add_assignment("benchleaf", "BenchLeaf")

    engine = ActiveRBACEngine(spec)
    sids = {}
    for user, role in (("benchflat", "BenchFlat"),
                       ("benchorg", "BenchOrg"),
                       ("benchleaf", "BenchLeaf")):
        sid = engine.create_session(user)
        engine.add_active_role(sid, role)
        sids[user] = sid
    probe = {"operation": operation, "obj": obj, **sids}
    return engine, scopes, probe


def scope_round(engine, sid, operation, obj, scope: str):
    """One short check round, scoped ("on") or flat, in us/check."""
    def run(scoped: bool) -> float:
        target = scope if scoped else None
        start = time.perf_counter_ns()
        for _ in range(CHECKS):
            engine.check_access(sid, operation, obj, scope=target)
        return (time.perf_counter_ns() - start) / CHECKS / 1000
    return run


def check_containment(engine, scopes: list[str],
                      probe: dict[str, str]) -> tuple[bool, dict]:
    """Ancestor => every descendant; leaf grant => no ancestor.

    Sweeps every scope in the tree for both probe roles and counts the
    verdicts against the containment-implied expectation.
    """
    operation, obj = probe["operation"], probe["obj"]
    org_sid, leaf_sid = probe["benchorg"], probe["benchleaf"]
    wrong: list[str] = []
    descendants = 0
    for scope in scopes:
        in_org = scope == ANCHOR_ORG or scope.startswith(ANCHOR_ORG + "/")
        descendants += in_org
        if engine.check_access(org_sid, operation, obj,
                               scope=scope) is not in_org:
            wrong.append(f"org-anchored grant at {scope!r}: "
                         f"expected {in_org}")
        in_leaf = scope == LEAF_SCOPE or scope.startswith(LEAF_SCOPE + "/")
        if engine.check_access(leaf_sid, operation, obj,
                               scope=scope) is not in_leaf:
            wrong.append(f"leaf-anchored grant at {scope!r}: "
                         f"expected {in_leaf}")
    # the reverse direction, stated flat: a grant below the root never
    # satisfies the root-scope (flat) check
    if engine.check_access(org_sid, operation, obj):
        wrong.append("org-anchored grant satisfied a flat check")
    if engine.check_access(leaf_sid, operation, obj):
        wrong.append("leaf-anchored grant satisfied a flat check")
    for line in wrong[:10]:
        print(f"FAIL containment: {line}", file=sys.stderr)
    detail = {
        "scopes_swept": len(scopes),
        "org_descendants_granted": descendants,
        "violations": len(wrong),
        "pass": not wrong,
    }
    print(f"containment sweep: {len(scopes)} scopes x 2 probes, "
          f"{descendants} descendants of {ANCHOR_ORG!r} granted, "
          f"{len(wrong)} violation(s)")
    return not wrong, detail


def main() -> int:
    budget = float(os.environ.get("SCOPE_OVERHEAD_BUDGET", "1.0"))
    engine, scopes, probe = build()
    operation, obj = probe["operation"], probe["obj"]
    sid = probe["benchflat"]
    deep = f"{ANCHOR_ORG}/col00/res00"
    stats = engine.kernel().stats()
    print(f"scope tree: {stats['scopes']} scopes interned, "
          f"{stats['scoped_grants']} scoped grant rows (closure-folded), "
          f"{stats['scope_limited_assignments']} bounded assignments")
    assert len(scopes) >= 1000, "the sweep must cover >= 1k scopes"

    ok = True
    fallbacks = engine.obs.kernel_decisions.labels("fallback")
    before = fallbacks.value

    run_round = scope_round(engine, sid, operation, obj, deep)
    within_budget, (scoped_us, flat_us, scoped_overhead) = gate(
        lambda rounds: overhead(*interleave(run_round, rounds)),
        ROUNDS, lambda r: r[2] <= budget,
        lambda r: f"checkAccess hot path [scoped vs flat]: scoped "
                  f"{r[0]:.2f} us/op, flat {r[1]:.2f} us/op -> "
                  f"overhead {r[2]:+.1%} (budget {budget:.0%})")
    if not within_budget:
        print("FAIL: scoped-check overhead exceeds the budget",
              file=sys.stderr)
        ok = False

    contained, containment = check_containment(engine, scopes, probe)
    ok = contained and ok

    fallback_delta = fallbacks.value - before
    if fallback_delta:
        print(f"FAIL: {fallback_delta} check(s) left the kernel fast "
              f"path on a static policy", file=sys.stderr)
        ok = False
    else:
        print("kernel path: 0 fallbacks across measurement and sweep")

    result = {
        "workload": f"scoped checkAccess, 50 roles / 100 users, "
                    f"{ORGS}x{COLLECTIONS}x{RESOURCES} scope tree",
        "checks_per_round": CHECKS,
        "scopes": len(scopes),
        "scoped_grant_rows": stats["scoped_grants"],
        "scope_limited_assignments": stats["scope_limited_assignments"],
        "scope_closure_bits": stats["scope_closure_bits"],
        "scoped_us_per_check": round(scoped_us, 3),
        "flat_us_per_check": round(flat_us, 3),
        "overhead": round(scoped_overhead, 4),
        "budget": budget,
        "kernel_fallbacks": fallback_delta,
        "containment": containment,
        "pass": ok,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_scope.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    if ok:
        print("OK")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
