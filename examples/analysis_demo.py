#!/usr/bin/env python3
"""Policy analysis: explain denials, review entitlements, find rot.

Run:  python examples/analysis_demo.py

Three tools every access-control administrator reaches for:

1. *why was this denied?* — the derivation of one access decision,
   in the checkAccess rule's clause order (``engine.explain()``);
2. *who can do X?* — effective entitlement review (hierarchy included);
3. *what is stale?* — hygiene findings (empty roles, dead permissions,
   redundant roles) plus static verification of the generated rules.
"""

from repro import ActiveRBACEngine, parse_policy
from repro.analysis import policy_hygiene, who_can
from repro.synthesis.verify import render_findings, verify_rule_pool

POLICY = """
policy acme {
  role CFO; role Accountant; role Auditor; role LegacyRole;
  hierarchy CFO > Accountant;
  user maria; user raj;
  assign maria to CFO;
  assign raj to Auditor;
  permission post on ledger;
  permission audit on ledger;
  permission burn on microfiche;
  grant post on ledger to Accountant;
  grant audit on ledger to Auditor;
  dsd booksVsAudit roles Accountant, Auditor;
}
"""


def main() -> None:
    engine = ActiveRBACEngine.from_policy(parse_policy(POLICY))

    print("=" * 68)
    print("1. explanation")
    print("=" * 68)
    sid = engine.create_session("raj")
    engine.add_active_role(sid, "Auditor")
    print(engine.explain(sid, "post", "ledger").describe())

    print()
    print("=" * 68)
    print("2. entitlement review")
    print("=" * 68)
    for operation, obj in (("post", "ledger"), ("audit", "ledger")):
        entitled = who_can(engine, operation, obj)
        print(f"who can {operation} on {obj}:")
        for user in sorted(entitled):
            print(f"  {user} via {sorted(entitled[user])}")

    print()
    print("=" * 68)
    print("3. hygiene + rule verification")
    print("=" * 68)
    print(policy_hygiene(engine).describe())
    print()
    print(render_findings(verify_rule_pool(engine)))


if __name__ == "__main__":
    main()
