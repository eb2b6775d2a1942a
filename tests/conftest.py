"""Shared fixtures: the enterprise XYZ policy and engines over it."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import ActiveRBACEngine, DirectRBACEngine, parse_policy
from repro.policy.spec import PolicySpec

# Every property failure prints a ``@reproduce_failure`` blob, so a red
# CI run can be replayed locally; all other settings keep their defaults.
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")

#: Enterprise XYZ from paper §5 / Figure 1: two departments, five roles,
#: static SoD between purchase clerk and approval clerk, inherited
#: upward through the hierarchy.
XYZ_POLICY_TEXT = """
policy XYZ {
  role Clerk;
  role PC;
  role PM;
  role AC;
  role AM;
  user bob;
  user carol;
  user dave;
  hierarchy PM > PC > Clerk;
  hierarchy AM > AC > Clerk;
  ssd PurchaseApproval roles PC, AC;
  permission create on purchase_order;
  permission approve on purchase_order;
  permission read on ledger;
  grant create on purchase_order to PC;
  grant approve on purchase_order to AC;
  grant read on ledger to Clerk;
  assign bob to PM;
  assign carol to AC;
  assign dave to Clerk;
}
"""


@pytest.fixture(scope="session", autouse=True)
def flightrec_dir(tmp_path_factory):
    """Every flight-recorder dump of the run, subprocesses included,
    lands in one pytest temp dir instead of the system temp dir."""
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_FLIGHTREC_DIR",
                 str(tmp_path_factory.mktemp("flightrec")))
    yield
    patch.undo()


@pytest.fixture
def xyz_spec() -> PolicySpec:
    return parse_policy(XYZ_POLICY_TEXT)


@pytest.fixture
def xyz_engine(xyz_spec) -> ActiveRBACEngine:
    return ActiveRBACEngine.from_policy(xyz_spec)


@pytest.fixture
def xyz_direct(xyz_spec) -> DirectRBACEngine:
    return DirectRBACEngine(xyz_spec)
