"""Test-support utilities shipped with the package.

:mod:`repro.testing.faults` is the deterministic fault-injection
harness used by the chaos suite and the ``repro-rbac health --chaos``
demo; it lives in the package (not under ``tests/``) so downstream
users can chaos-test their own policies.  :mod:`repro.testing.load`
is the HTTP load and chaos client that replays a service plan (and a
:class:`~repro.testing.faults.NetFaultPlan`) against a running
``repro-rbac serve``, and :mod:`repro.testing.serve` launches and
drains that server as a subprocess.  None of them is imported here,
so loading one does not load another.
"""

from repro.testing.faults import FaultInjector

__all__ = ["FaultInjector"]
