"""Deterministic WAL replay under a pinned config version.

The engine's opt-in decision journal (``engine.decision_journal``)
appends one ``decision.check`` record per served decision, so a WAL
carries both the *mutation stream* (sessions, activations, context,
locks, clock) and the *decision stream* interleaved in commit order.
Replay rebuilds a fresh engine from a chosen
:class:`~repro.config.configset.ConfigSet` and walks the log once:

* session-level records are **folded as facts** through
  :func:`repro.wal.fold`, the one reader that restore and recovery use
  too (no events fire, no rules run), so the session state at each
  decision point is exactly what the live run had committed; a record
  naming a user, role or session this config lacks is a gap;
* policy-swap records (``policy.epoch``, ``config.promote``,
  ``config.rollback``) are *skipped* — the whole stream is re-decided
  under the pinned config, which is the point: "what would this
  traffic have looked like under version N?";
* each ``decision.check`` is re-decided read-only via
  :meth:`~repro.engine.ActiveRBACEngine.explain` and appended to the
  result's decision stream, hashed into a running sha256.

Determinism contract: the same WAL replayed under the same config
yields a byte-identical digest (CI asserts this across seeds); two
different versions yield a structured per-decision diff via
:func:`diff_streams`.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any

from repro.clock import VirtualClock
from repro.config.configset import ConfigSet
from repro.config.loader import ConfigError
from repro.wal import SESSION_OPS, SWAP_OPS, WAL_FILE, fold, read_wal

__all__ = ["ReplayResult", "diff_streams", "replay_wal"]


@dataclass
class ReplayResult:
    """One replay run: the re-decided stream plus its fingerprint."""

    config_version: int
    checksum: str
    wal_path: str
    records: int = 0
    #: one row per ``decision.check``: lsn, subject triple, the live
    #: verdict the journal recorded, and the replayed verdict
    decisions: list[dict[str, Any]] = field(default_factory=list)
    #: sha256 over the replayed decision stream
    digest: str = ""
    #: decisions whose replayed verdict differs from the journaled
    #: live verdict (meaningful when replaying the deployed version)
    mismatches: list[dict[str, Any]] = field(default_factory=list)
    #: records replay could not fold (unknown entity under this
    #: config, fold error) — surfaced, never silently dropped
    gaps: list[dict[str, Any]] = field(default_factory=list)
    #: policy-swap records skipped because the config is pinned
    pinned_swaps: int = 0
    torn: int = 0

    def summary(self) -> dict[str, Any]:
        return {
            "config_version": self.config_version,
            "checksum": self.checksum,
            "wal": self.wal_path,
            "records": self.records,
            "decisions": len(self.decisions),
            "digest": self.digest,
            "mismatches": len(self.mismatches),
            "gaps": len(self.gaps),
            "pinned_swaps": self.pinned_swaps,
            "torn": self.torn,
        }


def replay_wal(path: str, config: ConfigSet) -> ReplayResult:
    """Re-run a WAL's decision stream under ``config``.

    ``path`` is a Durability directory or a WAL file.  The WAL is read
    with torn-tail repair (read-only: the file is never rewritten).
    """
    from repro.engine import ActiveRBACEngine

    wal_path = os.path.join(path, WAL_FILE) if os.path.isdir(path) else path
    if not os.path.exists(wal_path):
        raise ConfigError(f"no WAL at {wal_path!r}")
    records, report = read_wal(wal_path, repair=False)

    engine = ActiveRBACEngine.from_policy(
        config.spec, clock=VirtualClock(start=0.0))
    result = ReplayResult(config_version=config.version,
                          checksum=config.checksum, wal_path=wal_path,
                          records=len(records), torn=report["torn"])
    digest = hashlib.sha256()

    for record in records:
        op = record["op"]
        lsn = record["lsn"]
        # virtual time moves with the log so temporal reads (context
        # windows folded via role.status, explain-time clock) line up
        engine.clock.advance_to(float(record.get("t", 0.0)))
        if op in SWAP_OPS:
            result.pinned_swaps += 1
            continue
        if op in SESSION_OPS:
            try:
                gap = fold(engine, record)
            except Exception as exc:  # noqa: BLE001 - gap, not crash
                gap = f"fold error: {exc}"
            if gap is not None:
                result.gaps.append({"lsn": lsn, "op": op, "reason": gap})
            continue
        if op != "decision.check":
            continue  # audit-only records (config.stage/refuse, ...)
        data = record.get("data", {})
        session = data.get("session")
        operation = data.get("operation")
        obj = data.get("object")
        purpose = data.get("purpose")
        live = data.get("granted")
        try:
            replayed: bool | None = bool(
                engine.explain(session, operation, obj,
                               purpose=purpose).allowed)
        except Exception as exc:  # noqa: BLE001 - deterministic gap
            replayed = None
            result.gaps.append({"lsn": lsn, "op": op,
                                "reason": f"explain error: {exc}"})
        row = {"lsn": lsn, "session": session, "operation": operation,
               "object": obj, "purpose": purpose, "live": live,
               "replayed": replayed}
        result.decisions.append(row)
        token = "err" if replayed is None else str(int(replayed))
        digest.update(f"{lsn}|{session}|{operation}|{obj}|{purpose}|"
                      f"{token}\n".encode("utf-8"))
        if replayed is not None and live is not None \
                and bool(live) != replayed:
            result.mismatches.append(row)

    result.digest = digest.hexdigest()
    return result


def diff_streams(a: ReplayResult, b: ReplayResult) -> dict[str, Any]:
    """Structured diff between two replays of the *same* WAL.

    Aligns decisions by LSN (same log ⇒ same decision sequence) and
    reports every point where the two config versions answer
    differently.
    """
    b_by_lsn = {row["lsn"]: row for row in b.decisions}
    differing = []
    compared = 0
    for row in a.decisions:
        other = b_by_lsn.get(row["lsn"])
        if other is None:
            continue
        compared += 1
        if row["replayed"] != other["replayed"]:
            differing.append({
                "lsn": row["lsn"],
                "session": row["session"],
                "operation": row["operation"],
                "object": row["object"],
                f"v{a.config_version}": row["replayed"],
                f"v{b.config_version}": other["replayed"],
            })
    return {
        "identical": not differing and a.digest == b.digest,
        "compared": compared,
        "differing": differing,
        "digests": {f"v{a.config_version}": a.digest,
                    f"v{b.config_version}": b.digest},
    }
