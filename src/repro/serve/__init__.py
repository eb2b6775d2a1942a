"""The service plane: asyncio HTTP front-end over sharded engines.

``repro-rbac serve`` turns the library into a long-running server —
one :class:`~repro.engine.ActiveRBACEngine` (plus WAL and compiled
kernel) per tenant shard, routed by home domain, read lock-free via
RCU-style epoch swaps.  The package ships no load generator: the
benchmark (``perfbench/``) drives served traffic, and the smoke gates
use the test client in :mod:`repro.testing.load`.

Layout:

* :mod:`repro.serve.shard` — :class:`Shard` (the published-kernel RCU
  surface, including the degraded frozen-kernel read path) and
  :class:`ShardRouter` (home-domain routing over the federation);
* :mod:`repro.serve.bulkhead` — per-shard overload isolation:
  :class:`Bulkhead`, :class:`CircuitBreaker`, :class:`ShardGuard`;
* :mod:`repro.serve.http` — :class:`ServeApp`, the zero-dependency
  HTTP/1.1 server with admission control, i/o timeouts, per-request
  deadlines, degraded-mode serving and graceful drain/flush/dump
  shutdown.
"""

from repro.serve.bulkhead import Bulkhead, CircuitBreaker, ShardGuard
from repro.serve.http import HttpError, ServeApp
from repro.serve.shard import ADMIN_OPS, Shard, ShardRouter

__all__ = [
    "ADMIN_OPS",
    "Bulkhead",
    "CircuitBreaker",
    "HttpError",
    "ServeApp",
    "Shard",
    "ShardGuard",
    "ShardRouter",
]
