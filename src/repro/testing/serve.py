"""Launch and drain a ``repro-rbac serve`` subprocess: the readiness
(port file) and shutdown (``shutdown: {...}`` line) formats, in one
place for the serve integration tests and ``benchmarks/smoke_serve.py``.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time
from typing import Any


class LaunchError(RuntimeError):
    """The server exited or never bound; ``output`` is what it printed."""

    def __init__(self, message: str, output: str) -> None:
        super().__init__(message)
        self.output = output


#: seconds a SIGTERMed server has to drain and exit before it is killed
DRAIN_TIMEOUT_S = 30.0


def launch(port_file: pathlib.Path, args: list[str], *, timeout: float,
           cwd: Any = None) -> tuple[subprocess.Popen, int]:
    """Spawn ``repro-rbac serve ARGS`` on port 0 and return it with the
    port it wrote to ``port_file``; :class:`LaunchError` when it exits
    or does not bind within ``timeout`` seconds."""
    env = {**os.environ,
           "PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[2])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--port-file", str(port_file), *args], env=env, cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + timeout
    while not port_file.exists():
        if proc.poll() is not None:
            raise LaunchError(f"server exited {proc.returncode} before "
                              "binding", proc.stdout.read())
        if time.monotonic() > deadline:
            proc.kill()
            raise LaunchError(f"server did not bind within {timeout}s",
                              proc.communicate()[0])
        time.sleep(0.05)
    return proc, int(port_file.read_text().strip())


def drain(proc: subprocess.Popen) -> tuple[str, dict[str, Any] | None]:
    """SIGTERM the server and wait (killing it after
    :data:`DRAIN_TIMEOUT_S`); returns its output and its shutdown
    summary, if any."""
    proc.send_signal(signal.SIGTERM)
    try:
        out = proc.communicate(timeout=DRAIN_TIMEOUT_S)[0]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = [line.removeprefix("shutdown: ") for line in out.splitlines()
             if line.startswith("shutdown: ")]
    return out, json.loads(lines[-1]) if lines else None
