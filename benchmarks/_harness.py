"""Shared helpers for the benchmark harness.

Every benchmark regenerates one experiment from DESIGN.md §4 (F1,
R1-R9, B1-B9).  Besides the pytest-benchmark timing, each test prints
its series/table and writes it to ``benchmarks/results/<exp>.txt`` so
EXPERIMENTS.md can reference the measured rows.

The smoke gates (``smoke_profile.py``, ``smoke_scope.py``) share one
on/off timing discipline (:func:`interleave`, :func:`overhead`,
:func:`speedup`, :func:`gate`): a shared machine drifts by 2-3x
mid-run, so states alternate every short round, two estimators per
verdict keep the conservative one, and a failing verdict is
re-measured once at double the rounds.
"""

from __future__ import annotations

import pathlib
import statistics
import time
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def report(exp_id: str, title: str, header: Sequence[str],
           rows: Iterable[Sequence[object]],
           notes: str = "") -> str:
    """Render an aligned table, print it, persist it, and return it."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    header = tuple(str(cell) for cell in header)
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows
        else len(header[i])
        for i in range(len(header))
    ]

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width)
                         for cell, width in zip(cells, widths))

    lines = [f"[{exp_id}] {title}", fmt(header),
             fmt(["-" * width for width in widths])]
    lines.extend(fmt(row) for row in rows)
    if notes:
        lines.append(f"note: {notes}")
    text = "\n".join(lines)
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{exp_id}.txt").write_text(text + "\n")
    return text


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    """(elapsed_seconds, result) of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return (time.perf_counter() - start, result)


def profiled(fn, *args, registry=None, label: str = "",
             **kwargs) -> tuple[object, object]:
    """Run ``fn`` under an observability :class:`~repro.obs.Profiler`.

    Returns ``(profiler, result)``: the profiler carries wall time plus
    the delta of every metric series that moved (pass
    ``registry=engine.obs.metrics``), so a benchmark can report not
    just "how long" but "how many events/rule firings per iteration".
    """
    from repro.obs import Profiler

    profiler = Profiler(registry=registry,
                        label=label or getattr(fn, "__name__", "block"))
    with profiler:
        result = fn(*args, **kwargs)
    return profiler, result


def interleave(run_round: Callable[[bool], float],
               rounds: int) -> tuple[list[float], list[float]]:
    """``(on_times, off_times)``: one warm-up round per state, then
    ``rounds`` pairs of ``run_round(True)``, ``run_round(False)``."""
    run_round(True)
    run_round(False)
    on_times, off_times = [], []
    for _ in range(rounds):
        on_times.append(run_round(True))
        off_times.append(run_round(False))
    return on_times, off_times


def overhead(on_times: Sequence[float], off_times: Sequence[float]
             ) -> tuple[float, float, float]:
    """``(on, off, overhead)``: the smaller of the min-vs-min gap and
    the median paired gap, relative to the fastest "off" round."""
    base = min(off_times)
    gap = min(min(on_times) - base,
              statistics.median(on - off
                                for on, off in zip(on_times, off_times)))
    return base + gap, base, gap / base


def speedup(on_times: Sequence[float], off_times: Sequence[float]
            ) -> tuple[float, float, float]:
    """``(on, off, speedup)``: the smaller of the min-vs-min ratio
    off/on and the median paired ratio."""
    on_min, off_min = min(on_times), min(off_times)
    paired = statistics.median(off / on
                               for on, off in zip(on_times, off_times))
    return on_min, off_min, min(off_min / on_min, paired)


def gate(measure: Callable[[int], T], rounds: int,
         passes: Callable[[T], bool],
         describe: Callable[[T], str]) -> tuple[bool, T]:
    """``(passed, result)`` of ``measure(rounds)``; a failing verdict
    is re-measured once with ``2 * rounds`` and that result stands."""
    result = measure(rounds)
    print(describe(result))
    if passes(result):
        return True, result
    print("verdict failed; re-measuring with double the rounds...")
    result = measure(rounds * 2)
    print(describe(result))
    return passes(result), result
