"""Self-test of the span bookkeeping in tracer.py.

Checks three properties on nested wrapped calls run on two threads at once:

* self time = duration - the part of it covered by child spans, including
  when child intervals overlap or stick out of the parent;
* a span's parent is always on the span's own thread;
* busy + wait = wall, per span and per layer total.

Run alone with ``python3 perfbench/selftest.py``; the traced benchmark run
calls ``run()`` first and reports the run as incorrect if it fails.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import (  # noqa: E402
    END, ID, PARENT, START, THREAD, Tracer, covered_length, cross_thread_parents,
    layer_totals, self_times,
)


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _nested_spans() -> list:
    tracer = Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.004), name="t.inner")

    def outer_body():
        _spin(0.002)
        inner()
        inner()
        time.sleep(0.002)

    outer = tracer.wrap(outer_body, name="t.outer")

    def worker():
        for _ in range(3):
            outer()

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("self-test worker thread did not finish")
    return tracer.spans


def run() -> list:
    """Return the list of failed properties (empty when all hold)."""
    failures = []

    # union of overlapping / overhanging children, against a hand count
    if not math.isclose(covered_length(0.0, 10.0, [(1, 4), (3, 6), (5, 5.5), (9, 12)]), 6.0):
        failures.append("covered_length of overlapping children")

    spans = _nested_spans()
    if len(spans) != 2 * 3 * 3:
        failures.append(f"expected 18 spans, got {len(spans)}")
    if cross_thread_parents(spans):
        failures.append("a span's parent lies on another thread")
    if len({s[THREAD] for s in spans}) != 2:
        failures.append("spans were not recorded on two threads")

    selfs = self_times(spans)
    for s in spans:
        children = [c for c in spans if c[PARENT] == s[ID]]
        expect = (s[END] - s[START]) - sum(c[END] - c[START] for c in children)
        if any(c[START] < s[START] or c[END] > s[END] for c in children):
            failures.append("a child span lies outside its parent")
        if not math.isclose(selfs[s[ID]], expect, abs_tol=1e-12):
            failures.append(f"self time of span {s[ID]} is not duration - children")
        if s[PARENT] is None and not (0.002 <= selfs[s[ID]] < s[END] - s[START] - 0.008):
            failures.append(f"outer span {s[ID]} self time {selfs[s[ID]]:.4f}s out of range")

    totals = layer_totals(spans)
    for name, t in totals.items():
        if not math.isclose(t["busy_s"] + t["wait_s"], t["wall_s"], abs_tol=1e-12):
            failures.append(f"{name}: busy + wait != wall")
    if totals["t.inner"]["busy_s"] > 0.1 * totals["t.inner"]["wall_s"]:
        failures.append("sleeping spans were counted as busy")
    return failures


if __name__ == "__main__":
    problems = run()
    for p in problems:
        print(f"FAIL {p}")
    print("span bookkeeping self-test:", "FAIL" if problems else "PASS")
    sys.exit(1 if problems else 0)
