"""In-memory span tracer for the traced benchmark run.

A span is recorded around every call of a wrapped function.  Spans are kept
as tuples in a list and written out once the run has ended.  The parent of
a span is the innermost open span on the same thread (a thread-local stack),
so a parent never lies on another thread.  The trial label is set by the
trial-level spans and inherited by every span opened beneath them.

This module imports only the standard library: the benchmark runner uses
it to aggregate spans without importing the program under test.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

FIELDS = ("id", "name", "start", "end", "cpu_start", "cpu_end", "parent", "thread", "trial")
ID, NAME, START, END, CPU_START, CPU_END, PARENT, THREAD, TRIAL = range(len(FIELDS))

# (module, attribute) pairs patched in the *calling* module's namespace:
# swapfit modules import functions by name, so a patch on the defining
# module would not be seen by the caller.
PATCHES = (
    ("swapfit.evolution", "score_candidate"),
    ("swapfit.neural", "score_candidate"),
    ("swapfit.swap_test", "swap_test_exact"),
    ("swapfit.swap_test", "swap_test_sampled"),
    ("swapfit.evolution", "fidelity_oracle"),
    ("swapfit.neural", "fidelity_oracle"),
    ("swapfit.swap_test", "run_circuit"),
    ("swapfit.swap_test", "run_circuit_dm_noisy"),
    ("swapfit.swap_test", "prepare_on"),
    ("swapfit.prep", "Representation.decode"),
    ("swapfit.evolution", "perturb_population"),
    ("swapfit.evolution", "standardized_advantages"),
    ("swapfit.evolution", "es_update"),
    ("swapfit.neural", "init_mlp"),
    ("swapfit.neural", "mlp_forward"),
    ("swapfit.neural", "fd_gradient"),
    ("swapfit.neural", "mlp_backward"),
    ("swapfit.neural", "adam_step"),
    ("swapfit.swap_test", "uhlmann_fidelity"),
    ("swapfit.swap_test", "hs_overlap"),
    ("swapfit.evolution", "uhlmann_fidelity"),
    ("swapfit.neural", "uhlmann_fidelity"),
)
# One span per trial; every span opened inside it carries its label.
TRIAL_PATCHES = (
    ("swapfit.harness", "run_es"),
    ("swapfit.harness", "train_generator"),
)


def span_name(fn) -> str:
    """``sim.run_circuit`` for ``swapfit.sim.run_circuit``: the defining layer."""
    module = fn.__module__.rpartition(".")[2]
    return f"{module}.{fn.__name__}"


def trial_label(args, kwargs) -> str:
    """``n3/t5`` from a run_es / train_generator call (target first)."""
    return f"n{args[0].n_qubits}/t{kwargs.get('trial_id', 0)}"


class Tracer:
    """Records spans around wrapped callables; thread-safe under the GIL."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn, name: str | None = None, trial_of=None):
        name = name or span_name(fn)
        local, spans, ids = self._local, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent, trial = stack[-1] if stack else (None, None)
            if trial_of is not None:
                trial = trial_of(args, kwargs)
            sid = next(ids)
            stack.append((sid, trial))
            # the wall interval encloses the CPU interval, so wait >= 0
            t0 = time.perf_counter()
            cpu0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu1 = time.thread_time()
                t1 = time.perf_counter()
                stack.pop()
                spans.append(
                    (sid, name, t0, t1, cpu0, cpu1, parent, threading.get_ident(), trial)
                )

        return traced

    def install(self) -> None:
        """Patch every PATCHES / TRIAL_PATCHES target that exists.

        A target the program no longer has is listed in ``missing`` rather
        than failing the run, so the report says what went unmeasured.
        """
        for patches, trial_of in ((PATCHES, None), (TRIAL_PATCHES, trial_label)):
            for module_name, attr in patches:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(owner, leaf, self.wrap(fn, trial_of=trial_of))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START]) - covered_length(s[START], s[END], children[s[ID]])
        for s in spans
    }


def layer_totals(spans) -> dict:
    """Per span name: calls, wall_s, busy_s (thread CPU), wait_s, self_s."""
    selfs = self_times(spans)
    out: dict = {}
    for s in spans:
        t = out.setdefault(
            s[NAME], {"calls": 0, "wall_s": 0.0, "busy_s": 0.0, "wait_s": 0.0, "self_s": 0.0}
        )
        wall = s[END] - s[START]
        busy = s[CPU_END] - s[CPU_START]
        t["calls"] += 1
        t["wall_s"] += wall
        t["busy_s"] += busy
        t["wait_s"] += wall - busy
        t["self_s"] += selfs[s[ID]]
    return out


def cross_thread_parents(spans) -> int:
    """Number of spans whose parent was recorded on another thread."""
    thread_of = {s[ID]: s[THREAD] for s in spans}
    return sum(
        1 for s in spans
        if s[PARENT] is not None and thread_of.get(s[PARENT]) != s[THREAD]
    )
