"""src holds what a command runs.

A fixed list of small ``swapfit`` commands runs in-process under a profile
hook, and every function and method defined in ``src/swapfit`` must be
called by one of them, except the named entries of ``UNREACHED``, each with
its reason.  A function that no command reaches is either a reference the
tests hold a fast path to, and belongs in ``tests/oracles.py``, or dead.
"""

import ast
import importlib
import pkgutil
import sys
import threading
from pathlib import Path

import pytest

import swapfit
from swapfit.cli import main
from swapfit.harness import ExperimentConfig
from swapfit.noise import NoiseModelSpec
from swapfit.prep import TargetSpec, sample_random_state
from swapfit.sim import DensityMatrix, RngStream

SRC = Path(swapfit.__file__).parent

PERFBENCH = "perfbench's traced child, until ROADMAP item 1"
UNREACHED = {
    # perfbench/child.py counts the lowered cx per circuit through this chain
    "swap_test.noisy_circuit_ops": PERFBENCH,
    "swap_test.swap_gadget_ops": PERFBENCH,
    "prep.prepare_on": PERFBENCH,
    "prep.mottonen_circuit": PERFBENCH,
    "prep.MottonenStage.ops": PERFBENCH,
    "sim.GateOp.shifted": PERFBENCH,
    "prep.TargetSpec.to_json": "the writer of the target-file format that "
                               "`reconstruct --target FILE` reads; commands only read it",
    "sim.RngStream.__repr__": "interactive use: no command prints a state object",
    "sim.PureState.__repr__": "interactive use: no command prints a state object",
    "sim.DensityMatrix.__repr__": "interactive use: no command prints a state object",
}


def defined_functions() -> set:
    """``module.qualname`` of every def in src/swapfit, as ``co_qualname`` spells it."""
    names = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return names


def _write_inputs(tmp: Path) -> None:
    rng = RngStream(5)
    (tmp / "pure.json").write_text(TargetSpec(2, sample_random_state(2, rng), seed=5).to_json())
    mixed = DensityMatrix(1, [[0.75, 0.25], [0.25, 0.25]])
    (tmp / "mixed.json").write_text(TargetSpec(1, mixed).to_json())
    (tmp / "noise.json").write_text(NoiseModelSpec(p_dep2=0.01).to_json())
    config = ExperimentConfig(method="es", qubit_range=(1, 1), trials=1, max_iters=2)
    (tmp / "config.json").write_text(config.to_json())


def commands(tmp: Path) -> list:
    """(argv, exit code): every subcommand, both methods, the three modes,
    the three representations, both objectives, the four presets, a pure and
    a density target file, --config, --noise FILE, --thresholds, a density
    run's entropy report and a usage error."""
    t = str(tmp)
    small = ["--max-iters", "2"]
    return [
        (["run", "--method", "es", "--qubits", "1:2", "--trials", "2", "--thresholds",
          "0.5,0.9", "--out", f"{t}/es"] + small, 0),
        # long enough for a hidden pre-activation to take erf's |x| > 1 form
        (["run", "--method", "nn", "--qubits", "2", "--trials", "2", "--seed", "5",
          "--max-iters", "40", "--out", f"{t}/nn"], 0),
        (["run", "--method", "es", "--repr", "unitary", "--mode", "noisy", "--noise",
          f"{t}/noise.json", "--qubits", "1", "--trials", "1", "--out", f"{t}/noisy"] + small, 0),
        (["run", "--method", "nn", "--mode", "noisy", "--qubits", "1", "--trials", "1",
          "--out", f"{t}/nn-noisy"] + small, 0),
        (["run", "--method", "nn", "--repr", "density", "--objective", "uhlmann",
          "--qubits", "1", "--trials", "1", "--out", f"{t}/density"] + small, 0),
        (["run", "--config", f"{t}/config.json", "--out", f"{t}/config"], 0),
        (["reconstruct", "--target", "hadamard", "--store", f"{t}/store", "--label", "h"]
         + small, 0),
        (["reconstruct", "--target", "random", "--qubits", "2", "--method", "nn",
          "--mode", "sampled", "--shots", "64"] + small, 0),
        (["reconstruct", "--target", "zero", "--mode", "sampled"] + small, 0),
        (["reconstruct", "--target", "one", "--repr", "density"] + small, 0),
        (["reconstruct", "--target", f"{t}/pure.json"] + small, 0),
        (["reconstruct", "--target", f"{t}/mixed.json", "--repr", "density"] + small, 0),
        (["reconstruct", "--target", f"{t}/mixed.json", "--repr", "density",
          "--objective", "uhlmann"] + small, 0),
        (["entropy-report", "--traces", f"{t}/es/traces.json", "--out", f"{t}/ent.csv"], 0),
        (["entropy-report", "--traces", f"{t}/density/traces.json"], 1),
        (["noise-inspect"], 0),
        (["noise-inspect", "--noise", f"{t}/noise.json"], 0),
        (["timing-budget", "--t-d-cq", "1e-6", "--t-d-qc", "1e-6", "--t-p-c", "1e-4",
          "--tau-d", "1e-3", "--iterations", "3"], 0),
        (["run", "--bogus"], 1),
    ]


def called_functions(argvs) -> tuple:
    """The exit code of each command, and ``module.qualname`` of every
    src/swapfit function called while they ran, on any thread.

    The module caches are emptied first, so the commands start cold, as in a
    fresh process, whatever earlier tests filled them with.
    """
    for info in pkgutil.iter_modules(swapfit.__path__, "swapfit."):
        for fn in vars(importlib.import_module(info.name)).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    prefix = str(SRC) + "/"
    seen = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            seen.add(frame.f_code)

    sys.setprofile(hook)
    threading.setprofile(hook)  # MLP trials run on pool threads
    try:
        codes = [main(argv) for argv in argvs]
    finally:
        threading.setprofile(None)
        sys.setprofile(None)
    return codes, {f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in seen}


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reach")
    _write_inputs(tmp)
    cases = commands(tmp)
    codes, called = called_functions([argv for argv, _ in cases])
    return cases, codes, called


def test_commands_exit_as_expected(reach):
    cases, codes, _ = reach
    assert [(argv, code) for (argv, _), code in zip(cases, codes)] == cases


def test_every_function_is_reached(reach):
    unreached = defined_functions() - reach[2] - set(UNREACHED)
    assert not unreached, f"defined in src/swapfit but run by no command: {sorted(unreached)}"


def test_unreached_list_is_current(reach):
    """Every entry names a function that exists and that still no command runs."""
    assert set(UNREACHED) <= defined_functions()
    assert not set(UNREACHED) & reach[2]
