"""Command-line entry points.

Exit codes: 0 on success, 1 for configuration/usage errors, 2 for runtime
failures (including runs that completed with recorded per-trial failures).

``run`` and ``reconstruct`` keep only the flags given: an unset flag is
absent from the parsed namespace, so it takes ``ExperimentConfig``'s or
``reconstruct()``'s default, and no default is written here.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

from .harness import (
    ExperimentConfig,
    SnapshotStore,
    TimingBudget,
    check_timing_budget,
    derive_seed,
    entropy_pairs_from_traces,
    entropy_report,
    load_target_file,
    noise_inspect,
    preset_target,
    reconstruct,
    run_experiment,
)
from .noise import NoiseModelSpec, default_noise_model
from .prep import Representation
from .swap_test import DEFAULT_SHOTS, OBJECTIVES, FidelityMode

PRESETS = ("zero", "one", "hadamard", "random")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _parse_qubits(text: str) -> tuple:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return int(lo), int(hi)
    n = int(text)
    return n, n


def _parse_thresholds(text: str) -> tuple:
    return tuple(float(t) for t in text.split(","))


def _parse_noise(text: str) -> NoiseModelSpec | None:
    if text == "default":
        return default_noise_model()
    if text == "none":
        return None
    return NoiseModelSpec.from_json(Path(text).read_text())


# the flags each mode reads; a flag given to a mode that ignores it is an error
_MODE_FLAGS = {"exact": (), "sampled": ("shots",), "noisy": ("shots", "noise")}


def _build_mode(flags: dict) -> FidelityMode:
    """The mode the given flags name; takes --mode, --shots and --noise out of ``flags``."""
    kind = flags.pop("mode", "exact")
    for flag in ("shots", "noise"):
        if flag in flags and flag not in _MODE_FLAGS[kind]:
            raise ValueError(f"--mode {kind} does not read --{flag}")
    shots = flags.pop("shots", DEFAULT_SHOTS)
    if kind == "exact":
        return FidelityMode.exact()
    if kind == "sampled":
        return FidelityMode.sampled(shots)
    noise = _parse_noise(flags.pop("noise", "default"))
    if noise is None:
        raise ValueError("--mode noisy requires --noise default or --noise <file>")
    return FidelityMode.noisy(noise, shots)


def _add_run_flags(p: argparse.ArgumentParser, seed_dest: str) -> None:
    """The flags ``run`` and ``reconstruct`` share."""
    p.add_argument("--method", choices=["es", "nn"])
    p.add_argument("--repr", dest="representation", type=Representation,
                   metavar="{" + ",".join(r.value for r in Representation) + "}")
    p.add_argument("--max-iters", type=int)
    p.add_argument("--objective", choices=OBJECTIVES)
    p.add_argument("--mode", choices=list(_MODE_FLAGS))
    p.add_argument("--shots", type=int,
                   help=f"sampled and noisy modes: shots per reading ({DEFAULT_SHOTS} if unset)")
    p.add_argument("--noise",
                   help="noisy mode: default (if unset), none, or a JSON file path")
    p.add_argument("--seed", dest=seed_dest, type=int, metavar="SEED")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swapfit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # an unset run or reconstruct flag is left out of the namespace
    run = sub.add_parser("run", help="batch experiment over random targets",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--config", help="JSON config file; no flag but --out may be given with it")
    run.add_argument("--qubits", dest="qubit_range", type=_parse_qubits, metavar="QUBITS",
                     help="N or LO:HI (within 1..6)")
    run.add_argument("--trials", type=int,
                     help="trials per qubit count (use 1000 for full scale)")
    run.add_argument("--thresholds", type=_parse_thresholds,
                     help="comma-separated fidelity thresholds")
    run.add_argument("--out", required=True, help="output directory")
    _add_run_flags(run, "base_seed")

    rec = sub.add_parser("reconstruct", help="reconstruct one target state",
                         argument_default=argparse.SUPPRESS)
    rec.add_argument("--target", required=True,
                     help=f"preset {'|'.join(PRESETS)} or a TargetSpec JSON file")
    rec.add_argument("--qubits", dest="n_qubits", type=int, metavar="QUBITS",
                     help="qubits of a preset target; a target file sets its own")
    rec.add_argument("--store", type=SnapshotStore,
                     help="snapshot store directory for the solution")
    rec.add_argument("--label", help="snapshot label (default derived)")
    _add_run_flags(rec, "seed")

    ent = sub.add_parser("entropy-report", help="entanglement entropy comparison")
    ent.add_argument("--traces", required=True, help="traces.json from a run")
    ent.add_argument("--out", help="CSV output path (default: print)")

    noi = sub.add_parser("noise-inspect", help="channel parameters and residuals")
    noi.add_argument("--noise", default="default")

    tim = sub.add_parser("timing-budget", help="feedback-latency feasibility check")
    tim.add_argument("--t-d-cq", type=float, required=True, help="dispatch time (s)")
    tim.add_argument("--t-d-qc", type=float, required=True, help="readback time (s)")
    tim.add_argument("--t-p-c", type=float, required=True, help="update time (s)")
    tim.add_argument("--tau-d", type=float, required=True, help="coherence window (s)")
    tim.add_argument("--margin", type=float, default=10.0)
    tim.add_argument("--iterations", type=int, required=True)
    return parser


def _subcommand(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """The parser ``build_parser`` made for one subcommand."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices[name]


def _check_config_alone(parser: argparse.ArgumentParser, flags: dict) -> None:
    """The config file sets every run option, so any other flag but --out
    is an error, named in command-line order."""
    options = {a.dest: a.option_strings[0] for a in _subcommand(parser, "run")._actions}
    ignored = [options[dest] for dest in flags if dest not in ("config", "out")]
    if ignored:
        raise ValueError(f"--config sets every run option; drop {', '.join(ignored)}")


def _cmd_run(args) -> int:
    flags = vars(args)
    out = flags.pop("out")
    if "config" in flags:
        config = ExperimentConfig.from_json(Path(flags["config"]).read_text())
    else:
        config = ExperimentConfig(mode=_build_mode(flags), **flags)
    summary = run_experiment(config, out)
    print(f"wrote {out}/results.csv, summary.json, traces.json")
    for n, stats in summary["per_qubit_count"].items():
        top = max(config.thresholds)
        block = stats[f"threshold_{top}"]
        print(
            f"  n={n}: trials={stats['trials']} "
            f"mean_epochs@{top}={block['mean_epochs']} "
            f"success_rate={block['success_rate']:.2f} "
            f"mean_oracle_fidelity={stats.get('mean_oracle_fidelity')}"
        )
    if summary["failures"]:
        print(f"{len(summary['failures'])} trial(s) failed; see summary.json", file=sys.stderr)
        return 2
    return 0


def _cmd_reconstruct(args) -> int:
    flags = vars(args)
    name = flags.pop("target")
    if name in PRESETS:
        # --qubits sizes a preset only.  The random preset is drawn as `run
        # --seed S` draws its first trial's target, from derive_seed(S, 0),
        # and not from RngStream(S), which the optimizer starts from
        seed = flags.get("seed", inspect.signature(reconstruct).parameters["seed"].default)
        shape = {"n_qubits": flags.pop("n_qubits")} if "n_qubits" in flags else {}
        target = preset_target(name, seed=derive_seed(seed, 0), **shape)
    elif "n_qubits" in flags:
        raise ValueError(f"--target {name} is a file, which sets the qubit count; "
                         "drop --qubits")
    else:
        target = load_target_file(name)
    result = reconstruct(target, mode=_build_mode(flags), **flags)
    record = result["record"]
    for epoch, f in enumerate(record.fidelity_trace, start=1):
        print(f"epoch {epoch}: fidelity {f:.6f}")
    print(
        f"done: epochs={len(record.fidelity_trace)} "
        f"final={record.final_fidelity:.6f} oracle={record.oracle_fidelity:.6f}"
    )
    if result["stored_as"]:
        print(f"solution stored as {result['stored_as']!r} in {flags['store'].root}")
    return 0


def _cmd_entropy_report(args) -> int:
    pairs = entropy_pairs_from_traces(args.traces)
    report = entropy_report(pairs)
    lines = [report["reports"][0].CSV_HEADER] if report["reports"] else []
    lines += [r.csv_row() for r in report["reports"]]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    print(f"max |delta entropy| = {report['max_abs_delta']:.6f} bits")
    if report["skipped_single_qubit"]:
        print(
            f"skipped {len(report['skipped_single_qubit'])} single-qubit circuit(s) "
            "(no bipartition)"
        )
    if report["skipped_density"]:
        print(
            f"skipped {len(report['skipped_density'])} density record(s) "
            "(the report takes pure-state records)"
        )
    return 0


def _cmd_noise_inspect(args) -> int:
    spec = _parse_noise(args.noise)
    if spec is None:
        raise ValueError("--noise none leaves nothing to inspect")
    report = noise_inspect(spec)
    print("parameters:")
    for key, value in report["parameters"].items():
        print(f"  {key} = {value}")
    print("channels:")
    for ch in report["channels"]:
        print(
            f"  {ch['channel']}: arity={ch['arity']} operators={ch['operator_count']} "
            f"completeness_residual={ch['completeness_residual']:.3e}"
        )
    return 0


def _cmd_timing_budget(args) -> int:
    budget = TimingBudget(
        t_d_cq=args.t_d_cq, t_d_qc=args.t_d_qc, t_p_c=args.t_p_c,
        tau_d=args.tau_d, margin_factor=args.margin,
    )
    report = check_timing_budget(budget, args.iterations)
    for key, value in report.items():
        print(f"{key}: {value}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "reconstruct": _cmd_reconstruct,
    "entropy-report": _cmd_entropy_report,
    "noise-inspect": _cmd_noise_inspect,
    "timing-budget": _cmd_timing_budget,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # what is left in vars(args) are the command's flags
    command = vars(args).pop("command")
    try:
        if "config" in vars(args):
            _check_config_alone(parser, vars(args))
        return _COMMANDS[command](args)
    # a path of the wrong kind (a directory given as an input file, a file
    # as --out) is a usage error too; the OSError's message names the path
    except (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
