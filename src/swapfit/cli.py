"""Command-line entry points.

Exit codes: 0 on success, 1 for configuration/usage errors, 2 for runtime
failures (including runs that completed with recorded per-trial failures).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    ExperimentConfig,
    SnapshotStore,
    TimingBudget,
    check_timing_budget,
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


class _Given(argparse.Action):
    """argparse's plain store, which also lists the flag in ``given``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*namespace.given, self.option_strings[0])


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


def _parse_noise(text: str) -> NoiseModelSpec | None:
    if text == "default":
        return default_noise_model()
    if text == "none":
        return None
    return NoiseModelSpec.from_json(Path(text).read_text())


# the flags each mode reads; a flag given to a mode that ignores it is an error
_MODE_FLAGS = {"exact": (), "sampled": ("shots",), "noisy": ("shots", "noise")}


def _build_mode(args) -> FidelityMode:
    for flag in ("shots", "noise"):
        if getattr(args, flag) is not None and flag not in _MODE_FLAGS[args.mode]:
            raise ValueError(f"--mode {args.mode} does not read --{flag}")
    shots = DEFAULT_SHOTS if args.shots is None else args.shots
    if args.mode == "exact":
        return FidelityMode.exact()
    if args.mode == "sampled":
        return FidelityMode.sampled(shots)
    noise = _parse_noise("default" if args.noise is None else args.noise)
    if noise is None:
        raise ValueError("--mode noisy requires --noise default or --noise <file>")
    return FidelityMode.noisy(noise, shots)


def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["exact", "sampled", "noisy"], default="exact")
    p.add_argument("--shots", type=int,
                   help=f"sampled and noisy modes: shots per reading ({DEFAULT_SHOTS} if unset)")
    p.add_argument("--noise",
                   help="noisy mode: default (if unset), none, or a JSON file path")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swapfit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="batch experiment over random targets")
    # every run flag records itself, so _cmd_run can tell a flag from its default
    run.register("action", None, _Given)
    run.set_defaults(given=())
    run.add_argument("--config", help="JSON config file; no flag but --out may be given with it")
    run.add_argument("--method", choices=["es", "nn"], default="es")
    run.add_argument("--repr", dest="representation",
                     choices=[r.value for r in Representation], default="statevector")
    run.add_argument("--qubits", default="1", help="N or LO:HI (within 1..6)")
    run.add_argument("--trials", type=int, default=100,
                     help="trials per qubit count (100 default; use 1000 for full scale)")
    run.add_argument("--thresholds", default="0.95,0.99")
    run.add_argument("--max-iters", type=int, default=100)
    run.add_argument("--objective", choices=OBJECTIVES, default="swap")
    run.add_argument("--out", required=True, help="output directory")
    _add_mode_flags(run)

    rec = sub.add_parser("reconstruct", help="reconstruct one target state")
    rec.add_argument("--target", required=True,
                     help=f"preset {'|'.join(PRESETS)} or a TargetSpec JSON file")
    rec.add_argument("--qubits", type=int, default=1)
    rec.add_argument("--method", choices=["es", "nn"], default="es")
    rec.add_argument("--repr", dest="representation",
                     choices=[r.value for r in Representation], default="statevector")
    rec.add_argument("--max-iters", type=int, default=100)
    rec.add_argument("--objective", choices=OBJECTIVES, default="swap")
    rec.add_argument("--store", help="snapshot store directory for the solution")
    rec.add_argument("--label", help="snapshot label (default derived)")
    _add_mode_flags(rec)

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


def _cmd_run(args) -> int:
    if args.config:
        ignored = [flag for flag in args.given if flag not in ("--config", "--out")]
        if ignored:
            raise ValueError(f"--config sets every run option; drop {', '.join(ignored)}")
        config = ExperimentConfig.from_json(Path(args.config).read_text())
    else:
        lo, hi = _parse_qubits(args.qubits)
        config = ExperimentConfig(
            method=args.method,
            representation=Representation(args.representation),
            qubit_range=(lo, hi),
            trials=args.trials,
            mode=_build_mode(args),
            thresholds=tuple(float(t) for t in args.thresholds.split(",")),
            base_seed=args.seed,
            max_iters=args.max_iters,
            objective=args.objective,
        )
    summary = run_experiment(config, args.out)
    print(f"wrote {args.out}/results.csv, summary.json, traces.json")
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
    if args.target in PRESETS:
        target = preset_target(args.target, n_qubits=args.qubits, seed=args.seed)
    else:
        target = load_target_file(args.target)
    store = SnapshotStore(args.store) if args.store else None
    result = reconstruct(
        target,
        method=args.method,
        representation=Representation(args.representation),
        mode=_build_mode(args),
        seed=args.seed,
        max_iters=args.max_iters,
        store=store,
        label=args.label,
        objective=args.objective,
    )
    record = result["record"]
    for epoch, f in enumerate(record.fidelity_trace, start=1):
        print(f"epoch {epoch}: fidelity {f:.6f}")
    print(
        f"done: epochs={len(record.fidelity_trace)} "
        f"final={record.final_fidelity:.6f} oracle={record.oracle_fidelity:.6f}"
    )
    if result["stored_as"]:
        print(f"solution stored as {result['stored_as']!r} in {args.store}")
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
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
