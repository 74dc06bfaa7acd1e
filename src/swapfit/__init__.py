"""swapfit: reconstruction of unknown quantum states from SWAP-test feedback.

The package is organized along the reconstruction pipeline:

* sim: statevector/density-matrix substrate on one axis-transpose matmul kernel
* prep: random targets, Mottonen synthesis, parameter-vector decoding
* noise: calibrated Kraus channels and noisy executors
* swap_test: the fidelity estimator circuit, the only feedback signal
* evolution: gradient-free population optimizer
* neural: MLP generator trained by finite differences through the estimator
* metrics: mixed-state and entanglement diagnostics
* harness: batch experiments, snapshot store, reports, CLI backends
"""

from .evolution import ESParams, TrialRecord, es_update, perturb_population, run_es
from .harness import (
    ExperimentConfig,
    SnapshotStore,
    TimingBudget,
    check_timing_budget,
    entropy_report,
    noise_inspect,
    preset_target,
    reconstruct,
    run_experiment,
)
from .metrics import (
    bipartite_entropy,
    helstrom_success,
    hs_overlap,
    mixed_state_report,
    swap_discrimination_bound,
    trace_distance,
    uhlmann_fidelity,
    von_neumann_entropy,
)
from .neural import GeneratorConfig, MlpParams, default_config, train_generator
from .noise import (
    KrausChannel,
    NoiseModelSpec,
    bitflip_channel,
    compose_channels,
    default_noise_model,
    depolarizing_channel,
    thermal_relaxation_channel,
)
from .prep import (
    Representation,
    TargetSpec,
    decode_density,
    decode_statevector,
    decode_unitary,
    mottonen_circuit,
    sample_random_state,
)
from .sim import DensityMatrix, GateOp, PureState, RngStream
from .swap_test import (
    FidelityMode,
    RegisterLayout,
    SwapTestOutcome,
    fidelity_oracle,
    iterate_snapshot,
    swap_test_exact,
    swap_test_sampled,
)

__version__ = "0.1.0"
