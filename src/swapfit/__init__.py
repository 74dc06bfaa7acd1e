"""swapfit: reconstruction of unknown quantum states from SWAP-test feedback.

The package is organized along the reconstruction pipeline:

* sim: statevector/density-matrix substrate on one axis-transpose matmul kernel
* prep: random targets, Mottonen synthesis, parameter-vector decoding, and
  the JSON state record (``state_record``/``state_from_record``)
* noise: calibrated Kraus channels, the noisy Mottonen preparation and
  the SWAP gadget's noisy tensors
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
from .metrics import bipartite_entropy, hs_overlap, uhlmann_fidelity
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
    mottonen_circuit,
    sample_random_state,
    state_from_record,
    state_record,
)
from .sim import DensityMatrix, GateOp, PureState, RngStream
from .swap_test import (
    Estimator,
    FidelityMode,
    fidelity_oracle,
    score_candidate,
)

__version__ = "0.1.0"
