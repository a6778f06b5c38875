"""Virtual two-qubit gates on an Ising ring.

Cut the ring-closing RZZ of a Trotterized transverse-field Ising circuit into
local operations via a quasi-probability decomposition, simulate the variants
under depolarizing noise, and compare against SWAP-routed execution.
"""

from .circuit import (
    Circuit,
    CouplingMap,
    Gate,
    GateKind,
    Layout,
    circuit_from_text,
    circuit_to_text,
    count_gates,
    decompose_rzz_cnot,
    decompose_rzz_rzx,
    route_ring_closure,
)
from .errors import (
    InvalidCircuitError,
    PreconditionError,
    ResourceLimitError,
    StatevectorModeError,
    UnsupportedTopologyError,
)
from .harness import (
    ExperimentConfig,
    ResultRecord,
    emit_results,
    read_results,
    report_summary,
    run_experiment,
)
from .noise import NoiseModel, depolarize
from .qpd import (
    CutOption,
    CutSite,
    QpdTerm,
    SimplifiedTerm,
    decompose_vrzz,
    decomposition_angle,
    fragment_manifest,
    gamma,
    group_for_sampling,
    reconstruct_channel,
    run_enumerated_exact,
    simplify_projected,
)
from .sim import (
    DensityMatrix,
    FragmentRun,
    PauliObservable,
    Shots,
    StateVector,
    expectation,
    expectations,
    run_density,
    run_statevector,
    sample_fragments,
    sample_shots,
)
from .tfim import TfimParams, TrotterBuild, build_trotter_circuit, exact_reference, magnetization

__version__ = "0.1.0"
