"""Circuit cutting with observable backpropagation.

Backpropagates observables through circuit suffixes under a qubit-wise
commuting group budget, searches for low-overhead cut plans, reconstructs
expectation values exactly from subcircuits, and anneals the budget to
minimize quantum execution counts.
"""

__version__ = "0.1.0"

from .annealing import (
    AnnealResult,
    ObjectiveEvaluator,
    OptimizeResult,
    ParallelAnnealResult,
    SAConfig,
    accept_move,
    anneal,
    optimize_budget,
    parallel_anneal,
)
from .backprop import (
    BackpropResult,
    backpropagate,
    conjugate_gate,
    truncate,
)
from .circuits import (
    Circuit,
    CircuitError,
    Gate,
    QasmError,
    emit_qasm,
    lower_rotations,
    parse_qasm,
    slice_circuit,
)
from .cutting import (
    CostReport,
    CutError,
    CutPlan,
    Extraction,
    cost,
    extract_subcircuits,
    find_cuts,
    total_executions,
    validate_plan,
)
from .paulis import (
    Observable,
    PauliError,
    PauliString,
    PauliTerm,
    canonicalize,
    commutes,
    format_observable,
    group_qwc,
    multiply,
    parse_observable,
)
from .qpd import (
    QpdError,
    QpdTerm,
    ReconstructionResult,
    cut_and_reconstruct,
    gatecut_terms,
    reconstruct,
    uncut_expectation,
    verify_gatecut_channel,
    verify_wirecut_identity,
    wirecut_terms,
)
from .sim import SimulationError, expectation, product_state, simulate, zero_state
