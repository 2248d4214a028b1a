"""loqsim: a desk-scale simulator of linear-optical quantum computing.

Exact Fock-space evolution through linear interferometers via matrix
permanents, heralded/post-selected entangling gates, gate teleportation
with resource accounting, and cluster-state computation with Pauli-frame
feedforward.
"""

__version__ = "0.1.0"

from .fock import (
    PhotonicState,
    inner_product,
    make_basis_state,
    superpose,
    tensor,
    total_photon_number,
    vacuum,
)
from .interferometer import (
    ModeUnitary,
    OpticalElement,
    apply,
    beamsplitter,
    compose,
    element_unitary,
    hom_coincidence,
    hwp,
    pbs,
    permanent,
    phase,
    qwp,
    rotation_elements,
    swap,
)
from .detection import (
    DetectionRecord,
    DetectorModel,
    HeraldPattern,
    IDEAL_DETECTOR,
    derive_rng,
    herald,
    herald_completeness,
    measure_all,
)
from .encoding import (
    DecodeResult,
    LogicalState,
    QubitEncoding,
    bloch,
    decode,
    decompose_su2,
    encode,
    logical_projection,
    marginal_bloch,
    pbs_convert,
    reconstruct_waveplates,
)
from .heralded import (
    GateRunResult,
    HeraldedGate,
    conditional_logical_map,
    klm_cnot,
    klm_cz,
    ns_gate,
    run_heralded,
    run_photonic,
)
from .teleport import (
    BellLabel,
    FailureRecord,
    PauliCorrection,
    ResourceTally,
    bell_measure_ideal,
    bell_measure_linear_optics,
    bell_pair,
    cnot_matrix,
    teleport_qubit,
    teleported_cnot,
)
from .cluster import (
    ClusterGraph,
    ClusterState,
    MeasurementInstruction,
    PauliFrame,
    build_cluster,
    initial_cluster_state,
    linear_rotation_pattern,
    measure_node,
    run_pattern,
    transcript_json,
)
from .dsl import ExperimentSpec, SpecError, parse, serialize
from .runner import Report, format_report, run
