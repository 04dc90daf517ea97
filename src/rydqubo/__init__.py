"""Compile integer QUBO problems into blockade atom graphs and verify them.

The pipeline: :func:`compile_qubo` turns a cost function into an atom graph
built from data copies, offsets and coupling chains; :func:`certify_equivalence`
checks the graph's decoded ground states against exhaustive enumeration;
:mod:`rydqubo.geometry` validates coordinate layouts against the blockade
disk rule; :mod:`rydqubo.sim` integrates the driven Hamiltonian and reads
solutions off the final distribution.
"""

from .errors import (
    CapExceeded,
    EmptySelection,
    GraphError,
    InputError,
    RydquboError,
    SimulationError,
)
from .qubo import (
    Assignment,
    QuboInstance,
    brute_force_minima,
    evaluate,
    normalize_to_integers,
    qubo_from_dict,
    qubo_to_dict,
)
from .compiler import (
    AFConstraintAtom,
    AtomGraph,
    AtomRole,
    DataCopy,
    Offset,
    Parity,
    WireAtom,
    WireDescriptor,
    WireLengthPolicy,
    compile_qubo,
    graph_from_dict,
    graph_to_dict,
    planned_atom_count,
    try_decode,
)
from .solver import (
    CertificateReport,
    certify_equivalence,
    enumerate_ground_configs,
    mwis_expand,
)
from .geometry import (
    Layout,
    PhysicalParams,
    ValidationReport,
    blockade_radius,
    builtin_names,
    layout_from_csv,
    layout_from_dict,
    load_builtin_layout,
    pair_interaction,
    validate_unit_disk,
)
from .sim import (
    HamiltonianMode,
    HamiltonianSpec,
    PulseSchedule,
    StateDistribution,
    af_predicate,
    build_hamiltonian,
    evolve,
    measure_distribution,
    postselect,
    sample_distribution,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
