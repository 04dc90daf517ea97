"""The package's public surface: a name joins or leaves it only on purpose."""

import rydqubo

PUBLIC_NAMES = [
    "AFConstraintAtom", "Assignment", "AtomGraph", "AtomRole", "CapExceeded", "CertificateReport",
    "DataCopy", "EmptySelection", "GraphError", "HamiltonianMode", "HamiltonianSpec", "InputError",
    "Layout", "Offset", "Parity", "PhysicalParams", "PulseSchedule", "QuboInstance", "RydquboError",
    "SimulationError", "StateDistribution", "ValidationReport", "WireAtom", "WireDescriptor",
    "WireLengthPolicy", "af_predicate", "blockade_radius", "brute_force_minima", "build_hamiltonian",
    "builtin_names", "certify_equivalence", "compile_qubo", "compiler",
    "errors", "evaluate", "evolve", "geometry", "graph_from_dict",
    "graph_to_dict", "layout_from_csv", "layout_from_dict",
    "load_builtin_layout", "measure_distribution", "mwis_expand", "normalize_to_integers",
    "pair_interaction", "planned_atom_count", "postselect", "qubo", "qubo_from_dict", "qubo_to_dict",
    "sample_distribution", "sim", "solver", "try_decode", "validate_unit_disk",
]


def test_public_names_are_pinned():
    assert sorted(rydqubo.__all__) == PUBLIC_NAMES

