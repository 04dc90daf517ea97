"""Tests for blockade arithmetic, layout validation, bundled data, layout I/O."""

import json
import math
from importlib import resources

import pytest

from rydqubo.compiler import AtomGraph, DataCopy, graph_to_dict
from rydqubo.errors import InputError
from rydqubo.geometry import (
    Layout,
    PhysicalParams,
    blockade_radius,
    builtin_names,
    layout_from_csv,
    layout_from_dict,
    load_builtin_layout,
    pair_interaction,
    validate_unit_disk,
)

REFERENCE_PARAMS = PhysicalParams(c6=1023e3, omega=0.0, delta=5.0)

# Structural expectations for every bundled graph, as label pairs.  These were
# derived independently from the bundled coordinates and double-check the
# distance-rule edge derivation (a dataset entry error fails here).
EXPECTED_EDGES = {
    "G1": set(),
    "G2": {("x2", "a2^(1)"), ("x2", "a2^(2)")},
    "G3": {
        ("x1^(1)", "W^(1)"),
        ("x1^(2)", "W^(1)"),
        ("W^(1)", "W^(2)"),
        ("x2", "W^(2)"),
        ("x2", "a2^(1)"),
        ("x2", "a2^(2)"),
    },
    "G4": {
        ("x1^(1)", "W"),
        ("x1^(2)", "W"),
        ("x1^(3)", "W"),
        ("x2", "W"),
        ("x2", "a2"),
    },
    "G5P": {
        ("W~^(1)", "x1^(1)"),
        ("W~^(1)", "x1^(2)"),
        ("W~^(1)", "W~^(2)"),
        ("W~^(2)", "W1^(1)"),
        ("W~^(2)", "W2^(1)"),
        ("W1^(1)", "W1^(2)"),
        ("W1^(2)", "x2"),
        ("W2^(1)", "W2^(2)"),
        ("W2^(2)", "x2"),
        ("x2", "a2^(1)"),
        ("x2", "a2^(2)"),
    },
    "G6P": {
        ("W~^(1)", "x1^(1)"),
        ("W~^(1)", "x1^(2)"),
        ("W~^(1)", "W~^(3)"),
        ("W~^(2)", "x1^(3)"),
        ("W~^(2)", "x1^(4)"),
        ("W~^(2)", "W~^(3)"),
        ("W~^(3)", "W1"),
        ("W~^(3)", "W2"),
        ("W1", "x2"),
        ("W2", "x2"),
    },
    "G7": {
        ("x1^(1)", "W1^(1)"),
        ("x1^(2)", "W1^(1)"),
        ("W1^(1)", "W1^(2)"),
        ("W1^(2)", "W1^(3)"),
        ("W1^(3)", "W1^(4)"),
        ("W1^(4)", "x2"),
        ("x1^(1)", "W2^(1)"),
        ("x1^(2)", "W2^(1)"),
        ("W2^(1)", "W2^(2)"),
        ("W2^(2)", "W2^(3)"),
        ("W2^(3)", "W2^(4)"),
        ("W2^(4)", "x3"),
        ("x2", "W3^(1)"),
        ("x3", "W3^(1)"),
        ("x2", "W3^(2)"),
        ("x3", "W3^(2)"),
        ("x3", "a3"),
    },
    "G_LNK": {
        ("x1", "W1"),
        ("x1", "W2"),
        ("x2", "W1"),
        ("x2", "W2"),
    },
    "G_NOT": {
        ("x1", "W1^(1)"),
        ("W1^(1)", "W1^(2)"),
        ("W1^(2)", "x2"),
        ("x1", "W2^(1)"),
        ("W2^(1)", "W2^(2)"),
        ("W2^(2)", "x2"),
    },
}

EXPECTED_ATOM_COUNTS = {
    "G1": 2, "G2": 3, "G3": 7, "G4": 6, "G5P": 11, "G6P": 10, "G7": 15,
    "G_LNK": 4, "G_NOT": 6,
}


class TestBlockadeRadius:
    def test_final_detuning_radius(self):
        assert blockade_radius(REFERENCE_PARAMS) == pytest.approx(7.7, abs=0.05)

    def test_unit_ratio(self):
        assert blockade_radius(PhysicalParams(c6=1.0, omega=0.0, delta=1.0)) == 1.0

    def test_with_drive_on(self):
        p = PhysicalParams(c6=1023e3, omega=0.96, delta=5.0)
        # direct sixth-root evaluation, frozen
        expected = (1023e3 / math.sqrt(0.96**2 + 5.0**2)) ** (1 / 6)
        assert blockade_radius(p) == pytest.approx(expected)
        assert blockade_radius(p) == pytest.approx(7.6534, abs=1e-3)

    def test_undefined_at_zero_fields(self):
        with pytest.raises(InputError):
            blockade_radius(PhysicalParams(c6=1.0, omega=0.0, delta=0.0))

    def test_monotone_in_delta_and_omega(self):
        base = blockade_radius(REFERENCE_PARAMS)
        assert blockade_radius(PhysicalParams(c6=1023e3, omega=0.0, delta=6.0)) < base
        assert blockade_radius(PhysicalParams(c6=1023e3, omega=1.0, delta=5.0)) < base


class TestPairInteraction:
    def test_radius_gives_back_the_field_scale(self):
        d_r = blockade_radius(REFERENCE_PARAMS)
        assert pair_interaction(REFERENCE_PARAMS, d_r) == pytest.approx(5.0, rel=1e-12)

    def test_known_distance(self):
        assert pair_interaction(REFERENCE_PARAMS, 7.6) == pytest.approx(5.3088, abs=1e-3)

    def test_power_law(self):
        u1 = pair_interaction(REFERENCE_PARAMS, 4.0)
        u2 = pair_interaction(REFERENCE_PARAMS, 8.0)
        assert u1 / u2 == pytest.approx(64.0, rel=1e-12)

    def test_zero_distance_rejected(self):
        with pytest.raises(InputError):
            pair_interaction(REFERENCE_PARAMS, 0.0)


class TestBuiltinLayouts:
    def test_names(self):
        assert set(builtin_names()) == set(EXPECTED_ATOM_COUNTS)

    def test_unknown_name(self):
        with pytest.raises(InputError):
            load_builtin_layout("G99")

    def test_name_aliases(self):
        g1, _ = load_builtin_layout("G5P")
        g2, _ = load_builtin_layout("g5'")
        g3, _ = load_builtin_layout("G5′")
        assert g1 == g2 == g3
        lnk1, _ = load_builtin_layout("G_LNK")
        lnk2, _ = load_builtin_layout("glnk")
        assert lnk1 == lnk2

    @pytest.mark.parametrize("name", sorted(EXPECTED_ATOM_COUNTS))
    def test_structure_matches_the_expected_gadgets(self, name):
        graph, layout = load_builtin_layout(name)
        assert graph.atom_count == EXPECTED_ATOM_COUNTS[name]
        expected = {tuple(sorted(pair)) for pair in EXPECTED_EDGES[name]}
        derived = {
            tuple(sorted((graph.labels[a], graph.labels[b])))
            for a, b in graph.edges
        }
        assert derived == expected

    def test_g1_geometry(self):
        graph, layout = load_builtin_layout("G1")
        assert layout.positions[0] == (0.0, 7.6)
        assert layout.positions[1] == (0.0, -7.6)
        assert not graph.edges
        assert layout.distance(0, 1) == pytest.approx(15.2)

    def test_g7_wires(self):
        graph, _ = load_builtin_layout("G7")
        lengths = sorted(w.length for w in graph.wires)
        assert lengths == [1, 1, 4, 4]

    def test_derived_wires_match_the_dataset(self):
        # The dataset still lists each graph's wire descriptors; the loader
        # ignores them and the graph derives its own from atoms and edges.
        dataset = json.loads((resources.files("rydqubo") / "data" / "layouts.json").read_text("utf-8"))
        assert sorted(dataset["graphs"]) == sorted(EXPECTED_ATOM_COUNTS)
        for name, entry in dataset["graphs"].items():
            graph, _ = load_builtin_layout(name)
            assert graph_to_dict(graph)["wires"] == entry.get("wires", []), name

    @pytest.mark.parametrize("name", sorted(EXPECTED_ATOM_COUNTS))
    def test_all_layouts_validate_at_reference_parameters(self, name):
        graph, layout = load_builtin_layout(name)
        # computed radius (about 7.68 um) and the dataset's rounded 7.7 um
        assert validate_unit_disk(graph, layout, REFERENCE_PARAMS, margin=0.0).ok
        assert validate_unit_disk(graph, layout, d_r=7.7, margin=0.0).ok

    def test_g4_report_numbers(self):
        graph, layout = load_builtin_layout("G4")
        report = validate_unit_disk(graph, layout, d_r=7.7)
        assert report.max_edge_distance == pytest.approx(7.6, abs=1e-9)
        assert report.min_nonedge_distance == pytest.approx(math.hypot(7.6, 7.6), abs=1e-9)
        assert report.min_nonedge_slack > 3.0

    def test_g5p_edge_slack(self):
        graph, layout = load_builtin_layout("G5P")
        report = validate_unit_disk(graph, layout, d_r=7.7)
        # tightest pairs sit near 7.64 um, leaving about 0.06 um of slack
        assert report.max_edge_distance == pytest.approx(math.sqrt(58.32), abs=1e-9)
        assert report.min_edge_slack == pytest.approx(0.063, abs=0.01)


class TestValidation:
    def test_declared_edge_beyond_radius_fails(self):
        graph = AtomGraph(
            [DataCopy(0, 1), DataCopy(1, 1)], edges=[(0, 1)]
        )
        d_r = blockade_radius(REFERENCE_PARAMS)
        layout = Layout({0: (0.0, 0.0), 1: (2 * d_r, 0.0)})
        report = validate_unit_disk(graph, layout, REFERENCE_PARAMS)
        assert not report.ok
        assert report.edge_violations

    def test_close_nonedge_fails(self):
        graph = AtomGraph([DataCopy(0, 1), DataCopy(1, 1)], edges=[])
        layout = Layout({0: (0.0, 0.0), 1: (5.0, 0.0)})
        report = validate_unit_disk(graph, layout, REFERENCE_PARAMS)
        assert not report.ok
        assert report.nonedge_violations

    def test_margin_widens_the_nonedge_requirement(self):
        graph = AtomGraph([DataCopy(0, 1), DataCopy(1, 1)], edges=[])
        layout = Layout({0: (0.0, 0.0), 1: (8.0, 0.0)})
        assert validate_unit_disk(graph, layout, d_r=7.7, margin=0.0).ok
        assert not validate_unit_disk(graph, layout, d_r=7.7, margin=0.1).ok

    def test_spacing_guard(self):
        graph = AtomGraph([DataCopy(0, 1), DataCopy(1, 1)], edges=[(0, 1)])
        layout = Layout({0: (0.0, 0.0), 1: (1.0, 0.0)})
        report = validate_unit_disk(graph, layout, REFERENCE_PARAMS)
        assert report.spacing_violations

    def test_single_atom_passes(self):
        graph = AtomGraph([DataCopy(0, 1)], edges=[])
        report = validate_unit_disk(graph, Layout({0: (0.0, 0.0)}), REFERENCE_PARAMS)
        assert report.ok
        assert report.max_edge_distance is None
        assert report.min_nonedge_distance is None

    def test_missing_atom(self):
        graph = AtomGraph([DataCopy(0, 1), DataCopy(1, 1)], edges=[])
        with pytest.raises(InputError):
            validate_unit_disk(graph, Layout({0: (0.0, 0.0)}), REFERENCE_PARAMS)

    @pytest.mark.parametrize("extra", [5, 2, -5])
    def test_layout_atom_the_graph_lacks(self, extra):
        # An unknown id 1 um from atom 0 would break the layout if it were an atom.
        graph = AtomGraph([DataCopy(0, 1), DataCopy(1, 1)], edges=[])
        layout = Layout({0: (0.0, 0.0), 1: (20.0, 0.0), extra: (1.0, 0.0)})
        with pytest.raises(InputError, match=f"places atoms \\[{extra}\\]"):
            validate_unit_disk(graph, layout, REFERENCE_PARAMS)

    def test_non_finite_coordinates_rejected(self):
        # NaN compares False with every radius, so it must not reach the audit.
        _, layout = load_builtin_layout("G3")
        for bad in (math.nan, math.inf, -math.inf):
            moved = dict(layout.positions)
            moved[0] = (bad, 0.0)
            with pytest.raises(InputError):
                Layout(moved)
        with pytest.raises(InputError):
            layout_from_csv("id,x,y\n0,nan,0\n")
        for bad in (True, "20.5", None):
            with pytest.raises(InputError, match="x of atom 0 must be a finite real number"):
                layout_from_dict({"positions": [{"id": 0, "x": bad, "y": 0.0}]})
        with pytest.raises(InputError):
            layout_from_dict({"positions": [{"id": 0, "x": 0.0, "y": math.inf}]})

    def test_non_finite_radius_margin_and_fields_rejected(self):
        # G4's closest non-edge is 10.75 um, inside a 20 um radius, so any of
        # these passing the guard would have reported a false PASS.
        graph, layout = load_builtin_layout("G4")
        for d_r in (math.nan, math.inf, 0.0, -7.7, "7", True):
            with pytest.raises(InputError):
                validate_unit_disk(graph, layout, d_r=d_r)
        for margin in (math.nan, math.inf, -0.1, True, "0"):
            with pytest.raises(InputError):
                validate_unit_disk(graph, layout, d_r=20.0, margin=margin)
        for field in ("c6", "omega", "delta"):
            for bad in (math.nan, math.inf):
                with pytest.raises(InputError, match=field):
                    PhysicalParams(**{field: bad})


class TestLayoutSerialization:
    def test_bad_csv(self):
        with pytest.raises(InputError):
            layout_from_csv("x,y\n1,2\n")

