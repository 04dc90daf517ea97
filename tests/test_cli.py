"""End-to-end tests of the command-line interface and its exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from rydqubo.cli import main
from rydqubo.compiler import AtomGraph, DataCopy, graph_from_dict, graph_to_dict, try_decode
from rydqubo.geometry import load_builtin_layout
from test_compiler import WIRE_BLOCK_CASES, structural_document
from test_errors import BAD_WIRE_BLOCKS, bad_wire_document

F3_DOC = {"n": 2, "linear": {"1": -2, "2": 1}, "quadratic": [{"i": 1, "j": 2, "w": 1}]}
F4_DOC = {"n": 2, "linear": {"1": -2, "2": 1}, "quadratic": [{"i": 1, "j": 2, "w": -1}]}
F7_DOC = {
    "n": 3,
    "linear": {"1": -2, "2": 1, "3": 2},
    "quadratic": [
        {"i": 1, "j": 2, "w": 1},
        {"i": 1, "j": 3, "w": 1},
        {"i": 2, "j": 3, "w": -2},
    ],
}

# Graph documents whose wires block differs from the one their atoms and edges derive.
WIRE_BLOCK_DOCUMENTS = {case: structural_document(case) for case in WIRE_BLOCK_CASES}
WIRE_BLOCK_DOCUMENTS |= {case: bad_wire_document(case) for case in BAD_WIRE_BLOCKS}


@pytest.fixture()
def runner():
    return CliRunner()


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


def layout_doc(positions):
    """A layout JSON document placing each atom id at its (x, y)."""
    return {"positions": [{"id": a, "x": x, "y": y} for a, (x, y) in sorted(positions.items())]}


class TestCompile:
    def test_f3_produces_seven_atoms(self, runner, tmp_path):
        qubo = tmp_path / "f3.json"
        write_json(qubo, F3_DOC)
        out = tmp_path / "graph.json"
        result = runner.invoke(main, ["compile", str(qubo), "-o", str(out)])
        assert result.exit_code == 0, result.output
        graph = graph_from_dict(json.loads(out.read_text()))
        assert graph.atom_count == 7

    def test_single_atom_instance(self, runner, tmp_path):
        qubo = tmp_path / "q.json"
        write_json(qubo, {"n": 1, "linear": {"1": -1}, "quadratic": []})
        out = tmp_path / "graph.json"
        result = runner.invoke(main, ["compile", str(qubo), "-o", str(out)])
        assert result.exit_code == 0
        graph = graph_from_dict(json.loads(out.read_text()))
        assert graph.atom_count == 1 and not graph.edges

    def test_wire_length_flags_reproduce_the_fifteen_atom_example(self, runner, tmp_path):
        qubo = tmp_path / "f7.json"
        write_json(qubo, F7_DOC)
        out = tmp_path / "graph.json"
        result = runner.invoke(
            main,
            ["compile", str(qubo), "-o", str(out), "--wire-even-len", "4", "--wire-odd-len", "1", "--json"],
        )
        assert result.exit_code == 0
        summary = json.loads(result.output)
        assert summary["atoms"] == 15

    def test_malformed_input_exits_2(self, runner, tmp_path):
        qubo = tmp_path / "bad.json"
        qubo.write_text("{not json", encoding="utf-8")
        result = runner.invoke(main, ["compile", str(qubo)])
        assert result.exit_code == 2
        write_json(qubo, {"n": 2, "linear": [1, 2]})
        result = runner.invoke(main, ["compile", str(qubo)])
        assert result.exit_code == 2, result.output
        # Linear keys that int() reads but that are not the one spelling of
        # their variable: "01" would overwrite "1", "1_0" would be 10.
        for doc in (
            {"n": 2, "linear": {"1": -1, "01": 3, "2": -1}},
            {"n": 10, "linear": {"1_0": -1}},
            {"n": 2, "linear": {" 2 ": -1}},
            {"n": 3, "linear": {"+3": -1}},
        ):
            write_json(qubo, doc)
            result = runner.invoke(main, ["certify", str(qubo)])
            assert result.exit_code == 2, (doc, result.output)
            assert result.output.startswith("error: ") and result.output.count("\n") == 1
        # Graph documents whose atoms lack a role or are not objects, one
        # whose edge names an atom by a JSON boolean, and ones whose role or
        # wire fields are not JSON integers or name variable 0 (1-based).
        write_json(qubo, F3_DOC)
        graph = tmp_path / "graph.json"
        two_atoms = [{"id": k, "role": {"kind": "data", "var": k + 1, "copy": 1}} for k in range(2)]
        wire = {"id": 2, "role": {"kind": "wire", "wire": 0, "position": 1}}
        odd_wire = {"id": 0, "parity": "odd", "i": 1, "j": 2, "length": 1}

        def atom(var):
            return {"id": 2, "role": {"kind": "data", "var": var, "copy": 2}}

        for doc in (
            {"atoms": [{"id": 0}], "edges": []},
            {"atoms": [7], "edges": []},
            {"atoms": two_atoms, "edges": [[False, 1]]},
            {"atoms": two_atoms + [atom(1.9)], "edges": []},
            {"atoms": two_atoms + [atom(True)], "edges": []},
            {"atoms": two_atoms + [atom(0)], "edges": []},
            {"atoms": two_atoms + [wire], "edges": [[0, 2], [1, 2]], "wires": [odd_wire | {"i": 1.9}]},
            {"atoms": two_atoms + [wire], "edges": [[0, 2], [1, 2]], "wires": [odd_wire | {"length": True}]},
        ):
            write_json(graph, doc)
            result = runner.invoke(main, ["certify", str(qubo), str(graph)])
            assert result.exit_code == 2, (doc, result.output)
            assert result.output.startswith("error: ") and result.output.count("\n") == 1
        # A one-variable instance against a graph with an extra atom of variable 0.
        write_json(qubo, {"n": 1, "linear": {"1": -1}})
        write_json(graph, {"atoms": two_atoms[:1] + [atom(0) | {"id": 1}], "edges": []})
        result = runner.invoke(main, ["certify", str(qubo), str(graph)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
        # Layouts whose atom id is not an integer or whose coordinate is a
        # JSON boolean or string, which float() would have read as 1.0 or 20.5.
        write_json(graph, {"atoms": two_atoms, "edges": []})
        layout = tmp_path / "layout.json"
        for second in ({"id": 1.7, "x": 20, "y": 0}, {"id": 1, "x": True, "y": 0}, {"id": 1, "x": "20.5", "y": 0}):
            write_json(layout, {"positions": [{"id": 0, "x": 0, "y": 0}, second]})
            result = runner.invoke(main, ["validate", str(graph), str(layout)])
            assert result.exit_code == 2, result.output
            assert result.output.startswith("error: ") and result.output.count("\n") == 1
        # A layout that places an id the graph lacks, 1 um from atom 0.
        positions = [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 20, "y": 0}, {"id": 5, "x": 1, "y": 0}]
        write_json(layout, {"positions": positions})
        for args in (
            ["validate", str(graph), str(layout)],
            ["simulate", str(graph), str(layout), "--mode", "vdw", "--steps", "10",
             "-o", str(tmp_path / "d.csv")],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, result.output
            assert result.output == "error: layout places atoms [5] that the graph does not have\n"
        # G3's layout with a second atom 1 placed first, 0.5 um from atom 0,
        # as a JSON document and as a CSV file.
        g3, g3_layout = load_builtin_layout("G3")
        write_json(graph, graph_to_dict(g3))
        doc = layout_doc(g3_layout.positions)
        doc["positions"].insert(1, {"id": 1, "x": 0.5, "y": 0})
        write_json(layout, doc)
        csv_layout = tmp_path / "layout.csv"
        csv_layout.write_text(
            "id,x,y\n" + "".join(f"{e['id']},{e['x']},{e['y']}\n" for e in doc["positions"]), encoding="utf-8"
        )
        for path in (layout, csv_layout):
            result = runner.invoke(main, ["validate", str(graph), str(path)])
            assert result.exit_code == 2, result.output
            assert result.output == "error: layout places atom 1 twice\n"
        # NaN fails every comparison, so it must be rejected before any check
        # or sweep runs; G4's non-edges at 10.75 um lie inside a 20 um radius.
        dist = str(tmp_path / "d.csv")
        for args, field in (
            (["validate", "--builtin", "G4", "--margin", "nan", "--d-r", "20"], "margin"),
            (["validate", "--builtin", "G4", "--d-r", "nan"], "d_r"),
            (["validate", "--builtin", "G4", "--delta", "nan"], "delta"),
            (["simulate", "--builtin", "G1", "--omega0", "nan", "-o", dist], "omega0"),
            (["simulate", "--builtin", "G3", "--u0", "nan", "-o", dist], "coupling"),
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, result.output
            assert result.output.startswith("error: ") and field in result.output

    def test_schema_violation_exits_2(self, runner, tmp_path):
        qubo = tmp_path / "bad.json"
        write_json(qubo, {"n": 2, "linear": {"0": 1}, "quadratic": []})
        result = runner.invoke(main, ["compile", str(qubo)])
        assert result.exit_code == 2

    def test_atom_budget_exits_3(self, runner, tmp_path):
        qubo = tmp_path / "f7.json"
        write_json(qubo, F7_DOC)
        result = runner.invoke(main, ["compile", str(qubo), "--max-atoms", "3"])
        assert result.exit_code == 3

    @pytest.mark.parametrize(
        "name", ["RYDQUBO_MAX_ATOMS", "RYDQUBO_ENUM_CAP", "RYDQUBO_BRUTE_CAP", "RYDQUBO_SIM_CAP"]
    )
    def test_non_integer_cap_variable_exits_2(self, runner, tmp_path, name):
        qubo = tmp_path / "f3.json"
        write_json(qubo, F3_DOC)
        command = (
            ["simulate", "--builtin", "G1", "--steps", "1", "-o", str(tmp_path / "d.csv")]
            if name == "RYDQUBO_SIM_CAP"
            else ["certify", str(qubo)]
        )
        result = runner.invoke(main, command, env={name: "abc"})
        assert result.exit_code == 2, result.output
        assert name in result.output


class TestCertify:
    @pytest.mark.parametrize("case", WIRE_BLOCK_DOCUMENTS)
    def test_mismatched_wires_block_exits_2(self, runner, tmp_path, case):
        qubo, graph = tmp_path / "f3.json", tmp_path / "graph.json"
        write_json(qubo, F3_DOC)
        write_json(graph, WIRE_BLOCK_DOCUMENTS[case])
        result = runner.invoke(main, ["certify", str(qubo), str(graph)])
        assert result.exit_code == 2, result.output
        assert result.output == (
            "error: the graph's 'wires' block does not match its atoms and edges; omit it to derive it\n"
        )

    def test_stale_variables_block_or_label_exits_2(self, runner, tmp_path):
        qubo, graph = tmp_path / "f3.json", tmp_path / "graph.json"
        write_json(qubo, F3_DOC)
        assert runner.invoke(main, ["compile", str(qubo), "-o", str(graph)]).exit_code == 0
        doc = json.loads(graph.read_text())
        assert doc["variables"] == {"1": [0, 1], "2": [2]}
        for key, bad in (("variables", {"1": [0, 3], "2": [2]}), ("variables", {"1": [0, 1]})):
            write_json(graph, doc | {key: bad})
            result = runner.invoke(main, ["certify", str(qubo), str(graph)])
            assert result.exit_code == 2, result.output
            assert result.output.startswith("error: the graph's 'variables' block") and result.output.count("\n") == 1
        # A label that is not a JSON string, which had been read as its str().
        for label in (["a"], True):
            doc["atoms"][0]["label"] = label
            write_json(graph, doc)
            result = runner.invoke(main, ["certify", str(qubo), str(graph)])
            assert result.exit_code == 2, result.output
            assert result.output == f"error: atom labels must be strings, got {label!r}\n"

    def test_f4_passes(self, runner, tmp_path):
        qubo = tmp_path / "f4.json"
        write_json(qubo, F4_DOC)
        report_path = tmp_path / "report.json"
        result = runner.invoke(main, ["certify", str(qubo), "-o", str(report_path)])
        assert result.exit_code == 0, result.output
        report = json.loads(report_path.read_text())
        assert report["pass"] is True
        assert sorted(map(tuple, report["decoded"])) == [(1, 0), (1, 1)]

    def test_zero_instance_passes_with_full_set(self, runner, tmp_path):
        qubo = tmp_path / "zero.json"
        write_json(qubo, {"n": 2, "linear": {}, "quadratic": []})
        result = runner.invoke(main, ["certify", str(qubo), "--json"])
        assert result.exit_code == 0
        assert len(json.loads(result.output)["decoded"]) == 4

    def test_atom_budget_variable_exits_3(self, runner, tmp_path):
        qubo = tmp_path / "f3.json"
        write_json(qubo, F3_DOC)
        result = runner.invoke(main, ["certify", str(qubo)], env={"RYDQUBO_MAX_ATOMS": "3"})
        assert result.exit_code == 3, result.output

    def test_six_variables_certify_at_the_default_search_cap(self, runner, tmp_path):
        # 6 data atoms and 15 two-atom even wires: 36 atoms, above the default
        # cap of 30, but no component left after clamping has more than 2.
        qubo = tmp_path / "q6.json"
        pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
        write_json(qubo, {
            "n": 6,
            "linear": {str(i): -1 for i in range(1, 7)},
            "quadratic": [{"i": i, "j": j, "w": 1} for i, j in pairs],
        })
        result = runner.invoke(main, ["certify", str(qubo), "--json"], env={"RYDQUBO_ENUM_CAP": None})
        assert result.exit_code == 0, result.output
        # The minimum, -1, is taken by the 6 + 15 assignments setting one or two variables.
        assert len(json.loads(result.output)["decoded"]) == 21
        result = runner.invoke(main, ["certify", str(qubo), "--enum-cap", "1"])
        assert result.exit_code == 3, result.output

    def test_mutated_graph_exits_1(self, runner, tmp_path):
        # Deleting one wire-terminal edge from the compiled LINK constraint
        # admits a spurious ground assignment.
        qubo = tmp_path / "lnk.json"
        write_json(
            qubo,
            {"n": 2, "linear": {"1": 1, "2": 1}, "quadratic": [{"i": 1, "j": 2, "w": -2}]},
        )
        graph_path = tmp_path / "graph.json"
        assert runner.invoke(main, ["compile", str(qubo), "-o", str(graph_path)]).exit_code == 0
        doc = json.loads(graph_path.read_text())
        assert [0, 2] in doc["edges"]
        doc["edges"] = [e for e in doc["edges"] if e != [0, 2]]
        # The broken graph derives one of its two wires, so the compiled
        # wires block no longer matches; the document omits it.
        del doc["wires"]
        write_json(graph_path, doc)
        result = runner.invoke(main, ["certify", str(qubo), str(graph_path)])
        assert result.exit_code == 1
        assert result.output == (
            "FAIL: decoded ground set {(0, 0), (1, 0), (1, 1)}, minimum 0\n"
            "  spurious: [(1, 0)]\n"
        )


class TestValidate:
    def test_builtin_g4_passes(self, runner):
        result = runner.invoke(main, ["validate", "--builtin", "G4", "--d-r", "7.7"])
        assert result.exit_code == 0, result.output

    def test_perturbed_layout_fails(self, runner, tmp_path):
        graph, layout = load_builtin_layout("G4")
        graph_path = tmp_path / "g4.json"
        write_json(graph_path, graph_to_dict(graph))
        moved = dict(layout.positions)
        x, y = moved[5]
        moved[5] = (x + 2.0, y)  # push the coupling atom 2 um sideways
        layout_path = tmp_path / "layout.json"
        write_json(layout_path, layout_doc(moved))
        result = runner.invoke(
            main, ["validate", str(graph_path), str(layout_path), "--d-r", "7.7"]
        )
        assert result.exit_code == 1
        # The coupling atom W now sits beyond d_r of all three copies of x1.
        assert result.output == (
            "FAIL: d_r=7.700 um, max edge 9.600 um, min non-edge 10.748 um\n"
            "  edge x1^(1)-W at 9.600 um\n"
            "  edge x1^(2)-W at 7.859 um\n"
            "  edge x1^(3)-W at 7.859 um\n"
        )

    def test_csv_layout_accepted(self, runner, tmp_path):
        graph, layout = load_builtin_layout("G1")
        graph_path = tmp_path / "g1.json"
        write_json(graph_path, graph_to_dict(graph))
        layout_path = tmp_path / "layout.csv"
        rows = "".join(f"{a},{x},{y}\n" for a, (x, y) in sorted(layout.positions.items()))
        layout_path.write_text("id,x,y\n" + rows, encoding="utf-8")
        result = runner.invoke(main, ["validate", str(graph_path), str(layout_path)])
        assert result.exit_code == 0

    def test_missing_arguments_exit_2(self, runner):
        result = runner.invoke(main, ["validate"])
        assert result.exit_code == 2


class TestSimulate:
    def test_builtin_g1_top_row_decodes_to_one(self, runner, tmp_path):
        out = tmp_path / "dist.csv"
        result = runner.invoke(
            main,
            ["simulate", "--builtin", "G1", "--steps", "800", "-o", str(out), "--json"],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["top_decodes_to"] == [1]
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "bitstring,probability"
        top_bits = lines[2].split(",")[0]
        assert top_bits == "11"

    def test_unknown_builtin_exits_2(self, runner):
        result = runner.invoke(main, ["simulate", "--builtin", "G99"])
        assert result.exit_code == 2

    def test_step_doubling_shifts_probabilities_below_tolerance(self, runner, tmp_path):
        outputs = {}
        for steps in (1200, 2400):
            out = tmp_path / f"dist{steps}.csv"
            result = runner.invoke(
                main,
                ["simulate", "--builtin", "G2", "--steps", str(steps), "-o", str(out)],
            )
            assert result.exit_code == 0
            probs = {}
            for line in out.read_text().strip().splitlines():
                if line.startswith("#") or line.startswith("bitstring"):
                    continue
                bits, p = line.split(",")
                probs[bits] = float(p)
            outputs[steps] = probs
        worst = max(abs(outputs[1200][k] - outputs[2400][k]) for k in outputs[1200])
        assert worst < 1e-4

    def test_af_postselection_flag(self, runner, tmp_path):
        out = tmp_path / "dist.csv"
        result = runner.invoke(
            main,
            [
                "simulate", "--builtin", "G6P", "--steps", "1000",
                "--postselect-af", "-o", str(out), "--json",
            ],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["top_decodes_to"] == [1, 1]

    def test_sampling_is_deterministic_for_a_seed(self, runner, tmp_path):
        rows = []
        for tag in ("a", "b"):
            out = tmp_path / f"dist_{tag}.csv"
            result = runner.invoke(
                main,
                [
                    "simulate", "--builtin", "G1", "--steps", "400",
                    "--shots", "200", "--seed", "11", "-o", str(out),
                ],
            )
            assert result.exit_code == 0
            rows.append(out.read_text())
        assert rows[0] == rows[1]

    def test_negative_seed_exits_2(self, runner, tmp_path):
        out = tmp_path / "dist.csv"
        result = runner.invoke(
            main,
            ["simulate", "--builtin", "G1", "--steps", "20", "--shots", "10",
             "--seed", "-1", "-o", str(out)],
        )
        assert result.exit_code == 2
        assert result.output.splitlines() == ["error: seed must be an integer >= 0, got -1"]
        assert not out.exists()

    def test_shots_above_int64_exit_2(self, runner, tmp_path):
        out = tmp_path / "dist.csv"
        result = runner.invoke(
            main,
            ["simulate", "--builtin", "G1", "--steps", "20", "--shots",
             "100000000000000000000", "-o", str(out)],
        )
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            "error: shots must be at most 9223372036854775807, got 100000000000000000000"
        ]
        assert not out.exists()

    def test_simulation_cap_exits_3(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["simulate", "--builtin", "G7", "--steps", "10", "--cap", "10"],
        )
        assert result.exit_code == 3

    def test_out_of_range_distance_exits_2(self, runner, tmp_path):
        # G1's two atoms 1e300 um apart: r^6 overflows, so the vdW coupling has no float value.
        graph, _ = load_builtin_layout("G1")
        graph_path, layout_path = tmp_path / "g1.json", tmp_path / "far.json"
        write_json(graph_path, graph_to_dict(graph))
        write_json(layout_path, layout_doc({0: (0.0, 0.0), 1: (1e300, 0.0)}))
        result = runner.invoke(
            main, ["simulate", str(graph_path), str(layout_path), "--mode", "vdw", "-o", str(tmp_path / "d.csv")]
        )
        assert result.exit_code == 2, result.output
        assert result.output == "error: pair distance 1e+300 um is out of range: c6 / r^6 is not a finite float\n"

    def test_overflowing_interaction_exits_2(self, runner):
        result = runner.invoke(main, ["simulate", "--builtin", "G7", "--u0", "1e308", "--steps", "10"])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: the interaction energy") and result.output.count("\n") == 1

    @pytest.mark.parametrize(
        "args", [["--omega0", "1e308", "--steps", "10"], ["--delta-f", "1e308", "--u0", "1"], ["--time", "1e308"]]
    )
    def test_overflowing_schedule_exits_2_without_a_warning(self, args, tmp_path):
        # Under -W error a numpy RuntimeWarning would end the run with a traceback.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        command = [sys.executable, "-W", "error", "-m", "rydqubo.cli", "simulate", "--builtin", "G1", *args]
        result = subprocess.run(
            [*command, "-o", str(tmp_path / "d.csv")], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr
        assert "RuntimeWarning" not in result.stderr and result.stdout == ""

    def test_vdw_cap_precedes_the_couplings(self, runner, tmp_path, monkeypatch):
        # vdW mode couples every pair; above the cap not one may be built.
        def no_coupling(*args):
            raise AssertionError("pair coupling built above the atom cap")

        monkeypatch.setattr("rydqubo.sim.pair_interaction", no_coupling)
        n = 17
        graph = AtomGraph([DataCopy(var=v, copy_index=1) for v in range(n)], edges=[])
        graph_path, layout_path = tmp_path / "graph.json", tmp_path / "layout.json"
        write_json(graph_path, graph_to_dict(graph))
        write_json(layout_path, layout_doc({a: (10.0 * a, 0.0) for a in range(n)}))
        result = runner.invoke(
            main,
            ["simulate", str(graph_path), str(layout_path), "--mode", "vdw",
             "--steps", "10", "-o", str(tmp_path / "d.csv")],
        )
        assert result.exit_code == 3, result.output
        assert "capped at 16 atoms, got 17" in result.output


class TestDecodedArtifacts:
    def test_compiled_graph_decodes_its_own_solution(self, runner, tmp_path):
        qubo = tmp_path / "f3.json"
        write_json(qubo, F3_DOC)
        graph_path = tmp_path / "graph.json"
        runner.invoke(main, ["compile", str(qubo), "-o", str(graph_path)])
        graph = graph_from_dict(json.loads(graph_path.read_text()))
        assert try_decode(graph, "1101101") == (1, 0)


def test_the_package_never_imports_logging():
    # evolve and certify_equivalence log only once something else has loaded
    # logging.  pytest loads it, so a fresh interpreter checks the package.
    script = """
import sys
import rydqubo.cli
from rydqubo.geometry import load_builtin_layout
from rydqubo.sim import build_hamiltonian, evolve
from rydqubo.solver import certify_equivalence
graph, _ = load_builtin_layout("G3")
assert certify_equivalence(graph.source, graph).passed
evolve(build_hamiltonian(graph), steps=5)
assert "logging" not in sys.modules, "logging was imported"
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
