"""Batch front-end: compile, certify, validate, simulate.

Exit codes: 0 success or pass, 1 certification/validation failure,
2 malformed input, 3 resource cap hit.  All randomness takes --seed and
defaults to seed 0, never to entropy.
"""

from __future__ import annotations

import json
from pathlib import Path

import click

from . import __version__
from .compiler import (
    DEFAULT_MAX_ATOMS,
    AtomGraph,
    WireLengthPolicy,
    compile_qubo,
    graph_from_dict,
    graph_to_dict,
    try_decode,
)
from .errors import CapExceeded, RydquboError
from .geometry import (
    DEFAULT_C6,
    Layout,
    PhysicalParams,
    layout_from_csv,
    layout_from_dict,
    load_builtin_layout,
    validate_unit_disk,
)
from .qubo import DEFAULT_BRUTE_FORCE_CAP, qubo_from_dict
from .sim import (
    DEFAULT_SIM_CAP,
    DEFAULT_STEPS,
    HamiltonianMode,
    PulseSchedule,
    af_predicate,
    build_hamiltonian,
    evolve,
    measure_distribution,
    postselect,
    sample_distribution,
)
from .solver import DEFAULT_ENUM_CAP, certify_equivalence

EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _fail(code: int, message: str) -> "click.exceptions.Exit":
    click.echo(f"error: {message}", err=True)
    return click.exceptions.Exit(code)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _read_inputs(
    builtin, graph_path, layout_path, layout_required: bool
) -> tuple[AtomGraph, Layout | None]:
    """The bundled graph and layout named ``builtin``, or the graph and layout read from files."""
    if builtin:
        return load_builtin_layout(builtin)
    if not graph_path or (layout_required and not layout_path):
        need = "GRAPH_JSON and LAYOUT_JSON_OR_CSV, or" if layout_required else "GRAPH_JSON or"
        raise _fail(EXIT_INPUT, f"provide {need} use --builtin")
    graph = graph_from_dict(_read_json(graph_path))
    if not layout_path:
        return graph, None
    if layout_path.lower().endswith(".csv"):
        return graph, layout_from_csv(Path(layout_path).read_text(encoding="utf-8"))
    return graph, layout_from_dict(_read_json(layout_path))


def _write_report(report, output: str | None, as_json: bool) -> None:
    """Write ``report`` as indented JSON to ``output`` if given; echo it as one line if ``as_json``."""
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    if as_json:
        click.echo(report.to_json(indent=None))


class _Main(click.Group):
    """The command group, plus the one place errors become exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except CapExceeded as exc:
            raise _fail(EXIT_CAP, str(exc))
        except json.JSONDecodeError as exc:
            raise _fail(EXIT_INPUT, f"invalid JSON: {exc}")
        except (RydquboError, OSError) as exc:
            raise _fail(EXIT_INPUT, str(exc))


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="rydqubo")
def main() -> None:
    """QUBO-to-atom-graph compiler, verifier, and simulator."""


def _compile_options(command):
    """Options shared by every command that compiles a QUBO."""
    options = (
        click.option("--wire-even-len", default=2, show_default=True,
                     help="Atoms per positive coupling chain."),
        click.option("--wire-odd-len", default=1, show_default=True,
                     help="Atoms per negative coupling chain."),
        click.option("--max-atoms", envvar="RYDQUBO_MAX_ATOMS", default=DEFAULT_MAX_ATOMS,
                     type=int, show_default=True, show_envvar=True, help="Atom budget."),
    )
    for option in reversed(options):
        command = option(command)
    return command


@main.command("compile")
@click.argument("qubo_path", metavar="QUBO_JSON")
@click.option("-o", "--output", default="graph.json", show_default=True, help="Graph output path.")
@_compile_options
@click.option("--json", "as_json", is_flag=True, help="Print a JSON summary to stdout.")
def cmd_compile(qubo_path, output, wire_even_len, wire_odd_len, max_atoms, as_json) -> None:
    """Translate QUBO_JSON into an atom graph."""
    q = qubo_from_dict(_read_json(qubo_path))
    policy = WireLengthPolicy(even_atoms=wire_even_len, odd_atoms=wire_odd_len)
    graph = compile_qubo(q, policy=policy, max_atoms=max_atoms)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(graph_to_dict(graph), handle, indent=2)
        handle.write("\n")
    summary = {
        "output": output,
        "atoms": graph.atom_count,
        "edges": len(graph.edges),
        "wires": len(graph.wires),
        "variables": graph.n_vars,
    }
    if as_json:
        click.echo(json.dumps(summary))
    else:
        click.echo(
            f"wrote {output}: {graph.atom_count} atoms, {len(graph.edges)} edges, "
            f"{len(graph.wires)} wires"
        )


@main.command("certify")
@click.argument("qubo_path", metavar="QUBO_JSON")
@click.argument("graph_path", metavar="[GRAPH_JSON]", required=False)
@click.option("-o", "--output", default=None, help="Write the certificate report as JSON.")
@_compile_options
@click.option("--enum-cap", envvar="RYDQUBO_ENUM_CAP", default=DEFAULT_ENUM_CAP, type=int,
              show_default=True, show_envvar=True,
              help="Atom cap of the exact ground-set search: the largest component once "
                   "copy classes are clamped, and the whole graph when listing ground "
                   "configurations that split a variable.")
@click.option("--brute-cap", envvar="RYDQUBO_BRUTE_CAP", default=DEFAULT_BRUTE_FORCE_CAP, type=int,
              show_default=True, show_envvar=True,
              help="Cap on the variables the oracle enumerates and on the copy classes.")
@click.option("--json", "as_json", is_flag=True, help="Print the report JSON to stdout.")
def cmd_certify(qubo_path, graph_path, output, wire_even_len, wire_odd_len, max_atoms, enum_cap, brute_cap, as_json) -> None:
    """Check ground-state equivalence between QUBO_JSON and a graph.

    Without GRAPH_JSON the instance is compiled first. Exit 0 iff the
    decoded ground set equals the brute-force argmin set.
    """
    q = qubo_from_dict(_read_json(qubo_path))
    if graph_path is None:
        policy = WireLengthPolicy(even_atoms=wire_even_len, odd_atoms=wire_odd_len)
        graph = compile_qubo(q, policy=policy, max_atoms=max_atoms)
    else:
        graph = graph_from_dict(_read_json(graph_path))
    report = certify_equivalence(q, graph, enum_cap=enum_cap, brute_cap=brute_cap)
    _write_report(report, output, as_json)
    if not as_json:
        verdict = "PASS" if report.passed else "FAIL"
        decoded = ", ".join(str(a) for a in report.decoded) or "(none)"
        click.echo(f"{verdict}: decoded ground set {{{decoded}}}, minimum {report.qubo_min_value}")
        if not report.passed:
            if report.spurious:
                click.echo(f"  spurious: {list(report.spurious)}")
            if report.missing:
                click.echo(f"  missing:  {list(report.missing)}")
            if report.inconsistent_configs:
                click.echo(f"  inconsistent ground configurations: {len(report.inconsistent_configs)}")
    if not report.passed:
        raise click.exceptions.Exit(EXIT_FAILURE)


@main.command("validate")
@click.argument("graph_path", metavar="[GRAPH_JSON]", required=False)
@click.argument("layout_path", metavar="[LAYOUT_JSON_OR_CSV]", required=False)
@click.option("--builtin", default=None, help="Validate a bundled layout instead of files.")
@click.option("--margin", default=0.0, show_default=True, help="Extra non-edge clearance fraction.")
@click.option("--d-r", default=None, type=float, help="Override the blockade radius in um.")
@click.option("--c6", default=DEFAULT_C6, show_default=True)
@click.option("--omega", default=0.0, show_default=True)
@click.option("--delta", default=5.0, show_default=True)
@click.option("-o", "--output", default=None, help="Write the validation report as JSON.")
@click.option("--json", "as_json", is_flag=True, help="Print the report JSON to stdout.")
def cmd_validate(graph_path, layout_path, builtin, margin, d_r, c6, omega, delta, output, as_json) -> None:
    """Check a layout against the blockade disk rule. Exit 0 iff valid."""
    graph, layout = _read_inputs(builtin, graph_path, layout_path, layout_required=True)
    params = PhysicalParams(c6=c6, omega=omega, delta=delta)
    report = validate_unit_disk(graph, layout, params, margin=margin, d_r=d_r)
    _write_report(report, output, as_json)
    if not as_json:
        verdict = "PASS" if report.ok else "FAIL"

        def fmt(value):
            return "n/a" if value is None else f"{value:.3f} um"

        click.echo(
            f"{verdict}: d_r={report.d_r:.3f} um, max edge {fmt(report.max_edge_distance)}, "
            f"min non-edge {fmt(report.min_nonedge_distance)}"
        )
        for a, b, dist in report.edge_violations[:5]:
            click.echo(f"  edge {graph.labels[a]}-{graph.labels[b]} at {dist:.3f} um")
        for a, b, dist in report.nonedge_violations[:5]:
            click.echo(f"  non-edge {graph.labels[a]}-{graph.labels[b]} at {dist:.3f} um")
    if not report.ok:
        raise click.exceptions.Exit(EXIT_FAILURE)


@main.command("simulate")
@click.argument("graph_path", metavar="[GRAPH_JSON]", required=False)
@click.argument("layout_path", metavar="[LAYOUT_JSON_OR_CSV]", required=False)
@click.option("--builtin", default=None, help="Simulate a bundled graph (e.g. G3).")
@click.option("--mode", type=click.Choice(["ideal", "vdw"]), default="ideal", show_default=True)
@click.option("--steps", default=DEFAULT_STEPS, show_default=True)
@click.option("--time", "total_time", default=2.5, show_default=True, help="Sweep duration in us.")
@click.option("--omega0", default=0.96, show_default=True)
@click.option("--delta-i", default=-4.0, show_default=True)
@click.option("--delta-f", default=5.0, show_default=True)
@click.option("--u0", default=None, type=float, help="Blockade strength; defaults to 10 * delta-f.")
@click.option("--postselect-af", is_flag=True, help="Keep only alternation-satisfying outcomes.")
@click.option("--shots", default=None, type=int, help="Sample the distribution instead of exact output.")
@click.option("--seed", default=0, show_default=True, help="Seed for sampling.")
@click.option("--cap", envvar="RYDQUBO_SIM_CAP", default=DEFAULT_SIM_CAP, type=int,
              show_default=True, show_envvar=True, help="Atom cap.")
@click.option("-o", "--output", default="dist.csv", show_default=True, help="CSV output path.")
@click.option("--json", "as_json", is_flag=True, help="Print a JSON summary to stdout.")
def cmd_simulate(
    graph_path, layout_path, builtin, mode, steps, total_time, omega0, delta_i, delta_f,
    u0, postselect_af, shots, seed, cap, output, as_json,
) -> None:
    """Integrate the sweep and write the final distribution, sorted by weight."""
    graph, layout = _read_inputs(builtin, graph_path, layout_path, layout_required=False)
    schedule = PulseSchedule(total_time=total_time, omega0=omega0, delta_i=delta_i, delta_f=delta_f)
    params = PhysicalParams(omega=omega0, delta=delta_f)
    ham_mode = HamiltonianMode.IDEAL_BLOCKADE if mode == "ideal" else HamiltonianMode.FULL_VDW
    spec = build_hamiltonian(graph, params=params, mode=ham_mode, layout=layout, u0=u0, cap=cap)
    state = evolve(spec, schedule, steps=steps, cap=cap)
    dist = measure_distribution(state, atom_labels=graph.labels)
    if postselect_af:
        dist = postselect(dist, af_predicate(graph))
    if shots is not None:
        dist = sample_distribution(dist, shots=shots, seed=seed)
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(dist.to_csv())
    top_bits, top_prob = dist.top(1)[0]
    assignment = try_decode(graph, top_bits)
    summary = {
        "output": output,
        "steps": steps,
        "postselect_af": postselect_af,
        "top_bitstring": top_bits,
        "top_probability": top_prob,
        "top_decodes_to": list(assignment) if assignment is not None else None,
    }
    if as_json:
        click.echo(json.dumps(summary))
    else:
        decoded = assignment if assignment is not None else "inconsistent copies"
        click.echo(f"wrote {output}; top peak {top_bits} (p={top_prob:.4f}) -> {decoded}")


if __name__ == "__main__":
    main()
