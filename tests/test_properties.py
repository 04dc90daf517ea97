"""Property tests of the command line, the compiler and the readout; skipped when hypothesis is missing."""

import copy
import json
import math

import pytest

pytest.importorskip("hypothesis")
from click.testing import CliRunner  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

from rydqubo.cli import main  # noqa: E402
from rydqubo.compiler import compile_qubo, graph_to_dict  # noqa: E402
from rydqubo.errors import InputError  # noqa: E402
from rydqubo.qubo import QuboInstance, qubo_from_dict  # noqa: E402
from rydqubo.sim import StateDistribution, postselect, sample_distribution  # noqa: E402
from rydqubo import solver  # noqa: E402
from rydqubo.solver import certify_equivalence  # noqa: E402
from test_solver import listing_reference  # noqa: E402

QUBO_DOC = {
    "n": 3,
    "linear": {"1": -2, "2": 1, "3": 2},
    "quadratic": [
        {"i": 1, "j": 2, "w": 1},
        {"i": 1, "j": 3, "w": 1},
        {"i": 2, "j": 3, "w": -2},
    ],
}
GRAPH_DOC = graph_to_dict(compile_qubo(qubo_from_dict(QUBO_DOC)))

# Small integers keep every mutated instance quick to certify; 2**70 probes the
# 64-bit coefficient range and the atom cap.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.just(2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, path + (index,))


@st.composite
def mutated(draw, doc):
    """``doc`` after one to three replacements, deletions or insertions."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(JSON_VALUES)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["replace", "delete", "insert"]))
        if action == "replace":
            parent[key] = value
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(["n", "w", "id", "role", "kind", "x"]))] = value
        else:
            parent.insert(key, value)
    return doc


def _write(tmp_path_factory, **docs):
    """A fresh folder holding each document as ``<name>.json``."""
    folder = tmp_path_factory.mktemp("doc")
    for name, doc in docs.items():
        (folder / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return folder


def _exits_cleanly(args):
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code in (0, 1, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception


# Every float option of the two commands that take physical values.  G3 has
# edges, so --u0 reaches the Hamiltonian.
FLOAT_OPTIONS = [
    ("validate", option)
    for option in ("--margin", "--d-r", "--c6", "--omega", "--delta")
] + [
    ("simulate", option)
    for option in ("--time", "--omega0", "--delta-i", "--delta-f", "--u0")
]


@settings(max_examples=40, deadline=None)
@given(
    target=st.sampled_from(FLOAT_OPTIONS),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_non_finite_float_option_exits_2(tmp_path_factory, target, value):
    command, option = target
    args = [command, "--builtin", "G3", f"{option}={value}"]
    if command == "simulate":
        args += ["--steps", "1", "-o", str(tmp_path_factory.mktemp("sim") / "d.csv")]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ")


@settings(max_examples=60, deadline=None)
@given(doc=mutated(QUBO_DOC), command=st.sampled_from(["compile", "certify"]))
def test_mutated_qubo_document_never_raises(tmp_path_factory, doc, command):
    folder = _write(tmp_path_factory, q=doc)
    if command == "compile":
        _exits_cleanly(["compile", folder / "q.json", "-o", folder / "g.json"])
    else:
        _exits_cleanly(["certify", folder / "q.json"])


@settings(max_examples=60, deadline=None)
@given(doc=mutated(GRAPH_DOC))
def test_mutated_graph_document_never_raises(tmp_path_factory, doc):
    folder = _write(tmp_path_factory, q=QUBO_DOC, g=doc)
    _exits_cleanly(["certify", folder / "q.json", folder / "g.json"])


@st.composite
def small_qubos(draw):
    n = draw(st.integers(2, 6))
    coefficient = st.integers(-2, 2)
    linear = {i: draw(coefficient) for i in range(n)}
    quadratic = {(i, j): draw(coefficient) for i in range(n) for j in range(i + 1, n)}
    return QuboInstance(n=n, linear=linear, quadratic=quadratic)


@settings(max_examples=60, deadline=None)
@given(q=small_qubos())
def test_compiled_qubo_certifies(q):
    graph = compile_qubo(q)
    report = certify_equivalence(q, graph)
    assert report.passed, report.to_dict()
    # The listing reference reports the same wherever its atom cap lets it
    # run: above the cap, degenerate even wires can multiply its sets past 2**20.
    if graph.atom_count <= solver.DEFAULT_ENUM_CAP:
        assert listing_reference(q, graph, solver.DEFAULT_ENUM_CAP) == report.to_dict()


@st.composite
def probability_tables(draw):
    """A table and atom labels for ``StateDistribution``.

    The table maps strings of 0 and 1 of one width to nonnegative numbers,
    mostly scaled to sum to one.  Up to two spoilers then replace a value by
    a JSON value or add a key of any width or with stray characters.  The
    labels are absent, one per bit or of any count.
    """
    width = draw(st.integers(1, 3))
    keys = sorted(draw(st.sets(st.text("01", min_size=width, max_size=width), min_size=1, max_size=4)))
    weights = [draw(st.integers(1, 3) | st.floats(0, 4)) for _ in keys]
    total = sum(weights) if draw(st.integers(0, 3)) else 1
    table = {k: w / total if total else w for k, w in zip(keys, weights)}
    for spoiler in draw(st.lists(st.sampled_from(["value", "key"]), max_size=2)):
        if spoiler == "value":
            table[draw(st.sampled_from(keys))] = draw(JSON_VALUES)
        else:
            table[draw(st.text("01b_ x", max_size=4))] = draw(JSON_VALUES | st.just(0.0))
    label = st.text(max_size=2)
    labels = draw(st.none() | st.lists(label, min_size=width, max_size=width) | st.lists(label, max_size=3))
    return table, labels


@settings(max_examples=60, deadline=None)
@given(drawn=probability_tables())
def test_distribution_builds_or_refuses_and_round_trips(drawn):
    table, labels = drawn
    try:
        dist = StateDistribution(table, atom_labels=labels)
    except InputError:
        return
    assert StateDistribution(dist.to_dict()["probabilities"], atom_labels=dist.atom_labels) == dist
    # postselect renormalises by the sum of the kept probabilities in
    # bitstring order, which is exactly 1 for most tables that build.
    mass = sum(dist.probabilities.values())
    renormalised = {bits: p / mass for bits, p in dist.probabilities.items()}
    kept = postselect(dist, lambda bits: True)
    assert kept == StateDistribution(renormalised, atom_labels=dist.atom_labels)
    assert kept == dist or mass != 1.0
    sample_distribution(dist, 10, seed=0)
