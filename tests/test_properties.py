"""Property tests of the command line; skipped when hypothesis is missing."""

import math

import pytest

pytest.importorskip("hypothesis")
from click.testing import CliRunner  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

from rydqubo.cli import main  # noqa: E402

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
