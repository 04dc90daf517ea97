"""The README's Python example runs as written and prints what it claims."""

import ast
import re
from pathlib import Path

from rydqubo.compiler import try_decode

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_in_one_minute(capsys):
    section = README.read_text().split("## Python API in one minute", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.strip() == str(namespace["dist"].top(3))
    # The block's last comment names what the modal bitstring decodes to.
    claimed = ast.literal_eval(re.search(r"decodes to (\(.*?\))", block).group(1))
    assert claimed == (1, 0)
    assert try_decode(namespace["graph"], namespace["dist"].modal()) == claimed
