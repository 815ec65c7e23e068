"""The README's examples.

Claims covered:
    - every expression of the Library example that carries a trailing
      comment evaluates to the literal that opens the comment
    - every `rootspin` line of the Command line example exits 0, and
      `oracle G 2` prints {"dimension": 4}
"""

import ast
import io
import json
import re
import shlex
import tokenize
from pathlib import Path

import pytest
from click.testing import CliRunner

from rootspin.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first ``language`` code block after the ``## heading`` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _commented_expressions():
    """The parsed example, and (expression source, expected literal) for
    each expression that carries a trailing comment."""
    source = _block("Library", "python")
    comments = {
        tok.start[0]: tok.string.lstrip("# ")
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    module = ast.parse(source)
    cases = []
    for node in module.body:
        if isinstance(node, ast.Expr) and node.end_lineno in comments:
            literal = re.match(r"[^\s;,]+", comments[node.end_lineno]).group(0)
            cases.append((ast.get_source_segment(source, node), ast.literal_eval(literal)))
    return module, cases


def test_library_example_values():
    module, cases = _commented_expressions()
    assert [expected for _, expected in cases] == [13697920, 13697920, True, True, 4]
    namespace: dict = {}
    statements = [node for node in module.body if not isinstance(node, ast.Expr)]
    exec(compile(ast.Module(statements, type_ignores=[]), "README.md", "exec"), namespace)
    for expression, expected in cases:
        assert eval(expression, namespace) == expected, expression


def _command_lines():
    return [
        shlex.split(line, comments=True)[1:]
        for line in _block("Command line", "bash").splitlines()
        if line.startswith("rootspin ")
    ]


@pytest.mark.parametrize("argv", _command_lines(), ids=" ".join)
def test_command_line_example_runs(argv):
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    if argv == ["oracle", "G", "2"]:
        assert json.loads(result.stdout) == {"dimension": 4}
