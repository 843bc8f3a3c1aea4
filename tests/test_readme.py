"""README's examples stay true: each value the quick start states in a
comment, and each output of the CLI example."""

import ast
import json
import re
import shlex
from pathlib import Path

from mixedhg.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(language: str) -> list[str]:
    """README's fenced code blocks in ``language``, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.S | re.M)


def test_quick_start_values():
    (source,) = blocks("python")
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):  # an expression whose comment states its value
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = lines[node.end_lineno - 1].partition("#")[2]
            assert value == ast.literal_eval(comment.strip()), lines[node.end_lineno - 1]
            checked += 1
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked == sum("#" in line for line in lines) > 0


def test_cli_example(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    example = next(block for block in blocks("sh") if block.startswith("mixedhg construct"))
    commands = []
    for line in example.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if "&&" in argv:  # `&& echo ok` prints the comment exactly when the command exits 0
            argv = argv[: argv.index("&&")]
        assert argv[0] == "mixedhg"
        code = main(argv[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        if argv[1] == "construct":
            assert out == comment.strip() + "\n"
        elif argv[1] == "spectrum":
            expected = json.loads("{" + comment + "}")
            assert {key: json.loads(out)[key] for key in expected} == expected
        else:
            assert comment.strip() == "ok"
        commands.append(argv[1])
    assert commands == ["construct", "spectrum", "verify"]
