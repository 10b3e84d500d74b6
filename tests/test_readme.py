"""The README's examples stay in step with the code.

Every ``gtvtomo`` command in the README's shell blocks must parse with the
real argument parser (nothing is run), and the "Library use" snippet must
run as written.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from gtvtomo import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def readme_commands():
    """Each ``gtvtomo ...`` line of the shell blocks, with its continuation lines joined."""
    commands = []
    for block in fenced_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("gtvtomo "):
                commands.append(line.strip())
    return commands


COMMANDS = readme_commands()


def subcommands():
    parser = cli._build_parser()
    return set(next(a for a in parser._actions if a.dest == "command").choices)


def test_every_subcommand_has_an_example():
    assert {shlex.split(c)[1] for c in COMMANDS} == subcommands()


@pytest.mark.parametrize("command", COMMANDS, ids=[shlex.split(c)[1] for c in COMMANDS])
def test_command_parses(command):
    argv = shlex.split(command)[1:]
    try:
        args = cli._build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: {command}")
    assert args.command == argv[0]


def test_library_snippet_runs(tmp_path, monkeypatch, capsys):
    (snippet,) = [b for b in fenced_blocks("python") if "from gtvtomo import" in b]
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, "README.md", "exec"), {})
    report, best = capsys.readouterr().out.splitlines()
    stop, gap = report.split()  # print(trace.stop, trace.gap)
    assert stop in ("zero", "rel_change", "max_iters") and float(gap) >= 0
    iteration, error = ast.literal_eval(best)  # print(min_error(curve))
    assert 0 <= iteration < 50 and error > 0
