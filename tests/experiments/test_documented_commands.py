"""Every documented command line parses, and each verb takes only its flags.

Command lines are collected from README.md, EXPERIMENTS.md, docs/*.md,
the CLI module docstring and the CI workflow: every ``repro-experiments
...`` and ``python -m repro.experiments.cli ...`` up to the end of the
line, a closing backtick or a ``#`` comment, with ``\\`` continuations
joined.  Templates such as ``campaign --fault <kind>`` are skipped.

The per-verb flag sets are checked against the handlers themselves:
each verb's subparser must accept exactly the ``args.<flag>`` attributes
its handler (and the helpers it passes ``args`` to) reads, so a flag a
verb ignores is an error instead of a silent no-op.
"""

import argparse
import ast
import inspect
import json
import pathlib
import re
import shlex

import pytest

from repro.experiments import cli
from repro.experiments.cli import build_parser, main

ROOT = pathlib.Path(__file__).resolve().parents[2]

COMMAND = re.compile(
    r"(?:repro-experiments|python -m repro\.experiments\.cli)[ \t]+([^`#\n]+)"
)


def _command_lines(text):
    text = re.sub(r"\\\n\s*", " ", text)  # shell line continuations
    # Markdown prose may wrap an inline code span mid-command.
    text = re.sub(r"(python -m|repro\.experiments\.cli)\n\s*", r"\1 ", text)
    for match in COMMAND.finditer(text):
        line = match.group(1).strip()
        if "<" not in line:
            yield line


def _documented_commands():
    sources = [ROOT / "README.md", ROOT / "EXPERIMENTS.md"]
    sources += sorted((ROOT / "docs").glob("*.md"))
    sources.append(ROOT / ".github" / "workflows" / "ci.yml")
    found = [
        (str(path.relative_to(ROOT)), line)
        for path in sources
        for line in _command_lines(path.read_text(encoding="utf-8"))
    ]
    found += [("cli.py docstring", line) for line in _command_lines(cli.__doc__)]
    return found


DOCUMENTED = _documented_commands()


def test_collector_finds_the_documented_commands():
    assert len(DOCUMENTED) >= 50
    verbs = {shlex.split(line)[0] for _, line in DOCUMENTED}
    assert {"campaign", "fleet", "resume", "replay", "soak"} <= verbs


@pytest.mark.parametrize(
    "source, line", DOCUMENTED, ids=[f"{s}: {l}" for s, l in DOCUMENTED]
)
def test_documented_command_parses(source, line):
    try:
        build_parser().parse_args(shlex.split(line))
    except SystemExit as exc:
        pytest.fail(f"{source}: 'repro-experiments {line}' exits {exc.code}")


# ----------------------------------------------------------------------
# One flag set per verb
# ----------------------------------------------------------------------
def _accepted_flags():
    """verb -> the option strings its subparser accepts (bar --help)."""
    verbs = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {
        verb: {
            option
            for action in subparser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        for verb, subparser in verbs.choices.items()
    }


_CLI_FUNCTIONS = {
    node.name: node
    for node in ast.parse(inspect.getsource(cli)).body
    if isinstance(node, ast.FunctionDef)
}


def _flags_read(function):
    """Every ``--flag`` whose ``args`` attribute ``function`` reads,
    following calls that hand ``args`` on to another CLI function."""
    reads = set()
    for node in ast.walk(_CLI_FUNCTIONS[function]):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        ):
            reads.add("--" + node.attr.replace("_", "-"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _CLI_FUNCTIONS
            and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)
        ):
            reads |= _flags_read(node.func.id)
    return reads


def _handler_reads():
    commands = {**cli._COMMANDS, **cli._EXTRA_COMMANDS}
    reads = {
        verb: _flags_read(handler.__name__)
        for verb, (handler, _) in commands.items()
    }
    reads["all"] = set().union(*(reads[verb] for verb in cli._COMMANDS))
    return reads


@pytest.mark.parametrize("verb", sorted(_handler_reads()))
def test_verb_accepts_exactly_the_flags_its_handler_reads(verb):
    assert _accepted_flags()[verb] == _handler_reads()[verb]


def test_every_declared_flag_belongs_to_a_verb():
    accepted = set().union(*_accepted_flags().values())
    assert accepted == set(cli._FLAGS)


@pytest.mark.parametrize(
    "line",
    [
        "soak --campaign-duration 17",
        "overload-soak --overload-duration 20",
        "fig4 --fault hotplug",
        "soak --strict-audit",
    ],
)
def test_flag_the_verb_ignores_is_rejected(line):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(shlex.split(line))
    assert excinfo.value.code == 2


def test_fig5_export_writes_the_sweep(tmp_path, capsys):
    path = tmp_path / "f.json"
    argv = ["fig5", "--duration", "3", "--warmup", "1", "--export", str(path)]
    assert main(argv) == 0
    assert "Figure 5" in capsys.readouterr().out
    assert json.loads(path.read_text())
