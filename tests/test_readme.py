"""Every ``ttnets`` command in the README's shell blocks parses.

The README documents the experiments as CLI calls; parsing each one with
the CLI's own parser (nothing is run) keeps them from drifting when an
option is renamed or removed.
"""

import re
import shlex
from pathlib import Path

import pytest

from ttnets.cli import _COMMANDS, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """The ``ttnets`` lines of the fenced ``sh`` blocks, continuations joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("ttnets "):
                commands.append(" ".join(line.split()))
    return commands


COMMANDS = readme_commands()


def test_readme_shows_every_subcommand():
    assert {shlex.split(c)[1] for c in COMMANDS} == set(_COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_parses(command):
    argv = shlex.split(command, comments=True)[1:]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: {command}")
    assert args.command == argv[0]
