"""Every ``rhkljn`` command of the README's "Command line" block runs and exits 0.

Sessions are cut to 300 bits (``--bits`` is appended, so it overrides the
README's own value); ``stats`` takes no session and runs as written.
"""

import re
import shlex
from pathlib import Path

import pytest

from rhkljn.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    text = README.read_text()
    section = text[text.index("## Command line") :]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "rhkljn":
            commands.append(argv[1:])
    return commands


COMMANDS = readme_commands()


def test_block_found():
    assert len(COMMANDS) == 6


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a[:3]))
def test_readme_command_exits_zero(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if argv[0] != "stats":
        argv = argv + ["--bits", "300"]
    assert main(argv) == EXIT_OK
    for flag in ("--out", "--csv"):
        if flag in argv:
            assert (tmp_path / argv[argv.index(flag) + 1]).read_text().count("\n") >= 2
