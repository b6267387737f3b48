"""The `opn` transcript: every command in `cli_transcript.txt`, run through
`cli.main` from the repository root, gives the exit code, stdout and stderr
recorded there.

A block of the file is the command line (``$ opn ARGV``, shlex-quoted), each
line of its stdout prefixed ``| ``, each line of its stderr prefixed ``! ``,
and ``exit N``; blocks are separated by one blank line.  Running this module
as a script rewrites every block from its command line:

    PYTHONPATH=src python tests/test_cli_transcript.py

so a command is added as a block of its ``$`` line alone, and a deliberate
output change shows as the file's diff.  A command that argparse refuses, or
``--help``, exits through `SystemExit` with the standard library's text, which
the file does not record.
"""

import contextlib
import io
import os
import shlex
from pathlib import Path

import pytest

from orbitpn import cli

ROOT = Path(__file__).resolve().parents[1]
TRANSCRIPT = Path(__file__).with_name("cli_transcript.txt")


# each block of the transcript, keyed by its command
BLOCKS = {block.partition("\n")[0].removeprefix("$ opn "): block
          for block in TRANSCRIPT.read_text().rstrip("\n").split("\n\n")}


def replay(command: str) -> str:
    """The block that `command` writes, run from the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(shlex.split(command))
    return "\n".join([f"$ opn {command}",
                      *(f"| {line}" for line in out.getvalue().splitlines()),
                      *(f"! {line}" for line in err.getvalue().splitlines()),
                      f"exit {code}"])


def check(command: str, monkeypatch) -> None:
    """`command`, run from the repository root, writes its recorded block."""
    monkeypatch.chdir(ROOT)
    assert replay(command) == BLOCKS[command]


@pytest.mark.parametrize("command", BLOCKS)
def test_block(command, monkeypatch):
    check(command, monkeypatch)


if __name__ == "__main__":
    os.chdir(ROOT)
    TRANSCRIPT.write_text("\n\n".join(map(replay, BLOCKS)) + "\n")
