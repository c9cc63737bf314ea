"""Replays tests/data/cli_golden.txt byte for byte.

Each record in the file is a command line (`$ qshuffle ...`), then its
stdout exactly as written (CSV rows end in CRLF), then the `error:` lines of
its stderr, each marked `[stderr] `, then `[exit N]`.  After a deliberate
change of output, rerun the command lines already in the file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from qshuffle.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"
PROMPT = "$ qshuffle "


def invoke(command: str) -> str:
    """The record body of one command line: stdout, error lines, exit status."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(shlex.split(command))
        except SystemExit as exc:
            code = exc.code
    errors = "".join(
        f"[stderr] {line}\n" for line in err.getvalue().splitlines() if "error:" in line
    )
    return f"{out.getvalue()}{errors}[exit {code}]\n"


def records() -> list[tuple[str, str]]:
    """(command line, recorded body) pairs in file order."""
    with open(GOLDEN, encoding="utf-8", newline="") as f:
        lines = f.read().splitlines(keepends=True)
    out: list[tuple[str, str]] = []
    for line in lines:
        if line.startswith(PROMPT):
            out.append((line[len(PROMPT):].rstrip("\n"), ""))
        else:
            command, body = out[-1]
            out[-1] = (command, body + line)
    return out


RECORDS = records()


@pytest.mark.parametrize("command, expected", RECORDS, ids=[c for c, _ in RECORDS])
def test_cli_output_matches_the_golden_record(command, expected):
    assert invoke(command) == expected


if __name__ == "__main__":
    text = "".join(f"{PROMPT}{command}\n{invoke(command)}" for command, _ in records())
    with open(GOLDEN, "w", encoding="utf-8", newline="") as f:
        f.write(text)
