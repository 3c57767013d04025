"""Shared fixtures."""

import contextlib
import io
from typing import NamedTuple

import pytest

from pcfprod.cli import main


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def invoke(argv: list[str]) -> CliResult:
    """Run ``pcfprod argv`` in this process and capture what it writes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv, standalone_mode=False)
    return CliResult(code, out.getvalue(), err.getvalue())


@pytest.fixture()
def run_cli():
    """``run_cli(argv)``: the exit code, stdout and stderr of ``pcfprod argv``."""
    return invoke
