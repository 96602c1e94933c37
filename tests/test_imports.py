"""Each public module imports on its own in a fresh interpreter, so an
import cycle cannot hide behind the order in which tests load modules."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["qodesign.model.parser", "qodesign.lax", "qodesign.cli"])
def test_module_imports_in_a_fresh_process(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
