"""The micro-benchmarks still run against the current API.

They are outside ``testpaths`` and call kernels such as ``nn.Adam``
directly, so an API change would otherwise break them unnoticed. Running
them with ``--benchmark-disable`` executes each benchmarked function once.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_microbench_runs():
    pytest.importorskip("pytest_benchmark")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "microbench", "--benchmark-disable", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
