"""The per-layer microbenchmarks in benchmarks/ still run against the library.

They call private engine functions (``_ChunkSpec``, ``_rh_chunk_arrays``,
``_tally_chunk``, ``_classical_chunk``) directly, and live outside the test
paths, so an API change would otherwise break them unnoticed.  Each case
runs once, untimed.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_microbenchmarks_run():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
