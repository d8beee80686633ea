"""Set-up probe: a fresh interpreter runs ``rhkljn.cli.main`` up to its first session call.

Usage (``run.py`` starts it; the program's command line follows ``--``)::

    python3 bench/probe.py --root . -- sweep --sweep n ...

The session entry points, at the names the callers look up, are replaced
by a stop that records ``time.monotonic()`` and ends the process, so what
the caller measures from just before starting this process is interpreter
start-up, imports, argument parsing and ``derive_stats``.  The clock is
CLOCK_MONOTONIC, which all processes of the machine share.  After the stop
the probe times the calibration kernel of ``calibrate.py`` (one untimed
pass, then ``KERNEL_PASSES``), so the host speed is taken in the same
process and right after the interval measured.  It prints one line: the
time the stop was reached, then the kernel times.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

KERNEL_PASSES = 3


class _Reached(BaseException):
    """Raised at the first session call; not an Exception, so ``cli.main`` lets it through."""


def main() -> int:
    root = Path(sys.argv[sys.argv.index("--root") + 1]).resolve()
    program_argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from rhkljn import cli, sweep

    def stop(*args, **kwargs):
        raise _Reached(time.monotonic())

    patched = 0
    for module, attr in ((sweep, "run_session"), (sweep, "run_classical_session"), (cli, "run_session")):
        if hasattr(module, attr):
            setattr(module, attr, stop)
            patched += 1
    if not patched:
        print("probe: no session entry point found", file=sys.stderr)
        return 1
    try:
        cli.main(program_argv)
    except _Reached as reached:
        from calibrate import kernel_s

        kernel_s()
        print(" ".join(repr(t) for t in (reached.args[0], *(kernel_s() for _ in range(KERNEL_PASSES)))))
        return 0
    print("probe: the program ended without a session call", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
