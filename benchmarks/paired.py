"""Paired in-process timing of two revisions: ``cli.main`` on one command line.

Run from the root of a checkout; the program's command line follows ``--``::

    python3 benchmarks/paired.py --parent HEAD~1 --change HEAD --rounds 40 -- \
        sweep --sweep n --values 3,5,10,20,40 --detectors ml,simple,optimum \
        --scenarios good --bits 4000 --seed 1

Each revision's ``src/rhkljn`` is extracted with ``git archive`` into a
fresh temporary directory and imported under a package name of its own
(``rhkljn_parent``, ``rhkljn_change``), so both run in one interpreter
on the same numpy.  For uncommitted work pass ``--change $(git stash
create)``.  Each side makes one untimed warm-up call; then the rounds
alternate which side runs first.  The result is one JSON object:
``same_stdout``, whether the two warm-up calls printed the same bytes
(CSV or report), which is reported and not checked, since a change of
the engine version moves it wherever a count moves; milliseconds per
call as (q1, median, q3) for each side; and the number of rounds in
which the change was faster.

Both copies are made the same way on purpose.  A checkout that holds
``__pycache__`` from an earlier run and a fresh one are not on equal
footing where ``PYTHONDONTWRITEBYTECODE=1`` is set: each new interpreter
recompiles every module of the fresh one, which reads as a slower
``setup_s`` and a larger ``peak_rss_mb`` under ``bench/run.py`` although
no code moved.  So compare two ``git archive`` copies, never a working
tree with its ``__pycache__`` against an archive.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def extract(rev: str, into: Path, name: str) -> None:
    """``src/rhkljn`` of revision ``rev``, as package ``name`` under ``into``."""
    archive = subprocess.run(["git", "archive", rev, "src/rhkljn"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into / name, filter="data")
    (into / name / "src" / "rhkljn").rename(into / f"rhkljn_{name}")


def call(main, argv: list[str]) -> tuple[float, str]:
    """One ``main(argv)`` call: its wall time in ms and its standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = main(list(argv))
        elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"the command exited {code}")
    return 1e3 * elapsed, out.getvalue()


def quartiles(values: list[float]) -> list[float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 3), round(median, 3), round(q3, 3)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1", help="the baseline revision (default HEAD~1)")
    parser.add_argument("--change", default="HEAD", help="the revision under test (default HEAD)")
    parser.add_argument("--rounds", type=int, default=40, help="timed rounds per side (default 40)")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- and the rhkljn command line")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command or args.rounds < 1:
        parser.error("give a positive --rounds and a command line after --")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        mains = {}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            extract(rev, root, side)
        sys.path.insert(0, str(root))
        for side in SIDES:
            mains[side] = importlib.import_module(f"rhkljn_{side}.cli").main
        outputs = {side: call(mains[side], command)[1] for side in SIDES}
        times = {side: [] for side in SIDES}
        for i in range(args.rounds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                times[side].append(call(mains[side], command)[0])

    faster = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(json.dumps({
        "command": command,
        "rounds": args.rounds,
        "same_stdout": outputs["parent"] == outputs["change"],
        "parent_ms_q1_median_q3": quartiles(times["parent"]),
        "change_ms_q1_median_q3": quartiles(times["change"]),
        "change_faster_rounds": faster,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
