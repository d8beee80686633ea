"""rhkljn benchmark: one figure workload, timed end to end or traced by layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload fig_n --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s`` (wall
time of one workload command through ``rhkljn.cli.main``, the median of
the run's repeats), ``chips_per_s``, ``setup_s`` (median over fresh
interpreters of the time to the first session call) and ``peak_rss_mb``
(the timing process plus its pool workers).

Both times are given at a fixed reference host speed: on a shared 2-vCPU
VM the speed a process gets changes by up to 1.8x within seconds, so the
raw medians of two runs of the same code differ by more than any useful
bound.  A fixed calibration kernel (``calibrate.py``) is timed after every
repeat, and inside every set-up probe after its stop; each time is divided
by the kernel time that follows it, and the median of these ratios is
reported at the kernel's reference time.  The raw fastest, median and
slowest repeats and the speed factor are printed beside the metrics.
With ``--trace 1`` it reports the per-layer metrics from spans recorded
around calls into each module.  Either way every output row
is checked against the closed forms in ``oracle.py`` and the output bytes
must be the same on every repeat (and, for the ``--jobs 2`` workload, equal
to a ``--jobs 1`` run).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Checks
that fail are counted in ``failed`` (``failed_frac`` = failed/attempted),
so the JSON is printed even then; a run that cannot measure exits non-zero
without it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170.0  # every run ends well inside the 180 s a run may take
SETUP_PROBES = 7  # measured probes, after one warm-up probe


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _run(cmd: list[str], deadline: float) -> str:
    """Run ``cmd`` from the checkout root; return its standard output, or raise.

    The child leads its own process group, so on timeout its pool workers
    are killed with it.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time budget exhausted")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{' '.join(cmd[:2])} ... timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[:2])} ... exited with code {proc.returncode}")
    return out


def measure_setup(argv: list[str], deadline: float) -> tuple[list[float], list[float]]:
    """Seconds from process start to the first session call in fresh interpreters, and each probe's kernel time.

    The first probe is a warm-up and is left out.
    """
    samples, kernels = [], []
    for _ in range(SETUP_PROBES + 1):
        started = time.monotonic()
        out = _run([sys.executable, str(HERE / "probe.py"), "--root", str(ROOT), "--", *argv], deadline)
        reached, *probe_kernels = map(float, out.split())
        samples.append(reached - started)
        kernels.append(statistics.median(probe_kernels))
    return samples[1:], kernels[1:]


def chips_per_run(text: str, workload: str, bits: int) -> int:
    """Decision units simulated by one run: hopping chips plus classical bits, once per session."""
    if workload == "pls_outage":
        from rhkljn.params import SystemParams

        return bits * SystemParams().chips_per_bit
    sessions = {}
    for row in csv.DictReader(io.StringIO(text)):
        sessions[(row["scheme"], row["value"], row["scenario"])] = int(row["total_units"])
    return sum(sessions.values())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "rhkljn" / "cli.py").is_file():
        return _fail(f"no rhkljn sources under {ROOT / 'src'}; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy

    import oracle
    from workloads import WORKLOADS, program_argv

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    argv = program_argv(workload.name, args.seed)

    try:
        setup_times, setup_kernels = measure_setup(argv, deadline) if not args.trace else (None, None)
        worker_cmd = [
            sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            worker_cmd += ["--spans-out", str(out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl")]
        result = json.loads(_run(worker_cmd + ["--", *argv], deadline).strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        return _fail(f"workload {workload.name} did not complete: {exc}")

    checks = oracle.check_output(result["text"], workload.name, argv, workload.bits, args.seed)
    checks.append(oracle.Check("same bytes on every repeat", len(set(result["digests"])) == 1))
    if "jobs1_digest" in result:
        same = result["jobs1_digest"] == result["digests"][0]
        checks.append(oracle.Check("--jobs 1 gives the same bytes", same))
    failed = [c for c in checks if not c.ok]
    for c in failed:
        print(f"FAILED {c.label}: {c.reason}", file=sys.stderr)

    provenance = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "argv": argv,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repeats": len(result["walls"]),
    }
    print("provenance " + json.dumps(provenance))
    print(f"{workload.name} failed_frac {len(failed) / len(checks):.6g} 1 ({len(failed)} of {len(checks)} checks)")

    if args.trace:
        from worker import PER_LAYER_UNITS

        if result["absent_layers"]:
            print(f"warning: absent layers {', '.join(result['absent_layers'])}", file=sys.stderr)
        print(f"{workload.name} note: spans are recorded in the benchmark process only, none inside pool workers")
        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]} for name, value in result["per_layer"].items()}
    else:
        from calibrate import at_reference, speed_factor

        wall = at_reference(result["walls"], result["kernels"])
        setup_s = at_reference(setup_times, setup_kernels)
        walls = sorted(result["walls"])
        print(
            f"{workload.name} raw repeats {len(walls)}: fastest {walls[0]:.6g} s, median {statistics.median(walls):.6g} s, "
            f"slowest {walls[-1]:.6g} s; host speed factor {speed_factor(result['kernels']):.4g} "
            f"(raw set-up {statistics.median(setup_times):.6g} s, factor {speed_factor(setup_kernels):.4g})"
        )
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "chips_per_s": {"value": chips_per_run(result["text"], workload.name, workload.bits) / wall, "unit": "chips/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{workload.name} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
