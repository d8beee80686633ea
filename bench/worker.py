"""Timed repeats of one workload inside one process, through ``rhkljn.cli.main``.

Usage (``run.py`` starts it; the program's command line follows ``--``)::

    python3 bench/worker.py --root . --seconds 20 --trace 0 -- sweep ...

One untimed warm-up call, then calls until ``--seconds`` have passed (at
least three), each followed by one pass of the calibration kernel of
``calibrate.py``, run in as many processes at once as the command's
``--jobs``.  With ``--trace 1`` untraced and traced calls alternate:
the traced call of median wall time gives the per-layer metrics, the
medians of each kind give the tracing overhead.  A command with
``--jobs`` above 1 is run once more at ``--jobs 1``, untimed, for the
check that both give the same bytes.  Standard output of the program is captured in memory; the last
line printed is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_REPS = 3

# (metric, unit, layers it needs, value from one rep's span summary and counters)
PER_LAYER = (
    ("protocol.sample_s", "s", ("protocol.sample",), lambda s, c: _self(s, "protocol.sample")),
    ("protocol.sample_bytes_computed", "B", ("protocol.sample",), lambda s, c: c["sample_bytes"]),
    ("detectors.ml_s", "s", ("detectors.ml",), lambda s, c: _self(s, "detectors.ml")),
    ("detectors.ml_calls", "count", ("detectors.ml",), lambda s, c: _calls(s, "detectors.ml")),
    (
        "detectors.ml_useful_frac", "1", ("protocol.tally",),
        lambda s, c: c["ml_gate_kept"] / c["ml_scored"] if c["ml_scored"] else 0.0,
    ),
    ("protocol.tally_s", "s", ("protocol.tally",), lambda s, c: _self(s, "protocol.tally")),
    ("protocol.classical_s", "s", ("protocol.classical",), lambda s, c: _self(s, "protocol.classical")),
    ("protocol.session_s", "s", ("protocol.session",), lambda s, c: _self(s, "protocol.session")),
    ("protocol.sessions", "count", ("protocol.session",), lambda s, c: _calls(s, "protocol.session")),
    ("protocol.chunks", "count", ("protocol.session",), lambda s, c: c["chunks"]),
    ("protocol.pool_starts", "count", ("protocol.pool",), lambda s, c: _calls(s, "protocol.pool")),
    ("protocol.pool_s", "s", ("protocol.pool",), lambda s, c: _self(s, "protocol.pool")),
    ("rng.substream_s", "s", ("rng.substream",), lambda s, c: _self(s, "rng.substream")),
    ("rng.substream_calls", "count", ("rng.substream",), lambda s, c: _calls(s, "rng.substream")),
    ("pls.sop_s", "s", ("pls.sop",), lambda s, c: _self(s, "pls.sop")),
    ("pls.sop_trials", "count", ("pls.sop",), lambda s, c: c["sop_trials"]),
    ("pls.build_report_s", "s", ("pls.build_report",), lambda s, c: _self(s, "pls.build_report")),
    ("params.derive_stats_s", "s", ("params.derive_stats",), lambda s, c: _self(s, "params.derive_stats")),
    ("params.derive_stats_calls", "count", ("params.derive_stats",), lambda s, c: _calls(s, "params.derive_stats")),
    ("sweep.self_s", "s", ("sweep.run",), lambda s, c: _self(s, "sweep.run")),
    (
        "sweep.points", "count", ("sweep.run", "protocol.session"),
        lambda s, c: s["protocol.session"]["under"].get("sweep.run", 0) if "protocol.session" in s else 0,
    ),
    ("sweep.write_csv_s", "s", ("sweep.write_csv",), lambda s, c: _self(s, "sweep.write_csv")),
    ("cli.self_s", "s", ("cli.main",), lambda s, c: _self(s, "cli.main")),
)
PER_LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER} | {
    "process.minor_faults": "count",
    "trace_overhead_frac": "1",
}


def _minor_faults() -> int:
    """Minor page faults so far of this process and of its reaped pool workers."""
    return sum(resource.getrusage(who).ru_minflt for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def _self(summary, name) -> float:
    return summary[name]["self_s"] if name in summary else 0.0


def _calls(summary, name) -> int:
    return summary[name]["calls"] if name in summary else 0


def _sample_bytes(a):
    spec = a["spec"]
    # float64 arrays x, y and v, each of shape (bits, chips, samples)
    return {"sample_bytes": 3 * 8 * spec.n_bits * spec.params.chips_per_bit * spec.params.samples_per_chip}


def _chunks(a):
    return {"chunks": math.ceil(a["num_bits"] / a["chunk_bits"])}


def _ml_tallies(result):
    tally = result[0].get("ml")
    if tally is None:
        return {}
    return {"ml_scored": tally.total_chips, "ml_gate_kept": tally.total_chips - tally.discarded_gate}


def _sop_trials(a):
    return {"sop_trials": a["trials"] if a["perturbation"] is not None else 0}


def install(tracer) -> None:
    """Wrap every traced call at the module attribute its caller looks up."""
    from rhkljn import cli, detectors, pls, protocol, sweep

    tracer.wrap(cli, "run_sweep", "sweep.run")
    tracer.wrap(cli, "run_compare", "sweep.run")
    tracer.wrap(cli, "write_csv", "sweep.write_csv")
    tracer.wrap(cli, "build_report", "pls.build_report")
    for module in (sweep, protocol, cli):
        tracer.wrap(module, "derive_stats", "params.derive_stats")
    tracer.wrap(sweep, "run_session", "protocol.session", on_call=_chunks)
    tracer.wrap(sweep, "run_classical_session", "protocol.session", on_call=_chunks)
    tracer.wrap(cli, "run_session", "protocol.session", on_call=_chunks)
    tracer.wrap_pool(protocol, "ProcessPoolExecutor", "protocol.pool")
    tracer.wrap(protocol, "_rh_chunk_arrays", "protocol.sample", on_call=_sample_bytes)
    tracer.wrap(protocol, "_tally_chunk", "protocol.tally", on_result=_ml_tallies)
    tracer.wrap(protocol, "_classical_chunk", "protocol.classical")
    tracer.wrap(detectors, "ml_detect_batch", "detectors.ml")
    tracer.wrap(protocol, "substream", "rng.substream")
    tracer.wrap(pls, "substream", "rng.substream")
    tracer.wrap(pls, "sop", "pls.sop", on_call=_sop_trials)


def layer_metrics(tracer, rep: int) -> dict[str, float]:
    """Every per-layer metric of one traced rep, leaving out those whose layers are absent."""
    summary = tracer.rep_summary(rep)
    counts = tracer.counts[rep]
    out = {}
    for name, _, layers, value in PER_LAYER:
        if any(layer in tracer.missing or layer in tracer.broken for layer in layers):
            continue
        out[name] = float(value(summary, counts))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    program_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from calibrate import Calibrator
    from rhkljn import cli
    from tracer import Tracer
    from workloads import with_jobs

    def call(argv, tracer=None):
        buf = io.StringIO()
        faults = _minor_faults()
        started = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = cli.main(argv)
            else:
                tracer.enabled = True
                try:
                    rc = tracer.call("cli.main", cli.main, argv)
                finally:
                    tracer.enabled = False
        wall = time.perf_counter() - started
        if rc != 0:
            raise SystemExit(f"rhkljn exited with code {rc} on {argv}")
        return wall, buf.getvalue(), _minor_faults() - faults

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)

    jobs = int(program_argv[program_argv.index("--jobs") + 1]) if "--jobs" in program_argv else 1
    # rusage is read inside the block, before the calibration helpers are reaped
    with Calibrator(jobs) as calibrator:
        _, text, _ = call(program_argv)  # warm-up, untimed
        calibrator.sample()
        digests = [hashlib.sha256(text.encode()).hexdigest()]
        walls, kernels, faults, traced_walls = [], [], [], []
        deadline = time.perf_counter() + args.seconds
        while len(walls) < MIN_REPS or time.perf_counter() < deadline:
            wall, out, rep_faults = call(program_argv)
            walls.append(wall)
            faults.append(rep_faults)
            digests.append(hashlib.sha256(out.encode()).hexdigest())
            kernels.append(calibrator.sample())
            if tracer is not None:
                tracer.rep = len(traced_walls)
                wall, out, _ = call(program_argv, tracer)
                traced_walls.append(wall)
                digests.append(hashlib.sha256(out.encode()).hexdigest())

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "walls": walls,
        "kernels": kernels,
        "digests": digests,
        "text": text,
        "peak_rss_mb": (own + workers) / 1024.0,
    }
    if jobs > 1:
        result["jobs1_digest"] = hashlib.sha256(call(with_jobs(program_argv, 1))[1].encode()).hexdigest()
    if tracer is not None:
        tracer.restore()
        # the traced repeat of median wall time; its layer times add up to its wall time
        median_rep = sorted(range(len(traced_walls)), key=traced_walls.__getitem__)[len(traced_walls) // 2]
        per_layer = layer_metrics(tracer, median_rep)
        per_layer["process.minor_faults"] = statistics.median(faults)
        per_layer["trace_overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        result["per_layer"] = per_layer
        result["absent_layers"] = sorted(tracer.missing | tracer.broken)
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
