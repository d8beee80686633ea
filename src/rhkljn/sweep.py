"""Parameter sweeps, the rate-matched classical comparison and CSV emission.

A :class:`SweepSpec` is one grid: the swept parameter's values times the
scenarios, with every requested detector evaluated on the same noise
realization of a grid point.  ``run_sweep`` and ``run_compare`` walk it
through one hopping-row runner: one session per (value, scenario) point
and one CSV row per (value, scenario, detector).  ``run_compare`` takes a
spec that sweeps ``rate`` and puts one classical row before the hopping
rows of each rate.  Every point's parameters are checked, and each
hopping session's statistics derived once, before the first session; a
point whose optimum threshold falls back to the midpoint has that recorded
in its statistics (``DerivedStats.note``), not raised as a warning.  A
``check`` passed to either (the CLI's --strict) then reads those
statistics, before the first session.  A grid then fans out once
(:func:`rhkljn.protocol.fan_out`) into ``jobs`` shares, fewer when its
sessions have fewer chunks: the calling process
runs one and each pool worker one task, and every share runs its chunks
of every session, one session after another (:func:`_run_grid`).  Once
every share has finished, the calling process adds up each session's
shares, then makes the rows and logs each point's warnings with its rows,
in grid order.
Per-point substreams are keyed on the value's bit pattern and on the
scenario's index in :data:`rhkljn.config.SCENARIOS`, so any subset of the
values and scenarios reproduces the full run's rows exactly, and rows and
warnings are the same bytes regardless of worker count.  Output bytes
depend only on the experiment definition, the seed and the engine version
(:data:`rhkljn.protocol.ENGINE_VERSION`): no timing goes into a row.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from .config import SCENARIOS, apply_scenario
from .params import DerivedStats, SystemParams, check_nyquist, derive_stats, drif
from .protocol import (
    DETECTOR_CHOICES,
    DetectorTally,
    ProtocolConfig,
    fan_out,
    merge_tallies,
    run_classical_session,
    run_session,
)
from .rng import value_key

logger = logging.getLogger(__name__)

SWEEP_PARAMETERS = ("n", "beta", "alpha", "gamma", "rate")

# substream tags keep the harness streams disjoint from ad-hoc session keys
_TAG_SWEEP = 0x51
_TAG_RH_COMPARE = 0x52
_TAG_CLASSICAL = 0x53

_MIN_BITS_FOR_CI = 1_000
_MIN_ERRORS_FOR_CI = 100
# a samples-per-chip value this close to an integer counts as whole
_WHOLE_RTOL = 1e-9

Z95 = 1.959963984540054


def binomial_ci95(errors: int, n: int) -> tuple[float, float]:
    """95% interval for an error fraction; Wilson when errors are scarce."""
    if n == 0:
        return 0.0, 1.0
    p = errors / n
    if errors < 30:
        z2 = Z95 * Z95
        denom = 1.0 + z2 / n
        center = (p + z2 / (2.0 * n)) / denom
        half = Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
        lo, hi = (0.0 if errors == 0 else center - half), center + half
    else:
        half = Z95 * math.sqrt(p * (1.0 - p) / n)
        lo, hi = p - half, p + half
    return max(0.0, lo), min(1.0, hi)


@dataclass(frozen=True)
class SweepSpec:
    """One figure-style experiment: a parameter grid times scenarios times detectors."""

    swept_parameter: str
    values: tuple[float, ...]
    detectors: tuple[str, ...] = ("optimum",)
    scenarios: tuple[str, ...] = ("good",)
    num_bits: int = 100_000
    master_seed: int = 1

    def __post_init__(self) -> None:
        if self.swept_parameter not in SWEEP_PARAMETERS:
            raise ValueError(
                f"swept_parameter must be one of {SWEEP_PARAMETERS}, got {self.swept_parameter!r}"
            )
        if not self.values:
            raise ValueError("values must be non-empty")
        diffs = [b - a for a, b in zip(self.values, self.values[1:])]
        if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)) and len(self.values) > 1:
            raise ValueError("values must be strictly monotone")
        if not self.detectors:
            raise ValueError("detectors must be non-empty")
        if not self.scenarios:
            raise ValueError("scenarios must be non-empty")
        for d in self.detectors:
            if d not in DETECTOR_CHOICES:
                raise ValueError(f"detectors must be among {DETECTOR_CHOICES}, got {d!r}")
        for s in self.scenarios:
            if s not in SCENARIOS:
                raise ValueError(f"scenarios must be among {SCENARIOS}, got {s!r}")
        # a CSV row is identified by (value, scenario, detector)
        for name in ("detectors", "scenarios"):
            items = getattr(self, name)
            if len(set(items)) != len(items):
                raise ValueError(f"{name} must not repeat, got {','.join(items)}")
        if self.num_bits < 1:
            raise ValueError("num_bits must be >= 1")
        if self.num_bits < _MIN_BITS_FOR_CI:
            logger.warning(
                "num_bits=%d is below %d; confidence intervals will be unstable",
                self.num_bits,
                _MIN_BITS_FOR_CI,
            )


@dataclass(frozen=True)
class ResultRow:
    """One CSV row of a sweep or comparison; its fields are the columns, in order."""

    scheme: str
    swept_parameter: str
    value: float
    scenario: str
    detector: str
    alpha: float
    beta: float
    gamma: float
    m_l: float
    samples: int
    chips_per_bit: int
    num_bits: int
    seed: int
    total_units: int
    kept_units: int
    errors: int
    bep: float
    bep_ci_lo: float
    bep_ci_hi: float
    discard_fraction: float
    eve_accuracy: float
    drif: float


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def write_csv(rows, out) -> None:
    """Write rows with the fixed header and column order, 9 significant digits."""
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        out.write(",".join(_fmt(getattr(row, col)) for col in CSV_COLUMNS) + "\n")


def _point_params(
    base: SystemParams, parameter: str, value: float
) -> tuple[SystemParams, str | None]:
    """``base`` with the swept parameter set to ``value``, and the point's warning.

    ``n`` and ``rate`` set a whole number of samples per chip, rounded half
    to even; a value that is not already whole gets a warning, returned
    rather than logged so the grid logs it with the point's rows.  Samples
    per chip beyond the noise's Nyquist count fail (:func:`check_nyquist`).
    """
    if parameter not in ("n", "rate"):
        point = base.replace(**{parameter: float(value)})
        check_nyquist(point)
        return point, None
    exact = value if parameter == "n" else value * base.chip_duration
    if not math.isfinite(exact):
        raise ValueError(f"{parameter} must be finite, got {value:g}")
    n = int(round(exact))
    if n < 1:
        if parameter == "n":
            raise ValueError(f"samples per chip must be >= 1, got {value}")
        raise ValueError(f"rate {value:g} gives no samples within a chip")
    note = None
    if abs(exact - n) > _WHOLE_RTOL * abs(exact):
        note = f"{parameter}={value:g} gives {exact:.9g} samples per chip; simulating {n}"
    point = base.replace(samples_per_chip=n)
    check_nyquist(point)
    return point, note


class _Session(NamedTuple):
    """One session of a grid: its parameters, checked, its stream key and its statistics."""

    scheme: str
    value: float
    scenario: str
    params: SystemParams
    point_key: tuple[int, ...]
    note: str | None = None  # the grid point's warning, logged just before its rows
    stats: DerivedStats | None = None

    def run(self, spec: SweepSpec, share, trace) -> dict[str, DetectorTally]:
        """Run ``share`` of the session; returns its tallies."""
        if self.scheme == "classical":
            return run_classical_session(
                spec.num_bits,
                self.params,
                seed=spec.master_seed,
                share=share,
                point_key=self.point_key,
            )
        return run_session(
            spec.num_bits,
            ProtocolConfig(self.params, self.stats),
            seed=spec.master_seed,
            detectors=spec.detectors,
            share=share,
            point_key=self.point_key,
            trace=trace,
        )


def _session_rows(spec: SweepSpec, session: _Session, tallies: dict[str, DetectorTally]) -> list[ResultRow]:
    scheme, value, scenario, params, *_ = session
    if session.note:
        logger.warning("%s", session.note)
    if session.stats is not None and session.stats.note:
        logger.warning("%s=%g %s: %s", spec.swept_parameter, value, scenario, session.stats.note)
    rows = []
    for name, tally in tallies.items():
        lo, hi = binomial_ci95(tally.sub_bit_errors, tally.kept_chips)
        if tally.sub_bit_errors < _MIN_ERRORS_FOR_CI:
            logger.warning(
                "%s=%g %s/%s: only %d errors observed; BEP below the Monte Carlo floor",
                spec.swept_parameter,
                value,
                scenario,
                name,
                tally.sub_bit_errors,
            )
        rows.append(
            ResultRow(
                scheme=scheme,
                swept_parameter=spec.swept_parameter,
                value=float(value),
                scenario=scenario,
                detector=name,
                alpha=params.alpha,
                beta=params.beta,
                gamma=params.gamma,
                m_l=params.m_l,
                samples=params.samples_per_chip,
                chips_per_bit=params.chips_per_bit,
                num_bits=spec.num_bits,
                seed=spec.master_seed,
                total_units=tally.total_chips,
                kept_units=tally.kept_chips,
                errors=tally.sub_bit_errors,
                bep=tally.bep,
                bep_ci_lo=lo,
                bep_ci_hi=hi,
                discard_fraction=tally.discard_fraction,
                eve_accuracy=tally.eve_correct_fraction,
                drif=1.0 if scheme == "classical" else drif(params.chips_per_bit),
            )
        )
    return rows


def _rh_sessions(
    spec: SweepSpec, params: SystemParams, value: float, tag: int, note: str | None = None
) -> list[_Session]:
    """The hopping sessions at one grid value: one per scenario, keyed
    ``(tag, the scenario's index in SCENARIOS, value)``, all detectors on
    its noise.

    Each session's statistics are derived here, once; the grid logs their
    fallback note (``DerivedStats.note``) with the session's rows.
    """
    sessions = []
    for position, scenario in enumerate(spec.scenarios):
        point = apply_scenario(params, scenario)
        key = (tag, SCENARIOS.index(scenario), value_key(value))
        sessions.append(_Session("rh", value, scenario, point, key, None if position else note, derive_stats(point)))
    return sessions


def _grid_share(spec: SweepSpec, sessions: list[_Session], trace, share) -> list[dict[str, DetectorTally]]:
    """``share`` of every session of a grid: their tallies, in grid order.

    ``trace`` is the path of a per-chip log, opened here, truncating the
    file, so a grid that fails to start leaves it as it was.
    """
    with open(trace, "w") if trace is not None else contextlib.nullcontext() as log:
        return [session.run(spec, share, log) for session in sessions]


def _run_grid(spec: SweepSpec, sessions: list[_Session], jobs: int, trace=None, check=None) -> list[ResultRow]:
    """Run the sessions of a grid in ``jobs`` shares and return their rows
    in grid order.

    ``check(spec, sessions)``, when given, runs first, before any session.
    The grid fans out once (:func:`rhkljn.protocol.fan_out`), so a pool
    worker takes one task per command, not one per session.  The rows and
    the warnings of each point are made in the calling process once every
    share has finished, from each session's added-up tallies and the
    notes made at grid setup, so stdout and stderr do not depend on
    ``jobs``.
    """
    if check is not None:
        check(spec, sessions)
    shares = fan_out(functools.partial(_grid_share, spec, sessions, trace), jobs, spec.num_bits)
    rows: list[ResultRow] = []
    for i, session in enumerate(sessions):
        rows += _session_rows(spec, session, merge_tallies(share[i] for share in shares))
    return rows


def run_sweep(
    spec: SweepSpec, base_params: SystemParams, jobs: int = 1, trace=None, *, check=None
) -> list[ResultRow]:
    """Run every grid point of ``spec`` in ``jobs`` shares and return rows
    in grid order.

    Every grid point's parameters are set and checked, and each hopping
    session's statistics derived, before the first session runs.
    ``check(spec, sessions)``, when given, then runs once on the built
    grid: ``sessions`` lists its sessions in grid order, each with
    ``scheme`` (``"rh"`` or ``"classical"``), ``value``, ``scenario``,
    ``params`` and ``stats`` (None for a classical session), and a check
    that raises stops the grid before any session runs (``cli``'s
    --strict).  The sessions then run one after another (:func:`_run_grid`).
    ``trace`` (the path of a per-chip log) requires a single-point grid
    and is opened, truncating the file, only once the point is checked;
    a traced sweep runs serially, and a ``jobs`` above 1 is ignored with a
    warning.
    """
    if trace is not None and (len(spec.values) != 1 or len(spec.scenarios) != 1):
        raise ValueError("tracing needs a single grid point (one value, one scenario)")
    if trace is not None and jobs > 1:
        logger.warning("tracing runs serially; ignoring jobs=%d", jobs)
        jobs = 1
    sessions = []
    for value in spec.values:
        params, note = _point_params(base_params, spec.swept_parameter, value)
        sessions += _rh_sessions(spec, params, value, _TAG_SWEEP, note)
    return _run_grid(spec, sessions, jobs, trace, check)


def run_compare(spec: SweepSpec, base_params: SystemParams, jobs: int = 1, *, check=None) -> list[ResultRow]:
    """Rate-matched comparison: per rate in ``spec.values``, one classical
    row, then the hopping rows of every scenario and detector of ``spec``.
    Every session runs in ``jobs`` shares, set up, checked by ``check``
    and run as in :func:`run_sweep`.

    The matched condition gives the classical scheme chips_per_bit times
    the per-chip sample count of the hopping scheme, since its decision
    window is the whole bit duration.
    """
    if spec.swept_parameter != "rate":
        raise ValueError(f"compare sweeps the sampling rate, got {spec.swept_parameter!r}")
    sessions = []
    for rate in spec.values:
        rh_params, note = _point_params(base_params, "rate", rate)
        # the classical pair is unbiased and decides once per bit, from
        # all the samples of the bit's chips_per_bit chips
        classical_params = base_params.replace(
            m_l=0.0,
            chips_per_bit=1,
            samples_per_chip=rh_params.chips_per_bit * rh_params.samples_per_chip,
        )
        classical_key = (_TAG_CLASSICAL, value_key(rate))
        sessions.append(_Session("classical", rate, "-", classical_params, classical_key, note))
        sessions += _rh_sessions(spec, rh_params, rate, _TAG_RH_COMPARE)
    return _run_grid(spec, sessions, jobs, check=check)
