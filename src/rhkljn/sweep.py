"""Parameter sweeps, the rate-matched classical comparison and CSV emission.

A :class:`SweepSpec` is one grid: the swept parameter's values times the
scenarios, with every requested detector evaluated on the same noise
realization of a grid point.  ``run_sweep`` and ``run_compare`` walk it
through one hopping-row runner: one session per (value, scenario) point
and one CSV row per (value, scenario, detector).  ``run_compare`` takes a
spec that sweeps ``rate`` and puts one classical row before the hopping
rows of each rate.  Each call opens one worker pool
(:func:`rhkljn.protocol.worker_pool`) and runs every session of its grid
on it, so ``jobs`` workers start once per grid, not once per session.
Per-point substreams are keyed on the value's bit pattern and on the
scenario's position in ``spec.scenarios``, so any subset of the values run
with the same scenarios reproduces the full run exactly (a different
scenario list moves the rows), and rows are written in grid order
regardless of worker count.  Output bytes depend only on the
experiment definition and the seed: no timing goes into a row.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

from .config import SCENARIOS, apply_scenario
from .params import SystemParams, derive_stats, drif
from .protocol import (
    DETECTOR_CHOICES,
    DetectorTally,
    ProtocolConfig,
    run_classical_session,
    run_session,
    worker_pool,
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


def _point_params(base: SystemParams, parameter: str, value: float) -> SystemParams:
    """``base`` with the swept parameter set to ``value``.

    ``n`` and ``rate`` set a whole number of samples per chip, rounded half
    to even; a value that is not already whole is flagged on stderr.
    """
    if parameter not in ("n", "rate"):
        return base.replace(**{parameter: float(value)})
    exact = value if parameter == "n" else value * base.chip_duration
    if not math.isfinite(exact):
        raise ValueError(f"{parameter} must be finite, got {value:g}")
    n = int(round(exact))
    if n < 1:
        if parameter == "n":
            raise ValueError(f"samples per chip must be >= 1, got {value}")
        raise ValueError(f"rate {value:g} gives no samples within a chip")
    if abs(exact - n) > _WHOLE_RTOL * abs(exact):
        logger.warning(
            "%s=%g gives %.9g samples per chip; simulating %d", parameter, value, exact, n
        )
    return base.replace(samples_per_chip=n)


def _session_rows(
    tallies: dict[str, DetectorTally],
    spec: SweepSpec,
    scheme: str,
    value: float,
    scenario: str,
    params: SystemParams,
) -> list[ResultRow]:
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


def _rh_rows(
    spec: SweepSpec, params: SystemParams, value: float, tag: int, pool, trace=None
) -> list[ResultRow]:
    """Hopping rows at one grid value: one session per scenario, keyed
    ``(tag, scenario index, value)``, all detectors on its noise."""
    rows: list[ResultRow] = []
    for scen_idx, scenario in enumerate(spec.scenarios):
        point_params = apply_scenario(params, scenario)
        tallies = run_session(
            spec.num_bits,
            ProtocolConfig(point_params, derive_stats(point_params)),
            seed=spec.master_seed,
            detectors=spec.detectors,
            pool=pool,
            point_key=(tag, scen_idx, value_key(value)),
            trace=trace,
        )
        rows.extend(_session_rows(tallies, spec, "rh", value, scenario, point_params))
    return rows


def run_sweep(
    spec: SweepSpec, base_params: SystemParams, jobs: int = 1, trace=None
) -> list[ResultRow]:
    """Run every grid point of ``spec`` on one pool of ``jobs`` workers and
    return rows in grid order.

    ``trace`` (a writable text file) logs every chip and requires a
    single-point grid; it runs serially, and a ``jobs`` above 1 is ignored
    with a warning.
    """
    if trace is not None and (len(spec.values) != 1 or len(spec.scenarios) != 1):
        raise ValueError("tracing needs a single grid point (one value, one scenario)")
    if trace is not None and jobs > 1:
        logger.warning("tracing runs serially; ignoring jobs=%d", jobs)
        jobs = 1
    rows: list[ResultRow] = []
    with worker_pool(jobs) as pool:
        for value in spec.values:
            params = _point_params(base_params, spec.swept_parameter, value)
            rows.extend(_rh_rows(spec, params, value, _TAG_SWEEP, pool, trace))
    return rows


def run_compare(spec: SweepSpec, base_params: SystemParams, jobs: int = 1) -> list[ResultRow]:
    """Rate-matched comparison: per rate in ``spec.values``, one classical
    row, then the hopping rows of every scenario and detector of ``spec``.
    Every session runs on one pool of ``jobs`` workers.

    The matched condition gives the classical scheme chips_per_bit times
    the per-chip sample count of the hopping scheme, since its decision
    window is the whole bit duration.
    """
    if spec.swept_parameter != "rate":
        raise ValueError(f"compare sweeps the sampling rate, got {spec.swept_parameter!r}")
    rows: list[ResultRow] = []
    with worker_pool(jobs) as pool:
        for rate in spec.values:
            rh_params = _point_params(base_params, "rate", rate)
            # the classical pair is unbiased and decides once per bit, from
            # all the samples of the bit's chips_per_bit chips
            classical_params = base_params.replace(
                m_l=0.0,
                chips_per_bit=1,
                samples_per_chip=rh_params.chips_per_bit * rh_params.samples_per_chip,
            )
            classical = run_classical_session(
                spec.num_bits,
                classical_params,
                seed=spec.master_seed,
                pool=pool,
                point_key=(_TAG_CLASSICAL, value_key(rate)),
            )
            rows.extend(_session_rows(classical, spec, "classical", rate, "-", classical_params))
            rows.extend(_rh_rows(spec, rh_params, rate, _TAG_RH_COMPARE, pool))
    return rows
