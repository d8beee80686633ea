"""Closed-form checks of every output row, independent of the Monte Carlo engine.

Each row of a ``sweep``/``compare`` CSV and the ``pls`` report is checked
against the experiment the workload asked for:

* invariants: the row exists, its parameters are the grid point's,
  ``errors <= kept_units <= total_units = bits * chips``, and the derived
  columns (bep, discard fraction, CI, drif) agree with the counts;
* ``simple``/``optimum`` rows: kept and error counts against closed forms
  over the 16 entries of ``derive_stats(p).mixture_tables``, with the chip
  sample mean m_hat ~ N(mean, var/n), the gate th1/th2 and the row's middle
  thresholds;
* classical rows: the same counts with the mean of squares
  var * chi2(n) / n and the trisection midpoints;
* every row: Eve's accuracy within a binomial bound of 0.5.

Counts are compared by |observed - expected| <= Z_MAX * sd + 1.  The
variance is taken per *bit*: the chips of a bit share the main bits, so a
bit's kept count is a binomial given its main-bit pair, and the spread of
the pair means adds to it.  Treating chips as independent understates the
spread by enough to flag correct code.  The extra count is the lattice
step, which keeps counts whose expectation is ~0 (errors at n >= 10) from
failing on a single event.

Import after putting the checkout's ``src`` and this directory on ``sys.path``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats as sps

from rhkljn.config import apply_scenario
from rhkljn.params import SystemParams, derive_stats
from rhkljn.sweep import CSV_COLUMNS
from workloads import BETA_VALUES, N_VALUES, RATE_VALUES

Z_MAX = 5.0
REL_TOL = 2e-8  # columns are written with 9 significant digits
SOP_REFERENCE_TRIALS = 400_000


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    reason: str = ""


@dataclass(frozen=True)
class Moments:
    """Mean and variance of a count summed over independent bits."""

    mean: float
    var: float

    def admits(self, observed: float) -> bool:
        return abs(observed - self.mean) <= Z_MAX * math.sqrt(max(self.var, 0.0)) + 1.0


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + 1e-300


def _norm_cdf(x: float) -> float:
    return float(special.ndtr(x))


def _per_bit(p_by_main: list[float], chips: int, bits: int) -> Moments:
    """Count over ``bits`` bits of ``chips`` chips each, given the per-chip
    probability for each of the four equally likely main-bit pairs."""
    means = [chips * p for p in p_by_main]
    within = sum(chips * p * (1.0 - p) for p in p_by_main) / len(p_by_main)
    between = float(np.var(means))
    return Moments(mean=bits * float(np.mean(means)), var=bits * (within + between))


def hopping_moments(params, detector: str, bits: int) -> tuple[Moments, Moments]:
    """Kept-chip and sub-bit-error counts of a threshold detector, in closed form."""
    st = derive_stats(params)
    lo, hi = st.thresholds().pair(detector)
    n = params.samples_per_chip
    keep_by_main, err_by_main = [], []
    for entries in st.mixture_tables.values():
        keep = err = 0.0
        for comp in entries:
            sd = math.sqrt(comp.variance / n)

            def mass(a: float, b: float) -> float:
                # P(a < m_hat <= b); an empty interval has no mass
                if b <= a:
                    return 0.0
                return _norm_cdf((b - comp.mean) / sd) - _norm_cdf((a - comp.mean) / sd)

            # kept: inside the gate and outside the centre band (lo, hi]
            p_keep = mass(st.th1, st.th2) - mass(max(lo, st.th1), min(hi, st.th2))
            keep += comp.weight * p_keep
            if comp.sub_bits[0] == comp.sub_bits[1]:
                err += comp.weight * p_keep
        keep_by_main.append(keep)
        err_by_main.append(err)
    chips = params.chips_per_bit
    return _per_bit(keep_by_main, chips, bits), _per_bit(err_by_main, chips, bits)


def classical_moments(params, n: int, bits: int) -> tuple[Moments, Moments]:
    """Kept-bit and error counts of the classical variance trisection, in closed form."""
    a_v, r, alpha = params.noise_var_per_ohm, params.r_l0, params.alpha
    # common-voltage variance of the two parallel resistors per main-bit pair
    var_00 = a_v * r / 2.0
    var_11 = a_v * alpha * r / 2.0
    var_mixed = a_v * alpha * r / (alpha + 1.0)
    lo, hi = 0.5 * (var_00 + var_mixed), 0.5 * (var_mixed + var_11)
    keep_by_main, err_by_main = [], []
    for var, equal_mains in ((var_00, True), (var_mixed, False), (var_mixed, False), (var_11, True)):
        # v_hat = var * chi2(n) / n
        p_keep = float(sps.chi2.cdf(hi * n / var, n) - sps.chi2.cdf(lo * n / var, n))
        keep_by_main.append(p_keep)
        err_by_main.append(p_keep if equal_mains else 0.0)
    return _per_bit(keep_by_main, 1, bits), _per_bit(err_by_main, 1, bits)


def eve_admits(correct: int, kept: int) -> bool:
    """Eve's main-bit guesses on ``kept`` units are within a binomial bound of a fair coin."""
    return Moments(mean=kept / 2.0, var=kept / 4.0).admits(correct)


# ----------------------------------------------------------------------
# expected rows


@dataclass(frozen=True)
class ExpectedRow:
    scheme: str
    swept: str
    value: float
    scenario: str
    detector: str
    params: object  # SystemParams of the grid point


def expected_rows(workload: str) -> list[ExpectedRow]:
    """The rows, in order, that the workload's command must produce."""
    base = SystemParams()
    rows = []
    if workload == "fig_n":
        for n in N_VALUES:
            p = apply_scenario(base.replace(samples_per_chip=n), "good")
            rows += [ExpectedRow("rh", "n", n, "good", d, p) for d in ("ml", "simple", "optimum")]
    elif workload == "fig_beta_jobs2":
        for beta in BETA_VALUES:
            p = apply_scenario(base.replace(samples_per_chip=3, beta=beta), "good")
            rows.append(ExpectedRow("rh", "beta", beta, "good", "optimum", p))
    elif workload == "compare":
        for rate in RATE_VALUES:
            n = int(round(rate * base.chip_duration))
            rows.append(
                ExpectedRow("classical", "rate", rate, "-", "classical", base.replace(samples_per_chip=base.chips_per_bit * n))
            )
            for scenario in ("fine_tuned", "good"):
                p = apply_scenario(base.replace(samples_per_chip=n), scenario)
                rows.append(ExpectedRow("rh", "rate", rate, scenario, "optimum", p))
    else:
        raise ValueError(f"no CSV rows for workload {workload!r}")
    return rows


def check_row(row: dict, exp: ExpectedRow, bits: int, seed: int) -> Check:
    label = f"{exp.scheme}/{exp.swept}={exp.value:g}/{exp.scenario}/{exp.detector}"
    try:
        reasons = _row_problems(row, exp, bits, seed)
    except (KeyError, ValueError) as exc:
        reasons = [f"unreadable row: {exc!r}"]
    return Check(label, not reasons, "; ".join(reasons))


def _row_problems(row: dict, exp: ExpectedRow, bits: int, seed: int) -> list[str]:
    p = exp.params
    classical = exp.scheme == "classical"
    chips = 1 if classical else p.chips_per_bit
    total, kept, errors = int(row["total_units"]), int(row["kept_units"]), int(row["errors"])
    bep, discard, eve = float(row["bep"]), float(row["discard_fraction"]), float(row["eve_accuracy"])
    problems = []

    identity = (row["scheme"], row["swept_parameter"], row["scenario"], row["detector"])
    if identity != (exp.scheme, exp.swept, exp.scenario, exp.detector) or not _close(float(row["value"]), exp.value):
        problems.append(f"row is {identity}/{row['value']}")
    expect_cols = {
        "alpha": p.alpha, "beta": p.beta, "gamma": p.gamma, "m_l": 0.0 if classical else p.m_l,
        "samples": p.samples_per_chip, "chips_per_bit": chips, "num_bits": bits, "seed": seed,
        "drif": 1.0 if classical else p.chips_per_bit / 2.0 + 1.0,
    }
    for col, want in expect_cols.items():
        if not _close(float(row[col]), float(want)):
            problems.append(f"{col}={row[col]} expected {want:.9g}")

    if total != bits * chips:
        problems.append(f"total_units={total} expected {bits * chips}")
    if not 0 <= errors <= kept <= total:
        problems.append(f"counts out of order: errors={errors} kept={kept} total={total}")
    if not _close(bep, errors / kept if kept else 0.0):
        problems.append(f"bep={bep} but errors/kept={errors}/{kept}")
    if not _close(discard, 1.0 - kept / total if total else 0.0):
        problems.append(f"discard_fraction={discard} but kept/total={kept}/{total}")
    if not float(row["bep_ci_lo"]) <= bep <= float(row["bep_ci_hi"]):
        problems.append(f"bep {bep} outside its CI [{row['bep_ci_lo']}, {row['bep_ci_hi']}]")

    eve_correct = round(eve * kept)
    if not (_close(eve, eve_correct / kept) if kept else eve == 0.0) or not eve_admits(eve_correct, kept):
        problems.append(f"eve_accuracy={eve} on {kept} kept units is not a fair coin")

    if classical:
        keep_m, err_m = classical_moments(p, p.samples_per_chip, bits)
    elif exp.detector in ("simple", "optimum"):
        keep_m, err_m = hopping_moments(p, exp.detector, bits)
    else:
        return problems  # ML: no closed form in m_hat alone
    if not keep_m.admits(kept):
        problems.append(f"kept_units={kept}, closed form {keep_m.mean:.1f} +- {math.sqrt(keep_m.var):.1f}")
    if not err_m.admits(errors):
        problems.append(f"errors={errors}, closed form {err_m.mean:.3g} +- {math.sqrt(err_m.var):.3g}")
    return problems


def check_csv(text: str, workload: str, bits: int, seed: int) -> list[Check]:
    """One check per expected row; a missing or extra row is a failed check."""
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != tuple(CSV_COLUMNS):
        return [Check("header", False, f"header is {reader.fieldnames}")]
    got = list(reader)
    expected = expected_rows(workload)
    checks = [check_row(row, exp, bits, seed) for row, exp in zip(got, expected)]
    for exp in expected[len(got):]:
        checks.append(Check(f"{exp.scheme}/{exp.swept}={exp.value:g}/{exp.scenario}/{exp.detector}", False, "row missing"))
    if len(got) > len(expected):
        checks.append(Check("extra rows", False, f"{len(got) - len(expected)} rows beyond the grid"))
    return checks


# ----------------------------------------------------------------------
# pls report


def reference_sop(params, tolerance: float, gamma_t: float, trials: int, seed: int) -> float:
    """Outage fraction from an independent, vectorised draw of the resistor jitter."""
    rng = np.random.default_rng([seed, 0xB0])
    nominal = np.array([params.r_l0, params.r_l1, params.r_h0, params.r_h1])
    r_l0, r_l1, r_h0, r_h1 = (nominal[:, None] * (1.0 + tolerance * rng.uniform(-1.0, 1.0, (4, trials))))
    a_v, m_l, m_h = params.noise_var_per_ohm, params.m_l, params.m_h

    def mean(r_low, r_high):
        return (m_l * r_high + m_h * r_low) / (r_low + r_high)

    # middle components: mixed main bits with (r_l0, r_h0), (r_l0, r_h1), (r_l1, r_h0)
    m1, m2, m3 = mean(r_l0, r_h0), mean(r_l0, r_h1), mean(r_l1, r_h0)
    s2 = np.sqrt(a_v * r_l0 * r_h1 / (r_l0 + r_h1))
    s3 = np.sqrt(a_v * r_l1 * r_h0 / (r_l1 + r_h0))
    margin = np.minimum(np.abs(m1 - m2), np.abs(m1 - m3)) / (2.0 * np.maximum(s2, s3))
    return float(np.mean(margin < gamma_t))


def check_pls(text: str, argv: list[str], seed: int) -> list[Check]:
    """Three checks: the analytic fields, the outage estimate and the measured session."""
    def arg(flag):
        return argv[argv.index(flag) + 1]

    try:
        fields = dict(line.split("=", 1) for line in text.strip().splitlines())
        report = {k: float(v) for k, v in fields.items()}
    except ValueError as exc:
        return [Check("pls report", False, f"unreadable report: {exc!r}")]
    p = apply_scenario(SystemParams(), arg("--scenario"))
    st = derive_stats(p)
    bits, trials = int(arg("--bits")), int(arg("--trials"))
    gamma_t, tolerance = float(arg("--gamma-t")), float(arg("--tolerance"))
    log2m = math.log2(3)

    checks = []
    problems = []
    try:
        gap = min(abs(st.m1 - st.m2), abs(st.m1 - st.m3))
        spread = max(math.sqrt(st.var2), math.sqrt(st.var3))
        rho = 0.5 * math.erfc(gap / (2.0 * spread) / math.sqrt(2.0))
        xi = report["measured_xi"]
        want = {
            "m_distinguishable": 3,
            "secrecy_capacity_bits": log2m,
            "secrecy_rate_bps": 0.5 * log2m / p.bit_duration,
            "delta_m_volts": gap,
            "sigma_max_volts": spread,
            "rho": rho,
            "xi": xi,
            "gamma_t": gamma_t,
            "effective_rate_bps": (1.0 - xi) * (1.0 - rho) * log2m / p.bit_duration,
        }
        problems = [f"{k}={report[k]} expected {v:.9g}" for k, v in want.items() if not _close(report[k], v)]
    except KeyError as exc:
        problems = [f"missing field {exc}"]
    checks.append(Check("pls analytic fields", not problems, "; ".join(problems)))

    try:
        ref = reference_sop(p, tolerance, gamma_t, SOP_REFERENCE_TRIALS, seed)
        sop = report["sop"]
        var = ref * (1.0 - ref) * (1.0 / trials + 1.0 / SOP_REFERENCE_TRIALS)
        ok = abs(sop - ref) <= Z_MAX * math.sqrt(var) + 1.0 / trials
        checks.append(Check("pls sop", ok, "" if ok else f"sop={sop}, independent estimate {ref:.5f}"))
    except KeyError as exc:
        checks.append(Check("pls sop", False, f"missing field {exc}"))

    try:
        total = bits * p.chips_per_bit
        kept = round((1.0 - report["measured_xi"]) * total)
        eve_correct = round(report["measured_eve_accuracy"] * kept)
        keep_m, _ = hopping_moments(p, "optimum", bits)
        problems = []
        if not keep_m.admits(kept):
            problems.append(f"kept={kept}, closed form {keep_m.mean:.1f} +- {math.sqrt(keep_m.var):.1f}")
        if not eve_admits(eve_correct, kept):
            problems.append(f"eve accuracy {report['measured_eve_accuracy']} on {kept} chips")
        checks.append(Check("pls measured session", not problems, "; ".join(problems)))
    except KeyError as exc:
        checks.append(Check("pls measured session", False, f"missing field {exc}"))
    return checks


def check_output(text: str, workload: str, argv: list[str], bits: int, seed: int) -> list[Check]:
    if workload == "pls_outage":
        return check_pls(text, argv, seed)
    return check_csv(text, workload, bits, seed)
