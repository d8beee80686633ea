"""Resistor-hopping KLJN noise-communication simulator.

The library is organized around the protocol pipeline:

* :mod:`rhkljn.params`    -- parameters and every closed-form statistic
* :mod:`rhkljn.channel`   -- common-voltage sampling for one chip
* :mod:`rhkljn.detectors` -- gate, ML and threshold detectors
* :mod:`rhkljn.protocol`  -- exchange protocol, session engine, eavesdropper
* :mod:`rhkljn.pls`       -- physical-layer-security metrics
* :mod:`rhkljn.sweep`     -- experiment grids and CSV emission
* :mod:`rhkljn.cli`       -- the ``rhkljn`` command
"""

from .channel import (
    ChipSamples,
    ChipState,
    chip_distribution,
    classical_kljn_variance,
    divider_weights,
    dump_chip_samples,
    load_chip_samples,
    sample_chip,
    sample_classical_chip,
)
from .detectors import (
    GaussianHypothesis,
    ThresholdSet,
    gate,
    ml_detect_batch,
    min_error_threshold,
    pe1,
    pe2,
    q_function,
    stationarity_residual,
    threshold_detect,
)
from .params import (
    BOLTZMANN_K,
    DerivedStats,
    InvalidParamsError,
    MixtureComponent,
    NonSeparableError,
    SeparabilityReport,
    SystemParams,
    check_separability,
    chip_moments,
    derive_coefficients,
    derive_stats,
    drif,
    fine_tuned_bias,
    separability_coefficients,
)
from .pls import (
    PlsReport,
    ResistorTolerance,
    build_report,
    delta_m,
    effective_secrecy_rate,
    empirical_eve_confusion,
    rho,
    secrecy_capacity,
    secrecy_rate,
    sigma_max,
    sop,
)
from .protocol import (
    DetectorTally,
    EveObservation,
    ProtocolConfig,
    eve_observe,
    ideal_discard_fraction,
    run_classical_session,
    run_session,
    worker_pool,
)
from .rng import substream, value_key
from .sweep import ResultRow, SweepSpec, binomial_ci95, run_compare, run_sweep, write_csv

__version__ = "0.1.0"
