"""Per-layer microbenchmarks of the session engine and the outage Monte Carlo.

Run from the root of a checkout (outside the test paths, so a plain
``pytest`` does not collect them)::

    pytest benchmarks --benchmark-only

Each case times one layer on fixed inputs: the draw (``_rh_chunk_arrays``)
and the tally (``_tally_chunk``) of one 1024-bit chunk of 10 chips at
n = 3, 10 and 20, ``good``, with ``optimum`` alone, ``ml`` alone and all
three detectors (at n = 3 every chip draws its sample mean; at n = 10 the
chips of 8 of the 16 states, at n = 20 of 3, the others being certain);
the draw at ``fine_tuned``, n = 3, where no chip draws one; the tally with ``ml`` alone at a bias where about 1,000 chips
a chunk fall in the shells of ML's center band outside its core, the
chips it labels with ``detectors.detect_moments``, at n = 3 and 10 (at
``good`` almost none do); one
classical chunk (``_classical_chunk``); a session's set-up, ``derive_stats``
and the chunk plan (``_ChunkSpec``) of one hopping point, and the plan of
one classical point; ``derive_stats`` alone on that hopping point (its
state table, separability coefficients and thresholds); ``pls.sop`` at
30,000 trials,
and the bank draw and the divider of one of its blocks
(``ResistorTolerance.draw`` of ``pls._SOP_BLOCK`` banks, and
``chip_moments`` over them); and the front end of ``cli.main`` on each
benchmark workload's command line (``build_parser`` of its command and
the parse).
The chunk is built from its session's plan as a session builds it, so the
plan's one-time work stays out of the timing.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import argparse  # noqa: E402

import numpy as np  # noqa: E402

from rhkljn import cli, pls, protocol  # noqa: E402
from rhkljn.config import apply_scenario  # noqa: E402
from rhkljn.params import SystemParams, chip_moments, derive_stats  # noqa: E402
from rhkljn.pls import ResistorTolerance, delta_m, sigma_max, sop  # noqa: E402
from rhkljn.rng import substream  # noqa: E402

CHUNK_BITS = protocol.DEFAULT_CHUNK_BITS
DETECTOR_SETS = {"optimum": ("optimum",), "ml": ("ml",), "all": protocol.DETECTOR_CHOICES}
# the m_l at which about 1,000 chips of a chunk fall in ML's band shells
SHELL_M_L = {3: 6e-5, 10: 3.5e-5}


def chunk_spec(n: int, detectors: tuple[str, ...], params: SystemParams | None = None) -> protocol._ChunkSpec:
    """Chunk 0 of a session at samples per chip ``n``, ``good`` scenario
    unless ``params`` are given."""
    params = params or apply_scenario(SystemParams(samples_per_chip=n), "good")
    plan = protocol._ChunkSpec(params, derive_stats(params), detectors, CHUNK_BITS, 1, (0x51,))
    return plan.chunk(CHUNK_BITS, plan.key + (0,))


@pytest.mark.parametrize("detectors", sorted(DETECTOR_SETS))
@pytest.mark.parametrize("n", [3, 10, 20])
def test_chunk_draw(benchmark, n, detectors):
    spec = chunk_spec(n, DETECTOR_SETS[detectors])
    state, *_ = benchmark(protocol._rh_chunk_arrays, spec)
    assert state.shape == (CHUNK_BITS, spec.params.chips_per_bit)


def test_chunk_draw_fine_tuned(benchmark):
    # compare's fine-tuned rows: every state is certain, so no chip draws a normal
    spec = chunk_spec(3, ("optimum",), apply_scenario(SystemParams(samples_per_chip=3), "fine_tuned"))
    state, *_ = benchmark(protocol._rh_chunk_arrays, spec)
    assert not spec.need.any() and state.shape == (CHUNK_BITS, spec.params.chips_per_bit)


@pytest.mark.parametrize("detectors", sorted(DETECTOR_SETS))
@pytest.mark.parametrize("n", [3, 10, 20])
def test_chunk_tally(benchmark, n, detectors):
    spec = chunk_spec(n, DETECTOR_SETS[detectors])
    arrays = protocol._rh_chunk_arrays(spec)
    tallies, _ = benchmark(protocol._tally_chunk, spec, *arrays)
    assert list(tallies) == list(spec.detectors)


@pytest.mark.parametrize("n", [3, 10])
def test_ml_shell_tally(benchmark, n):
    # the tally that labels ML's shell chips, on a chunk whose shells hold them
    spec = chunk_spec(n, ("ml",), SystemParams(samples_per_chip=n, m_l=SHELL_M_L[n]))
    arrays = protocol._rh_chunk_arrays(spec)
    tallies, _ = benchmark(protocol._tally_chunk, spec, *arrays)
    assert list(tallies) == ["ml"] and arrays[5].size > 500


def test_classical_chunk(benchmark):
    # compare's classical row at 5e4 samples/s: 10 chips of 5 samples in one decision
    params = SystemParams(m_l=0.0, chips_per_bit=1, samples_per_chip=50)
    plan = protocol._ChunkSpec(params, None, ("classical",), CHUNK_BITS, 1, (0x53,))
    tally = benchmark(protocol._classical_chunk, plan.chunk(CHUNK_BITS, plan.key + (0,)))["classical"]
    assert tally.total_chips == CHUNK_BITS


# fig_n's hopping point at n = 10 and compare's classical row at 5e4 samples/s
SETUP_PARAMS = {
    "hopping": apply_scenario(SystemParams(samples_per_chip=10), "good"),
    "classical": SystemParams(m_l=0.0, chips_per_bit=1, samples_per_chip=50),
}


@pytest.mark.parametrize("kind", sorted(SETUP_PARAMS))
def test_session_setup(benchmark, kind):
    params = SETUP_PARAMS[kind]

    def setup():
        if kind == "classical":
            return protocol._ChunkSpec(params, None, ("classical",), CHUNK_BITS, 1, (0x53,))
        return protocol._ChunkSpec(params, derive_stats(params), protocol.DETECTOR_CHOICES, CHUNK_BITS, 1, (0x51,))

    plan = benchmark(setup)
    assert plan.table[0].shape == (16,)


def test_derive_stats(benchmark):
    stats = benchmark(derive_stats, SETUP_PARAMS["hopping"])
    assert stats.note is None and stats.m2 < stats.th3_opt < stats.m1 < stats.th4_opt < stats.m3


def test_sop(benchmark):
    # the pls_outage setting: 1 % tolerance, the target at the nominal margin, so SOP is near 0.5
    params = apply_scenario(SystemParams(), "good")
    stats = derive_stats(params)
    gamma_t = delta_m(stats) / (2.0 * sigma_max(stats))
    outage = benchmark(sop, stats, gamma_t, ResistorTolerance(0.01), 30_000, params, 1)
    assert 0.0 < outage < 1.0


def test_sop_bank_draw(benchmark):
    # the jittered banks of one outage block, drawn from the outage's stream
    params = apply_scenario(SystemParams(), "good")
    rng = substream(1, (0xE0,))
    banks = benchmark(ResistorTolerance(0.01).draw, params, rng, pls._SOP_BLOCK)
    assert banks.shape == (pls._SOP_BLOCK, 2, 2)


def test_sop_block_divider(benchmark):
    # the three middle Gaussians of one outage block: one chip_moments call on its banks
    params = apply_scenario(SystemParams(), "good")
    banks = ResistorTolerance(0.01).draw(params, substream(1, (0xE0,)), pls._SOP_BLOCK)
    s_a, s_b = np.array([0, 0, 1]), np.array([0, 1, 0])
    means, variances = benchmark(chip_moments, params, 0, 1, s_a, s_b, banks)
    assert means.shape == variances.shape == (pls._SOP_BLOCK, 3)


# the command lines of the benchmark's four workloads at seed 1, as bench/workloads.py builds them
WORKLOAD_ARGVS = {
    "fig_n": [
        "sweep", "--sweep", "n", "--values", "3,5,10,20,40", "--detectors", "ml,simple,optimum",
        "--scenarios", "good", "--bits", "4000", "--seed", "1",
    ],
    "fig_beta_jobs2": [
        "sweep", "--sweep", "beta", "--values", "3.4,3.55,3.7,3.85,4.0", "--samples-per-chip", "3",
        "--detectors", "optimum", "--jobs", "2", "--bits", "20000", "--seed", "1",
    ],
    "compare": [
        "compare", "--values", "20000,30000,50000,100000,200000", "--scenarios", "fine_tuned,good",
        "--detectors", "optimum", "--bits", "4000", "--seed", "1",
    ],
    "pls_outage": [
        "pls", "--measure", "--tolerance", "0.01", "--trials", "30000", "--scenario", "good",
        "--bits", "2000", "--seed", "1", "--gamma-t", "3.338324892327031",
    ],
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_ARGVS))
def test_cli_front_end(benchmark, workload):
    # what cli.main does before its handler: build the command's parser and parse the rest
    argv = WORKLOAD_ARGVS[workload]

    def parse():
        return cli.build_parser(argv[0]).parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))

    args, extra = benchmark(parse)
    assert (args.command, extra) == (argv[0], [])
