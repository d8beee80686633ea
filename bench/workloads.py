"""The four benchmark workloads: one README figure command each.

Every workload is a command line of the public ``rhkljn`` entry point.  The
workload seed is passed to the program as ``--seed``; nothing else about a
run depends on it.  Sizes are chosen so that one run of a workload takes
about 0.3 s on a 2-core box, which gives 50 or more timed repeats inside
one benchmark run.
"""

from __future__ import annotations

from dataclasses import dataclass

N_VALUES = (3, 5, 10, 20, 40)
BETA_VALUES = (3.4, 3.55, 3.7, 3.85, 4.0)
RATE_VALUES = (2e4, 3e4, 5e4, 1e5, 2e5)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple[str, ...]
    bits: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig_n",
            why="BEP-vs-samples figure; sample drawing and ML detection dominate, so it shows sampling and detector work",
            argv=(
                "sweep", "--sweep", "n", "--values", ",".join(map(str, N_VALUES)),
                "--detectors", "ml,simple,optimum", "--scenarios", "good",
            ),
            bits=4_000,
        ),
        Workload(
            name="fig_beta_jobs2",
            why="beta sweep at n=3 on two workers; little work per chip, so pool start, chunk dispatch and substreams dominate",
            argv=(
                "sweep", "--sweep", "beta", "--values", ",".join(map(str, BETA_VALUES)),
                "--samples-per-chip", "3", "--detectors", "optimum", "--jobs", "2",
            ),
            bits=20_000,
        ),
        Workload(
            name="compare",
            why="rate-matched classical vs hopping comparison; the only workload that runs the classical engine",
            argv=(
                "compare", "--values", ",".join(f"{r:g}" for r in RATE_VALUES),
                "--scenarios", "fine_tuned,good", "--detectors", "optimum",
            ),
            bits=4_000,
        ),
        Workload(
            name="pls_outage",
            why="outage Monte Carlo with SOP near 0.5; the only workload where the per-trial loop of pls.sop dominates",
            argv=("pls", "--measure", "--tolerance", "0.01", "--trials", "30000", "--scenario", "good"),
            bits=2_000,
        ),
    )
}


def nominal_margin() -> float:
    """Delta_m / (2 sigma_max) at the ``good`` scenario: the outage target that puts SOP near 0.5."""
    from rhkljn.config import apply_scenario
    from rhkljn.params import SystemParams, derive_stats
    from rhkljn.pls import delta_m, sigma_max

    stats = derive_stats(apply_scenario(SystemParams(), "good"))
    return delta_m(stats) / (2.0 * sigma_max(stats))


def program_argv(name: str, seed: int, bits: int | None = None) -> list[str]:
    """The full command line of workload ``name`` for ``seed`` (``bits`` overrides its size)."""
    w = WORKLOADS[name]
    argv = list(w.argv) + ["--bits", str(bits or w.bits), "--seed", str(seed)]
    if name == "pls_outage":
        argv += ["--gamma-t", repr(nominal_margin())]
    return argv


def with_jobs(argv: list[str], jobs: int) -> list[str]:
    """``argv`` with its ``--jobs`` value replaced (or added)."""
    out = list(argv)
    if "--jobs" in out:
        out[out.index("--jobs") + 1] = str(jobs)
    else:
        out += ["--jobs", str(jobs)]
    return out
