"""Command-line front end.

Subcommands:

* ``stats``    -- print every derived statistic plus the separability margin.
* ``sweep``    -- BEP versus one parameter (n, beta, alpha, gamma, rate) as CSV.
* ``compare``  -- rate-matched classical-versus-hopping comparison as CSV.
* ``pls``      -- the physical-layer-security report (text, optional CSV row).

``sweep`` and ``compare`` share one handler: both build one
:class:`~rhkljn.sweep.SweepSpec` (compare's swept parameter is ``rate``)
and take the hopping rows' scenarios from --scenarios, else --scenario or
the config's ``scenario``, else the command's default (``good`` for sweep,
``fine_tuned,good`` for compare).  Only the commands that run sessions
(sweep, compare, pls) take --bits, --seed and --jobs; --jobs sizes the one
worker pool that all the sessions of a command share.

Parameters come from an optional flat key=value config file; any flag
overrides the file.  An --out, --csv or --trace path that cannot be
written fails before any work.  Exit codes: 0 on success, 1 on
usage/config errors, 2 when --strict is set and a configuration fails the
separability margin.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import os
import shutil
import sys

from .config import (
    HARNESS_KEYS,
    PARAM_KEYS,
    SCENARIOS,
    ConfigError,
    apply_scenario,
    build_params,
    parse_config,
)
from .params import (
    InvalidParamsError,
    NonSeparableError,
    SystemParams,
    check_nyquist,
    check_separability,
    derive_stats,
)
from .pls import DEFAULT_TRIALS, ResistorTolerance, build_report
from .protocol import DETECTOR_CHOICES, fan_out, merge_tallies, run_session
from .sweep import (
    SWEEP_PARAMETERS,
    SweepSpec,
    run_compare,
    run_sweep,
    write_csv,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_SEPARABLE = 2


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage-error exit code (1, not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(p: argparse.ArgumentParser, session: bool) -> None:
    """Flags every command takes; ``session`` adds those of commands that run sessions."""
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--scenario", choices=SCENARIOS, help="named bias scenario")
    if session:
        p.add_argument("--bits", type=int, help=f"main bits per session (default {HARNESS_KEYS['bits'][1]})")
        p.add_argument("--seed", type=int, help=f"master seed (default {HARNESS_KEYS['seed'][1]})")
        p.add_argument("--jobs", type=int, help=f"parallel workers (default {HARNESS_KEYS['jobs'][1]})")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--strict", action="store_true", help="exit 2 on non-separable configurations")
    for key, caster in PARAM_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=caster, help=f"override {key}")


# the substream tag of the session of ``pls --measure``, beside the sweep's
# tags: its chunk i draws from key (tag, i), which neither a grid session
# nor the outage trials (``pls.sop``, key (0xE0,)) draw from
_TAG_PLS_MEASURE = 0x54

# scenarios of the hopping rows when neither --scenarios, --scenario nor the
# config's scenario names any
_DEFAULT_SCENARIOS = {"sweep": "good", "compare": "fine_tuned,good"}

# harness keys that stats never reads: it runs no session
_STATS_UNREAD = dict.fromkeys(("detectors", "bits", "seed", "jobs"), "is not read: stats runs no session")

# the rows of ``stats``: parameters, then derived statistics, in print order
_STATS_PARAMS = ("alpha", "beta", "gamma", "m_l", "m_h", "r_l0", "r_l1", "r_h0", "r_h1", "noise_var_per_ohm")
_STATS_DERIVED = (
    "c1", "c2", "c3", "c4", "m1", "m2", "m3", "sigma1", "sigma2", "sigma3", "var1", "var2", "var3", "var4",
    "k1", "k2", "k3", "k4", "th1", "th2", "th3", "th4", "th3_opt", "th4_opt",
)


def _add_grid(p: argparse.ArgumentParser, command: str, values_help: str) -> None:
    p.add_argument("--values", required=True, help=values_help)
    p.add_argument(
        "--scenarios",
        default=None,
        help=f"comma list of scenarios (overrides --scenario; default {_DEFAULT_SCENARIOS[command]})",
    )
    p.add_argument(
        "--detectors",
        default=None,
        help=f"comma list of detectors among {'/'.join(DETECTOR_CHOICES)} (default {HARNESS_KEYS['detectors'][1]})",
    )


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``rhkljn`` parser; with ``command``, only that subcommand gets flags.

    A run parses its argv once, and add_argument is the costly part of a
    build, so ``main`` gives flags to the invoked command alone.  All four
    subcommands stay registered, so the top-level help and an invalid
    choice read as with ``command=None``, which builds every flag.
    """
    # Python 3.11's add_argument builds a formatter per call, and each
    # formatter without a width queries the terminal: query it once
    width = shutil.get_terminal_size().columns - 2
    parser = _Parser(
        prog="rhkljn",
        description=__doc__,
        formatter_class=functools.partial(argparse.RawDescriptionHelpFormatter, width=width),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    p_stats = sub.add_parser("stats", help="derived statistics and separability margin", formatter_class=formatter)
    p_sweep = sub.add_parser("sweep", help="BEP sweep over one parameter", formatter_class=formatter)
    p_cmp = sub.add_parser("compare", help="classical vs hopping at matched sampling rates", formatter_class=formatter)
    p_pls = sub.add_parser("pls", help="physical-layer-security report", formatter_class=formatter)

    if command in (None, "stats"):
        _add_common(p_stats, session=False)

    if command in (None, "sweep"):
        _add_common(p_sweep, session=True)
        p_sweep.add_argument("--sweep", required=True, choices=SWEEP_PARAMETERS, help="swept parameter")
        _add_grid(p_sweep, "sweep", "comma list of grid values")
        p_sweep.add_argument("--trace", help="per-chip trace log file (serial execution)")

    if command in (None, "compare"):
        _add_common(p_cmp, session=True)
        _add_grid(p_cmp, "compare", "comma list of sampling rates (samples/s)")
        p_cmp.set_defaults(sweep="rate")

    if command in (None, "pls"):
        _add_common(p_pls, session=True)
        p_pls.add_argument("--gamma-t", type=float, default=1.0, help="outage margin target")
        p_pls.add_argument("--tolerance", type=float, default=None, help="relative resistor tolerance for the outage Monte Carlo")
        p_pls.add_argument("--trials", type=int, default=None, help="outage Monte Carlo draws")
        p_pls.add_argument("--measure", action="store_true", help="run a session for measured xi and Eve accuracy")
        p_pls.add_argument("--csv", help="also write the report as a CSV row to this file")
    return parser


def _settings(args, unread: dict[str, str]) -> tuple[SystemParams, dict[str, object]]:
    """The run's parameters and its harness settings, flags laid over the config.

    ``unread`` maps each harness key that this run does not read to the
    reason; a flag or config key that sets one fails rather than being
    ignored.  Unset harness keys take their ``HARNESS_KEYS`` defaults.
    """
    for key, why in unread.items():
        if getattr(args, key, None) is not None:
            raise ConfigError(f"--{key} {why}")
    values = parse_config(args.config) if args.config else {}
    for key, why in unread.items():
        if key in values:
            raise ConfigError(f"config key {key} in {args.config} {why}")
    for key in (*PARAM_KEYS, *HARNESS_KEYS):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    harness = {key: values.get(key, default) for key, (_, default) in HARNESS_KEYS.items()}
    # checked here, before any output file is opened: numpy would reject
    # a negative seed only once the first session draws
    if harness["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {harness['seed']}")
    return build_params(values), harness


def _names(raw: str, name: str) -> tuple[str, ...]:
    """The items of the comma list ``name``; a list of blanks is empty,
    and a blank item beside others fails."""
    items = tuple(s.strip() for s in raw.split(","))
    if not any(items):
        return ()
    if not all(items):
        raise ConfigError(f"{name} list {raw!r} has a blank item")
    return items


def _parse_values(raw: str) -> tuple[float, ...]:
    items = _names(raw, "values")
    try:
        return tuple(float(s) for s in items)
    except ValueError as exc:
        raise ConfigError(f"bad --values list: {raw!r}") from exc


def _check_strict(report, point: str = "") -> None:
    """Exit 2 when ``report`` fails the margin; ``point`` prefixes the message."""
    if not report.separable:
        print(f"{point}non-separable configuration: {report}", file=sys.stderr)
        raise SystemExit(EXIT_NOT_SEPARABLE)


def _check_grid_strict(spec: SweepSpec, sessions) -> None:
    """--strict over a built grid, the ``check`` of
    :func:`rhkljn.sweep.run_sweep`: exit 2 at the first hopping session
    whose separability report, made at grid setup, fails the margin."""
    for session in sessions:
        if session.separability is not None:
            _check_strict(session.separability, f"{spec.swept_parameter}={session.value:g} {session.scenario}: ")


def _check_outputs(args) -> None:
    """Fail before any work if an output cannot be written, or if it names
    the config file or the file of another output.

    Opens nothing, so an existing file keeps its bytes until it is written.
    """
    named = {os.path.realpath(args.config): "config"} if args.config else {}
    for flag in ("out", "csv", "trace"):
        path = getattr(args, flag, None)
        if not path:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(parent):
            raise OSError(f"cannot write {path}: no directory {parent}")
        if not os.access(path if os.path.exists(path) else parent, os.W_OK):
            raise OSError(f"cannot write {path}: permission denied")
        real = os.path.realpath(path)
        if real in named:
            raise ConfigError(f"--{named[real]} and --{flag} name one file: {path}")
        named[real] = flag


@contextlib.contextmanager
def _output(path: str | None):
    """The file at ``path``, opened for writing and closed on exit; stdout without one."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as fh:
        yield fh


def _derive_logged(params: SystemParams):
    """``derive_stats(params)``, its fallback note logged as the run's own line."""
    stats = derive_stats(params)
    if stats.note:
        logger.warning("%s", stats.note)
    return stats


def _cmd_stats(args) -> int:
    params, harness = _settings(args, _STATS_UNREAD)
    params = apply_scenario(params, harness["scenario"])
    stats = _derive_logged(params)
    report = check_separability(params, stats)
    with _output(args.out) as out:
        rows = [(name, getattr(params, name)) for name in _STATS_PARAMS]
        rows += [(name, getattr(stats, name)) for name in _STATS_DERIVED]
        width = max(len(name) for name, _ in rows)
        for name, value in rows:
            out.write(f"{name:<{width}}  {value:.9g}\n")
        out.write(f"separability: {report}\n")
    if args.strict:
        _check_strict(report)
    return EXIT_OK


def _cmd_grid(args) -> int:
    """``sweep`` and ``compare``: one spec, its grid built, a --strict pass
    over the grid's sessions, then the CSV."""
    params, harness = _settings(args, {})
    scenarios = harness["scenario"] if args.scenarios is None else args.scenarios
    spec = SweepSpec(
        swept_parameter=args.sweep,
        values=_parse_values(args.values),
        detectors=_names(harness["detectors"], "detectors"),
        scenarios=_names(_DEFAULT_SCENARIOS[args.command] if scenarios is None else scenarios, "scenarios"),
        num_bits=harness["bits"],
        master_seed=harness["seed"],
    )
    check = _check_grid_strict if args.strict else None
    if args.command == "compare":
        rows = run_compare(spec, params, jobs=harness["jobs"], check=check)
    else:
        rows = run_sweep(spec, params, jobs=harness["jobs"], trace=args.trace, check=check)
    with _output(args.out) as out:
        write_csv(rows, out)
    return EXIT_OK


def _measure_share(num_bits: int, params: SystemParams, stats, seed: int, share):
    """``share`` of the session of ``pls --measure``, for :func:`fan_out`."""
    return run_session(num_bits, params, stats, seed=seed, share=share, point_key=(_TAG_PLS_MEASURE,))


def _cmd_pls(args) -> int:
    # without a jitter model the outage is exact and no trial is drawn
    if args.trials is not None and not args.tolerance:
        raise ConfigError("--trials needs a nonzero --tolerance: without one the outage runs no trials")
    # the report reads the optimum detector only; only the session of
    # --measure reads bits and jobs, and the seed feeds only the session and
    # the outage trials
    unread = {"detectors": "is not read: pls reports the optimum detector only"}
    if not args.measure:
        unread["bits"] = unread["jobs"] = "needs --measure: without it pls runs no session"
        if not args.tolerance:
            unread["seed"] = "needs --measure or a nonzero --tolerance: without either pls draws nothing"
    params, harness = _settings(args, unread)
    params = apply_scenario(params, harness["scenario"])
    stats = _derive_logged(params)
    if args.strict:
        _check_strict(check_separability(params, stats))

    measured_xi = None
    measured_eve = None
    if args.measure:
        check_nyquist(params)
        measure = functools.partial(_measure_share, harness["bits"], params, stats, harness["seed"])
        tally = merge_tallies(fan_out(measure, harness["jobs"], harness["bits"]))["optimum"]
        measured_xi = tally.discard_fraction
        measured_eve = tally.eve_correct_fraction

    perturbation = ResistorTolerance(args.tolerance) if args.tolerance else None
    report = build_report(
        params,
        stats,
        gamma_t=args.gamma_t,
        xi=measured_xi,
        perturbation=perturbation,
        trials=DEFAULT_TRIALS if args.trials is None else args.trials,
        seed=harness["seed"],
    )
    with _output(args.out) as out:
        out.write(report.as_text() + "\n")
        if measured_xi is not None:
            out.write(f"measured_xi={measured_xi:.9g}\n")
            out.write(f"measured_eve_accuracy={measured_eve:.9g}\n")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.csv_header() + "\n")
            fh.write(report.as_csv_row() + "\n")
    return EXIT_OK


_COMMANDS = {
    "stats": _cmd_stats,
    "sweep": _cmd_grid,
    "compare": _cmd_grid,
    "pls": _cmd_pls,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        _check_outputs(args)
        return _COMMANDS[args.command](args)
    except (ConfigError, InvalidParamsError, NonSeparableError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
