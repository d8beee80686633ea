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
overrides the file.  Exit codes: 0 on success, 1 on usage/config errors,
2 when --strict is set and a configuration fails the separability margin.
"""

from __future__ import annotations

import argparse
import logging
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
from .params import InvalidParamsError, NonSeparableError, SystemParams, check_separability, derive_stats
from .pls import ResistorTolerance, build_report
from .protocol import DETECTOR_CHOICES, ProtocolConfig, run_session, worker_pool
from .sweep import (
    SWEEP_PARAMETERS,
    SweepSpec,
    run_compare,
    run_sweep,
    write_csv,
)

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
        p.add_argument("--bits", type=int, help="main bits per session (default 100000)")
        p.add_argument("--seed", type=int, help="master seed (default 1)")
        p.add_argument("--jobs", type=int, help="parallel workers (default 1)")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--strict", action="store_true", help="exit 2 on non-separable configurations")
    for key in PARAM_KEYS:
        flag = "--" + key.replace("_", "-")
        caster = PARAM_KEYS[key]
        p.add_argument(flag, dest=key, type=caster, default=None, help=f"override {key}")


# scenarios of the hopping rows when neither --scenarios, --scenario nor the
# config's scenario names any
_DEFAULT_SCENARIOS = {"sweep": "good", "compare": "fine_tuned,good"}


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
        help=f"comma list of detectors among {'/'.join(DETECTOR_CHOICES)} (default optimum)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rhkljn", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="derived statistics and separability margin")
    _add_common(p_stats, session=False)

    p_sweep = sub.add_parser("sweep", help="BEP sweep over one parameter")
    _add_common(p_sweep, session=True)
    p_sweep.add_argument("--sweep", required=True, choices=SWEEP_PARAMETERS, help="swept parameter")
    _add_grid(p_sweep, "sweep", "comma list of grid values")
    p_sweep.add_argument("--trace", help="per-chip trace log file (serial execution)")

    p_cmp = sub.add_parser("compare", help="classical vs hopping at matched sampling rates")
    _add_common(p_cmp, session=True)
    _add_grid(p_cmp, "compare", "comma list of sampling rates (samples/s)")
    p_cmp.set_defaults(sweep="rate")

    p_pls = sub.add_parser("pls", help="physical-layer-security report")
    _add_common(p_pls, session=True)
    p_pls.add_argument("--gamma-t", type=float, default=1.0, help="outage margin target")
    p_pls.add_argument("--tolerance", type=float, default=None, help="relative resistor tolerance for the outage Monte Carlo")
    p_pls.add_argument("--trials", type=int, default=10_000, help="outage Monte Carlo draws")
    p_pls.add_argument("--measure", action="store_true", help="run a session for measured xi and Eve accuracy")
    p_pls.add_argument("--csv", help="also write the report as a CSV row to this file")
    return parser


def _load(args) -> tuple[SystemParams, dict[str, object]]:
    file_values: dict[str, object] = {}
    if args.config:
        file_values = parse_config(args.config)
    for key in PARAM_KEYS:
        override = getattr(args, key, None)
        if override is not None:
            file_values[key] = override
    params = build_params(file_values)
    harness = {k: v for k, v in file_values.items() if k in HARNESS_KEYS}
    return params, harness


def _pick(args, harness, key, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return harness.get(key, default)


def _parse_detectors(args, harness) -> tuple[str, ...]:
    raw = args.detectors or harness.get("detectors")
    if not raw:
        return ("optimum",)
    names = tuple(s.strip() for s in str(raw).split(",") if s.strip())
    for n in names:
        if n not in DETECTOR_CHOICES:
            raise ConfigError(f"unknown detector {n!r}; choose from {DETECTOR_CHOICES}")
    return names


def _parse_values(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(s) for s in raw.split(",") if s.strip())
    except ValueError as exc:
        raise ConfigError(f"bad --values list: {raw!r}") from exc


def _check_strict(args, params: SystemParams) -> None:
    if not args.strict:
        return
    report = check_separability(params, derive_stats(params))
    if not report.separable:
        print(f"non-separable configuration: {report}", file=sys.stderr)
        raise SystemExit(EXIT_NOT_SEPARABLE)


def _open_out(args):
    if args.out:
        return open(args.out, "w")
    return sys.stdout


def _cmd_stats(args) -> int:
    params, harness = _load(args)
    scenario = _pick(args, harness, "scenario", None)
    params = apply_scenario(params, scenario)
    stats = derive_stats(params)
    report = check_separability(params, stats)
    out = _open_out(args)
    try:
        rows = [
            ("alpha", params.alpha),
            ("beta", params.beta),
            ("gamma", params.gamma),
            ("m_l", params.m_l),
            ("m_h", stats.m_h),
            ("r_l0", params.r_l0),
            ("r_l1", params.r_l1),
            ("r_h0", params.r_h0),
            ("r_h1", params.r_h1),
            ("noise_var_per_ohm", params.noise_var_per_ohm),
            ("c1", stats.c1),
            ("c2", stats.c2),
            ("c3", stats.c3),
            ("c4", stats.c4),
            ("m1", stats.m1),
            ("m2", stats.m2),
            ("m3", stats.m3),
            ("sigma1", stats.sigma1),
            ("sigma2", stats.sigma2),
            ("sigma3", stats.sigma3),
            ("var1", stats.var1),
            ("var2", stats.var2),
            ("var3", stats.var3),
            ("var4", stats.var4),
            ("k1", stats.k1),
            ("k2", stats.k2),
            ("k3", stats.k3),
            ("k4", stats.k4),
            ("th1", stats.th1),
            ("th2", stats.th2),
            ("th3", stats.th3),
            ("th4", stats.th4),
            ("th3_opt", stats.th3_opt),
            ("th4_opt", stats.th4_opt),
        ]
        width = max(len(name) for name, _ in rows)
        for name, value in rows:
            out.write(f"{name:<{width}}  {value:.9g}\n")
        out.write(f"separability: {report}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    _check_strict(args, params)
    return EXIT_OK


def _cmd_grid(args) -> int:
    """``sweep`` and ``compare``: one spec, a --strict pass over it, then the CSV."""
    params, harness = _load(args)
    scenarios_raw = args.scenarios or _pick(args, harness, "scenario", _DEFAULT_SCENARIOS[args.command])
    spec = SweepSpec(
        swept_parameter=args.sweep,
        values=_parse_values(args.values),
        detectors=_parse_detectors(args, harness),
        scenarios=tuple(s.strip() for s in str(scenarios_raw).split(",") if s.strip()),
        num_bits=int(_pick(args, harness, "bits", 100_000)),
        master_seed=int(_pick(args, harness, "seed", 1)),
    )
    if args.strict:
        # separability never reads samples per chip: an n or rate grid has
        # one point to check per scenario, the base params
        if spec.swept_parameter in ("n", "rate"):
            points = [params]
        else:
            points = (params.replace(**{spec.swept_parameter: v}) for v in spec.values)
        for point in points:
            for scenario in spec.scenarios:
                _check_strict(args, apply_scenario(point, scenario))
    jobs = int(_pick(args, harness, "jobs", 1))
    if args.command == "compare":
        rows = run_compare(spec, params, jobs=jobs)
    elif args.trace:
        with open(args.trace, "w") as trace:
            rows = run_sweep(spec, params, jobs=jobs, trace=trace)
    else:
        rows = run_sweep(spec, params, jobs=jobs)
    out = _open_out(args)
    try:
        write_csv(rows, out)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def _cmd_pls(args) -> int:
    params, harness = _load(args)
    scenario = _pick(args, harness, "scenario", None)
    params = apply_scenario(params, scenario)
    stats = derive_stats(params)
    _check_strict(args, params)

    measured_xi = None
    measured_eve = None
    if args.measure:
        with worker_pool(int(_pick(args, harness, "jobs", 1))) as pool:
            tally = run_session(
                int(_pick(args, harness, "bits", 100_000)),
                ProtocolConfig(params, stats),
                seed=int(_pick(args, harness, "seed", 1)),
                pool=pool,
            )["optimum"]
        measured_xi = tally.discard_fraction
        measured_eve = tally.eve_correct_fraction

    perturbation = ResistorTolerance(args.tolerance) if args.tolerance else None
    report = build_report(
        params,
        stats,
        gamma_t=args.gamma_t,
        xi=measured_xi,
        perturbation=perturbation,
        trials=args.trials,
        seed=int(_pick(args, harness, "seed", 1)),
    )
    out = _open_out(args)
    try:
        out.write(report.as_text() + "\n")
        if measured_xi is not None:
            out.write(f"measured_xi={measured_xi:.9g}\n")
            out.write(f"measured_eve_accuracy={measured_eve:.9g}\n")
    finally:
        if out is not sys.stdout:
            out.close()
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, InvalidParamsError, NonSeparableError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
