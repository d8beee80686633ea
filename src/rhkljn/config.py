"""Flat key=value configuration files and the named bias scenarios.

A config file holds one ``key=value`` pair per line; ``#`` starts a
comment and blank lines are ignored.  Keys cover the system parameters
plus the harness settings (detectors, scenario, bits, seed, jobs).
Command-line flags override file values.
"""

from __future__ import annotations

from pathlib import Path

from .params import SystemParams, fine_tuned_bias


class ConfigError(ValueError):
    """A config file line failed to parse; message carries the line number."""


SCENARIOS = ("good", "moderate", "fine_tuned")

_SCENARIO_BIAS = {"good": 1e-4, "moderate": 9.5e-5}

PARAM_KEYS: dict[str, type] = {
    "temperature": float,
    "bandwidth": float,
    "r_l0": float,
    "alpha": float,
    "beta": float,
    "gamma": float,
    "m_l": float,
    "bit_duration": float,
    "chips_per_bit": int,
    "samples_per_chip": int,
    "boltzmann_k": float,
}

HARNESS_KEYS: dict[str, type] = {
    "detectors": str,
    "scenario": str,
    "bits": int,
    "seed": int,
    "jobs": int,
}


def parse_config(path) -> dict[str, object]:
    """Parse a config file into typed values; unknown keys and bad values
    raise :class:`ConfigError` with the offending line number."""
    values: dict[str, object] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        caster = PARAM_KEYS.get(key) or HARNESS_KEYS.get(key)
        if caster is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = caster(value) if caster is not str else value
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def build_params(values: dict[str, object]) -> SystemParams:
    """SystemParams from the parameter subset of a parsed config."""
    kwargs = {k: v for k, v in values.items() if k in PARAM_KEYS}
    return SystemParams(**kwargs)


def apply_scenario(params: SystemParams, scenario: str | None) -> SystemParams:
    """Set the bias for a named scenario; ``None`` keeps the configured bias.

    ``good`` and ``moderate`` pin m_l to their reference values; the
    fine-tuned scenario places the bias ten times above the separability
    bound of the current resistor ratios.
    """
    if scenario is None:
        return params
    if scenario == "fine_tuned":
        return params.replace(m_l=fine_tuned_bias(params))
    try:
        return params.replace(m_l=_SCENARIO_BIAS[scenario])
    except KeyError:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}") from None
