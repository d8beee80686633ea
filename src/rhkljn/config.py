"""Flat key=value configuration files and the named bias scenarios.

A config file holds one ``key=value`` pair per line; ``#`` starts a
comment and blank lines are ignored.  Each key names one setting and may
appear once: :data:`PARAM_KEYS` are the :class:`SystemParams` fields and
:data:`HARNESS_KEYS` the run settings (detectors, scenario, bits, seed,
jobs) with their defaults.  The CLI lays its flags over the file and fails
on a key that the invoked command does not read.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .params import SystemParams, fine_tuned_bias


class ConfigError(ValueError):
    """A config file line failed to parse; message carries the line number."""


SCENARIOS = ("good", "moderate", "fine_tuned")

_SCENARIO_BIAS = {"good": 1e-4, "moderate": 9.5e-5}

# one key per SystemParams field, in field order, typed as its default
PARAM_KEYS: dict[str, type] = {f.name: type(f.default) for f in fields(SystemParams)}

# key -> (type, default); a scenario of None keeps the configured bias
HARNESS_KEYS: dict[str, tuple[type, object]] = {
    "detectors": (str, "optimum"),
    "scenario": (str, None),
    "bits": (int, 100_000),
    "seed": (int, 1),
    "jobs": (int, 1),
}

_KEY_TYPES = {**PARAM_KEYS, **{key: kind for key, (kind, _) in HARNESS_KEYS.items()}}


def parse_config(path) -> dict[str, object]:
    """Parse a config file into typed values; an unknown, repeated or bad
    key raises :class:`ConfigError` with the offending line number."""
    values: dict[str, object] = {}
    linenos: dict[str, int] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in linenos:
            raise ConfigError(f"{path}:{lineno}: key {key} is already set on line {linenos[key]}")
        linenos[key] = lineno
        try:
            values[key] = _KEY_TYPES[key](value)
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
