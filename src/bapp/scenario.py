"""Scenario files: flat key = value text mapped onto MissionConfig.

Lines are `key = value`, blank lines and `#` comments are ignored, unknown
or repeated keys are rejected. Named built-in scenarios cover the
desk-scale studies: a 10x10 single-agent proof run, 20x20 team-size
scaling, and the four equal-energy team shapes (team size x horizon = 105).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import os

from .belief import GridDims
from .errors import ParameterError, ScenarioError
from .sim import MissionConfig

__all__ = ["load_scenario", "parse_scenario_text", "builtin_scenarios", "scenario_to_text"]

# scenario key -> the MissionConfig field it sets, in scenario-file order
_FIELDS = {
    # world / mission
    "rows": "dims.rows",
    "cols": "dims.cols",
    "lethality": "lethality",
    "hazard_density": "hazard_density",
    "team_size": "team_size",
    "horizon": "plan.horizon",
    "deployment_budget": "deployment_budget",
    "strategy": "strategy",
    "master_seed": "master_seed",
    "trials": None,  # run_experiment's trial count
    "base_cell": "base_cell",
    # agents
    "disposable_gamma": "disposable.malfunction_rate",
    "disposable_stock": "disposable.stock",
    "highfid_gamma": "high_fidelity.malfunction_rate",
    "highfid_stock": "high_fidelity.stock",
    # planner
    "beam_width": "plan.beam_width",
    "mi_form": "plan.mi_form",
    # bapp-sig
    "sig_alpha_min": "sig.alpha_min",
    "sig_alpha_max": "sig.alpha_max",
    "sig_halfwidth": "sig.sweep_halfwidth",
    "sig_step": "sig.sweep_step",
    # bapp-tid
    "tid_window": "trigger.window",
    "tid_theta_early": "trigger.theta_early",
    "tid_phase_switch": "trigger.phase_switch",
    "tid_eps_min": "trigger.eps_min",
    "tid_eps_max": "trigger.eps_max",
    "tid_decay_rate": "trigger.decay_rate",
    "tid_alpha_explore": "trigger.alpha_explore",
    "tid_alpha_hf": "trigger.alpha_hf",
    # base relocation
    "relocate": "relocate",
    "relocation_cadence": "relocation.cadence",
    "explore_radius": "relocation.explore_radius",
    "search_radius": "relocation.search_radius",
    "safety_threshold": "relocation.safety_threshold",
}
# the keys whose scenario default is not the library's, on purpose
_SENTINELS = {
    "trials": 25,             # run_experiment takes no default
    "master_seed": 20240501,  # a fixed study seed; MissionConfig's is 0
    "base_cell": "center",    # "center" (None) or an integer cell index
    "disposable_stock": -1,   # -1 is None: MissionConfig's default stock
    "highfid_stock": -1,
    "tid_phase_switch": -1,   # -1: 30% of the budget; TriggerPolicy's is 12
}
# every other key's default is its field's on a default-built mission (an
# enum's as its value string), and each key takes its default's type
_LIBRARY = MissionConfig(GridDims(10, 10))
_DEFAULTS = {key: _SENTINELS[key] if key in _SENTINELS else functools.reduce(getattr, path.split("."), _LIBRARY)
             for key, path in _FIELDS.items()}
_ENUMS = {key: type(v) for key, v in _DEFAULTS.items() if isinstance(v, enum.Enum)}
_DEFAULTS.update((key, _DEFAULTS[key].value) for key in _ENUMS)


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"cannot parse boolean from {raw!r}")


def parse_scenario_text(text: str) -> dict:
    """Parse key = value lines against the schema; unknown or repeated keys
    and non-finite floats are errors."""
    values = dict(_DEFAULTS)
    seen = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELDS:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ScenarioError(f"line {lineno}: {key!r} is already set on line {seen[key]}")
        seen[key] = lineno
        typ = type(_DEFAULTS[key])
        try:
            value = _parse_bool(raw) if typ is bool else typ(raw)
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: bad value for {key!r}: {raw!r}") from exc
        if typ is float and not math.isfinite(value):
            raise ScenarioError(f"line {lineno}: {key!r} must be finite, got {raw!r}")
        values[key] = value
    return values


def _config_from_values(values: dict) -> tuple[MissionConfig, int]:
    """Build and check the mission; every failure is a ScenarioError."""
    fields = dict(values)  # key -> the value its field takes
    for key, kind in _ENUMS.items():
        try:
            fields[key] = kind(values[key])
        except ValueError:
            raise ScenarioError(f"unknown {key} {values[key]!r}") from None
    if values["trials"] < 1:
        raise ScenarioError(f"trials must be >= 1, got {values['trials']}")

    # a negative stock is the class's default, which MissionConfig fills in
    fields.update((key, None) for key in ("disposable_stock", "highfid_stock") if values[key] < 0)
    if values["tid_phase_switch"] < 0:
        try:
            fields["tid_phase_switch"] = max(1, int(round(0.3 * values["deployment_budget"])))
        except OverflowError:
            raise ScenarioError(f"deployment_budget {values['deployment_budget']} is too large") from None

    base_raw = values["base_cell"].strip().lower()
    if base_raw == "center":
        fields["base_cell"] = None
    else:
        try:
            fields["base_cell"] = int(base_raw)
        except ValueError:
            raise ScenarioError(f"base_cell must be 'center' or an integer, got {values['base_cell']!r}") from None

    # MissionConfig's keywords, a nested config's as a dict of its own; the
    # nested configs come first, in field order, so they are checked in it
    kwargs = {name: {} for name, v in vars(_LIBRARY).items() if dataclasses.is_dataclass(v)}
    for key, path in _FIELDS.items():
        if path:
            slot, _, name = path.rpartition(".")
            (kwargs[slot] if slot else kwargs)[name] = fields[key]
    try:
        config = MissionConfig(**{name: type(getattr(_LIBRARY, name))(**v) if isinstance(v, dict) else v
                                  for name, v in kwargs.items()})
    except ParameterError as exc:
        raise ScenarioError(str(exc)) from exc
    return config, values["trials"]


# Shared texture of the desk-scale studies: the per-step malfunction floor
# (10%/step over 15 steps) caps deployment survival near 20%, so learning
# rides on sparse successes; hazard densities and budgets below are sized so
# the 50%-entropy mark is reachable. Planner scoring uses the channel MI
# form in these scenarios: its alpha < 1 regime prefers believed-safe cells,
# which is what makes the loss-adaptive sweep visibly safer.
_STUDY = {
    "rows": 20, "cols": 20, "lethality": 0.9, "hazard_density": 0.05, "strategy": "bapp-tid",
    "highfid_stock": 8, "beam_width": 32, "mi_form": "channel", "tid_alpha_explore": 0.8,
}
_BUILTINS = {
    "proof-10x10": {
        "hazard_density": 0.03, "deployment_budget": 250, "highfid_stock": 24,
        "beam_width": 32, "mi_form": "channel", "tid_alpha_explore": 0.8,
    },
    "scalability-20x20-n3": {**_STUDY, "team_size": 3, "deployment_budget": 200},
    "scalability-20x20-n5": {**_STUDY, "team_size": 5, "deployment_budget": 150},
    "scalability-20x20-n7": {**_STUDY, "team_size": 7, "deployment_budget": 120},
    "scalability-20x20-n15": {**_STUDY, "team_size": 15, "deployment_budget": 60},
    "energy-15x7": {**_STUDY, "team_size": 15, "horizon": 7, "deployment_budget": 30,
                    "relocate": True, "explore_radius": 8.0},
    "energy-7x15": {**_STUDY, "team_size": 7, "horizon": 15, "deployment_budget": 30,
                    "relocate": True, "explore_radius": 16.0},
    "energy-5x21": {**_STUDY, "team_size": 5, "horizon": 21, "deployment_budget": 30,
                    "relocate": True, "explore_radius": 22.0},
    "energy-3x35": {**_STUDY, "team_size": 3, "horizon": 35, "deployment_budget": 30,
                    "relocate": True, "explore_radius": 36.0},
}


def builtin_scenarios() -> tuple:
    return tuple(sorted(_BUILTINS))


def scenario_to_text(name: str) -> str:
    """Render a built-in scenario as a scenario file."""
    if name not in _BUILTINS:
        raise ScenarioError(f"unknown built-in scenario {name!r}")
    values = {**_DEFAULTS, **_BUILTINS[name]}
    lines = [f"# scenario: {name}"]
    for key in _FIELDS:
        v = values[key]
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"


def load_scenario(source: str) -> tuple[MissionConfig, int]:
    """Load a scenario from a file path or a built-in name.

    Returns (config, trials). This is where a mission is checked: any bad
    file, value or combination raises ScenarioError before a trial runs.
    """
    if os.path.isfile(source):
        try:
            with open(source, encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"cannot read scenario file {source!r}: {exc}") from exc
        return _config_from_values(parse_scenario_text(text))
    if source in _BUILTINS:
        return _config_from_values({**_DEFAULTS, **_BUILTINS[source]})
    raise ScenarioError(f"scenario {source!r} is neither a file nor a built-in name "
                        f"(built-ins: {', '.join(builtin_scenarios())})")
