"""Scenario files: flat key = value text mapped onto MissionConfig.

Lines are `key = value`, blank lines and `#` comments are ignored, unknown
keys are rejected. Named built-in scenarios cover the desk-scale studies:
a 10x10 single-agent proof run, 20x20 team-size scaling, and the four
equal-energy team shapes (team size x horizon = 105).
"""

from __future__ import annotations

import math
import os
from typing import Optional

from .belief import GridDims
from .coordination import RelocationPolicy
from .errors import ParameterError, ScenarioError
from .info_measures import MiForm
from .planner import PlanConfig
from .sim import AgentSpec, MissionConfig
from .strategies import SigPolicy, StrategyKind, TriggerPolicy

__all__ = ["load_scenario", "parse_scenario_text", "builtin_scenarios", "scenario_to_text"]

# key -> (type, default), in scenario-file order
_SCHEMA = {
    # world / mission
    "rows": (int, 10),
    "cols": (int, 10),
    "lethality": (float, 0.7),
    "hazard_density": (float, 0.18),
    "team_size": (int, 1),
    "horizon": (int, 15),
    "deployment_budget": (int, 40),
    "strategy": (str, "std-itp"),
    "master_seed": (int, 20240501),
    "trials": (int, 25),
    "base_cell": (str, "center"),  # "center" or an integer cell index
    # agents
    "disposable_gamma": (float, 0.10),
    "disposable_stock": (int, -1),  # -1: budget * team_size
    "highfid_gamma": (float, 0.01),
    "highfid_stock": (int, -1),     # -1: 2 * team_size
    # planner
    "beam_width": (int, 64),
    "mi_form": (str, "posterior"),  # "posterior" | "channel"
    # bapp-sig
    "sig_alpha_min": (float, 0.5),
    "sig_alpha_max": (float, 1.5),
    "sig_halfwidth": (float, 0.2),
    "sig_step": (float, 0.1),
    # bapp-tid
    "tid_window": (int, 3),
    "tid_theta_early": (float, 0.02),
    "tid_phase_switch": (int, -1),  # -1: 30% of the budget
    "tid_eps_min": (float, 0.01),
    "tid_eps_max": (float, 0.05),
    "tid_decay_rate": (float, 0.001),
    "tid_alpha_explore": (float, 1.2),
    "tid_alpha_hf": (float, 1.0),
    # base relocation
    "relocate": (bool, False),
    "relocation_cadence": (int, 1),
    "explore_radius": (float, 8.0),
    "search_radius": (float, 4.0),
    "safety_threshold": (float, 0.6),
}
_DEFAULTS = {key: default for key, (_, default) in _SCHEMA.items()}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"cannot parse boolean from {raw!r}")


def parse_scenario_text(text: str) -> dict:
    """Parse key = value lines against the schema; unknown keys and
    non-finite floats are errors."""
    values = dict(_DEFAULTS)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        typ = _SCHEMA[key][0]
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
    try:
        strategy = StrategyKind(values["strategy"])
    except ValueError:
        raise ScenarioError(f"unknown strategy {values['strategy']!r}") from None
    try:
        mi_form = MiForm(values["mi_form"])
    except ValueError:
        raise ScenarioError(f"unknown mi_form {values['mi_form']!r}") from None
    if values["trials"] < 1:
        raise ScenarioError(f"trials must be >= 1, got {values['trials']}")

    budget = values["deployment_budget"]
    team = values["team_size"]
    disp_stock = values["disposable_stock"]
    if disp_stock < 0:
        disp_stock = budget * team
    hf_stock = values["highfid_stock"]
    if hf_stock < 0:
        hf_stock = 2 * team
    phase_switch = values["tid_phase_switch"]
    if phase_switch < 0:
        try:
            phase_switch = max(1, int(round(0.3 * budget)))
        except OverflowError:
            raise ScenarioError(f"deployment_budget {budget} is too large") from None

    base_raw = values["base_cell"].strip().lower()
    if base_raw == "center":
        base_cell: Optional[int] = None
    else:
        try:
            base_cell = int(base_raw)
        except ValueError:
            raise ScenarioError(f"base_cell must be 'center' or an integer, got {values['base_cell']!r}") from None

    try:
        config = MissionConfig(
            dims=GridDims(values["rows"], values["cols"]),
            lethality=values["lethality"],
            hazard_density=values["hazard_density"],
            team_size=team,
            deployment_budget=budget,
            strategy=strategy,
            master_seed=values["master_seed"],
            disposable=AgentSpec(values["disposable_gamma"], disp_stock),
            high_fidelity=AgentSpec(values["highfid_gamma"], hf_stock),
            plan=PlanConfig(horizon=values["horizon"], beam_width=values["beam_width"], mi_form=mi_form),
            sig=SigPolicy(values["sig_alpha_min"], values["sig_alpha_max"],
                          values["sig_halfwidth"], values["sig_step"]),
            trigger=TriggerPolicy(values["tid_window"], values["tid_theta_early"], phase_switch,
                                  values["tid_eps_min"], values["tid_eps_max"], values["tid_decay_rate"],
                                  values["tid_alpha_explore"], values["tid_alpha_hf"]),
            relocation=RelocationPolicy(values["explore_radius"], values["search_radius"],
                                        values["safety_threshold"], values["relocation_cadence"]),
            relocate=values["relocate"],
            base_cell=base_cell,
        )
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
    for key in _SCHEMA:
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
