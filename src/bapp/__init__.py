"""Risk-sensitive informative path planning over hazard belief maps.

Core pieces: Prelec-weighted behavioral entropy and mutual information,
belief updates from binary deployment outcomes (the exact per-deployment
marginal update, re-factorised after each deployment), beam-search
trajectory planning, loss-adaptive and trigger-based deployment strategies,
radial partitioning with mobile-base relocation, and a deterministic Monte
Carlo mission simulator with a CLI.
"""

from .belief import (BeliefMap, GridDims, GroundTruthMap, cell_failure_prob, global_entropy,
                     init_uniform, update_on_failure, update_on_success)
from .coordination import (RelocationPolicy, radial_partition, regional_entropy, sector_masks,
                           select_base_site)
from .errors import (DistributionError, FleetExhaustedError, InconsistentObservationError,
                     ParameterError, ScenarioError)
from .experiment import (ExperimentResult, TheorySweepResult, run_experiment, theory_sweep)
from .info_measures import (AlphaSearchResult, BehaviorParams, BinaryChannel, DeltaMiTerms,
                            MiForm, behavioral_entropy, binary_behavioral_entropy,
                            binary_entropy, delta_mi, find_informative_alpha, mi_behavioral,
                            mi_bgs, prelec_weight, shannon_entropy)
from .planner import (PlanConfig, Trajectory, neighbors, per_cell_gain, plan_path, plan_paths,
                      random_walk, score_path)
from .scenario import builtin_scenarios, load_scenario, parse_scenario_text, scenario_to_text
from .sim import (AgentSpec, DeploymentRecord, MissionConfig, TrialMetrics, execute_deployment,
                  generate_world, run_trial, seed_stream)
from .strategies import (AgentClass, FleetState, SigPolicy, StrategyKind, TriggerPolicy,
                         select_deployment, sig_alpha, sig_select_path, sig_sweep_grid,
                         tid_should_trigger)

__version__ = "0.1.0"
