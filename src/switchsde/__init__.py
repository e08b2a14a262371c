"""Simulation and Monte Carlo verification of regime-switching diffusions
with state-dependent switching over countably infinite regime spaces."""

from .engine import (DEFAULT_SEED, EVENT_DRIVEN, FROZEN_RATE, SimConfig,
                     recorded_path, run_chain, run_event_driven, run_frozen,
                     simulate_path, simulate_truncated, truncated_model)
from .errors import (ConfigError, InvalidModelError, NumericalBlowupError,
                     StiffSwitchingWarning, UnsupportedSchemeError)
from .estimators import (BoundReport, GapEstimate, McEstimate,
                         chain_marginal_check, discontinuity_certificate,
                         displacement_lipschitz_sweep, feller_modulus,
                         first_jump_estimate, gap_trend_pass, gauss_function,
                         harnack_check, harnack_sweep, harnack_sweep_summary,
                         holding_time_check, mc_from_values,
                         moment_bound_check, second_moment_envelope,
                         semigroup_estimate, truncation_exit_bound_check,
                         truncation_identity_batch, truncation_identity_check,
                         wilson_lower)
from .markov import chain_generator_matrix, transition_matrix
from .models import (HARNACK_PREREQUISITES, AssumptionReport, ModelSpec,
                     SamplingPlan, U_CLASSES, UClassFn, apply_diffusion,
                     check_assumptions, linear_switching_model,
                     reciprocal_mass, zoo)
from .noise import LANE_EULER, LANE_JUMP, NoiseStream
from .qmatrix import (QMatrixSpec, RowLayout, displacement_lp_bound,
                      displacement_lp_distance, random_banded_q, row_layout,
                      smooth_cutoff, truncate_q, zero_layout)
from .trajectory import JumpRecord, Trajectory, from_binary

__version__ = "0.1.0"
