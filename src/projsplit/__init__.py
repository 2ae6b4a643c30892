"""Block-iterative projective splitting with a two-forward-step linesearch.

Solves monotone inclusions 0 in sum_i G_i* T_i(G_i z) + T_n(z) by building
a separating affine function from per-block prox or forward-step
calculations and projecting onto its zero hyperplane. Forward blocks only
need continuity: a backtracking linesearch replaces any Lipschitz-constant
knowledge. Block selection and iterate staleness are simulated
deterministically from seeds.
"""

from .checks import InvariantMonitor, affine_value, audit_schedule, run_with_checks
from .config import parse_config, serialize_config
from .engine import (Engine, EngineConfig, OperatorSlot, backward_update, evaluate_separator,
                     forward_update_with_backtrack, project, run)
from .errors import BacktrackLimitError, CapabilityError, ConfigError, ShapeError
from .linalg import (LinearMap, PrimalDualPoint, Space, Vec, derived_wn, gamma_inner,
                     gamma_norm, point_diff)
from .operators import (ErrorPolicy, MonotoneOperator, affine_monotone, box_normal_cone, cube,
                        error_inequality_gaps, forward_eval, gradient_quadratic, inject_error,
                        l1_subdifferential, prox_eval, signed_sqrt, zero_op)
from .problems import (ProblemSpec, build, kkt_residual, make_box_cubic, make_lasso,
                       make_signed_sqrt, make_skew_composed)
from .scheduler import HistoryBuffer, SchedulePolicy, delayed_index, select_blocks

__version__ = "0.1.0"
