"""Block-iterative projective splitting with a two-forward-step linesearch.

Solves monotone inclusions 0 in sum_i G_i* T_i(G_i z) + T_n(z) by building
a separating affine function from per-block prox or forward-step
calculations and projecting onto its zero hyperplane. Forward blocks only
need continuity: a backtracking linesearch replaces any Lipschitz-constant
knowledge. Block selection and iterate staleness are simulated
deterministically from seeds.
"""

from .checks import InvariantMonitor, audit_schedule, run_with_checks
from .config import parse_config
from .engine import Engine, EngineConfig, run
from .errors import BacktrackLimitError, CapabilityError, ConfigError, ShapeError
from .linalg import LinearMap, PrimalDualPoint, Vec
from .operators import (ErrorPolicy, MonotoneOperator, affine_monotone, box_normal_cone,
                        forward_eval, l1_subdifferential, prox_eval, shifted_identity, zero_op)
from .problems import (ProblemSpec, build, kkt_residual, make_box_cubic, make_lasso,
                       make_signed_sqrt, make_skew_composed)
from .scheduler import SchedulePolicy

__version__ = "0.1.0"
