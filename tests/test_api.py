"""The names ``import projsplit`` offers.

Solver internals (block updates, the separator, scheduling helpers, point
arithmetic, error injection) stay in their modules and are imported from
there, so the package's namespace is pinned here.
"""

import types

import projsplit

PUBLIC = {
    "BacktrackLimitError", "CapabilityError", "ConfigError", "ShapeError",
    "Engine", "EngineConfig", "SchedulePolicy", "ErrorPolicy", "InvariantMonitor",
    "run", "run_with_checks", "audit_schedule", "parse_config",
    "LinearMap", "PrimalDualPoint", "Vec",
    "MonotoneOperator", "forward_eval", "prox_eval",
    "affine_monotone", "box_normal_cone", "l1_subdifferential", "shifted_identity", "zero_op",
    "ProblemSpec", "build", "kkt_residual",
    "make_box_cubic", "make_lasso", "make_signed_sqrt", "make_skew_composed",
}


def test_the_package_exports_exactly_its_public_names():
    names = {name for name, value in vars(projsplit).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC) == 31
    assert names == PUBLIC
