import pytest

from projsplit import ConfigError, EngineConfig, ErrorPolicy, SchedulePolicy, parse_config
from projsplit.config import RunConfig


MINIMAL = '{"problem": {"kind": "lasso"}}'


def test_minimal_config_applies_documented_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.problem_kind == "lasso"
    assert cfg.engine.gamma == 1.0
    assert cfg.engine.beta == 1.0
    assert cfg.engine.nu == 0.5
    assert cfg.engine.delta == 1.0
    assert cfg.engine.rho_init == 1.0
    assert cfg.errors.sigma == 0.0
    assert cfg.errors.mode == "none"
    assert cfg.schedule.kind == "full"
    assert cfg.schedule.M is None  # resolves to the block count at run time
    assert cfg.schedule.D == 0
    assert cfg.seed == 0


def test_section_seeds_derive_from_top_seed():
    cfg = parse_config('{"problem": {"kind": "lasso"}, "seed": 7}')
    assert cfg.schedule.seed == 7
    assert cfg.errors.seed == 8
    cfg = parse_config('{"problem": {"kind": "lasso"}, "seed": 7,'
                       ' "schedule": {"seed": 99}}')
    assert cfg.schedule.seed == 99


def test_beta_bound_rejection_names_the_bound():
    bad = '{"problem": {"kind": "lasso"}, "engine": {"beta": 2.0}}'
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "beta" in str(err.value) and "(0, 2)" in str(err.value)


def test_nu_rejection_names_the_range():
    bad = '{"problem": {"kind": "lasso"}, "engine": {"nu": 0.0}}'
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "nu" in str(err.value) and "(0, 1)" in str(err.value)


def test_unknown_keys_are_rejected_by_name():
    with pytest.raises(ConfigError, match="betaa"):
        parse_config('{"problem": {"kind": "lasso"}, "engine": {"betaa": 1.0}}')
    with pytest.raises(ConfigError, match="verbosity"):
        parse_config('{"problem": {"kind": "lasso"}, "verbosity": 2}')
    with pytest.raises(ConfigError, match="sched"):
        parse_config('{"problem": {"kind": "lasso"}, "sched": {}}')
    for key in ("rho_min", "rho_max", "quickstop_eps", "pi_zero_eps"):
        with pytest.raises(ConfigError, match=key):
            parse_config('{"problem": {"kind": "lasso"}, "engine": {"%s": 1.0}}' % key)
    with pytest.raises(ConfigError, match="_rng"):
        parse_config('{"problem": {"kind": "lasso"}, "errors": {"_rng": null}}')
    # trace.csv and summary.json always go to the run's --out directory
    with pytest.raises(ConfigError, match="output"):
        parse_config('{"problem": {"kind": "lasso"}, "output": {"trace": "../escape.csv"}}')


@pytest.mark.parametrize("section", ["problem", "engine", "schedule", "errors"])
@pytest.mark.parametrize("value", ['"x"', "[1]", "3", "null", "true"])
def test_every_section_must_be_an_object(section, value):
    doc = '{"problem": {"kind": "lasso"}, "%s": %s}' % (section, value)
    with pytest.raises(ConfigError, match=section):
        parse_config(doc)


@pytest.mark.parametrize("kind", ['["lasso"]', '{"lasso": 1}', "1", "null"])
def test_problem_kind_must_be_a_string(kind):
    with pytest.raises(ConfigError, match="kind"):
        parse_config('{"problem": {"kind": %s}}' % kind)


def test_config_requires_problem_kind():
    with pytest.raises(ConfigError, match="problem"):
        parse_config('{"engine": {}}')
    with pytest.raises(ConfigError, match="JSON"):
        parse_config("{not json")


def test_wrong_value_types_become_config_errors():
    with pytest.raises(ConfigError, match="value type"):
        parse_config('{"problem": {"kind": "lasso"}, "engine": {"gamma": "big"}}')


def test_roundtrip_rich_config():
    doc = """{
      "problem": {"kind": "box_cubic", "dim": 5, "seed": 3},
      "engine": {"gamma": 2.0, "beta": 0.9, "nu": 0.7, "delta": 0.25, "rho_init": [0.5, 2.0],
                 "max_iters": 123, "tol_primal": 1e-8},
      "schedule": {"kind": "seeded-random", "p_select": 0.4, "M": 6, "D": 2,
                   "delay_kind": "seeded-random"},
      "errors": {"sigma": 0.25, "mode": "seeded-random", "magnitude": 0.01},
      "seed": 42
    }"""
    cfg = parse_config(doc)
    assert cfg.engine.rho_init == (0.5, 2.0)
    assert cfg.schedule.seed == 42 and cfg.errors.seed == 43
    assert cfg == RunConfig(
        "box_cubic", {"dim": 5, "seed": 3},
        EngineConfig(gamma=2.0, beta=0.9, nu=0.7, delta=0.25, rho_init=(0.5, 2.0),
                     max_iters=123, tol_primal=1e-8),
        SchedulePolicy(kind="seeded-random", p_select=0.4, M=6, D=2,
                       delay_kind="seeded-random", seed=42),
        ErrorPolicy(sigma=0.25, mode="seeded-random", magnitude=0.01, seed=43),
        seed=42)


def test_overrides_rederive_seeds():
    cfg = parse_config(MINIMAL).with_overrides(seed=5, max_iters=77)
    assert cfg.seed == 5
    assert cfg.schedule.seed == 5
    assert cfg.errors.seed == 6
    assert cfg.engine.max_iters == 77
