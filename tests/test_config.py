import pytest

from polarsolve.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    parse_config,
    sweep_combinations,
    validate,
)

GOOD = """
# comment
experiment = solve-single
pi = 0.5
beta = 0.9          # trailing comment
H = 1
cost = quadratic
k = 10
grid_n = 101
tol = 1e-10
output_dir = out/test
"""


def test_parse_good_config():
    config = parse_config(GOOD)
    assert config.experiment == "solve-single"
    assert config.pi == 0.5 and config.beta == 0.9 and config.H == 1.0
    assert config.k == 10.0 and config.grid_n == 101
    assert config.output_dir == "out/test"
    validate(config)


def test_parse_sweep_axes():
    config = parse_config(
        "experiment = sweep\nsolver = solve-single\nsweep.k = 0.5, 10, 200\nsweep.pi = 0.3, 0.5\n"
    )
    axes = dict(config.sweep_axes)
    assert axes["k"] == (0.5, 10.0, 200.0)
    assert axes["pi"] == (0.3, 0.5)
    validate(config)


def test_bad_beta_names_field_and_line():
    with pytest.raises(ConfigError) as err:
        validate(parse_config("experiment = solve-single\nbeta = 1.2\n"))
    assert err.value.field == "beta"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_config("experiment = solve-single\nwhat is this\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError) as err:
        parse_config("pi = not-a-number\n")
    assert err.value.line == 1 and err.value.field == "pi"


def test_unknown_and_duplicate_keys_rejected():
    with pytest.raises(ConfigError):
        parse_config("experiment = solve-single\nfrobnicate = 3\n")
    with pytest.raises(ConfigError):
        parse_config("pi = 0.5\npi = 0.6\n")
    with pytest.raises(ConfigError) as err:
        parse_config("experiment = oracle-check\nchecks = period2, period2\n")
    assert err.value.field == "checks"


def test_even_grid_rejected():
    with pytest.raises(ConfigError) as err:
        validate(parse_config("experiment = solve-single\ngrid_n = 100\n"))
    assert err.value.field == "grid_n"


def test_sweep_requires_solver_and_axes():
    with pytest.raises(ConfigError):
        validate(parse_config("experiment = sweep\nsweep.k = 1, 2\n"))
    with pytest.raises(ConfigError):
        validate(parse_config("experiment = sweep\nsolver = solve-single\n"))


def test_sweep_cap_enforced():
    text = "experiment = sweep\nsolver = solve-single\nsweep.k = 1, 2, 3, 4\nsweep_cap = 3\n"
    with pytest.raises(ConfigError) as err:
        validate(parse_config(text))
    assert "exceed" in str(err.value)


def test_sweep_axis_whitelist():
    with pytest.raises(ConfigError):
        parse_config("sweep.tol = 1, 2\n")


def test_default_grid_resolution_depends_on_experiment():
    assert ExperimentConfig(experiment="solve-single").resolved_grid_n() == 1001
    assert ExperimentConfig(experiment="solve-mpe").resolved_grid_n() == 501
    assert ExperimentConfig(experiment="solve-mpe", grid_n=51).resolved_grid_n() == 51


def test_overrides():
    config = parse_config(GOOD)
    config = apply_overrides(config, ["k=25", "grid_n=51"])
    assert config.k == 25.0 and config.grid_n == 51
    with pytest.raises(ConfigError):
        apply_overrides(config, ["grid_n"])
    with pytest.raises(ConfigError):
        apply_overrides(config, ["beta=high"])


def test_oracle_check_scan_alignment():
    base = "experiment = oracle-check\n"
    validate(parse_config(base + "scan_n = 201\noracle_n = 2001\n"))
    with pytest.raises(ConfigError):
        validate(parse_config(base + "scan_n = 200\noracle_n = 2001\n"))


def test_custom_cost_kind_rejected_in_configs():
    with pytest.raises(ConfigError):
        parse_config("cost = custom\n")


@pytest.mark.parametrize("field", ["pi", "beta", "H", "k", "tol"])
@pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
def test_non_finite_values_rejected(field, raw):
    with pytest.raises(ConfigError) as err:
        validate(parse_config(f"experiment = solve-single\n{field} = {raw}\n"))
    assert err.value.field == field


@pytest.mark.parametrize(
    "axis", ["sweep.k = 1, inf", "sweep.k = 1, -1", "sweep.beta = 0.5, nan", "sweep.grid_n = 51, 50"]
)
def test_bad_sweep_values_rejected_up_front(axis):
    with pytest.raises(ConfigError) as err:
        validate(parse_config(f"experiment = sweep\nsolver = solve-single\n{axis}\n"))
    assert err.value.field == axis.split()[0][len("sweep."):]


def test_sweep_combinations_follow_product_order():
    config = parse_config(
        "experiment = sweep\nsolver = solve-mpe\nsweep.beta = 0.5, 0.9\nsweep.grid_n = 11, 21\nk = 0\n"
    )
    combos = list(sweep_combinations(config))
    assert [values for values, _ in combos] == [(0.5, 11), (0.5, 21), (0.9, 11), (0.9, 21)]
    for (beta, grid_n), solver_config in combos:
        assert solver_config == ExperimentConfig(
            experiment="solve-mpe", beta=beta, grid_n=grid_n, k=0.0
        )


def test_sweep_cap_reported_before_bad_values():
    # the cap is checked on the product's size, before any combination is built
    text = "experiment = sweep\nsolver = solve-single\nsweep.k = 1, -1, 3, 4\nsweep_cap = 3\n"
    with pytest.raises(ConfigError) as err:
        validate(parse_config(text))
    assert err.value.field == "sweep_axes" and "exceed" in str(err.value)
