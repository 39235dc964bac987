"""Flat key = value experiment configs.

The format is line-oriented text: one ``key = value`` pair per line,
``#`` starts a comment, blank lines are ignored. Sweep axes use the
``sweep.<param> = v1, v2, ...`` form. The same grammar is used for
``--override key=value`` flags, which are applied after the file.

ExperimentConfig is the one schema. Each key is parsed by the type its
field declares (a sweep axis by the type of the field it sweeps). A rule
that a field's value must meet on its own, such as the known experiment
names or ``cost`` being ``quadratic``, is defined once in FIELD_RULES:
the parser checks it as the key is read, and validate checks it again,
so a config built in code meets the same rules as a file. Range and
cross-field rules are checked by validate alone, so an override can
still fix a value the file set.

Failures raise ConfigError naming the offending field; a value the
parser rejects also names its line in the file. The CLI turns these
into exit code 2 with a one-line diagnostic.
"""

from __future__ import annotations

import itertools
import math
import os
import types
import typing
from dataclasses import asdict, dataclass, replace

SOLVER_EXPERIMENTS = ("solve-single2p", "solve-single", "solve-stackelberg", "solve-mpe")
EXPERIMENTS = SOLVER_EXPERIMENTS + ("sweep", "oracle-check")
SWEEP_PARAMS = ("k", "pi", "beta", "H", "grid_n", "horizon")
ORACLE_CHECKS = ("period2", "period1", "stackelberg")

DEFAULT_GRID_N = 1001
DEFAULT_GRID_N_MPE = 501

# n x n float64 matrices a grid size must fit in memory, the peak of the
# cost matrix the solvers once built; no solver holds one now, and the
# bound limits the n^2 work of the kernel's fallback and the oracle.
DENSE_MATRICES = 3
DENSE_EXPERIMENTS = ("solve-single", "solve-mpe")


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str, line: int | None = None):
        self.field = field_name
        self.line = line
        where = f"line {line}, " if line is not None else ""
        super().__init__(f"{where}field {field_name!r}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = ""
    pi: float = 0.5
    beta: float = 0.9
    H: float = 1.0
    cost: str = "quadratic"
    k: float = 10.0
    grid_n: int | None = None
    horizon: int = 600
    tol: float = 1e-10
    max_iter: int = 10000
    solver: str = ""
    sweep_axes: tuple[tuple[str, tuple[float, ...]], ...] = ()
    sweep_cap: int = 256
    scan_n: int = 201
    oracle_n: int = 2001
    checks: tuple[str, ...] = ORACLE_CHECKS
    output_dir: str = "out"

    def resolved_grid_n(self) -> int:
        if self.grid_n is not None:
            return self.grid_n
        return DEFAULT_GRID_N_MPE if self.experiment == "solve-mpe" else DEFAULT_GRID_N


def _number(kind, expected):
    """The parser of a number of type kind."""

    def parse(name, raw, line):
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(name, f"expected {expected}, got {raw!r}", line) from None

    return parse


def _split(name, raw, line):
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


# A parser for each type a field declares: parse(key, raw, line) -> value.
_PARSERS = {float: _number(float, "a number"), int: _number(int, "an integer"),
            str: lambda name, raw, line: raw, tuple[str, ...]: _split}
# Each field's declared type; an optional field, T | None, is parsed as T.
# A field whose type has no parser (sweep_axes) is set only through sweep.<param> keys.
_FIELD_TYPES = {
    name: typing.get_args(kind)[0] if isinstance(kind, types.UnionType) else kind
    for name, kind in typing.get_type_hints(ExperimentConfig).items()
}


def _of_type(value, kind) -> bool:
    """Whether value has the declared type kind: a bool is no number, and an int no float."""
    if kind == tuple[str, ...]:
        return isinstance(value, tuple) and all(isinstance(item, str) for item in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def _one_of(choices):
    return lambda value: None if value in choices else f"must be one of {choices}, got {value!r}"


def _distinct_members(choices, what):
    """The rule that each of a list of names is one of choices, and none is listed twice."""

    def rule(names):
        for name in names:
            if name not in choices:
                return f"{what} must be among {choices}, got {name!r}"
            if names.count(name) > 1:
                return f"{name!r} is listed more than once"
        return None

    return rule


_axis_names_rule = _distinct_members(SWEEP_PARAMS, "sweep axes")


# The rules a field's value must meet on its own: each returns what is
# wrong with a value, or None. A solver of "" is none, as in every
# experiment but a sweep.
FIELD_RULES = {
    "experiment": _one_of(EXPERIMENTS),
    "solver": lambda value: _one_of(SOLVER_EXPERIMENTS)(value) if value else None,
    "cost": _one_of(("quadratic",)),
    "checks": _distinct_members(ORACLE_CHECKS, "checks"),
    "output_dir": lambda value: None if value else "must be a non-empty path",
    "sweep_axes": lambda axes: _axis_names_rule([name for name, _ in axes]),
}


def check_field(field_name: str, value, key: str | None = None, line: int | None = None) -> None:
    """Raise ConfigError if value breaks the rule of field_name, if it has one.

    The error names key (by default the field) and the line it was read from.
    """
    message = FIELD_RULES.get(field_name, lambda value: None)(value)
    if message is not None:
        raise ConfigError(key or field_name, message, line)


def apply_assignment(config: ExperimentConfig, key: str, raw: str, line: int | None = None) -> ExperimentConfig:
    """Apply one key = value pair, returning an updated config.

    The value is parsed by the type its field declares and checked
    against the field's rule.
    """
    raw = raw.strip()
    if key.startswith("sweep."):
        param = key[len("sweep.") :]
        # The axis name is checked before its values are parsed as its field's type.
        check_field("sweep_axes", ((param, ()),), key, line)
        parse = _PARSERS[_FIELD_TYPES[param]]
        values = tuple(parse(key, tok, line) for tok in _split(key, raw, line))
        if not values:
            raise ConfigError(key, "expected a non-empty comma-separated list", line)
        axes = tuple(a for a in config.sweep_axes if a[0] != param) + ((param, values),)
        return replace(config, sweep_axes=axes)
    parse = _PARSERS.get(_FIELD_TYPES.get(key))
    if parse is None:
        raise ConfigError(key, "unknown configuration key", line)
    value = parse(key, raw, line)
    check_field(key, value, key, line)
    return replace(config, **{key: value})


def parse_config(text: str) -> ExperimentConfig:
    config = ExperimentConfig()
    seen: dict[str, int] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        body = rawline.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(body, "expected 'key = value'", lineno)
        key, raw = body.split("=", 1)
        key = key.strip()
        if key in seen:
            raise ConfigError(key, f"duplicate key (first set on line {seen[key]})", lineno)
        seen[key] = lineno
        config = apply_assignment(config, key, raw, lineno)
    return config


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError("config", f"cannot read {str(path)!r}: {err}") from None
    return parse_config(text)


def apply_overrides(config: ExperimentConfig, overrides) -> ExperimentConfig:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(item, "override must look like key=value")
        key, raw = item.split("=", 1)
        config = apply_assignment(config, key.strip(), raw)
    return config


def _check_dense_memory(name: str, n: int) -> None:
    """Reject a size whose n x n float64 matrices would not fit in memory.

    Pure arithmetic, so an absurd size fails here instead of in the
    allocator (or the OOM killer). A sweep runs its combinations one
    after another, so this bounds the whole run, not just one solve.
    oracle-check holds no n x n array, but its response tables still
    score all n^2 moves, so oracle_n keeps the same bound on that work.
    """
    try:
        available = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return  # the platform does not report its memory
    need = DENSE_MATRICES * 8 * n * n
    if need > available:
        raise ConfigError(
            name,
            f"{n} needs about {need / 2**30:.1f} GiB for {DENSE_MATRICES} n x n float64 "
            f"matrices, more than the {available / 2**30:.1f} GiB of physical memory",
        )


def sweep_combinations(config: ExperimentConfig):
    """Yield (values, solver_config) for each combination of a sweep's axes.

    Combinations come in itertools.product order, the first axis slowest;
    each solver_config is the sweep config with its solver as the
    experiment, the combination's values set, and no sweep keys.
    """
    names = [name for name, _ in config.sweep_axes]
    base = replace(config, experiment=config.solver, solver="", sweep_axes=())
    for values in itertools.product(*(values for _, values in config.sweep_axes)):
        yield values, replace(base, **dict(zip(names, values)))


def validate(config: ExperimentConfig) -> ExperimentConfig:
    """Check every field's type, rule (FIELD_RULES) and range, and the fields against each other.

    A sweep is checked as a whole and then, combination by combination,
    as its solver's own config, so a bad combination fails before any
    combination writes artifacts. Only a sweep may name a solver or axes.
    """
    for name, kind in _FIELD_TYPES.items():
        value = getattr(config, name)
        unset = value is None and getattr(ExperimentConfig, name) is None  # an optional field left out
        if kind in _PARSERS and not unset and not _of_type(value, kind):
            raise ConfigError(name, f"must be of type {kind.__name__}, got {value!r}")
        if kind is float and not math.isfinite(value):
            raise ConfigError(name, f"must be finite, got {value}")
    for name in FIELD_RULES:
        check_field(name, getattr(config, name))
    if not 0.0 < config.pi < 1.0:
        raise ConfigError("pi", f"must lie in (0, 1), got {config.pi}")
    if not 0.0 < config.beta < 1.0:
        raise ConfigError("beta", f"must lie in (0, 1), got {config.beta}")
    if not config.H > 0.0:
        raise ConfigError("H", f"must be positive, got {config.H}")
    if config.k < 0.0:
        raise ConfigError("k", f"must be non-negative, got {config.k}")
    # Every value table a solver writes is bounded by H / (1 - beta); past
    # the float range the tables would be written as inf.
    if not math.isfinite(config.H / (1.0 - config.beta)):
        raise ConfigError("H", f"H / (1 - beta) = {config.H} / {1.0 - config.beta} overflows float64")
    grid_n = config.resolved_grid_n()
    if grid_n < 3 or grid_n % 2 == 0:
        raise ConfigError("grid_n", f"must be odd and at least 3, got {grid_n}")
    if config.experiment in DENSE_EXPERIMENTS:
        _check_dense_memory("grid_n", grid_n)
    if config.horizon < 2:
        raise ConfigError("horizon", f"must be at least 2, got {config.horizon}")
    if config.tol <= 0.0:
        raise ConfigError("tol", f"must be positive, got {config.tol}")
    if config.max_iter < 1:
        raise ConfigError("max_iter", f"must be at least 1, got {config.max_iter}")
    if config.sweep_cap < 1:
        raise ConfigError("sweep_cap", f"must be at least 1, got {config.sweep_cap}")
    if config.experiment == "sweep":
        if not config.solver:
            raise ConfigError("solver", "sweep configs must name a solver experiment")
        if not config.sweep_axes:
            raise ConfigError("sweep_axes", "sweep configs need at least one sweep.<param> axis")
        combos = math.prod(len(values) for _, values in config.sweep_axes)
        if combos > config.sweep_cap:
            raise ConfigError(
                "sweep_axes", f"{combos} combinations exceed the cap of {config.sweep_cap}"
            )
        for _, solver_config in sweep_combinations(config):
            validate(solver_config)
    elif config.solver:
        raise ConfigError("solver", "only a sweep config names a solver")
    elif config.sweep_axes:
        raise ConfigError("sweep_axes", "only a sweep config has sweep.<param> axes")
    if config.experiment == "oracle-check":
        if config.scan_n < 2:
            raise ConfigError("scan_n", f"must be at least 2, got {config.scan_n}")
        if config.oracle_n < 3 or config.oracle_n % 2 == 0:
            raise ConfigError("oracle_n", f"must be odd and at least 3, got {config.oracle_n}")
        _check_dense_memory("oracle_n", config.oracle_n)
        if (config.oracle_n - 1) % (config.scan_n - 1) != 0:
            raise ConfigError(
                "scan_n",
                "scan points must lie on the oracle grid: (oracle_n - 1) must be a multiple of (scan_n - 1)",
            )
        if not config.checks:
            raise ConfigError("checks", "must list at least one check")
    return config


def config_as_dict(config: ExperimentConfig) -> dict:
    """Stable, JSON-friendly echo of a resolved config."""
    return {**asdict(config), "grid_n": config.resolved_grid_n()}
