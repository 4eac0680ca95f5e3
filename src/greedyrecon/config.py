"""Experiment configuration: a single JSON document, validated strictly.

Schema (config_version 1): top-level keys are the fields of
ExperimentConfig; ``optim_coeff`` and ``optim_control`` are nested objects
with the fields of OptimConfig.  Unknown keys and wrongly typed values are
rejected on load, and every constraint of the owning types is re-validated.
Older files carry retired keys, which are dropped: seven optimizer keys
(``RETIRED_OPTIM_KEYS``) and ``regularizer_sign`` (``RETIRED_KEYS``) load
only at the one value each still means, and the size of the removed
candidate thread pool (``RETIRED_POOL_KEY``) at any integer >= 1, since
every such value gave the same artifacts.  A retired key is type-checked
like a live one before its value is compared.
Defaults follow the reference experiment: unit half-width, bounds
(-1,-1)..(1,1), couplings gamma1 = gamma2 = 0.2, no relaxation, stopping
tolerance at double precision epsilon.  The greedy and fixed-point fields
take their defaults from GreedyConfig and FixedPointConfig.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, fields

from .forward import FixedPointConfig
from .greedy import GreedyConfig
from .grid import Grid, NegLaplacian
from .nonlinearity import ClosedForm, MonomialBasis
from .objectives import ControlBox, SolverContext
from .optimize import OptimConfig

CONFIG_VERSION = 1


# keys that older files carry, with the only values they may hold: the
# optimizer keys that selected the L-BFGS-B engine that remains, `restarts`
# (one random start per identification or discrimination subproblem; a fit
# takes none), and the sign that penalizes control energy
RETIRED_OPTIM_KEYS = {"step_init": 1.0, "armijo_c": 1e-4, "shrink": 0.5,
                      "memory": 10, "seed": 0, "max_backtracks": 50,
                      "restarts": 1}
RETIRED_KEYS = {"regularizer_sign": 1}
RETIRED_POOL_KEY = "threads"


# the owners of defaults that ExperimentConfig takes over field by field
_GREEDY = GreedyConfig()
_FIXED_POINT = FixedPointConfig()


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def _check_type(key: str, value, like) -> None:
    """ConfigError naming ``key`` unless ``value`` has the type of the
    default ``like``: an integer for an int, any finite number for a float,
    a list of finite numbers for a tuple."""
    if isinstance(like, tuple) and isinstance(value, (list, tuple)):
        for v in value:
            _check_type(key, v, 0.0)
        return
    want = {int: numbers.Integral, float: numbers.Real}.get(type(like), type(like))
    if isinstance(value, bool) or not isinstance(value, want):
        raise ConfigError(f"{key} must be of type {type(like).__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")


def _drop_retired(data: dict, retired: dict, prefix: str = "") -> None:
    """Remove every key of ``retired`` from ``data``; ConfigError naming the
    key unless its value has the old type and equals the one allowed."""
    for name, only in retired.items():
        if name in data:
            value = data.pop(name)
            _check_type(prefix + name, value, only)
            if value != only:
                raise ConfigError(f"{prefix}{name} is retired and loads only at {only!r}")


def _optim_from_dict(key: str, value, default: OptimConfig) -> OptimConfig:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object")
    value = dict(value)
    _drop_retired(value, RETIRED_OPTIM_KEYS, f"{key}.")
    bad = set(value) - {f.name for f in fields(OptimConfig)}
    if bad:
        raise ConfigError(f"unknown keys in {key}: {sorted(bad)}")
    for name, v in value.items():
        _check_type(f"{key}.{name}", v, getattr(default, name))
    try:
        return dataclasses.replace(default, **value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


@dataclass
class ExperimentConfig:
    n: int = 64
    x_max: float = 1.0
    degree: int = 2
    truth: str = "bilinear"
    gamma1: float = 0.2
    gamma2: float = 0.2
    eps_a: tuple = _GREEDY.box.eps_a
    eps_b: tuple = _GREEDY.box.eps_b
    alpha_max: float = _GREEDY.alpha_max
    nu: float = _GREEDY.nu
    tol1: float = _GREEDY.tol1
    tol2: float = _FIXED_POINT.tol2
    lambda_a: float = _FIXED_POINT.lambda_a
    ell_max: int = _FIXED_POINT.ell_max
    seed: int = _GREEDY.seed
    error_lattice_m: int = 101
    output_dir: str = "runs/out"
    optim_coeff: OptimConfig = _GREEDY.optim_coeff
    optim_control: OptimConfig = _GREEDY.optim_control

    def __post_init__(self):
        self.validate()
        self.eps_a = tuple(float(v) for v in self.eps_a)
        self.eps_b = tuple(float(v) for v in self.eps_b)

    def validate(self):
        for f in fields(self):
            _check_type(f.name, getattr(self, f.name), f.default)
        # constructing the owning types re-checks their invariants
        try:
            Grid(self.n, self.x_max)
            MonomialBasis(self.degree)
            FixedPointConfig(self.lambda_a, self.tol2, self.ell_max)
            greedy_config(self)
            truth_nonlinearity(self)
            if self.seed < 0:
                raise ValueError("seed must be >= 0")
            if self.error_lattice_m < 2:
                raise ValueError("error_lattice_m must be >= 2")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        out = {"config_version": CONFIG_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, OptimConfig):
                out[f.name] = dataclasses.asdict(value)
            elif isinstance(value, tuple):
                out[f.name] = list(value)
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        version = data.pop("config_version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config_version {version}")
        pool = data.pop(RETIRED_POOL_KEY, 1)
        _check_type(RETIRED_POOL_KEY, pool, 1)
        if pool < 1:
            raise ConfigError(f"{RETIRED_POOL_KEY} is retired and loads only at >= 1")
        _drop_retired(data, RETIRED_KEYS)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for f in fields(cls):
            if isinstance(f.default, OptimConfig) and f.name in data:
                data[f.name] = _optim_from_dict(f.name, data[f.name], f.default)
        return cls(**data)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"malformed config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: the top level must be a JSON object")
        return cls.from_dict(data)


def build_context(cfg: ExperimentConfig, order=None) -> SolverContext:
    """The configured context, its basis in ``order`` (default: graded)."""
    grid = Grid(cfg.n, cfg.x_max)
    return SolverContext(
        op=NegLaplacian(grid),
        basis=MonomialBasis(cfg.degree, order),
        gamma1=cfg.gamma1,
        gamma2=cfg.gamma2,
        fp=FixedPointConfig(cfg.lambda_a, cfg.tol2, cfg.ell_max),
    )


def greedy_config(cfg: ExperimentConfig) -> GreedyConfig:
    return GreedyConfig(
        box=ControlBox(cfg.eps_a, cfg.eps_b),
        optim_coeff=cfg.optim_coeff,
        optim_control=cfg.optim_control,
        tol1=cfg.tol1,
        nu=cfg.nu,
        alpha_max=cfg.alpha_max,
        seed=cfg.seed,
    )


def truth_nonlinearity(cfg: ExperimentConfig, kind: str | None = None) -> ClosedForm:
    return ClosedForm(cfg.gamma1, cfg.gamma2, kind=kind or cfg.truth)
