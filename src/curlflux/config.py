"""Run configuration: YAML schema, validation and model construction.

A run file has four sections::

    model:
      type: junction | generic
      junction:            # type: junction
        mu_1: 1.0
        mu_2: 0.5
        # omega_1, omega_2, omega_g, delta, gamma, t_1, t_2, dipole
        # are optional and default to the reference values
      generic:             # type: generic
        levels: {a: 0.0, b: 1.0}
        channels:
          - {upper: b, lower: a, rate_up: 0.004, rate_down: 0.02}
    sweep:
      omega: {min: 0.85, max: 1.15, points: 1201}   # or {values: [...]}
      bias:                 # junction only, optional
        mode: symmetric     # mu_{1,2} = center +- dmu
        center: 1.0
        dmu: [0.0, 0.1]
        extra_pairs: [[1.0, 0.5]]   # explicit (mu_1, mu_2) runs
    output:
      directory: out
      prefix: run
    numerics:
      epsilon: null         # resolvent regularization
      db_tol: 1.0e-9        # detailed-balance tolerance for fdr-check

Unknown keys raise errors so typos do not silently change a run, and
so do keys another key would leave unread: sweep.omega.values beside
min/max/points, and center or dmu under bias mode 'fixed'.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import yaml

from .junction import JunctionParams
from .liouville import DissipationChannel, HilbertBasis

__all__ = ["ConfigError", "RunConfig", "GenericModel", "load_config"]

# libyaml's safe loader, when PyYAML has it, parses about ten times faster
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class GenericModel:
    """A diagonal-Hamiltonian model defined directly by levels and rates."""

    basis: HilbertBasis
    hamiltonian: np.ndarray
    channels: tuple


@dataclass(frozen=True)
class RunConfig:
    model_type: str
    junction: Optional[JunctionParams]
    generic: Optional[GenericModel]
    omega_grid: np.ndarray
    sweep_points: tuple         # ((tag, JunctionParams), ...) for junction sweeps
    out_dir: str
    prefix: str
    epsilon: Optional[float]
    db_tol: float
    temperature: Optional[float]


def _require(mapping, key, path):
    if key not in mapping:
        raise ConfigError("missing required field '%s.%s'" % (path, key))
    return mapping[key]


def _check_keys(mapping, allowed, path):
    if not isinstance(mapping, dict):
        raise ConfigError("'%s' must be a mapping, got %r" % (path, mapping))
    extra = set(mapping) - set(allowed)
    if extra:
        raise ConfigError(
            "unknown field(s) %s in '%s'" % (sorted(extra), path)
        )


def _list(mapping, key, path):
    value = mapping.get(key, [])
    if not isinstance(value, list):
        raise ConfigError("field '%s.%s' must be a list, got %r" % (path, key, value))
    return value


def _float(value, path):
    try:
        if isinstance(value, bool):
            raise TypeError("YAML true/false is not a number")
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError("field '%s' must be a number, got %r" % (path, value))
    if not np.isfinite(out):
        raise ConfigError("field '%s' must be finite" % path)
    return out


def _omega_grid(section):
    _check_keys(section, {"min", "max", "points", "values"}, "sweep.omega")
    if "values" in section:
        if len(section) > 1:
            raise ConfigError("sweep.omega takes values or min/max/points, not both")
        grid = np.asarray([_float(v, "sweep.omega.values")
                           for v in _list(section, "values", "sweep.omega")])
    else:
        lo = _float(_require(section, "min", "sweep.omega"), "sweep.omega.min")
        hi = _float(_require(section, "max", "sweep.omega"), "sweep.omega.max")
        n = _require(section, "points", "sweep.omega")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ConfigError("sweep.omega.points must be a positive integer")
        grid = np.linspace(lo, hi, n)
    if grid.size == 0:
        raise ConfigError("sweep.omega produced an empty grid")
    return grid


def load_config(path):
    """Parse and validate a YAML run file."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=YAML_LOADER)
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc)
    except yaml.YAMLError as exc:
        raise ConfigError("malformed YAML: %s" % exc)
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    _check_keys(raw, {"model", "sweep", "output", "numerics"}, "<top>")

    model = _require(raw, "model", "<top>")
    _check_keys(model, {"type", "junction", "generic"}, "model")
    mtype = _require(model, "type", "model")
    if "junction" in model and "generic" in model:
        raise ConfigError("config must contain exactly one model section")
    junction = None
    generic = None
    temperature = None
    if mtype == "junction":
        sect = _require(model, "junction", "model")
        allowed = {
            "mu_1", "mu_2", "omega_1", "omega_2", "omega_g", "delta",
            "gamma", "t_1", "t_2", "dipole",
        }
        _check_keys(sect, allowed | {"gamma_1", "gamma_2"}, "model.junction")
        if "gamma_1" in sect or "gamma_2" in sect:
            raise ConfigError(
                "per-electrode exchange rates are not supported; the model "
                "assumes a common 'gamma' for both electrodes"
            )
        kwargs = {k: _float(v, "model.junction.%s" % k) for k, v in sect.items()}
        if "mu_1" not in kwargs or "mu_2" not in kwargs:
            raise ConfigError("model.junction requires mu_1 and mu_2")
        try:
            junction = JunctionParams(**kwargs)
        except ValueError as exc:
            raise ConfigError("model.junction: %s" % exc)
        if junction.t_1 == junction.t_2:
            temperature = junction.t_1
    elif mtype == "generic":
        sect = _require(model, "generic", "model")
        _check_keys(sect, {"levels", "channels", "temperature"}, "model.generic")
        levels = _require(sect, "levels", "model.generic")
        if not isinstance(levels, dict) or not levels:
            raise ConfigError("model.generic.levels must be a non-empty mapping")
        labels = tuple(levels.keys())
        energies = [_float(levels[k], "model.generic.levels.%s" % k) for k in labels]
        basis = HilbertBasis(labels)
        ham = np.diag(np.asarray(energies, dtype=complex))
        channels = []
        for i, ch in enumerate(_list(sect, "channels", "model.generic")):
            path = "model.generic.channels[%d]" % i
            _check_keys(ch, {"upper", "lower", "rate_up", "rate_down"}, path)
            upper, lower = (_require(ch, key, path) for key in ("upper", "lower"))
            for label in (upper, lower):
                if label not in labels:
                    raise ConfigError("%s: %r names no level" % (path, label))
            if upper == lower:
                raise ConfigError("%s: upper and lower must differ" % path)
            raising = np.zeros((basis.dim, basis.dim), dtype=complex)
            raising[basis.index(upper), basis.index(lower)] = 1.0
            rates = [_float(_require(ch, key, path), "%s.%s" % (path, key))
                     for key in ("rate_up", "rate_down")]
            try:
                channels.append(DissipationChannel(raising, *rates))
            except ValueError as exc:
                raise ConfigError("%s: %s" % (path, exc))
        if "temperature" in sect:
            temperature = _float(sect["temperature"], "model.generic.temperature")
        generic = GenericModel(basis=basis, hamiltonian=ham,
                               channels=tuple(channels))
    else:
        raise ConfigError("model.type must be 'junction' or 'generic'")

    sweep = _require(raw, "sweep", "<top>")
    _check_keys(sweep, {"omega", "bias"}, "sweep")
    omega_grid = _omega_grid(_require(sweep, "omega", "sweep"))

    sweep_points = []
    if "bias" in sweep:
        if mtype != "junction":
            raise ConfigError("sweep.bias applies only to junction models")
        bias = sweep["bias"]
        _check_keys(bias, {"mode", "center", "dmu", "extra_pairs"}, "sweep.bias")
        mode = bias.get("mode", "symmetric")
        if mode not in ("symmetric", "fixed"):
            raise ConfigError("sweep.bias.mode must be 'symmetric' or 'fixed'")
        if mode == "fixed" and {"center", "dmu"} & set(bias):
            raise ConfigError("sweep.bias.mode 'fixed' takes no center or dmu")
        if mode == "symmetric":
            center = _float(bias.get("center", 1.0), "sweep.bias.center")
            for dmu in _list(bias, "dmu", "sweep.bias"):
                dmu = _float(dmu, "sweep.bias.dmu")
                sweep_points.append(("dmu%.4g" % dmu, replace(
                    junction, mu_1=center + dmu, mu_2=center - dmu)))
        for pair in _list(bias, "extra_pairs", "sweep.bias"):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError("sweep.bias.extra_pairs entries must be pairs")
            mu1 = _float(pair[0], "sweep.bias.extra_pairs")
            mu2 = _float(pair[1], "sweep.bias.extra_pairs")
            sweep_points.append(("mu%.4g_%.4g" % (mu1, mu2),
                                 replace(junction, mu_1=mu1, mu_2=mu2)))
    if mtype == "junction" and not sweep_points:
        sweep_points.append(("run", junction))
    # points whose tags collide would overwrite each other's output file
    seen = set()
    for tag, _ in sweep_points:
        if tag in seen:
            raise ConfigError("sweep.bias: two points share the output tag '%s'"
                              % tag)
        seen.add(tag)

    output = raw.get("output", {})
    _check_keys(output, {"directory", "prefix"}, "output")
    out_dir = str(output.get("directory", "."))
    prefix = str(output.get("prefix", "curlflux"))

    numerics = raw.get("numerics", {})
    _check_keys(numerics, {"epsilon", "db_tol"}, "numerics")
    epsilon = numerics.get("epsilon", None)
    if epsilon is not None:
        epsilon = _float(epsilon, "numerics.epsilon")
        if epsilon <= 0:
            raise ConfigError("numerics.epsilon must be positive when given")
    db_tol = _float(numerics.get("db_tol", 1e-9), "numerics.db_tol")
    if db_tol < 0:
        raise ConfigError("numerics.db_tol must be non-negative")

    return RunConfig(
        model_type=mtype,
        junction=junction,
        generic=generic,
        omega_grid=omega_grid,
        sweep_points=tuple(sweep_points),
        out_dir=out_dir,
        prefix=prefix,
        epsilon=epsilon,
        db_tol=db_tol,
        temperature=temperature,
    )

