"""Run configuration: YAML schema, validation and model construction.

:func:`load_config` returns a :class:`RunConfig` whose `model` is the
one model that `flux`, `fdr-check` and `validate` analyze, and whose
`points` are the (tag, model) pairs that `spectrum` writes one CSV each
for: every junction bias point, or the generic model as the one point
'spectrum'.  Both kinds of run file give the same :class:`Model`
record: state labels, Hamiltonian, channels and the probe's scale, the
junction's dipole or 1 for a generic model.  Its `coupling`, the probe
``scale * (A + A^dag)`` with A the sum of the channels' upward jumps
|upper><lower|, is formed when a command reads it, so a record that no
command probes holds no d x d probe.
The kind, read from `model.type`, is kept as `RunConfig.kind`;
`spectrum` reads it to split the junction's spectra alone, and
`validate` names it in its summary line.

`load_config` reads the sections every run file shares and picks, once,
the reader of `model.type`.  A reader takes its `model.<type>` section
and the `sweep` mapping and gives the model, its spectrum points and
its temperature:

- `_junction` reads `JunctionParams` and refuses per-electrode rates
  and a missing mu_1 or mu_2.  It owns `sweep.bias`: each bias pair is
  a point tagged 'dmu%.4g' or 'mu%.4g_%.4g', two points may not share a
  tag, and with no pair the one point is 'run', at the file's own
  (mu_1, mu_2).  The temperature is the electrodes' when they share one.
- `_generic` reads the levels, the channels (at least one) and the
  optional positive `temperature`; its one point is 'spectrum', and it
  refuses any `sweep.bias`.

A run file has three sections::

    model:
      type: junction | generic
      junction:            # type: junction
        mu_1: 1.0
        mu_2: 0.5
        # omega_1, omega_2, omega_g, delta, gamma, t_1, t_2, dipole
        # are optional and default to the reference values
      generic:             # type: generic
        levels: {a: 0.0, b: 1.0}
        channels:           # at least one
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

Unknown keys raise errors so typos do not silently change a run, and
so do keys another key would leave unread: sweep.omega.values beside
min/max/points, and center or dmu under bias mode 'fixed'.  So does a
key that one mapping gives twice, where yaml.load would keep the last
value.

A file is read as UTF-8 and parsed once, into libyaml's node graph
(`yaml.compose`), and one walk over the nodes gives the value
`yaml.load` would: a str scalar is its text, an int, float, bool or
null scalar goes through PyYAML's own converter for that tag, a
sequence is a list and a mapping with scalar keys a dict.  A run file
holds nothing else.  An alias, a merge key '<<', any other tag (!!set,
!!binary, a timestamp, !foo, !!str on a collection), a collection as a
key, a scalar its tag's converter cannot read and nesting past the
recursion limit are each a ConfigError that names the construct and,
but for the nesting, its line.  The composer tags the nodes through
`_tabled(YAML_LOADER)`, which reads PyYAML's table of implicit tags once
and gives each node the tag PyYAML's own resolver gives it.

A level key that is not a string is a ConfigError too: a channel end
names its level by equality, by which true, 1 and 1.0 are one key.
"""

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Optional

import numpy as np
import yaml
from yaml.constructor import SafeConstructor
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

from .junction import JUNCTION_LABELS, JunctionParams, hamiltonian_and_channels
from .liouville import DissipationChannel

__all__ = ["ConfigError", "RunConfig", "Model", "load_config"]

# libyaml's safe loader, when PyYAML has it: composing and walking a
# 2.3 kB d = 12 ladder file, both loaders tabled, took 0.38 ms with it
# against 5.0 ms with the pure-Python SafeLoader, about 13x (timeit, best
# of 7, 2-core x86-64 host)
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_CORE = "tag:yaml.org,2002:"
_STR, _SEQ, _MAP = _CORE + "str", _CORE + "seq", _CORE + "map"
_FLOAT = _CORE + "float"
_SAFE = SafeConstructor()
# PyYAML's own converters, so 1_000, .inf, 0x1F and yes read as yaml.load
# reads them; they keep no state
_SCALARS = {
    _CORE + "int": _SAFE.construct_yaml_int,
    _FLOAT: _SAFE.construct_yaml_float,
    _CORE + "bool": _SAFE.construct_yaml_bool,
    _CORE + "null": _SAFE.construct_yaml_null,
}


@lru_cache(maxsize=None)
def _tabled(base):
    """The loader class `base` with its implicit tags read from one table.

    Resolver.resolve, which the composer calls on every node, looks up
    the resolvers of a scalar's first character and joins them to the
    wildcard ones each time.  Here PyYAML's own yaml_implicit_resolvers
    are read once: each first character, the empty string included, maps
    to its (tag, regexp) pairs followed by the wildcard pairs, in the
    order resolve tries them, and any other character to the wildcard
    pairs alone.  A loader without path resolvers, as every safe loader
    is, tags a collection or a non-implicit scalar by its kind alone, so
    the node path that descend_resolver and ascend_resolver keep is never
    read, and they do nothing."""
    assert not base.yaml_path_resolvers, "the table has no node paths"
    implicit = base.yaml_implicit_resolvers
    wildcard = tuple(implicit.get(None, ()))
    table = {first: tuple(pairs) + wildcard
             for first, pairs in implicit.items() if first is not None}
    default = {ScalarNode: base.DEFAULT_SCALAR_TAG,
               SequenceNode: base.DEFAULT_SEQUENCE_TAG,
               MappingNode: base.DEFAULT_MAPPING_TAG}

    class Loader(base):
        def resolve(self, kind, value, implicit):
            if kind is ScalarNode and implicit[0]:
                for tag, regexp in table.get(value[:1], wildcard):
                    if regexp.match(value):
                        return tag
            return default[kind]

        def descend_resolver(self, current_node, current_index):
            pass

        def ascend_resolver(self):
            pass

    return Loader


_tabled(YAML_LOADER)    # the table is read at import


def _refusal(message, node):
    return ConfigError("%s (line %d)" % (message, node.start_mark.line + 1))


def _text(node):
    """A scalar's text for a message, cut to 40 characters."""
    text = node.value
    return repr(text if len(text) <= 40 else text[:37] + "...")


def _walk(node, seen):
    """The value of a node graph made of core scalars, lists and dicts;
    any other node is a ConfigError."""
    if node in seen:    # met again through an alias, and never walked twice
        raise ConfigError("unsupported YAML: an alias of the node anchored at "
                          "line %d" % (node.start_mark.line + 1))
    seen.add(node)
    kind, tag = type(node), node.tag
    if kind is ScalarNode:
        if tag == _STR:
            return node.value
        if tag == _FLOAT and "_" not in node.value and ":" not in node.value:
            # the converter strips underscores, reads a:b in base 60 and
            # takes the sign off before float(); short of those, float()
            # reads a finite value as it does, -0.0 included
            try:
                value = float(node.value)
            except ValueError:     # .inf, .nan, or no number at all
                pass
            else:
                if math.isfinite(value):
                    return value
        if tag in _SCALARS:
            try:
                return _SCALARS[tag](node)
            except (ValueError, IndexError, KeyError):
                # !!int '', !!bool abc, or past the integer digit limit
                raise _refusal("malformed YAML: cannot read %s as %s"
                               % (_text(node), tag.replace(_CORE, "!!")), node)
    elif kind is SequenceNode and tag == _SEQ:
        return [_walk(item, seen) for item in node.value]
    elif kind is MappingNode and tag == _MAP:
        out = {}
        for key, value in node.value:
            if type(key) is not ScalarNode:
                raise _refusal("unsupported YAML: a collection as a mapping "
                               "key", key)
            name = _walk(key, seen)
            if name in out:
                raise _refusal("duplicate key %r in a mapping" % key.value, key)
            out[name] = _walk(value, seen)
        return out
    what = _text(node) if kind is ScalarNode else "a collection"
    raise _refusal("unsupported YAML: tag %s on %s"
                   % (tag.replace(_CORE, "!!"), what), node)


def _load_yaml(fh):
    """What yaml.load(fh, Loader=YAML_LOADER) gives, from one parse, for a
    document of core scalars, lists and mappings."""
    try:
        root = yaml.compose(fh, Loader=_tabled(YAML_LOADER))
        return None if root is None else _walk(root, set())
    except RecursionError:
        # in the pure-Python composer, or in the walk
        raise ConfigError("unsupported YAML: nesting deeper than the "
                          "recursion limit")


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class Model:
    """One model: its state labels, Hermitian Hamiltonian, dissipation
    channels and the scale of its probe."""

    labels: tuple
    hamiltonian: np.ndarray
    channels: tuple
    scale: float

    @property
    def coupling(self):
        """The Hermitian probe scale * (A + A^dag), A the sum of the
        channels' upward jumps |upper><lower|, formed on each read."""
        a = np.zeros((len(self.labels),) * 2, dtype=complex)
        for ch in self.channels:
            a[ch.upper, ch.lower] += 1.0
        return self.scale * (a + a.conj().T)


def _junction_model(params):
    """The Model of one junction parameter set, probed through its dipole."""
    return Model(JUNCTION_LABELS, *hamiltonian_and_channels(params),
                 params.dipole)


@dataclass(frozen=True)
class RunConfig:
    kind: str                   # model.type: 'junction' or 'generic'
    model: Model
    points: tuple               # ((tag, Model), ...), one spectrum CSV each
    omega_grid: np.ndarray
    out_dir: str
    prefix: str
    temperature: Optional[float]


# The helpers below name a field by path % args, formatted only for the
# error that reports it.

def _require(mapping, key, path, *args):
    if key not in mapping:
        raise ConfigError("missing required field '%s.%s'" % (path % args, key))
    return mapping[key]


def _check_keys(mapping, allowed, path, *args):
    """Refuse a mapping with a key outside the set `allowed`, or a value
    that is not a mapping."""
    if not isinstance(mapping, dict):
        raise ConfigError("'%s' must be a mapping, got %r"
                          % (path % args, mapping))
    if not mapping.keys() <= allowed:
        raise ConfigError("unknown field(s) %s in '%s'"
                          % (sorted(mapping.keys() - allowed), path % args))


def _list(mapping, key, path):
    value = mapping.get(key, [])
    if not isinstance(value, list):
        raise ConfigError("field '%s.%s' must be a list, got %r" % (path, key, value))
    return value


def _string(mapping, key, path, default):
    value = mapping.get(key, default)
    if not isinstance(value, str):
        raise ConfigError("field '%s.%s' must be a string, got %r" % (path, key, value))
    return value


def _float(value, path, *args):
    if type(value) is float and math.isfinite(value):
        return value
    try:
        if isinstance(value, bool):
            raise TypeError("YAML true/false is not a number")
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError("field '%s' must be a number, got %r"
                          % (path % args, value))
    except OverflowError:   # an integer beyond the float range
        raise ConfigError("field '%s' must be finite" % (path % args))
    if not math.isfinite(out):
        raise ConfigError("field '%s' must be finite" % (path % args))
    return out


_CHANNEL = "model.generic.channels[%d]"
_CHANNEL_KEYS = frozenset(("upper", "lower", "rate_up", "rate_down"))


def _channel(ch, i, index):
    """Entry i of model.generic.channels as a DissipationChannel; `index`
    maps each level label to its position."""
    _check_keys(ch, _CHANNEL_KEYS, _CHANNEL, i)
    labels = (_require(ch, "upper", _CHANNEL, i),
              _require(ch, "lower", _CHANNEL, i))
    try:
        ends = index[labels[0]], index[labels[1]]
    except (KeyError, TypeError):   # TypeError: a list or a mapping
        # report the first end that names no level: only a string can name
        # one, and `in` would fail on a list
        upper_known = type(labels[0]) is str and labels[0] in index
        label = labels[1] if upper_known else labels[0]
        raise ConfigError("%s: %r names no level" % (_CHANNEL % i, label)) from None
    if ends[0] == ends[1]:
        raise ConfigError("%s: upper and lower must differ" % (_CHANNEL % i))
    rate_up = _float(_require(ch, "rate_up", _CHANNEL, i),
                     "model.generic.channels[%d].rate_up", i)
    rate_down = _float(_require(ch, "rate_down", _CHANNEL, i),
                       "model.generic.channels[%d].rate_down", i)
    try:
        return DissipationChannel(*ends, rate_up, rate_down)
    except ValueError as exc:
        raise ConfigError("%s: %s" % (_CHANNEL % i, exc))


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
        try:
            grid = np.linspace(lo, hi, n)
        except (ValueError, IndexError):
            # numpy refuses the size before it allocates (IndexError near
            # 2**63, where the size wraps to an empty range)
            raise ConfigError("sweep.omega.points is too large")
    if grid.size == 0:
        raise ConfigError("sweep.omega produced an empty grid")
    return grid


def _junction(section, sweep):
    """model.junction and sweep.bias: the junction's Model, its spectrum
    points, one per bias pair or else the one point 'run' at its own
    (mu_1, mu_2), and the electrodes' temperature if they share one."""
    allowed = {f.name for f in fields(JunctionParams)}
    _check_keys(section, allowed | {"gamma_1", "gamma_2"}, "model.junction")
    if "gamma_1" in section or "gamma_2" in section:
        raise ConfigError(
            "per-electrode exchange rates are not supported; the model "
            "assumes a common 'gamma' for both electrodes"
        )
    kwargs = {k: _float(v, "model.junction.%s", k) for k, v in section.items()}
    if "mu_1" not in kwargs or "mu_2" not in kwargs:
        raise ConfigError("model.junction requires mu_1 and mu_2")
    try:
        params = JunctionParams(**kwargs)
    except ValueError as exc:
        raise ConfigError("model.junction: %s" % exc)

    pairs = []      # (tag, mu_1, mu_2) of each bias point
    bias = sweep.get("bias", {})
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
            pairs.append(("dmu%.4g" % dmu, center + dmu, center - dmu))
    for pair in _list(bias, "extra_pairs", "sweep.bias"):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError("sweep.bias.extra_pairs entries must be pairs")
        mu1 = _float(pair[0], "sweep.bias.extra_pairs")
        mu2 = _float(pair[1], "sweep.bias.extra_pairs")
        pairs.append(("mu%.4g_%.4g" % (mu1, mu2), mu1, mu2))
    # points whose tags collide would overwrite each other's output file
    seen = set()
    for tag, _, _ in pairs:
        if tag in seen:
            raise ConfigError("sweep.bias: two points share the output tag '%s'"
                              % tag)
        seen.add(tag)

    model = _junction_model(params)
    points = [(tag, _junction_model(replace(params, mu_1=mu1, mu_2=mu2)))
              for tag, mu1, mu2 in pairs] or [("run", model)]
    return model, points, params.t_1 if params.t_1 == params.t_2 else None


def _generic(section, sweep):
    """model.generic: its Model, probed at scale 1, as the one spectrum
    point 'spectrum', and its temperature if it gives one."""
    _check_keys(section, {"levels", "channels", "temperature"}, "model.generic")
    levels = _require(section, "levels", "model.generic")
    if not isinstance(levels, dict) or not levels:
        raise ConfigError("model.generic.levels must be a non-empty mapping")
    labels = tuple(levels.keys())
    for label in labels:
        # a channel end names a level by equality, where true == 1 == 1.0
        if type(label) is not str:
            raise ConfigError("model.generic.levels: level key %r is not "
                              "a string" % (label,))
    energies = [_float(levels[k], "model.generic.levels.%s", k) for k in labels]
    ham = np.diag(np.asarray(energies, dtype=complex))
    index = {label: n for n, label in enumerate(labels)}
    channels = [_channel(ch, i, index) for i, ch in
                enumerate(_list(section, "channels", "model.generic"))]
    if not channels:
        # the probe couples the channels' level pairs
        raise ConfigError("model.generic.channels must list at least one "
                          "channel")
    temperature = None
    if "temperature" in section:
        temperature = _float(section["temperature"], "model.generic.temperature")
        if temperature <= 0:
            raise ConfigError("model.generic.temperature must be positive")
    if "bias" in sweep:
        raise ConfigError("sweep.bias applies only to junction models")
    model = Model(labels, ham, tuple(channels), 1.0)
    return model, [("spectrum", model)], temperature


def load_config(path):
    """Parse and validate a YAML run file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = _load_yaml(fh)
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc)
    except ConfigError:
        raise
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: a file that is not UTF-8
        raise ConfigError("malformed YAML: %s" % exc)
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    _check_keys(raw, {"model", "sweep", "output"}, "<top>")

    sections = _require(raw, "model", "<top>")
    _check_keys(sections, {"type", "junction", "generic"}, "model")
    kind = _require(sections, "type", "model")
    if "junction" in sections and "generic" in sections:
        raise ConfigError("config must contain exactly one model section")
    try:
        reader = {"junction": _junction, "generic": _generic}[kind]
    except (KeyError, TypeError):   # TypeError: a list or a mapping
        raise ConfigError("model.type must be 'junction' or 'generic'") from None
    section = _require(sections, kind, "model")
    sweep = _require(raw, "sweep", "<top>")
    _check_keys(sweep, {"omega", "bias"}, "sweep")
    model, points, temperature = reader(section, sweep)
    omega_grid = _omega_grid(_require(sweep, "omega", "sweep"))

    output = raw.get("output", {})
    _check_keys(output, {"directory", "prefix"}, "output")
    out_dir = _string(output, "directory", "output", ".")
    prefix = _string(output, "prefix", "output", "curlflux")

    return RunConfig(
        kind=kind,
        model=model,
        points=tuple(points),
        omega_grid=omega_grid,
        out_dir=out_dir,
        prefix=prefix,
        temperature=temperature,
    )
