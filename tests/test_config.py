"""The run-file loader gives what yaml.load gives on core scalars, lists
and mappings, refuses any other YAML, under either loader, and holds
each channel at its support and no probe."""

import io
import random
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from yaml.constructor import SafeConstructor

from curlflux import config
from helpers import dense_raising
from test_liouville import _bench_workloads

LOADERS = [yaml.SafeLoader] + (
    [yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


def outcome(load, text):
    """The value load(text) returns, or the exception it raises."""
    try:
        return load(io.StringIO(text))
    except Exception as exc:
        return exc


def assert_loads_like_yaml_load(loader, text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config, "YAML_LOADER", loader)
        got = outcome(config._load_yaml, text)
    want = outcome(lambda fh: yaml.load(fh, Loader=loader), text)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        # repr is exact for these types and, unlike ==, survives NaN; no
        # object is shared, as only an alias shares one
        assert repr(got) == repr(want)


HANDWRITTEN = {
    "core-spellings": "a: 1_000\nb: .inf\nc: 0x1F\nd: yes\ne: ~\nf: -.INF\n"
                      "g: 0o17\nh: 1:30\ni: 190:20:30.15\nj: .NaN\nk: +12e3\n"
                      "l: 'quoted'\nm: Off\nn: null\n",
    "explicit-core-tags": "a: !!str 1\nb: !!float 2\nc: !!int '3'\n"
                          "d: !!seq [1]\ne: !!map {f: 4}\n",
    # the spellings a float() read of !!float must keep: underscores, a
    # sign (+.5 is a string), -0.0, an exponent, explicit tags with a
    # bare exponent, padding and inf
    "float-spellings": "a: 1_0.5\nb: 1__0.5\nc: +.5\nd: -0.0\ne: 1.5E+3\n"
                       "f: !!float 1e5\ng: !!float ' 2.5 '\nh: !!float inf\n",
    "empty": "",
    "comment-only": "# nothing\n",
    "two-documents": "a: 1\n---\nb: 2\n",
    "syntax-error": "a: [1, 2\n",
}


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("text", HANDWRITTEN.values(), ids=HANDWRITTEN.keys())
def test_handwritten_documents_load_as_yaml_load_loads_them(loader, text):
    assert_loads_like_yaml_load(loader, text)


ALIAS = "unsupported YAML: an alias of the node anchored at line 1"
# documents the walk refuses, each with its message; yaml.load reads all
# but the bad conversion and, under the pure-Python loader, the nesting
UNSUPPORTED = {
    "anchors-and-aliases": ("a: &x [1, 2]\nb: *x\nc: &s 1.5\nd: *s\n", ALIAS),
    "merge-key": ("base: &b {x: 1, y: 2}\nmerged:\n  <<: *b\n  y: 3\n",
                  "unsupported YAML: tag !!merge on '<<' (line 3)"),
    "merge-of-a-merging-mapping": (
        "c: &c {k: 0, z: 9}\na: [&b {<<: *c, k: 1}]\nm: {<<: *b, k: 2}\n",
        "unsupported YAML: tag !!merge on '<<' (line 2)"),
    "beside-a-merge": ("base: &b {x: 1}\nm: {<<: *b, y: 1, y: 2}\n",
                       "unsupported YAML: tag !!merge on '<<' (line 2)"),
    "value-key": ("a:\n  =: 1\n  b: 2\n",
                  "unsupported YAML: tag !!value on '=' (line 2)"),
    "explicit-tag-on-wrong-node": (
        "a: [1]\nb: !!str {c: 1}\n",
        "unsupported YAML: tag !!str on a collection (line 2)"),
    "bad-explicit-conversion": ("a: [!!int abc]\nb: !foo x\n",
                                "malformed YAML: cannot read 'abc' as !!int "
                                "(line 1)"),
    "timestamp": ("t: 2001-12-14t21:59:43.10-05:00\nd: 2002-12-14\n",
                  "unsupported YAML: tag !!timestamp on "
                  "'2001-12-14t21:59:43.10-05:00' (line 1)"),
    "binary": ("b: !!binary aGVsbG8=\n",
               "unsupported YAML: tag !!binary on 'aGVsbG8=' (line 1)"),
    "set": ("s: !!set {a, b}\n",
            "unsupported YAML: tag !!set on a collection (line 1)"),
    "set-member": ("s: !!set {a, a}\n",
                   "unsupported YAML: tag !!set on a collection (line 1)"),
    "recursive-alias": ("&a [1, *a]\n", ALIAS),
    "recursive-mapping": ("&m {self: *m, x: 1}\n", ALIAS),
    "alias-bomb": ("a: &a [x, x, x]\nb: &b [*a, *a, *a]\nc: &c [*b, *b, *b]\n"
                   "d: &d [*c, *c, *c]\ne: [*d, *d, *d]\n", ALIAS),
    "sequence-key": ("? [1, 2]\n: x\n",
                     "unsupported YAML: a collection as a mapping key (line 1)"),
    "mapping-key": ("? {a: 1}\n: x\n",
                    "unsupported YAML: a collection as a mapping key (line 1)"),
    "unknown-tag": ("a: !foo bar\n",
                    "unsupported YAML: tag !foo on 'bar' (line 1)"),
    # the pure-Python composer recurses, libyaml's does not but the walk does
    "deep-nesting": ("[" * 3000 + "1" + "]" * 3000,
                     "unsupported YAML: nesting deeper than the recursion "
                     "limit"),
}


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("text, message", UNSUPPORTED.values(),
                         ids=UNSUPPORTED.keys())
def test_unread_yaml_is_refused(loader, text, message):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config, "YAML_LOADER", loader)
        with pytest.raises(config.ConfigError) as refused:
            config._load_yaml(io.StringIO(text))
    assert str(refused.value) == message


# documents yaml.load reads by keeping a repeated key's last value
DUPLICATES = {
    "duplicate-keys": ("a: 1\nb: 2\na: 3\n1: x\n1.0: y\ntrue: z\n", "'a'", 3),
    "equal-numbers": ("1: x\n1.0: y\ntrue: z\n", "'1.0'", 2),
    "nested": ("a: {b: {c: 1, c: 2}}\n", "'c'", 1),
    "beside-a-tag": ("a: !!str x\nb: 1\nb: 2\n", "'b'", 3),
}


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("text, key, line", DUPLICATES.values(),
                         ids=DUPLICATES.keys())
def test_a_key_given_twice_is_refused(loader, text, key, line):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config, "YAML_LOADER", loader)
        with pytest.raises(config.ConfigError) as refused:
            config._load_yaml(io.StringIO(text))
    assert str(refused.value) == (
        "duplicate key %s in a mapping (line %d)" % (key, line))


GENERIC = ("model:\n  type: generic\n  generic:\n    levels: {a: 0.0, b: 1.0}\n"
           "    channels:\n      - {upper: b, lower: a, rate_up: 0.01, "
           "rate_down: 0.02}\n")
SWEEP = "sweep:\n  omega: {min: 0.9, max: 1.1, points: 3}\n"


@pytest.mark.parametrize("text", [
    GENERIC.replace("b: 1.0}", "b: 1.0, b: 2.0}") + SWEEP,
    GENERIC + SWEEP + SWEEP,
], ids=["level", "section"])
def test_a_run_file_giving_a_key_twice_is_a_config_error(tmp_path, text):
    path = tmp_path / "twice.yaml"
    path.write_text(text)
    with pytest.raises(config.ConfigError, match="^duplicate key "):
        config.load_config(str(path))


scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=8))
documents = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(scalars, inner, max_size=4), max_leaves=24)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=documents, flow=st.none() | st.booleans())
def test_dumped_core_documents_load_as_yaml_load_loads_them(loader, doc, flow):
    text = yaml.safe_dump(doc, default_flow_style=flow, sort_keys=False)
    assert_loads_like_yaml_load(loader, text)


def nodes(root):
    """Each node of a composed graph, depth first, as (type, tag, value,
    style, start line), the value of a collection as its length, and a
    node met again through an alias as the position of its first entry."""
    out, stack, seen = [], [root], {}
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if isinstance(node, tuple):     # a mapping's (key, value) pair
            stack.extend(reversed(node))
            continue
        if id(node) in seen:
            out.append(seen[id(node)])
            continue
        seen[id(node)] = len(out)
        value = node.value
        if isinstance(node, yaml.ScalarNode):
            out.append((type(node), node.tag, value, node.style,
                        node.start_mark.line))
        else:
            out.append((type(node), node.tag, len(value), None,
                        node.start_mark.line))
            stack.extend(reversed(value))
    return out


def assert_tagged_as_pyyaml(loader, text):
    """The tabled loader over `loader` composes `text` node for node as
    `loader` itself, with PyYAML's Resolver.resolve, does.  Under
    yaml.SafeLoader that oracle is pure Python, resolver and composer.
    libyaml's composer is its own oracle: it tags '!' on an empty scalar
    str where PyYAML's tags it null, whatever the resolver."""
    def compose_with(cls):
        return outcome(lambda fh: nodes(yaml.compose(fh, Loader=cls)), text)

    got, want = compose_with(config._tabled(loader)), compose_with(loader)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got == want


def run_file_texts(tmp_path):
    """The bundled run files and the bench's seed-3 inputs of every
    workload, each as text."""
    configs = resources.files("curlflux") / "configs"
    paths = {p for p in configs.iterdir() if p.name.endswith(".yaml")}
    workloads = _bench_workloads()
    for name in workloads.WORKLOADS:
        spec = workloads.generate(name, 3, str(tmp_path / name))
        paths |= {Path(op["argv"][2]) for op in [spec["warmup"]] + spec["batch"]}
    return [p.read_text() for p in sorted(paths, key=str)]


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
def test_the_tabled_resolver_tags_every_document_as_pyyaml(loader, tmp_path):
    texts = run_file_texts(tmp_path)
    # bundled, then cli_cold, junction_sweep, ladder_flux, ladder_spectrum
    assert len(texts) == 7 + 4 + 7 + 8 + 4
    texts += list(HANDWRITTEN.values())
    texts += [text for text, *_ in UNSUPPORTED.values()]
    texts += [text for text, *_ in DUPLICATES.values()]
    for text in texts:
        assert_tagged_as_pyyaml(loader, text)


# plain scalars: texts of the characters PyYAML's implicit-resolver
# regexes read and the letters of the words they match, texts each of
# those regexes matches, and such a match with one character put before
# or after it, which it may or may not still match
READ = "0123456789+-._:~<= eExXoObBT" + "yesnoontruefalsenullinfnan"
CHARACTERS = sorted(set(READ.lower() + READ.upper()))
matches = st.one_of([st.from_regex(regexp) for regexp in dict.fromkeys(
    regexp for pairs in yaml.SafeLoader.yaml_implicit_resolvers.values()
    for _, regexp in pairs)])
near = st.tuples(st.sampled_from(CHARACTERS), matches, st.booleans()).map(
    lambda t: t[1] + t[0] if t[2] else t[0] + t[1])
plain = st.text(alphabet=CHARACTERS, max_size=10) | matches | near


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
@settings(max_examples=500, deadline=None, derandomize=True)
@given(text=plain)
def test_the_tabled_resolver_tags_plain_scalars_as_pyyaml(loader, text):
    assert_tagged_as_pyyaml(loader, text)
    assert_tagged_as_pyyaml(loader, "v: %s\n" % text)
    # quoted, the same text is a str
    assert_tagged_as_pyyaml(loader, "v: '%s'\n" % text.replace("'", "''"))


def test_run_files_are_composed_once_and_walked_without_pyyaml_constructing(
        monkeypatch):
    composed = []

    def compose(*args, **kwargs):
        composed.append(args)
        return real_compose(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("PyYAML's constructor called")

    real_compose = yaml.compose
    monkeypatch.setattr(yaml, "compose", compose)
    monkeypatch.setattr(yaml, "load", refuse)
    monkeypatch.setattr(SafeConstructor, "construct_document", refuse)
    configs = resources.files("curlflux") / "configs"
    names = sorted(p.name for p in configs.iterdir() if p.name.endswith(".yaml"))
    for name in names:
        config.load_config(str(configs / name))
    assert len(composed) == len(names) == 7


def test_loading_a_d128_ladder_holds_no_dense_channel(tmp_path):
    # the bench's d = 128 ladder (seed 3) with 401 frequencies: its 191
    # channels as dense 128 x 128 complex matrices would take 50 MB
    model, top = _bench_workloads().ladder_model(random.Random(3), 128)
    doc = {"model": dict(type="generic", **model),
           "sweep": {"omega": {"min": 0.05, "max": top + 0.1, "points": 401}},
           "output": {"directory": "out", "prefix": "ladder128"}}
    path = tmp_path / "ladder128.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    tracemalloc.start()
    try:
        assert len(config.load_config(str(path)).model.channels) == 191
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, "peak traced allocation %.2f MB" % (peak / 1e6)


def test_loading_a_d256_ladder_holds_h_and_no_probe(tmp_path):
    # the bench's d = 256 ladder (seed 3): of the dense d x d arrays only
    # H, 1 MB, is held once load_config returns; the probe is formed when
    # a command reads `coupling`
    d = 256
    model, top = _bench_workloads().ladder_model(random.Random(3), d)
    doc = {"model": dict(type="generic", **model),
           "sweep": {"omega": {"min": 0.05, "max": top + 0.1, "points": 401}},
           "output": {"directory": "out", "prefix": "ladder256"}}
    path = tmp_path / "ladder256.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    tracemalloc.start()
    try:
        run = config.load_config(str(path))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1.5 * d * d * 16, "held %.2f MB" % (held / 1e6)
    assert run.model.hamiltonian.shape == (d, d)
    a = sum(dense_raising(ch, d) for ch in run.model.channels)
    assert np.array_equal(run.model.coupling,
                          run.model.scale * (a + a.conj().T))
