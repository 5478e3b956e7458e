import itertools
import json
import random
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curlflux import cli
from curlflux.cli import _analyze, main, render_flux_report
from curlflux.config import load_config
from curlflux.flux import (
    FLUX_CLAMP,
    IMAG_TOL,
    NonStationaryError,
    curl_flux,
    is_detailed_balanced,
    loop_decomposition,
    reconstruct_flux,
)
from curlflux.junction import JUNCTION_LABELS, JunctionParams
from curlflux.reduction import analyze

from helpers import (
    dense_loop_decomposition,
    generator_of,
    random_ladder_model,
    random_lindblad_model,
    random_rate_matrix,
    rate_steady_state,
)
from junction_oracles import build_junction
from test_liouville import _bench_workloads, generator_inputs

# every bundled and bench/reference run file
RUN_FILES = sorted(
    [str(p) for p in (resources.files("curlflux") / "configs").iterdir()
     if p.name.endswith(".yaml")]
    + [str(p) for p in (Path(__file__).resolve().parents[1] / "bench"
                        / "reference").glob("*.yaml")])


def stationary_pair(rng, dim):
    l = random_rate_matrix(rng, dim)
    return l, rate_steady_state(l).vector


def reversible_pair(rng, dim):
    """Rates built from symmetric exchange weights and Boltzmann factors."""
    energies = rng.uniform(0.0, 2.0, size=dim)
    weights = rng.uniform(0.2, 1.0, size=(dim, dim))
    weights = 0.5 * (weights + weights.T)
    l = np.zeros((dim, dim))
    for m in range(dim):
        for n in range(dim):
            if m != n:
                l[n, m] = weights[n, m] * np.exp(-(energies[n] - energies[m]) / 2.0)
    np.fill_diagonal(l, -l.sum(axis=0))
    return l, rate_steady_state(l).vector


def three_cycle(forward=9.0, backward=3.0):
    """Circulant rates with the uniform distribution stationary."""
    l = np.zeros((3, 3))
    for i in range(3):
        l[(i + 1) % 3, i] += forward
        l[(i - 1) % 3, i] += backward
    np.fill_diagonal(l, -l.sum(axis=0))
    return l, np.full(3, 1.0 / 3.0)


def enumerate_simple_cycles(support):
    """All directed simple cycles of a boolean adjacency matrix, each
    rotated to start at its smallest node (brute force, small graphs)."""
    dim = support.shape[0]
    found = set()
    for length in range(2, dim + 1):
        for nodes in itertools.permutations(range(dim), length):
            if nodes[0] != min(nodes):
                continue
            edges = list(zip(nodes, nodes[1:] + nodes[:1]))
            if all(support[i, j] for i, j in edges):
                found.add(nodes)
    return found


def test_detailed_balanced_systems_have_zero_flux():
    rng = np.random.default_rng(20)
    for dim in (3, 4, 6):
        l, p = reversible_pair(rng, dim)
        decomp = curl_flux(l, p)
        assert np.abs(decomp.c).max() < 1e-12
        assert decomp.loops == ()
        balanced, violation = is_detailed_balanced(l, p)
        assert balanced and violation < 1e-12


def test_three_cycle_flux_values():
    l, p = three_cycle()
    decomp = curl_flux(l, p)
    # one-way currents 3 and 1 leave net flux 2 forward, none backward
    assert decomp.t_rate[0, 1] == pytest.approx(3.0)
    assert decomp.t_rate[1, 0] == pytest.approx(1.0)
    assert decomp.c[0, 1] == pytest.approx(2.0)
    assert decomp.c[1, 0] == 0.0
    assert decomp.loops == (((0, 1, 2), pytest.approx(2.0)),)


def test_loop_decomposition_empty_for_zero_flux():
    assert loop_decomposition(np.zeros((4, 4))) == []


def test_loop_decomposition_random_stationary_systems():
    rng = np.random.default_rng(21)
    for dim in (3, 4, 5):
        for _ in range(5):
            l, p = stationary_pair(rng, dim)
            decomp = curl_flux(l, p)
            rebuilt = reconstruct_flux(decomp.loops, dim)
            assert np.abs(rebuilt - decomp.c).max() < 1e-12
            # every extracted loop is a genuine simple cycle of the support
            cycles = enumerate_simple_cycles(decomp.c > 0)
            for cyc, weight in decomp.loops:
                assert weight > 0
                assert cyc in cycles
            assert len(decomp.loops) <= np.count_nonzero(decomp.c)


def test_loop_count_is_bounded_by_the_flux_support():
    # each extraction zeroes the cycle's smallest edge exactly (x - x = 0)
    # and grows none, so there are at most as many loops as positive
    # entries; here the net flux of 300 random cycles on 12 nodes
    rng = np.random.default_rng(5)
    dim = 12
    f = np.zeros((dim, dim))
    for _ in range(300):
        cycle = list(rng.permutation(dim)[:rng.integers(2, dim + 1)])
        weight = rng.uniform(0.1, 1.0)
        for i, j in zip(cycle, cycle[1:] + cycle[:1]):
            f[i, j] += weight
    c = np.maximum(f - f.T, 0.0)
    loops = loop_decomposition(c)
    assert np.abs(reconstruct_flux(loops, dim) - c).max() < 1e-12
    assert len(loops) <= np.count_nonzero(c)


def test_loop_decomposition_rejects_divergent_input():
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0  # a lone edge cannot close into loops
    with pytest.raises(ValueError, match="divergence") as got:
        loop_decomposition(bad)
    with pytest.raises(ValueError) as want:
        dense_loop_decomposition(bad)
    assert str(got.value) == str(want.value)


def extraction(decompose, c):
    """The loops decompose(c) returns, or the message it raises."""
    try:
        return decompose(c)
    except ValueError as exc:
        return str(exc)


def assert_loops_are_the_dense_walks(c):
    # the same cycles in the same order with the same weights, bit for
    # bit (repr is exact for ints and floats), or the same refusal
    got = extraction(loop_decomposition, c)
    assert repr(got) == repr(extraction(dense_loop_decomposition, c))


NEAR_CLAMP = st.sampled_from([FLUX_CLAMP, float(np.nextafter(FLUX_CLAMP, 0.0)),
                              2.0 * FLUX_CLAMP])


@st.composite
def cycle_fluxes(draw):
    """The net flux of random cycles on 2-40 nodes, weights at, just below
    and far above FLUX_CLAMP, with up to three entries then overwritten
    by such weights (which may leave it divergent)."""
    dim = draw(st.integers(2, 40))
    nodes = st.lists(st.integers(0, dim - 1), min_size=2, max_size=dim,
                     unique=True)
    weights = NEAR_CLAMP | st.floats(1e-3, 10.0)
    f = np.zeros((dim, dim))
    for cycle, weight in draw(st.lists(st.tuples(nodes, weights), max_size=30)):
        for i, j in zip(cycle, cycle[1:] + cycle[:1]):
            f[i, j] += weight
    c = np.maximum(f - f.T, 0.0)
    index = st.integers(0, dim - 1)
    for i, j, value in draw(st.lists(st.tuples(index, index, NEAR_CLAMP),
                                     max_size=3)):
        c[i, j] = value
    return c


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cycle_fluxes())
def test_loops_of_random_cycle_fluxes_are_the_dense_walks(c):
    assert_loops_are_the_dense_walks(c)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(generator_inputs())
def test_loops_of_every_generator_are_the_dense_walks(case):
    analysis = analyze(case[0])
    assume(np.all(analysis.populations > 0))
    flux = analysis.flux
    assert repr(list(flux.loops)) == repr(dense_loop_decomposition(flux.c))


@pytest.mark.parametrize("path", RUN_FILES, ids=lambda p: Path(p).name)
def test_loops_of_every_run_file_are_the_dense_walks(path):
    config = load_config(path)
    for model in [config.model] + [model for _, model in config.points]:
        assert_loops_are_the_dense_walks(_analyze(model).flux.c)


def test_curl_flux_rejects_non_stationary_populations():
    rng = np.random.default_rng(22)
    l, p = stationary_pair(rng, 4)
    with pytest.raises(NonStationaryError):
        curl_flux(l, np.roll(p, 1))


def test_curl_flux_rejects_non_positive_populations():
    l, p = three_cycle()
    bad = p.copy()
    bad[0] = 0.0
    with pytest.raises(ValueError, match="positive"):
        curl_flux(l, bad / bad.sum())



def test_imaginary_rates_are_refused_above_the_rounding_bound():
    l, p = three_cycle()
    # max |Re L| = 12, so the bound is 12 * IMAG_TOL
    bound = IMAG_TOL * np.abs(l).max()
    pattern = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]])
    decomp = curl_flux(l, p)
    calls = (
        lambda m: curl_flux(m, p),
        lambda m: is_detailed_balanced(m, p),
    )
    for call in calls:
        with pytest.raises(ValueError, match="imaginary parts"):
            call(l + 2.0j * bound * pattern)
    below = l + 0.5j * bound * pattern
    got = curl_flux(below, p)
    for field in ("t_rate", "c", "sym"):
        assert np.array_equal(getattr(got, field), getattr(decomp, field))
    assert got.loops == decomp.loops
    assert np.array_equal(got.s_d, decomp.s_d)
    assert np.array_equal(got.v_ss, decomp.v_ss)
    assert is_detailed_balanced(below, p) == is_detailed_balanced(l, p)

def test_split_operators_at_detailed_balance():
    rng = np.random.default_rng(23)
    l, p = reversible_pair(rng, 4)
    decomp = curl_flux(l, p)
    assert np.abs(decomp.v_ss).max() < 1e-12
    assert np.allclose(decomp.s_d, -1.0, atol=1e-12)


def test_split_operators_three_cycle_hand_values():
    l, p = three_cycle()
    decomp = curl_flux(l, p)
    # inflow flux 2 at each node, exit rate 12, population 1/3
    assert np.allclose(decomp.v_ss, 2.0 / (-12.0 * (1.0 / 3.0)), atol=1e-14)
    assert np.allclose(decomp.s_d + decomp.v_ss, -1.0, atol=1e-14)


def test_split_operators_junction_completeness():
    model = build_junction(JunctionParams(mu_1=1.3, mu_2=0.7))
    assert np.abs(model.flux.s_d + model.flux.v_ss + 1.0).max() < 1e-12


def per_state_split_operators(l, p, sym, c):
    """s_d and v_ss as one in-order Python sum per state n: the inflow
    sym[k, n] or c[k, n] over the outflow L[n, n] p[n]."""
    d = p.size
    s_d, v_ss = np.empty(d), np.empty(d)
    for n in range(d):
        ks = [k for k in range(d) if k != n]
        s_d[n] = sum(sym[k, n] for k in ks) / (l[n, n] * p[n])
        v_ss[n] = sum(c[k, n] for k in ks) / (l[n, n] * p[n])
    return s_d, v_ss


def rate_ratio_s_d(l, p):
    """s_d read off the rates: sum_k min(L[n,k] p[k] / p[n], L[k,n]) / L[n,n]."""
    d = p.size
    return np.array([sum(min(l[n, k] * p[k] / p[n], l[k, n])
                         for k in range(d) if k != n) / l[n, n]
                     for n in range(d)])


def test_split_operators_equal_per_state_sums_bit_for_bit():
    rng = np.random.default_rng(25)
    pairs = [stationary_pair(rng, dim) for dim in (2, 3, 7, 16, 24)]
    for dim in (3, 12, 24):
        l = analyze(generator_of(random_ladder_model(rng, dim)[2])).l_matrix.real
        pairs.append((l, rate_steady_state(l).vector))
    for dim in (3, 8):
        l = analyze(generator_of(random_lindblad_model(rng, dim)[2])).l_matrix.real
        pairs.append((l, rate_steady_state(l).vector))
    for l, p in pairs:
        got = curl_flux(l, p)
        s_d, v_ss = per_state_split_operators(l, p, got.sym, got.c)
        assert np.array_equal(got.s_d, s_d) and np.array_equal(got.v_ss, v_ss)
        # the same part from the rates, summed in another order
        scale = np.abs(got.s_d).max()
        assert np.abs(got.s_d - rate_ratio_s_d(l, p)).max() <= 1e-15 * scale


def test_split_operators_reject_singular_diagonal():
    l = np.zeros((2, 2))
    with pytest.raises(ValueError, match="singular"):
        curl_flux(l, np.array([0.5, 0.5]))


def test_detailed_balance_violation_equals_loop_flux():
    model = build_junction(JunctionParams(mu_1=1.3, mu_2=0.7))
    balanced, violation = is_detailed_balanced(model.l_matrix, model.populations)
    assert not balanced
    assert violation == pytest.approx(model.flux_j, rel=1e-12)


def test_junction_equal_fermi_point_is_balanced():
    model = build_junction(JunctionParams(mu_1=1.06, mu_2=0.94))
    balanced, violation = is_detailed_balanced(model.l_matrix, model.populations)
    assert balanced and violation < 1e-12


def test_flux_sector_vanishes_continuously_at_balance():
    # ||v_ss|| shrinks monotonically as the bias approaches the
    # detailed-balance point (where the two Fermi factors coincide) and
    # grows monotonically beyond it
    def v_norm(dmu):
        model = build_junction(JunctionParams(mu_1=1 + dmu, mu_2=1 - dmu))
        return np.abs(model.flux.v_ss).max()

    approach = [v_norm(d) for d in (0.0, 0.02, 0.04, 0.055, 0.06)]
    assert all(a > b for a, b in zip(approach, approach[1:]))
    assert approach[-1] < 1e-12
    depart = [v_norm(d) for d in (0.06, 0.08, 0.1, 0.2, 0.3)]
    assert all(a < b for a, b in zip(depart, depart[1:]))


def test_antisymmetric_identity_exact():
    rng = np.random.default_rng(24)
    l, p = stationary_pair(rng, 5)
    decomp = curl_flux(l, p)
    lhs = decomp.c - decomp.c.T
    rhs = decomp.t_rate - decomp.t_rate.T
    assert np.array_equal(lhs, rhs)


def test_flux_axioms_random_property_suite():
    rng = np.random.default_rng(25)
    for _ in range(50):
        dim = int(rng.integers(3, 9))
        l, p = stationary_pair(rng, dim)
        decomp = curl_flux(l, p)
        c = decomp.c
        assert np.all(c >= 0)
        assert np.all(np.diag(c) == 0)
        assert np.abs(c * c.T).max() < 1e-22
        assert np.abs(c.sum(axis=0) - c.sum(axis=1)).max() < 1e-11
        assert np.abs(decomp.t_rate - (c + decomp.sym)).max() < 1e-15
        assert np.abs(reconstruct_flux(decomp.loops, dim) - c).max() < 1e-11
        assert np.abs(decomp.s_d + decomp.v_ss + 1.0).max() < 1e-11


def test_flux_report_is_deterministic_json():
    model = build_junction(JunctionParams(mu_1=1.2, mu_2=0.8))
    verdict = is_detailed_balanced(model.l_matrix, model.populations)
    text1 = render_flux_report(model, JUNCTION_LABELS, verdict)
    text2 = render_flux_report(model, JUNCTION_LABELS, verdict)
    assert text1 == text2
    data = json.loads(text1)
    assert data["states"] == ["g", "e1", "e2"]
    assert data["detailed_balance"] is False
    assert len(data["loops"]) == 1
    assert data["loops"][0]["cycle"] == ["g", "e1", "e2"]
    assert data["loops"][0]["weight"] == pytest.approx(model.flux_j)


def test_flux_report_bytes_equal_the_json_module(tmp_path):
    # every bundled and bench/reference run file, one report each: the
    # text the CLI writes is json.dumps(report, indent=2, sort_keys=True)
    # of the report it holds
    texts = []
    for i, path in enumerate(RUN_FILES):
        out = tmp_path / str(i)
        assert main(["flux", "--config", path, "--out", str(out)]) == 0
        (written,) = out.glob("*_flux.json")
        texts.append(written.read_text())
    assert len(texts) == len(RUN_FILES) == 11
    for text in texts:
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)


def test_json_writer_spells_special_values_like_the_json_module():
    # the kinds of value a flux report holds
    values = {"flag": False, "negative_zero": -0.0, "nan": float("nan"),
              "populations": [1.0, float("inf")],
              "tail": [-float("inf"), 0.0, -0.0, 5e-324, 1e300, True, "é"],
              "nested": [[], {"b": [[float("nan")]], "a": "x"}, [1.5]]}
    text = cli._dumps(values)
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, sort_keys=True)
    for key in ("flag", "negative_zero", "nan", "populations", "tail"):
        assert json.dumps(report[key]) == json.dumps(values[key])
    assert text == json.dumps(values, indent=2, sort_keys=True)


def test_flux_report_lists_every_nonzero_coherence_in_row_major_order():
    # a coherent four-level model, whose steady state has every coherence
    rng = np.random.default_rng(31)
    analysis = analyze(generator_of(random_lindblad_model(rng, 4)[2]))
    labels = ["a", "b", "c", "d"]
    report = json.loads(render_flux_report(analysis, labels, (False, 0.0)))
    rho = analysis.rho_ss
    assert report["coherences"] == [
        {"pair": [labels[n], labels[m]], "re": rho[n, m].real,
         "im": rho[n, m].imag}
        for n in range(4) for m in range(n + 1, 4)
    ]


def test_curl_flux_holds_little_more_than_its_three_matrices(tmp_path):
    # the record keeps t, sym and c, 3 d^2 doubles; the bound fails two
    # more d x d arrays held at the peak
    d = 256
    model, _ = _bench_workloads().ladder_model(random.Random(3), d)
    doc = {"model": dict(type="generic", **model),
           "sweep": {"omega": {"values": [1.0]}}}
    path = tmp_path / "ladder256.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    analysis = _analyze(load_config(str(path)).model)
    l, p = analysis.l_matrix, analysis.populations
    curl_flux(l, p)
    tracemalloc.start()
    try:
        curl_flux(l, p)
        peak = tracemalloc.get_traced_memory()[1] / (8.0 * d * d)
    finally:
        tracemalloc.stop()
    assert peak < 4.5, "peak %.2f d^2 doubles" % peak


def test_flux_report_renders_its_matrices_a_row_at_a_time(tmp_path):
    # the bench's d = 128 ladder (seed 3): its 0.6 MB report peaks at
    # about two copies of the text (the entries and their join), so the
    # bound fails a third copy, such as the brackets added to the joined
    # text, and the matrices held as nested lists, which peak near six
    model, _ = _bench_workloads().ladder_model(random.Random(3), 128)
    doc = {"model": dict(type="generic", **model),
           "sweep": {"omega": {"values": [1.0]}}}
    path = tmp_path / "ladder128.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    config = load_config(str(path))
    analysis = _analyze(config.model)
    # the flux record is built on first use: before the trace, not in it
    analysis.flux
    tracemalloc.start()
    try:
        text = render_flux_report(analysis, config.model.labels, (False, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 5e5
    assert peak < 2.5 * len(text), "peak %.2f MB for a %.2f MB report" % (
        peak / 1e6, len(text) / 1e6)
