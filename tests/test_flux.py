import itertools
import json

import numpy as np
import pytest

from curlflux.flux import (
    NonStationaryError,
    curl_flux,
    is_detailed_balanced,
    loop_decomposition,
    reconstruct_flux,
    render_flux_report,
    split_operators,
)
from curlflux.junction import JUNCTION_LABELS, JunctionParams, build_junction
from curlflux.reduction import rate_steady_state

from helpers import random_rate_matrix


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
        balanced, violation = is_detailed_balanced(l, p, tol=1e-12)
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


def test_loop_decomposition_rejects_divergent_input():
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0  # a lone edge cannot close into loops
    with pytest.raises(ValueError, match="divergence"):
        loop_decomposition(bad)


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


def test_split_operators_at_detailed_balance():
    rng = np.random.default_rng(23)
    l, p = reversible_pair(rng, 4)
    split = split_operators(l, p, curl_flux(l, p))
    assert np.abs(split.v_ss).max() < 1e-12
    assert np.allclose(split.s_d, -1.0, atol=1e-12)


def test_split_operators_three_cycle_hand_values():
    l, p = three_cycle()
    split = split_operators(l, p, curl_flux(l, p))
    # inflow flux 2 at each node, exit rate 12, population 1/3
    assert np.allclose(split.v_ss, 2.0 / (-12.0 * (1.0 / 3.0)), atol=1e-14)
    assert np.allclose(split.s_d + split.v_ss, -1.0, atol=1e-14)


def test_split_operators_junction_completeness():
    model = build_junction(JunctionParams(mu_1=1.3, mu_2=0.7))
    assert np.abs(model.split.s_d + model.split.v_ss + 1.0).max() < 1e-12


def test_split_operators_reject_singular_diagonal():
    l = np.zeros((2, 2))
    with pytest.raises(ValueError, match="singular"):
        split_operators(l, np.array([0.5, 0.5]), curl_flux(np.zeros((2, 2)), np.array([0.5, 0.5])))


def test_detailed_balance_violation_equals_loop_flux():
    model = build_junction(JunctionParams(mu_1=1.3, mu_2=0.7))
    balanced, violation = is_detailed_balanced(model.l_matrix, model.populations)
    assert not balanced
    assert violation == pytest.approx(model.flux_j, rel=1e-12)


def test_junction_equal_fermi_point_is_balanced():
    model = build_junction(JunctionParams(mu_1=1.06, mu_2=0.94))
    balanced, violation = is_detailed_balanced(
        model.l_matrix, model.populations, tol=1e-12
    )
    assert balanced and violation < 1e-12


def test_flux_sector_vanishes_continuously_at_balance():
    # ||v_ss|| shrinks monotonically as the bias approaches the
    # detailed-balance point (where the two Fermi factors coincide) and
    # grows monotonically beyond it
    def v_norm(dmu):
        model = build_junction(JunctionParams(mu_1=1 + dmu, mu_2=1 - dmu))
        return np.abs(model.split.v_ss).max()

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
        split = split_operators(l, p, decomp)
        assert np.abs(split.s_d + split.v_ss + 1.0).max() < 1e-11


def test_flux_report_is_deterministic_json():
    model = build_junction(JunctionParams(mu_1=1.2, mu_2=0.8))
    text1 = render_flux_report(model.flux, model.split, labels=JUNCTION_LABELS,
                               extra={"loop_flux_j": model.flux_j})
    text2 = render_flux_report(model.flux, model.split, labels=JUNCTION_LABELS,
                               extra={"loop_flux_j": model.flux_j})
    assert text1 == text2
    data = json.loads(text1)
    assert data["states"] == ["g", "e1", "e2"]
    assert data["detailed_balance"] is False
    assert len(data["loops"]) == 1
    assert data["loops"][0]["cycle"] == ["g", "e1", "e2"]
    assert data["loops"][0]["weight"] == pytest.approx(model.flux_j)
