import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchsde as s
from switchsde.qmatrix import smooth_cutoff


def layout_entries(q, x, regimes):
    """(i, j, left, right) of every nonempty interval of rows 1..regimes."""
    got = []
    for i in range(1, regimes + 1):
        lay = s.row_layout(q, x, i)
        for j, r, lo, hi in zip(lay.dests, lay.rates, lay.edges, lay.edges[1:]):
            if r > 0.0:
                got.append((i, int(j), float(lo), float(hi)))
    return got


def test_partition_layout_three_states(three_state_q):
    got = layout_entries(three_state_q, [0.0], 3)
    assert got == [(1, 2, 0.0, 1.0), (1, 3, 1.0, 3.0), (2, 1, 3.0, 5.0),
                   (2, 3, 5.0, 6.0), (3, 1, 6.0, 7.0), (3, 2, 7.0, 8.0)]
    last = s.row_layout(three_state_q, [0.0], 3)
    assert last.start + last.total == 8.0


def test_partition_all_zero_rates_is_empty():
    q = s.QMatrixSpec(rate=lambda x, i, j: 0.0, kappa=1, n_regimes=3,
                      state_independent=True)
    assert layout_entries(q, [1.0], 3) == []
    last = s.row_layout(q, [1.0], 3)
    assert last.start + last.total == 0.0
    assert int(last.destination(0.5)) == 3


def test_partition_state_dependent_rate(scalar_rate_q):
    got = layout_entries(scalar_rate_q, 0.7, 2)
    assert got[0] == (1, 2, 0.0, 0.7)
    assert got[1][0:2] == (2, 1)
    assert got[1][2] == pytest.approx(0.7)
    assert got[1][3] == pytest.approx(1.7)


def test_partition_negative_rate_names_entry():
    q = s.QMatrixSpec(rate=lambda x, i, j: -1.0 if (i, j) == (2, 3) else 0.5,
                      kappa=1, n_regimes=3)
    with pytest.raises(s.InvalidModelError, match=r"i=2, j=3"):
        s.row_layout(q, [0.0], 3)


def test_displacement_examples(three_state_q):
    def displacement(i, z):
        return int(s.row_layout(three_state_q, [0.0], i).displacement(z))

    assert displacement(1, 0.5) == 1
    assert displacement(3, 6.2) == -2
    assert displacement(1, 100.0) == 0
    assert displacement(1, -0.1) == 0
    # a mark inside another row's interval is a no-op for this row
    assert displacement(1, 4.0) == 0


def test_destination_matches_displacement_of_mark(three_state_q):
    # the relative mark u * q_i and the absolute mark pick the same entry
    for i in (1, 2, 3):
        lay = s.row_layout(three_state_q, [0.0], i)
        u = np.linspace(0.0, 1.0, 97, endpoint=False)
        dest = lay.destination(u)
        moves = lay.displacement(lay.mark(u))
        assert np.array_equal(dest - i, moves)


def test_lp_distance_two_state_rows(scalar_rate_q):
    d1 = s.displacement_lp_distance(scalar_rate_q, 0.7, 0.4, 1, 1.0)
    assert d1 == pytest.approx(0.3, abs=1e-14)
    assert s.displacement_lp_distance(scalar_rate_q, 0.7, 0.7, 1, 1.0) == 0.0
    d2 = s.displacement_lp_distance(scalar_rate_q, 0.7, 0.4, 2, 1.0)
    assert d2 == pytest.approx(0.6, abs=1e-14)


def test_lp_bound_values(scalar_rate_q):
    q1 = s.QMatrixSpec(rate=lambda x, i, j: 0.0, kappa=1, lipschitz_cq=1.0)
    assert s.displacement_lp_bound(q1, 2, 1.0, 0.3) == pytest.approx(3.0)
    assert s.displacement_lp_bound(q1, 2, 1.0, 0.0) == 0.0
    # 2 * kappa^(p+1) * (kappa + 2 i) * c_q * dist = 2 * 8 * 4 * 0.5
    q2 = s.QMatrixSpec(rate=lambda x, i, j: 0.0, kappa=2, lipschitz_cq=0.5)
    assert s.displacement_lp_bound(q2, 1, 2.0, 1.0) == pytest.approx(32.0)


def test_lp_distance_symmetry_and_band_envelope():
    rng = np.random.default_rng(7)
    for _ in range(40):
        q = s.random_banded_q(rng, dim=2, max_regime=12)
        x = rng.uniform(-2, 2, 2)
        y = rng.uniform(-2, 2, 2)
        i = int(rng.integers(1, 11))
        for p in (1.0, 2.0):
            dxy = s.displacement_lp_distance(q, x, y, i, p)
            dyx = s.displacement_lp_distance(q, y, x, i, p)
            assert dxy == pytest.approx(dyx, rel=1e-12, abs=1e-15)
            bound = s.displacement_lp_bound(q, i, p, float(np.linalg.norm(x - y)))
            assert dxy <= bound + 1e-12


@settings(max_examples=150, deadline=None)
@given(x=st.floats(0.0, 5.0), y=st.floats(0.0, 5.0),
       i=st.integers(1, 20), p=st.sampled_from([1.0, 2.0]))
def test_lp_distance_within_envelope_property(x, y, i, p):
    # rates a + b*sin(x) are (b)-Lipschitz; certificate uses the max b
    def rate(pt, ii, jj):
        if abs(jj - ii) > 2 or ii == jj or jj < 1:
            return 0.0
        u = float(np.atleast_1d(pt)[0])
        return 1.0 + 0.5 * (1.0 + math.sin(u + ii - jj))

    q = s.QMatrixSpec(rate=rate, kappa=2, lipschitz_cq=0.5,
                      linear_bound_alpha=10.0)
    lhs = s.displacement_lp_distance(q, x, y, i, p)
    assert lhs <= s.displacement_lp_bound(q, i, p, abs(x - y)) + 1e-12


def test_partition_total_matches_row_sum_accumulation(three_state_q):
    last = s.row_layout(three_state_q, [0.0], 3)
    total = 0.0
    for i in (1, 2, 3):
        total += three_state_q.total_rate(np.zeros(1), i)
    assert last.start + last.total == total


# --- truncation -------------------------------------------------------------

def birth_death_q():
    def rate(x, i, j):
        if j == i + 1:
            return float(i)
        if j == i - 1 and j >= 1:
            return float(i - 1)
        return 0.0
    return s.QMatrixSpec(rate=rate, kappa=1, linear_bound_alpha=2.0,
                         state_independent=True)


def test_truncate_birth_death_example():
    qk = s.truncate_q(birth_death_q(), 3)
    assert qk.n_regimes == 5
    x = np.zeros(1)  # |x| <= 3, cutoff = 1
    # interior rows coincide with the original
    assert qk.rate(x, 2, 3) == 2.0
    assert qk.rate(x, 2, 1) == 1.0
    # row 4 sends its out-of-range mass to the boundary regime 5
    assert qk.rate(x, 4, 5) == 4.0
    # boundary row keeps unit return rates plus the scaled original
    assert qk.rate(x, 5, 4) == pytest.approx(1.0 + 4.0)
    assert qk.total_rate(x, 5) == pytest.approx(5.0)
    assert qk.rate(x, 5, 3) == 0.0


def test_truncate_matches_original_inside():
    q = birth_death_q()
    qk = s.truncate_q(q, 4)
    x = np.array([2.0])
    for i in range(1, 5):
        for j in qk.band(i):
            if j <= 4:
                assert qk.rate(x, i, j) == q.rate(x, i, j)


def test_truncate_outside_radius_keeps_only_boundary_rates():
    qk = s.truncate_q(birth_death_q(), 3)
    x = np.array([5.0])  # cutoff = 0 here
    for i in range(1, 5):
        assert qk.total_rate(x, i) == 0.0
    assert qk.rate(x, 5, 4) == 1.0


def test_truncate_finite_chain_beyond_support():
    rates = np.array([[0.0, 1.0], [2.0, 0.0]])
    base = s.QMatrixSpec(rate=lambda x, i, j: rates[i - 1, j - 1]
                         if (1 <= i <= 2 and 1 <= j <= 2) else 0.0,
                         kappa=1, n_regimes=2, state_independent=True,
                         linear_bound_alpha=2.0)
    qk = s.truncate_q(base, 3)
    x = np.zeros(1)
    assert qk.rate(x, 1, 2) == 1.0
    assert qk.rate(x, 2, 1) == 2.0
    assert qk.rate(x, 1, 5) == 0.0
    assert qk.rate(x, 2, 5) == 0.0


def test_truncate_rejects_bad_level():
    with pytest.raises(ValueError):
        s.truncate_q(birth_death_q(), 0)


def test_smooth_cutoff_shape():
    assert smooth_cutoff(2.9, 3) == 1.0
    assert smooth_cutoff(4.0, 3) == 0.0
    grid = np.linspace(3.0, 4.0, 200)
    vals = smooth_cutoff(grid, 3)
    assert np.all(np.diff(vals) <= 1e-12)
    assert 0.0 < smooth_cutoff(3.5, 3) < 1.0


# --- dominating chain --------------------------------------------------------

def test_dominating_chain_rows():
    spec = s.DominatingChainSpec(K=2, alpha=1.0, kappa=1)
    G = s.chain_generator_matrix(spec.q, 6)
    assert G[0, 1] == 2.0 and G[0, 0] == -2.0          # left boundary
    assert G[2, 1] == 2.0 and G[2, 3] == 2.0 and G[2, 2] == -4.0
    assert np.allclose(G.sum(axis=1), 0.0)
    assert spec.exit_rate(1) == 2.0
    assert spec.exit_rate(3) == 4.0


def test_dominating_chain_zero_alpha():
    G = s.chain_generator_matrix(s.DominatingChainSpec(K=3, alpha=0.0, kappa=2).q, 5)
    assert np.all(G == 0.0)
