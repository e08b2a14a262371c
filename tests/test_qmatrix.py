import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

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


def folded_reference(q, K, x, i, j):
    """``truncate_q``'s docstring rule, cell by cell: scale by the cutoff
    after summing, and add the unit return rate last."""
    kappa, n_out = q.kappa, K + q.kappa + 1

    def base(jj):  # q's rate where q has one, else 0
        inside = (min(i, jj) >= 1 and jj != i and abs(jj - i) <= kappa
                  and (q.n_regimes is None or max(i, jj) <= q.n_regimes))
        return q.rate(x, i, jj) if inside else 0.0

    if i == j or not (1 <= i <= n_out and 1 <= j <= n_out):
        return 0.0
    phi = float(smooth_cutoff(np.linalg.norm(x), K))
    if i == n_out:  # unit rates back to K+1..K+kappa plus the scaled original
        return 1.0 + base(j) * phi if j >= K + 1 else 0.0
    if j < n_out:
        return base(j) * phi
    out_of_range = 0.0  # every target >= n_out, in ascending order
    for jj in range(n_out, i + kappa + 1):
        out_of_range += base(jj)
    return out_of_range * phi


@pytest.mark.parametrize("K", [1, 3, 5])
@pytest.mark.parametrize("spec", ["birth_death", "banded_small", "banded_wide"])
def test_truncate_rates_match_the_fold_rule_bitwise(spec, K):
    q, d = {"birth_death": (birth_death_q(), 1),
            "banded_small": (s.random_banded_q(np.random.default_rng(3), dim=2,
                                               max_regime=3), 2),
            "banded_wide": (s.random_banded_q(np.random.default_rng(4), dim=2,
                                              max_regime=12), 2)}[spec]
    qk = s.truncate_q(q, K)
    kappa = q.kappa
    unit = np.ones(d) / math.sqrt(d)
    got, want = [], []
    # inside the cutoff, on its transition and beyond it
    for r in (0.0, 0.5 * K, K + 0.3, K + 0.8, K + 2.0):
        x = r * unit
        for i in range(K + kappa + 3):
            for j in range(K + 2 * kappa + 3):
                got.append(qk.rate(x, i, j))
                want.append(folded_reference(q, K, x, i, j))
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(want).view(np.uint64))


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


def test_zero_layout_builds_each_row_once_under_threads():
    # batch threads share one spec's rows: a row built twice would add rate
    # calls and hand the threads different row objects
    def counting(calls):
        def rate(x, i, j):
            calls.append((i, j))
            time.sleep(1e-4)  # hand the interpreter to another thread
            return 1.0
        return rate

    calls, single = [], []
    q = s.QMatrixSpec(rate=counting(calls), kappa=2, linear_bound_alpha=4.0,
                      state_independent=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            futs = [ex.submit(lambda: [s.zero_layout(q, k) for k in (3, 1, 2)])
                    for _ in range(16)]
            rows = [f.result(timeout=30) for f in futs]
    finally:
        sys.setswitchinterval(interval)
    assert all(a is b for r in rows for a, b in zip(r, rows[0]))
    one = replace(q, rate=counting(single))
    for k in (3, 1, 2):
        s.zero_layout(one, k)
    assert len(calls) == len(single) > 0


# --- batch reads ---------------------------------------------------------------

def _bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


_BATCH_SPECS = {
    "random_banded": lambda: s.random_banded_q(np.random.default_rng(18),
                                               dim=2, max_regime=12),
    "truncated_birth_death": lambda: s.truncate_q(birth_death_q(), 4),
    "one_regime": lambda: s.QMatrixSpec(rate=lambda x, i, j: 1.0, kappa=1,
                                        n_regimes=1),
}


@pytest.mark.parametrize("name", list(_BATCH_SPECS))
def test_batch_reads_equal_stacked_point_reads(name):
    q = _BATCH_SPECS[name]()
    rng = np.random.default_rng(81)
    d = 2 if name == "random_banded" else 1
    # |x| up to 5.5 crosses the truncated spec's cutoff shell 4 < |x| < 5
    X = rng.uniform(-5.5, 5.5, (9, d))
    U = rng.uniform(size=len(X))
    for i in range(1, (q.n_regimes or 12) + 1):
        js, rates = q.row(X, i)
        points = [q.row(x, i) for x in X]
        assert all(pj == js for pj, _ in points)
        assert _bits(rates) == _bits(np.stack([r for _, r in points]))
        assert _bits(q.total_rate(X, i)) == _bits([q.total_rate(x, i) for x in X])
        # a table of rows 1..i holds each row's rates, zero-padded
        bands, table = q.row(X, range(1, i + 1))
        for k, (jk, tk) in enumerate(zip(bands, table.transpose(1, 0, 2)), 1):
            assert jk == q.band(k)
            assert _bits(tk[:, :len(jk)]) == _bits(q.row(X, k)[1])
            assert not tk[:, len(jk):].any()
        lay = s.row_layout(q, X, i)
        lays = [s.row_layout(q, x, i) for x in X]
        assert lay.i == i and _bits(lay.dests) == _bits(lays[0].dests)
        for field in ("rates", "right", "edges", "start", "total"):
            assert _bits(getattr(lay, field)) == _bits(
                [getattr(one, field) for one in lays]), field
        assert _bits(lay.destination(U)) == _bits(
            [one.destination(u) for one, u in zip(lays, U)])
        assert _bits(lay.mark(U)) == _bits(
            [one.mark(u) for one, u in zip(lays, U.tolist())])
        # the block start adds the rows below one by one, each in
        # ascending destination order, straight off the callback
        for x, one in zip(X, lays):
            start = 0.0
            for k in range(1, i):
                row_sum = 0.0
                for j in q.band(k):
                    row_sum += float(q.rate(x, k, j))
                start += row_sum
            assert one.start == start
    if name == "one_regime":
        assert lay.total.tolist() == [0.0] * len(X)
        assert lay.destination(U).tolist() == [1] * len(X)


def test_batch_read_names_the_first_bad_point():
    # point [0.5] is the first with a bad rate; point [3.0] has a bad rate
    # earlier in its row, but it comes later in the batch
    def rate(x, i, j):
        if (i, j) == (2, 3) and x[0] > 0.0:
            return -1.0
        if (i, j) == (2, 1) and x[0] > 2.0:
            return math.nan
        return 0.5

    q = s.QMatrixSpec(rate=rate, kappa=1, n_regimes=3)
    X = np.array([[-1.0], [0.5], [3.0]])
    msg = r"negative rate at \(x=\[0\.5\], i=2, j=3\)"
    for read in (q.row, q.total_rate, lambda X, i: s.row_layout(q, X, i + 1)):
        with pytest.raises(s.InvalidModelError, match=msg):
            read(X, 2)
    with pytest.raises(s.InvalidModelError,
                       match=r"non-finite rate at \(x=\[3\.\], i=2, j=1\)"):
        q.row(X[2:], 2)


def test_destination_skips_empty_intervals():
    # a zero rate is an empty interval: u = 0 lands past it, at any point
    q = s.QMatrixSpec(rate=lambda x, i, j: 0.0 if j == 1 else 1.0, kappa=2,
                      n_regimes=3)
    # row 3: destinations [1, 2] with rates [0, 1]
    assert int(s.row_layout(q, [0.0], 3).destination(0.0)) == 2
    batch = s.row_layout(q, np.zeros((2, 1)), 3)
    assert batch.destination(np.zeros(2)).tolist() == [2, 2]


@pytest.mark.parametrize("kw, named", [
    ({"kappa": 1.5}, "kappa"), ({"kappa": 2.0}, "kappa"),
    ({"kappa": 0}, "kappa"), ({"kappa": "1"}, "kappa"),
    ({"kappa": 1, "n_regimes": 4.5}, "n_regimes"),
    ({"kappa": 1, "n_regimes": 3.0}, "n_regimes"),
    ({"kappa": 1, "n_regimes": 0}, "n_regimes"),
])
def test_band_and_regime_count_must_be_integers(kw, named):
    with pytest.raises(ValueError, match=named):
        s.QMatrixSpec(rate=lambda x, i, j: 0.0, **kw)


def test_numpy_integers_are_integers():
    q = s.QMatrixSpec(rate=lambda x, i, j: 1.0, kappa=np.int64(2),
                      n_regimes=np.int32(5))
    assert q.band(3) == [1, 2, 4, 5]


def test_truncation_level_must_be_integral():
    base = birth_death_q()
    for K in (5, 5.0, np.int64(5), np.float64(5.0)):
        qk = s.truncate_q(base, K)
        assert qk.n_regimes == 7 and type(qk.n_regimes) is int
    for K in (2.5, 0, -1.0, math.nan, math.inf, "5", None):
        with pytest.raises(ValueError, match="K must be an integer >= 1"):
            s.truncate_q(base, K)


@pytest.mark.filterwarnings("ignore::switchsde.errors.StiffSwitchingWarning")
def test_integral_float_truncation_level_runs_to_the_boundary_row():
    # K = 5.0 reaches the boundary row 7, whose band needs an integer
    bd = s.zoo("birth_death_switch")
    cfg = s.SimConfig(horizon=1.0, dt=0.01)
    runs = [s.truncation_identity_batch(bd, [0.5], 4, K, cfg, range(100))
            for K in (5, 5.0)]
    assert runs[0] == runs[1]
