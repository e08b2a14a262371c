"""End-to-end verification suite.

Each criterion runs at its stated scale and tolerance, writes a JSON-lines
report file through the standard reporting layer, and prints one pass/fail
line (run pytest with ``-s`` to see them live). The determinism criterion
regenerates every report with a different thread count and compares bytes.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

import switchsde as s
from switchsde import reports as rp
from switchsde.engine import EVENT_DRIVEN, FROZEN_RATE

SEED = s.DEFAULT_SEED
_LINES = []


def announce(name, ok, extra=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {extra}".rstrip()
    _LINES.append(line)
    print(line)
    return ok


def ecfg(T=1.0, dt=1e-3, seed=SEED, threads=1, n=10_000):
    return s.SimConfig(horizon=T, dt=dt, seed=seed, scheme=EVENT_DRIVEN,
                       replicas=n, threads=threads)


def _chain_models():
    two = s.linear_switching_model(dim=1, beta=(0.0,) * 2, a=(0.0,) * 2,
                                   s=(0.0,) * 2,
                                   rates=[[0.0, 1.0], [1.0, 0.0]],
                                   model_id="chain2")
    rng = np.random.default_rng(SEED + 2)

    def banded(n, kappa):
        R = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j and abs(i - j) <= kappa:
                    R[i, j] = rng.uniform(0.3, 1.8)
        return s.linear_switching_model(dim=1, beta=(0.0,) * n, a=(0.0,) * n,
                                        s=(0.0,) * n, rates=R,
                                        model_id=f"chain{n}")

    return [two, banded(5, 2), banded(10, 2)]


def _random_linear_model(rng, state_dependent=False):
    n = int(rng.integers(1, 5))
    beta = rng.uniform(0.2, 2.0, n)
    a = rng.uniform(-1.0, 1.0, n)
    sig = rng.uniform(0.3, 1.5, n)
    if not state_dependent:
        R = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j and abs(i - j) <= 2:
                    R[i, j] = rng.uniform(0.1, 1.5)
        return s.linear_switching_model(dim=1, beta=beta, a=a, s=sig, rates=R)
    slope = float(rng.uniform(0.2, 1.0))

    def rate(x, i, j):
        if abs(j - i) == 1 and 1 <= j <= n:
            return 0.5 + slope * abs(float(np.atleast_1d(x)[0]))
        return 0.0

    q = s.QMatrixSpec(rate=rate, kappa=1, lipschitz_cq=slope,
                      linear_bound_alpha=2.0 + 2 * slope * 10,
                      linear_bound_beta=2 * slope, n_regimes=n)
    b0, s0 = beta[0], sig[0]
    return s.ModelSpec(dim=1,
                       drift=lambda t, x, i: -b0 * np.asarray(x, float),
                       diffusion=lambda t, x, i: float(s0), q=q,
                       growth_c=lambda t: 4.0,
                       dissipativity_c=lambda t, i: 1.0,
                       diffusion_mod_c=lambda t, i: 1.0,
                       ellipticity_lambda=lambda t: float(s0),
                       model_id="random_sd")


# --- criterion implementations (each returns records, payload) -----------------


def crit_jump_lipschitz(threads):
    t0 = time.perf_counter()
    sweep = s.displacement_lipschitz_sweep(n_cases=1000, seed=SEED,
                                           p_values=(1.0, 2.0), i_max=20)
    elapsed = time.perf_counter() - t0
    records = [rp.record("jump-lipschitz", "random_banded",
                         {k: r[k] for k in ("case", "kappa", "i", "p")},
                         r["lhs"], r["rhs"], 0.0, r["margin"], r["passed"],
                         f"seed:{SEED}", SEED)
               for r in sweep]
    payload = {"failures": sum(not r["passed"] for r in sweep),
               "elapsed": elapsed, "cases": len(sweep)}
    return records, payload


def crit_chain_marginal(threads):
    t0 = time.perf_counter()
    records = []
    entries = within = 0
    for m in _chain_models():
        mc = s.chain_marginal_check(m, (0.5, 1.0, 2.0), 100_000,
                                    ecfg(T=2.0, threads=threads),
                                    threads=threads)
        entries += mc.entries
        within += mc.within
        for r in mc.records:
            records.append(rp.record("chain-marginal", m.model_id,
                                     {"start": r["start"], "t": r["t"],
                                      "regime": r["regime"]},
                                     r["empirical"], r["oracle"], r["stderr"],
                                     None, r["within_3se"], f"seed:{SEED}",
                                     SEED))
    payload = {"entries": entries, "within": within,
               "fraction": within / entries,
               "elapsed": time.perf_counter() - t0}
    return records, payload


def crit_uniqueness(threads):
    rng = np.random.default_rng(SEED + 3)
    records = []
    ok_all = True
    for case in range(100):
        state_dep = case % 3 == 2
        m = _random_linear_model(rng, state_dependent=state_dep)
        scheme = FROZEN_RATE if (state_dep or case % 2) else EVENT_DRIVEN
        x0 = rng.uniform(-1.5, 1.5, 1)
        i0 = int(rng.integers(1, (m.q.n_regimes or 2) + 1))
        cfg = s.SimConfig(horizon=0.5, dt=0.01, seed=SEED + 100 + case,
                          scheme=scheme)
        ta, tb, zeta = s.coupled_simulate(m, (x0, i0), (x0, i0), cfg,
                                          replica=case)
        same = (np.array_equal(ta.times, tb.times)
                and np.array_equal(ta.x, tb.x)
                and np.array_equal(ta.regime, tb.regime))
        ok = same and math.isinf(zeta)
        ok_all &= ok
        records.append(rp.record("uniqueness", m.model_id,
                                 {"case": case, "scheme": scheme,
                                  "state_dependent": state_dep},
                                 None, None, None, None, ok,
                                 f"seed:{SEED}", SEED + 100 + case))
    return records, {"failures": 100 - sum(r["pass"] for r in records),
                     "ok": ok_all}


def crit_truncation(threads):
    bd = s.zoo("birth_death_switch")
    records = []
    cases = range(100)
    Ks = [5 + (case % 2) for case in cases]
    i0s = [2 + (case % 3) for case in cases]
    seeds = [SEED + 300 + case for case in cases]
    cfg = s.SimConfig(horizon=1.5, dt=5e-3, scheme=FROZEN_RATE)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", s.StiffSwitchingWarning)
        results = s.truncation_identity_batch(bd, [0.5], i0s, Ks, cfg, seeds,
                                              replicas=list(cases))
    for case, K, i0, seed, res in zip(cases, Ks, i0s, seeds, results):
        records.append(rp.record("truncation", bd.model_id,
                                 {"case": case, "K": K, "i0": i0,
                                  "tau_k": res["tau_k"],
                                  "n_compared": res["n_compared"]},
                                 None, None, None, None,
                                 res["identical"], f"seed:{SEED}", seed))
    identical_all = all(res["identical"] for res in results)
    exits = sum(math.isfinite(res["tau_k"]) for res in results)
    bound_reports = []
    p_hats = []
    for K in (6, 8):
        rep = s.truncation_exit_bound_check(bd, [0.2], 2, K, 0.5, 10_000,
                                            ecfg(T=0.5, threads=threads),
                                            threads=threads)
        bound_reports.append(rep)
        p_hats.append((rep.lhs.mean, rep.lhs.stderr))
        records.append(rp.from_bound_report(rep, f"seed:{SEED}", SEED))
    monotone = p_hats[1][0] <= p_hats[0][0] + 3 * (p_hats[0][1] + p_hats[1][1])
    payload = {"identical_all": identical_all, "exits_seen": exits,
               "bounds_pass": all(r.passed for r in bound_reports),
               "monotone_in_K": bool(monotone)}
    return records, payload


def crit_moments(threads):
    records = []
    ok = True
    for name in ("switching_ou", "degenerate_regime", "birth_death_switch",
                 "nonlipschitz_log"):
        m = s.zoo(name)
        for T in (0.25, 0.5, 1.0):
            rep = s.moment_bound_check(m, [0.5], 1, T, 10_000,
                                       ecfg(T=T, threads=threads),
                                       threads=threads)
            ok &= rep.passed
            records.append(rp.from_bound_report(rep, f"seed:{SEED}", SEED))
    return records, {"ok": ok, "checks": len(records)}


def crit_holding(threads):
    bd = s.zoo("birth_death_switch")
    records = []
    ok = True
    grid = (0.1, 0.25, 0.5, 0.75, 1.0)
    for K in (3, 5):
        for k in range(1, K + 1):
            for rep in s.holding_time_check(bd, [0.0], k, K, grid, 100_000,
                                            ecfg(T=1.0, threads=threads),
                                            threads=threads):
                ok &= rep.passed
                records.append(rp.from_bound_report(rep, f"seed:{SEED}", SEED))
    return records, {"ok": ok, "checks": len(records)}


def crit_harnack(threads):
    m = s.zoo("switching_ou", dim=1, beta=(1.0, 2.0), a=(0.0, 0.0),
              s=(1.0, 1.0))
    t0 = time.perf_counter()
    reps = s.harnack_sweep(m, 200, 10_000, ecfg(threads=threads),
                           threads=threads, T_choices=(0.25, 0.5, 1.0),
                           x_radius=1.0)
    elapsed = time.perf_counter() - t0
    summary = s.harnack_sweep_summary(reps, min_pass_rate=0.99, hard_sigma=4.0)
    records = [rp.from_bound_report(r, f"seed:{SEED}", SEED) for r in reps]
    records.append(rp.record("summary", m.model_id, summary,
                             summary["pass_rate"], None, None, None,
                             summary["ok"], f"seed:{SEED}", SEED))
    summary["elapsed"] = elapsed
    return records, summary


def crit_feller(threads):
    records = []
    ou = s.zoo("switching_ou", dim=1, beta=(1.0, 2.0), a=(0.0, 0.0),
               s=(1.0, 1.0))
    f_ind = lambda X, lam: (X[:, 0] > 0).astype(float)
    r = 1e-3
    gaps = s.feller_modulus(ou, f_ind, 1.0, [-r / 2], 1, [r], 10_000,
                            ecfg(threads=threads), threads=threads)
    smooth_gap = gaps[0]
    records.append(rp.record("feller", ou.model_id,
                             {"radius": r, "t": 1.0, "part": "regular"},
                             smooth_gap.gap, 0.02, smooth_gap.stderr, None,
                             smooth_gap.gap < 0.02, f"seed:{SEED}", SEED))

    dg = s.zoo("degenerate_regime")
    plateau = []
    for rr in (0.1, 0.01, 1e-3):
        g = s.feller_modulus(dg, f_ind, 1.0, [-rr / 2], 1, [rr], 10_000,
                             ecfg(threads=threads), threads=threads)[0]
        plateau.append(g)
        # the gap is exp(-t) + O(radius): the tight tolerance applies at the
        # smallest radius; larger radii must stay clear of zero
        tol = 3 * g.stderr + 0.01 + 0.5 * rr
        records.append(rp.record("feller", dg.model_id,
                                 {"radius": rr, "t": 1.0, "part": "witness"},
                                 g.gap, math.exp(-1), g.stderr, None,
                                 abs(g.gap - math.exp(-1)) <= tol,
                                 f"seed:{SEED}", SEED))
    cert = s.discontinuity_certificate(plateau, floor=0.05)
    records.append(rp.record("summary", dg.model_id, cert, cert["gap"],
                             cert["floor"], cert["stderr"], None,
                             cert["certified"], f"seed:{SEED}", SEED))
    witness = plateau[-1]
    payload = {
        "regular_gap": smooth_gap.gap,
        "regular_ok": smooth_gap.gap < 0.02,
        "witness_gap": witness.gap,
        "witness_ok": abs(witness.gap - math.exp(-1)) <= 3 * witness.stderr + 0.01,
        "plateau_ok": all(g.gap - 3 * g.stderr > 0.2 for g in plateau),
        "certified": cert["certified"],
    }
    return records, payload


def crit_first_jump(threads):
    rng = np.random.default_rng(SEED + 9)
    zoo_names = ("switching_ou", "birth_death_switch", "degenerate_regime",
                 "nonlipschitz_log")
    records = []
    ok = True
    for case in range(20):
        m = s.zoo(zoo_names[case % 4])
        a, b, c = rng.uniform(-1.5, 1.5, 3)
        f = (lambda a=a, b=b, c=c:
             lambda X, lam: np.tanh(a * X[:, 0] + b * lam + c))()
        t = float(rng.uniform(0.3, 1.0))
        x0 = rng.uniform(-1.5, 1.5, m.dim)
        i0 = int(rng.integers(1, 3))
        cfg = ecfg(T=t, dt=5e-3, seed=SEED + 500 + case, threads=threads,
                   n=20_000)
        e1 = s.first_jump_estimate(m, f, t, x0, i0, 20_000, cfg,
                                   threads=threads)
        e2 = s.semigroup_estimate(m, f, t, x0, i0, 20_000, cfg,
                                  threads=threads)
        tol = 3.0 * math.hypot(e1.stderr, e2.stderr)
        diff = abs(e1.mean - e2.mean)
        records.append(rp.record("first-jump", m.model_id,
                                 {"case": case, "t": t, "i0": i0,
                                  "diff": diff, "tol": tol},
                                 e1.mean, e2.mean,
                                 math.hypot(e1.stderr, e2.stderr),
                                 tol - diff, diff <= tol, f"seed:{SEED}",
                                 SEED + 500 + case))
        ok &= diff <= tol
    return records, {"ok": ok, "cases": 20}


CRITERIA = [
    ("jump_lipschitz", crit_jump_lipschitz),
    ("chain_marginal", crit_chain_marginal),
    ("uniqueness", crit_uniqueness),
    ("truncation", crit_truncation),
    ("moments", crit_moments),
    ("holding", crit_holding),
    ("harnack", crit_harnack),
    ("feller", crit_feller),
    ("first_jump", crit_first_jump),
]


def generate(threads, outdir):
    outdir.mkdir(parents=True, exist_ok=True)
    payloads = {}
    for name, fn in CRITERIA:
        records, payload = fn(threads)
        rp.write_jsonl(outdir / f"{name}.jsonl", records)
        payloads[name] = payload
    return payloads


@pytest.fixture(scope="session")
def artifacts(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("acceptance") / "run_t1"
    payloads = generate(threads=1, outdir=outdir)
    return {"dir": outdir, "payloads": payloads}


def test_jump_kernel_lipschitz_sweep(artifacts):
    p = artifacts["payloads"]["jump_lipschitz"]
    ok = p["failures"] == 0 and p["elapsed"] < 10.0
    assert announce("jump-kernel Lipschitz sweep (1000 cases, exact)", ok,
                    f"failures={p['failures']} elapsed={p['elapsed']:.1f}s")


def test_chain_marginal_oracle(artifacts):
    p = artifacts["payloads"]["chain_marginal"]
    ok = p["fraction"] >= 0.99 and p["elapsed"] < 60.0
    assert announce("chain marginals vs matrix exponential", ok,
                    f"within={p['within']}/{p['entries']} "
                    f"elapsed={p['elapsed']:.1f}s")


def test_pathwise_uniqueness(artifacts):
    p = artifacts["payloads"]["uniqueness"]
    assert announce("pathwise uniqueness under shared noise (100 cases)",
                    p["ok"], f"failures={p['failures']}")


def test_truncation_consistency(artifacts):
    p = artifacts["payloads"]["truncation"]
    ok = (p["identical_all"] and p["exits_seen"] >= 10 and p["bounds_pass"]
          and p["monotone_in_K"])
    assert announce("truncated/plain identity + exit bound", ok,
                    f"exits={p['exits_seen']}/100")


def test_moment_envelope(artifacts):
    p = artifacts["payloads"]["moments"]
    assert announce("second-moment envelope (zoo x {0.25,0.5,1})", p["ok"],
                    f"checks={p['checks']}")


def test_holding_time_floor(artifacts):
    p = artifacts["payloads"]["holding"]
    assert announce("holding-time floor (Wilson 99.7%)", p["ok"],
                    f"checks={p['checks']}")


def test_harnack_inequality_sweep(artifacts):
    p = artifacts["payloads"]["harnack"]
    ok = p["ok"] and p["elapsed"] < 300.0
    assert announce("log-transport inequality sweep (200 cases)", ok,
                    f"pass_rate={p['pass_rate']:.3f} "
                    f"hard={p['hard_failures']} elapsed={p['elapsed']:.0f}s")


def test_strong_feller_dichotomy(artifacts):
    p = artifacts["payloads"]["feller"]
    ok = (p["regular_ok"] and p["witness_ok"] and p["plateau_ok"]
          and p["certified"])
    assert announce("strong-Feller dichotomy + witness certificate", ok,
                    f"regular_gap={p['regular_gap']:.4f} "
                    f"witness_gap={p['witness_gap']:.4f}")


def test_first_jump_identity(artifacts):
    p = artifacts["payloads"]["first_jump"]
    assert announce("first-switch decomposition identity (20 cases)", p["ok"])


def test_determinism_across_thread_counts(artifacts, tmp_path_factory):
    other = tmp_path_factory.mktemp("acceptance") / "run_t2"
    generate(threads=2, outdir=other)
    mismatched = []
    for name, _ in CRITERIA:
        a = (artifacts["dir"] / f"{name}.jsonl").read_bytes()
        b = (other / f"{name}.jsonl").read_bytes()
        if a != b:
            mismatched.append(name)
    assert announce("byte-identical reports across thread counts",
                    not mismatched, f"mismatched={mismatched}")
