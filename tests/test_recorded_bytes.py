"""The recorded paths of both runners, pinned by sha256.

Each case runs one runner in recording mode and hashes every array it
returns (the path log and the switch table column by column, the final
states, first-switch times, regime maxima, exit times and norm maxima), so a
refactor of the runners that should not change a number shows that it did
not. The CLI ``simulate`` trajectory is pinned on both schemes too: the CSV
by its bytes, the binary file by the arrays ``from_binary`` reads back (the
npz archive stamps the time into its entries, so its bytes differ between
identical runs).
"""

import hashlib
import json

import numpy as np
import pytest

import switchsde as s
from switchsde.cli import run
from switchsde.engine import run_event_driven, run_frozen
from switchsde.noise import NoiseStream

REPLICAS = np.array([0, 1, 2, 3, 5, 8, 13, 2 ** 33], dtype=np.uint64)
N = len(REPLICAS)


def _state_dependent_4():
    """Four regimes, dim 2, rates that vanish on half-planes: a frozen-rate
    clock armed at the step start may fire where the row is empty, which is
    a switch that leaves the regime unchanged."""
    def rate(x, i, j):
        if j == i + 1:
            return 3.0 * max(float(x[0]), 0.0)
        if j == i - 1:
            return 1.0 + 2.0 * max(float(x[1]), 0.0)
        return 0.0

    q = s.QMatrixSpec(rate=rate, kappa=1, lipschitz_cq=3.0,
                      linear_bound_alpha=2.0, linear_bound_beta=3.0,
                      n_regimes=4)
    return s.ModelSpec(dim=2, q=q,
                       drift=lambda t, x, i: -np.asarray(x, float) / i,
                       diffusion=lambda t, x, i: 0.5 + 0.25 * i,
                       growth_c=lambda t: 4.0,
                       dissipativity_c=lambda t, i: 1.0,
                       diffusion_mod_c=lambda t, i: 1.0,
                       ellipticity_lambda=lambda t: 0.5, model_id="sd4")


def _models():
    """name -> (model, runners): state-dependent rates run only frozen."""
    bd = s.zoo("birth_death_switch")
    both = (run_frozen, run_event_driven)
    return {
        "switching_ou_d2": (s.zoo("switching_ou", dim=2, beta=(1.0, 2.0),
                                  a=(0.0, 0.5), s=(1.0, 0.5)), both),
        "birth_death_switch": (bd, both),
        "nonlipschitz_log": (s.zoo("nonlipschitz_log"), both),
        "state_dependent_4": (_state_dependent_4(), (run_frozen,)),
        "truncated_birth_death_5": (s.truncated_model(bd, 5), (run_frozen,)),
    }


def _digest(arrays: dict) -> str:
    """sha256 over every array by name, with its dtype and shape."""
    h = hashlib.sha256()
    flat = {}
    for key, value in arrays.items():
        if isinstance(value, dict):
            flat.update({f"{key}.{sub}": v for sub, v in value.items()})
        else:
            flat[key] = value
    for name in sorted(flat):
        a = np.ascontiguousarray(flat[name])
        h.update(f"{name}:{a.dtype.str}:{a.shape}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()


# recorded with the runners before they shared one switch step
DIGESTS = {
    "switching_ou_d2-run_frozen-False":
        "c38888f6bcfac2f3afe59939be55b5f0e2f6c8f921b58e5dcb0490b91f927f6b",
    "switching_ou_d2-run_frozen-True":
        "5922f3bfd0240990adb0bef1269927b0ec0a58afb9dc01a6edfe95da375906c5",
    "switching_ou_d2-run_event_driven-False":
        "de3e896aee18fbda6711720896ea690876ce17703c0c2a82e18bb5b7eaf88396",
    "switching_ou_d2-run_event_driven-True":
        "ed632217d9bed3b3bc7c59ea6533e08c08991dd92ab4534060a9f608701143d0",
    "birth_death_switch-run_frozen-False":
        "3760cbead67a5e8b51cdb556135b5c6db449e91e8a48d459d348c8622a8c7c55",
    "birth_death_switch-run_frozen-True":
        "fdcc50c2a3ecabe55d308a40ca94aee00471ef1e0fdfe41173f098d304c98a13",
    "birth_death_switch-run_event_driven-False":
        "db3bf1e60a15f2488b081d8e31df06a45bda4db162d7996ee5ab687d274ee9a0",
    "birth_death_switch-run_event_driven-True":
        "2b9b634e870a821f16ed7dbb461caf322ce083381ca0cc542876736549e26295",
    "nonlipschitz_log-run_frozen-False":
        "e9e7ae68555bf7af6aa079b1f0936474ba8c96117f94d95c6fa893f732429b54",
    "nonlipschitz_log-run_frozen-True":
        "3f4342d248c7fbdfe2eaa56ac31580833956bf65fdba3952187936c66a30ac73",
    "nonlipschitz_log-run_event_driven-False":
        "a42455c53fe525f5ad3cbee85f322342f7e56b9d7ad44fca03587bc722690f5c",
    "nonlipschitz_log-run_event_driven-True":
        "2939948ef31c87aaf202fbc4b41051455d1267479c5edd5d451aab94d8f90d5f",
    "state_dependent_4-run_frozen-False":
        "fa96b3c622437d4446420b6bc97b4c0aaa6089e76df2983d79ef2b29f5e11c94",
    "state_dependent_4-run_frozen-True":
        "2251f4bd608ed808d68c1d699ec48846fa171c1399aac82bd7469837f58a2474",
    "truncated_birth_death_5-run_frozen-False":
        "3760cbead67a5e8b51cdb556135b5c6db449e91e8a48d459d348c8622a8c7c55",
    "truncated_birth_death_5-run_frozen-True":
        "fdcc50c2a3ecabe55d308a40ca94aee00471ef1e0fdfe41173f098d304c98a13",
    "cli-frozen_rate":
        ("8f65c7f7ef3cdf5d642482c75bcdb1c1372c8452d1504071dc6b8f25f605bf42",
         "873975c1bad227bcbc0857f1316f0644d394916568762c9725fa3c446c4fcf04"),
    "cli-event_driven_exact":
        ("edf213b0108427be12af00c5733624699c54b154e5afa3972c026718316940a5",
         "f0d853564c0f738fa8086dd9165f3b4d399a2c7413beb0c3f19d97cd024664dd"),
}


def _cases():
    for name, (model, runners) in _models().items():
        for runner in runners:
            for functionals in (False, True):
                yield f"{name}-{runner.__name__}-{functionals}"


def _run_case(case):
    name, runner_name, functionals = case.rsplit("-", 2)
    model, runners = _models()[name]
    runner = {r.__name__: r for r in runners}[runner_name]
    rng = np.random.default_rng(77)
    x0 = rng.uniform(-1.0, 1.0, (N, model.dim))
    i0 = rng.integers(1, 3, N)
    extra = ({"trunc_level": 3.5, "track_xmax": True}
             if functionals == "True" else {})
    return runner(model, x0, i0, 1.0, 0.05, NoiseStream(2024), REPLICAS,
                  record=True, **extra)


@pytest.mark.filterwarnings("ignore::switchsde.errors.StiffSwitchingWarning")
@pytest.mark.parametrize("case", list(_cases()))
def test_recorded_run_bytes(case):
    out = _run_case(case)
    assert {"log", "switches", "x", "regime", "eta", "regime_max",
            "tau_k"} <= set(out)
    assert ("xnorm_max" in out) == case.endswith("True")
    assert _digest(out) == DIGESTS[case]


@pytest.mark.filterwarnings("ignore::switchsde.errors.StiffSwitchingWarning")
@pytest.mark.parametrize("scheme", [s.FROZEN_RATE, s.EVENT_DRIVEN])
def test_cli_trajectory_bytes(tmp_path, scheme):
    cfg = {"model": {"zoo": "birth_death_switch"},
           "sim": {"T": 1.0, "dt": 0.02, "K": 6, "seed": 909,
                   "scheme": scheme, "replicas": 1},
           "task": {"x0": [0.3], "i0": 2},
           "output": {"dir": str(tmp_path / "o"), "trajectory": "t.csv",
                      "trajectory_binary": "t.npz"}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    assert run("simulate", path) == 0
    csv = hashlib.sha256((tmp_path / "o" / "t.csv").read_bytes()).hexdigest()
    tr = s.from_binary(tmp_path / "o" / "t.npz")
    jumps = np.array([(j.time, j.src, j.dst, j.mark) for j in tr.jumps])
    arrays = {"times": tr.times, "x": tr.x, "regime": tr.regime,
              "jumps": jumps.reshape(-1, 4),
              "markers": np.array([tr.eta, tr.tau_k]),
              "seed": np.int64(tr.seed)}
    assert (csv, _digest(arrays)) == DIGESTS[f"cli-{scheme}"]
