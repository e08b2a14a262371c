#!/usr/bin/env python3
"""Empirical chain marginals against the matrix-exponential oracle for the
built-in two-regime chain and a random banded ten-regime chain."""

import argparse

import numpy as np

import switchsde as s


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--replicas", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=s.DEFAULT_SEED)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    R = np.zeros((10, 10))
    for i in range(10):
        for j in range(10):
            if i != j and abs(i - j) <= 2:
                R[i, j] = rng.uniform(0.3, 1.8)
    models = [
        s.linear_switching_model(dim=1, beta=(0.0,) * 2, a=(0.0,) * 2,
                                 s=(0.0,) * 2, rates=[[0, 1], [1, 0]],
                                 model_id="two_state"),
        s.linear_switching_model(dim=1, beta=(0.0,) * 10, a=(0.0,) * 10,
                                 s=(0.0,) * 10, rates=R, model_id="banded10"),
    ]
    cfg = s.SimConfig(horizon=2.0, dt=0.01, seed=args.seed,
                      scheme=s.EVENT_DRIVEN, replicas=args.replicas)
    for m in models:
        mc = s.chain_marginal_check(m, (0.5, 1.0, 2.0), args.replicas, cfg)
        print(f"{m.model_id}: {mc.within}/{mc.entries} entries within "
              f"3 standard errors ({mc.fraction_within:.4f})")


if __name__ == "__main__":
    main()
