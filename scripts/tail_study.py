#!/usr/bin/env python3
"""Estimate the Pareto tail exponent of the stationary volatility at a given
jump scale and compare with the analytic root of the Laplace exponent.

Usage: python scripts/tail_study.py [PHI] [N_DRAWS] [SEED]
"""

import sys

from supcogarch.charexp import ExponentContext, kappa_of_phi
from supcogarch.cogarch import CogarchParams
from supcogarch.levy import CompoundPoisson
from supcogarch.analysis import hill_sweep
from supcogarch.verify import stationary_component_draws

if __name__ == "__main__":
    phi = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 50_000
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 20260810

    model = CompoundPoisson(1.0)
    params = CogarchParams(1.0, 1.0, phi)
    ctx = ExponentContext(model, params.eta)
    kappa = kappa_of_phi(ctx, phi)
    print(f"phi = {phi}: analytic tail exponent kappa = {kappa:.4f}")

    draws = stationary_component_draws(params, model, seed, n)
    print(f"{n} stationary draws; Hill sweep:")
    for k, est in hill_sweep(draws):
        print(f"  k = {k:6d}: {est:.3f}")
