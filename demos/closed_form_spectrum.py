"""Demo: a rotated Jz-polynomial model is solved without diagonalizing anything.

Builds a cubic model at j = 9/2, lists the closed-form eigenpairs, then
confronts them with the in-house divide-and-conquer eigensolver, which
knows nothing about the construction, run on the dense H = p(T): a
polynomial in the tridiagonal T = U† Jz U, built with no rotation matrix.
"""

import numpy as np

from exactspin import (
    HalfInt,
    ModelParams,
    RotationAngles,
    brute_diagonalize,
    exact_spectrum,
    model_hamiltonian,
    residual_norm,
)

params = ModelParams(
    order=3,
    coeffs=(0.25, 1.0, 0.08, -0.01),
    angles=RotationAngles(theta=1.1, phi=0.6),
)
j = HalfInt(9)  # j = 9/2, dimension 10

print(f"model: coeffs {params.coeffs}, theta={params.angles.theta}, "
      f"phi={params.angles.phi}, j={j}")
print()
print("closed-form eigenpairs (no diagonalization):")
print(f"{'m':>6} {'energy':>12} {'residual ||Hv-Ev||':>20}")
pairs = exact_spectrum(params, j)
for pair in pairs:
    print(f"{str(pair.m):>6} {pair.energy:>12.6f} "
          f"{residual_norm(params, j, pair):>20.3e}")

h = model_hamiltonian(params, j)
oracle, _ = brute_diagonalize(h)
closed = np.sort([pair.energy for pair in pairs])
print()
print(f"oracle vs closed form, worst gap: {np.max(np.abs(oracle - closed)):.3e}")
print("the spectrum is the polynomial values E_m; eigenvectors are rotated Dicke states")
