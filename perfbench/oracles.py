"""Answer oracles for the benchmark, independent of the code under test.

Nothing here imports ``pairedops``.  The kernel oracle is the index formula
evaluated on the roots the benchmark itself prescribed; the norm oracle is a
vectorised dense gather of the paired section followed by a values-only SVD.
"""

from __future__ import annotations

import hashlib

import numpy as np

# sigma_max must agree with the oracle to this relative tolerance.
SIGMA_REL_TOL = 1e-12


def digest(payload: str) -> str:
    """Short content hash of one op's output, for op-by-op comparison of runs."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def winding_number(shift: int, roots) -> int:
    """Winding number of  c * z^shift * prod(z - r)  around the unit circle."""
    return shift + sum(1 for r in roots if abs(r) < 1.0)


def expected_kernel_dims(wind_a: int, wind_b: int) -> dict:
    """Kernel dimensions of a*P+ + b*P- and its three companions.

    For a, b invertible on the circle the paired operator is Fredholm with
    index wind b - wind a, and by Coburn's lemma one of its kernel and
    cokernel is trivial.  The swapped pair (b, a), the conjugated pair
    (conj a, conj b) and the adjoint all have kernel dimension
    max(0, wind a - wind b).
    """
    forward = max(0, wind_b - wind_a)
    backward = max(0, wind_a - wind_b)
    return {"kernel": forward, "swapped": backward, "conjugated": backward, "adjoint": backward}


def paired_section(a: np.ndarray, a_kmin: int, b: np.ndarray, b_kmin: int, band: int) -> np.ndarray:
    """Dense matrix of  Pi_N (a P+ + b P-) Pi_N  on exponents -N..N.

    Entry (i, j) is a[i - j] for columns j >= 0 and b[i - j] for j < 0,
    gathered in one vectorised step from the coefficient arrays.
    """
    exps = np.arange(-band, band + 1)
    diff = exps[:, None] - exps[None, :]

    def gather(coeffs: np.ndarray, kmin: int) -> np.ndarray:
        idx = diff - kmin
        inside = (idx >= 0) & (idx < len(coeffs))
        return np.where(inside, coeffs[np.clip(idx, 0, len(coeffs) - 1)], 0)

    return np.where(exps[None, :] >= 0, gather(a, a_kmin), gather(b, b_kmin))


def sigma_max(a: np.ndarray, a_kmin: int, b: np.ndarray, b_kmin: int, band: int) -> float:
    """Largest singular value of the paired finite section."""
    return float(np.linalg.svd(paired_section(a, a_kmin, b, b_kmin, band), compute_uv=False)[0])


def check_norm(answer: dict, reference: float) -> tuple[bool, bool]:
    """Check one ``norm`` row against the oracle's ``sigma_max``.

    Returns (correct, hard_error).  Correct means sigma_max matches the
    reference to SIGMA_REL_TOL and stays at or below min(sqrt2*M, sumAB) as
    reported.  Any miss is a hard error: the section is a nested principal
    submatrix of a bounded operator, so neither check has a known failure
    mode.
    """
    got = answer["sigma_max"]
    bound = min(answer["sqrt2M"], answer["sumAB"])
    ok = abs(got - reference) <= SIGMA_REL_TOL * reference and got <= bound * (1 + SIGMA_REL_TOL)
    return ok, not ok


def check_dims(answer: dict, expect: dict) -> tuple[bool, bool]:
    """Check reported kernel dimensions against the index formula.

    Returns (correct, hard_error).  A dimension above the formula is a hard
    error: the library documents its band-limited kernel as a subspace of
    the true kernel.  A dimension below it is the known band-limited
    shortfall and only lowers the correct ratio.
    """
    correct = all(answer[k] == expect[k] for k in answer)
    hard = any(answer[k] > expect[k] for k in answer)
    return correct, hard
