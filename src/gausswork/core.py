r"""First and second moments of bosonic modes, and the functionals built on them.

Quadratures are ordered (x_1, p_1, ..., x_N, p_N) with x = (a + a^\dag)/\sqrt{2}
and p = -i(a - a^\dag)/\sqrt{2}, so the vacuum covariance matrix is the identity
and a thermal mode has Gamma = coth(omega/2T) * identity.  The covariance
convention is Gamma_ij = <X_i X_j + X_j X_i> - 2 <X_i><X_j>.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .exceptions import ValidationError

DEFAULT_TOL = 1e-9

_OMEGA_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclasses.dataclass(frozen=True, eq=False)
class MomentState:
    """Mode frequencies plus first and second moments.

    The state described need not be Gaussian; every quantity computed here
    depends on the moments only.  Arrays are copied on construction and
    treated as immutable afterwards.
    """

    freqs: np.ndarray
    x: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        freqs = np.array(self.freqs, dtype=float).reshape(-1)
        x = np.array(self.x, dtype=float).reshape(-1)
        cov = np.array(self.cov, dtype=float)
        n = freqs.size
        if n == 0:
            raise ValidationError("at least one mode is required")
        if x.shape != (2 * n,):
            raise ValidationError(
                f"first moments have shape {x.shape}, expected ({2 * n},)"
            )
        if cov.shape != (2 * n, 2 * n):
            raise ValidationError(
                f"covariance has shape {cov.shape}, expected ({2 * n}, {2 * n})"
            )
        if not (np.all(np.isfinite(freqs)) and np.all(np.isfinite(x)) and np.all(np.isfinite(cov))):
            raise ValidationError("moments and frequencies must be finite")
        if np.any(freqs <= 0):
            raise ValidationError("mode frequencies must be positive")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.freqs.size


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form Omega with 2x2 blocks [[0, 1], [-1, 0]]."""
    if n_modes < 1:
        raise ValidationError("n_modes must be >= 1")
    return np.kron(np.eye(n_modes), _OMEGA_BLOCK)


def validate_state(state: MomentState, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check symmetry, positive definiteness, and the uncertainty relation.

    The uncertainty relation is Gamma + i*Omega >= 0, tested through the
    smallest eigenvalue of the Hermitian matrix Gamma + i*Omega being
    >= -tol.
    """
    violations = []
    cov = state.cov
    sym_resid = float(np.max(np.abs(cov - cov.T)))
    if sym_resid > tol:
        violations.append(f"covariance not symmetric (residual {sym_resid:.3e})")
    else:
        eigs = np.linalg.eigvalsh(0.5 * (cov + cov.T))
        if eigs[0] <= 0:
            violations.append(
                f"covariance not positive definite (min eigenvalue {eigs[0]:.3e})"
            )
        omega = symplectic_form(state.n_modes)
        herm = cov + 1j * omega
        min_unc = float(np.linalg.eigvalsh(herm)[0])
        if min_unc < -tol:
            violations.append(
                f"uncertainty relation violated (min eigenvalue of Gamma + i Omega is {min_unc:.3e})"
            )
    return ValidationReport(ok=not violations, violations=tuple(violations))


def require_valid(state: MomentState, tol: float = DEFAULT_TOL) -> None:
    report = validate_state(state, tol)
    if not report.ok:
        raise ValidationError("; ".join(report.violations))


def mean_energy(state: MomentState) -> float:
    r"""Mean energy \sum_i omega_i (<n_i> + 0) with the vacuum offset removed.

    Per mode the photon number is (Tr Gamma_i - 2)/4 + ||x_i||^2 / 2 in this
    covariance convention.
    """
    total = 0.0
    for i, w in enumerate(state.freqs):
        sl = slice(2 * i, 2 * i + 2)
        tr = state.cov[2 * i, 2 * i] + state.cov[2 * i + 1, 2 * i + 1]
        total += w * (0.25 * (tr - 2.0) + 0.5 * float(state.x[sl] @ state.x[sl]))
    return float(total)


def purity(state: MomentState) -> float:
    """Purity of the Gaussian state with these moments, 1/sqrt(det Gamma)."""
    det = float(np.linalg.det(state.cov))
    if det <= 0:
        raise ValidationError(f"covariance determinant {det:.3e} is not positive")
    return 1.0 / math.sqrt(det)


def symplectic_spectrum(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, sorted descending.

    With the Cholesky factor Gamma = L L^T, the Hermitian matrix
    i L^T Omega L has eigenvalues +-nu in exact pairs, for any mode count.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
        raise ValidationError("covariance must be square with even dimension")
    n = cov.shape[0] // 2
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValidationError("covariance not positive definite") from None
    evals = np.linalg.eigvalsh(1j * (chol.T @ symplectic_form(n) @ chol))
    return evals[n:][::-1]


def occupation_entropy(mean_occupation: float) -> float:
    """Entropy (m+1)ln(m+1) - m ln m of a thermal mode with occupation m."""
    m = float(mean_occupation)
    if m < 0:
        raise ValidationError(f"mean occupation {m} is negative")
    if m == 0:
        return 0.0
    return (m + 1.0) * math.log(m + 1.0) - m * math.log(m)


def gaussian_entropy(spectrum: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Von Neumann entropy of a Gaussian state from its symplectic spectrum.

    Eigenvalues in [1 - tol, 1) are clamped to exactly 1; anything below
    1 - tol is unphysical and rejected.
    """
    total = 0.0
    for nu in np.atleast_1d(np.asarray(spectrum, dtype=float)):
        if nu < 1.0 - tol:
            raise ValidationError(f"symplectic eigenvalue {nu} is below 1")
        nu = max(nu, 1.0)
        total += occupation_entropy((nu - 1.0) / 2.0)
    return total


def state_entropy(state: MomentState, tol: float = DEFAULT_TOL) -> float:
    """Entropy of the Gaussian state with this covariance matrix."""
    return gaussian_entropy(symplectic_spectrum(state.cov), tol)


def thermal_state(freqs, temperatures) -> MomentState:
    """Product of thermal modes; temperature 0 gives the vacuum for that mode."""
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    temps = np.broadcast_to(np.asarray(temperatures, dtype=float), freqs.shape)
    if np.any(temps < 0):
        raise ValidationError("temperatures must be nonnegative")
    nus = np.array(
        [
            1.0 if t == 0 else 1.0 / math.tanh(w / (2.0 * t))
            for w, t in zip(freqs, temps)
        ]
    )
    cov = np.diag(np.repeat(nus, 2))
    return MomentState(freqs=freqs, x=np.zeros(2 * freqs.size), cov=cov)
