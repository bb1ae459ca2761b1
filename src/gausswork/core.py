r"""First and second moments of bosonic modes, and the functionals built on them.

Quadratures are ordered (x_1, p_1, ..., x_N, p_N) with x = (a + a^\dag)/\sqrt{2}
and p = -i(a - a^\dag)/\sqrt{2}, so the vacuum covariance matrix is the identity
and a thermal mode has Gamma = coth(omega/2T) * identity.  The covariance
convention is Gamma_ij = <X_i X_j + X_j X_i> - 2 <X_i><X_j>.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from .exceptions import ValidationError

DEFAULT_TOL = 1e-9


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

    @classmethod
    def _inherit(cls, parent: MomentState, x: np.ndarray, cov: np.ndarray) -> MomentState:
        """Wrap moments derived from a validated state, sharing its frequencies.

        The arrays are taken as they are: no copy, and no check of shapes or
        frequencies, which the caller inherits from ``parent``.
        """
        state = object.__new__(cls)
        state.__dict__.update(freqs=parent.freqs, x=x, cov=cov)
        return state

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
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    omega.flat[1 :: 4 * n_modes + 2] = 1.0  # entries (2k, 2k + 1)
    omega.flat[2 * n_modes :: 4 * n_modes + 2] = -1.0  # entries (2k + 1, 2k)
    return omega


def _checked_spectrum(state: MomentState, tol: float) -> tuple[tuple[str, ...], np.ndarray | None]:
    """``validate_state``'s violations, and the symplectic spectrum where it was taken."""
    cov = state.cov
    sym_resid = float(np.max(np.abs(cov - cov.T)))
    if sym_resid > tol * max(1.0, float(np.max(np.abs(cov)))):
        return (f"covariance not symmetric (residual {sym_resid:.3e})",), None
    try:
        spectrum = symplectic_spectrum(cov)
    except ValidationError as exc:
        return (str(exc),), None
    excess = float(spectrum[-1]) - 1.0
    if excess < -tol:
        return (
            f"uncertainty relation violated (least symplectic eigenvalue minus 1 is {excess:.3e})",
        ), spectrum
    return (), spectrum


def validate_state(state: MomentState, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check symmetry, positive definiteness, and the uncertainty relation.

    Gamma is symmetric when no entry of Gamma - Gamma^T exceeds
    tol * max(1, max|Gamma|), so rounding in a large covariance passes.
    Positive definiteness is the success of the Cholesky factorization behind
    symplectic_spectrum.  A positive definite Gamma obeys the uncertainty
    relation Gamma + i*Omega >= 0 exactly when its least symplectic
    eigenvalue is at least 1, tested here as nu - 1 >= -tol.
    """
    violations, _ = _checked_spectrum(state, tol)
    return ValidationReport(ok=not violations, violations=violations)


def require_valid(state: MomentState, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The symplectic spectrum of a state that passes ``validate_state``.

    Raises ValidationError with the violations otherwise.
    """
    violations, spectrum = _checked_spectrum(state, tol)
    if violations:
        raise ValidationError("; ".join(violations))
    return spectrum


def mean_energy(state: MomentState) -> float:
    r"""Mean energy \sum_i omega_i (<n_i> + 0) with the vacuum offset removed.

    Per mode the photon number is (Tr Gamma_i - 2)/4 + ||x_i||^2 / 2 in this
    covariance convention; the total is the in-order sum of mode_energy.
    A total that overflows raises ValidationError.
    """
    total = 0.0
    for i in range(state.n_modes):
        total += mode_energy(state, i)
    if not math.isfinite(total):
        raise ValidationError(f"mean energy {total} is not finite")
    return float(total)


def mode_energy(state: MomentState, m: int) -> float:
    """Mean energy of mode m alone, omega_m ((Tr Gamma_m - 2)/4 + ||x_m||^2 / 2)."""
    x0, x1 = state.x.item(2 * m), state.x.item(2 * m + 1)
    tr = state.cov.item(2 * m, 2 * m) + state.cov.item(2 * m + 1, 2 * m + 1)
    return state.freqs.item(m) * (0.25 * (tr - 2.0) + 0.5 * (x0 * x0 + x1 * x1))


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
    if m >= 1.0:  # the same function, without the cancellation at high m
        return math.log1p(m) + m * math.log1p(1.0 / m)
    return (m + 1.0) * math.log1p(m) - m * math.log(m)


def _bose_occupation(x: float) -> float:
    """Occupation 1/(e^x - 1) of a thermal mode at x = beta*omega, without overflow at large x."""
    return math.exp(-x) / -math.expm1(-x)


def _truncated_populations(q: float, dim: int) -> np.ndarray:
    """Populations q^n / sum_{k<dim} q^k of levels n < dim: q = 0 is the vacuum, q = 1 flat."""
    p = q ** np.arange(dim)
    return p / p.sum()


def _require_temperatures(temps) -> None:
    """Refuse a temperature that is negative, infinite or NaN."""
    if not all(0.0 <= t < math.inf for t in temps):
        raise ValidationError("temperatures must be finite and nonnegative")


def _thermal_nu(freq: float, temp: float) -> float:
    """Symplectic eigenvalue coth(freq/2T) of a thermal mode; temperature 0 gives the vacuum's 1."""
    return 1.0 if temp == 0 else 1.0 / math.tanh(freq / (2.0 * temp))


def _common_temperature(freqs, entropy: float) -> tuple[float, list[float]]:
    """Inverse temperature and occupations of the thermal product of this total entropy.

    The total entropy grows with the occupation m of the lowest frequency, so
    m is bracketed and bisected over [least positive float, largest float],
    with beta*omega_min = ln(1 + 1/m).  Entropy 0 gives beta = inf and the
    vacuum; an entropy beyond the bracket raises ValidationError.
    """
    if not entropy >= 0:
        raise ValidationError("entropy must be nonnegative")
    freqs = [float(w) for w in freqs]
    if entropy == 0:
        return math.inf, [0.0] * len(freqs)
    low = min(freqs)

    def occupations(m):
        # beta * low = ln(1 + 1/m), written so that 1/m cannot overflow
        x = math.log1p(1.0 / m) if m >= 1.0 else math.log1p(m) - math.log(m)
        return x / low, [m if w == low else _bose_occupation(x * (w / low)) for w in freqs]

    def excess(m):
        return sum(occupation_entropy(n) for n in occupations(m)[1]) - entropy

    least, largest = math.ulp(0.0), sys.float_info.max  # the least and largest positive floats
    lo, hi = 1e-12, 1.0
    while excess(lo) > 0.0:
        if lo == least:
            raise ValidationError(f"entropy {entropy} out of solvable range")
        lo = max(lo / 100.0, least)
    while excess(hi) < 0.0:
        if hi == largest:
            raise ValidationError(f"entropy {entropy} out of solvable range")
        hi = min(hi * 2.0, largest)
    return occupations(_bisect(excess, lo, hi))


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f in [lo, hi], where f(lo) and f(hi) do not share a sign.

    An endpoint where f is exactly zero is returned as it is.  Otherwise the
    bracket is halved until hi - lo <= 4*eps*|mid|, or until the midpoint
    rounds onto an endpoint.  The midpoint adds the halves of the endpoints,
    which is exact for normal floats and stays finite up to the largest one.
    """
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    if f(hi) == 0.0:
        return hi
    while True:
        mid = 0.5 * lo + 0.5 * hi
        if hi - lo <= 4.0 * sys.float_info.epsilon * abs(mid) or mid in (lo, hi):
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid


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
    _require_temperatures(temps.tolist())
    nus = np.array([_thermal_nu(w, t) for w, t in zip(freqs, temps)])
    cov = np.diag(np.repeat(nus, 2))
    return MomentState(freqs=freqs, x=np.zeros(2 * freqs.size), cov=cov)
