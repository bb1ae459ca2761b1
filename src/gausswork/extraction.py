r"""Gaussian passivity verdicts and optimal Gaussian work extraction.

The two-mode pipeline synthesizes an explicit protocol of elementary
operations: zero the first moments, iterate local standard-form reduction
against the optimal two-mode squeeze until the coupling block is isotropic,
then split the modes apart with one beam splitter.  The endpoint carries
the symplectic spectrum sorted against the mode frequencies, which is the
least mean energy any Gaussian operation can reach.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .core import (
    DEFAULT_TOL,
    MomentState,
    mean_energy,
    require_valid,
    symplectic_spectrum,
)
from .exceptions import ConvergenceError, OptimalityWarning, ValidationError
from .ops import (
    GaussianOp,
    ProtocolStep,
    apply,
    beam_splitter,
    displacement,
    rotation,
    squeeze,
    two_mode_squeeze,
)

CONVERGENCE_TOL = 1e-12
MAX_ITERS = 200
MAX_SWEEPS = 50

# steps whose parameters fall below this threshold are not worth recording
_STEP_EPS = 1e-13
# relative optimality slack before a report is flagged; float64 rounding
# accumulated over the iteration makes anything tighter unreliable
_GAP_WARN_RTOL = 1e-8


@dataclasses.dataclass(frozen=True)
class PassivityVerdict:
    passive: bool
    clause: str | None
    violations: tuple[str, ...]
    residuals: dict


@dataclasses.dataclass(frozen=True)
class StandardFormParams:
    a: float
    b: float
    c1: float
    c2: float


@dataclasses.dataclass(frozen=True, eq=False)
class ExtractionReport:
    initial_energy: float
    final_energy: float
    extracted_work: float
    steps: tuple[ProtocolStep, ...]
    final_state: MomentState
    certificate: PassivityVerdict
    spectrum: np.ndarray
    optimality_gap: float
    sweeps: int | None = None


def _mode_block(cov: np.ndarray, m: int) -> np.ndarray:
    return cov[2 * m : 2 * m + 2, 2 * m : 2 * m + 2]


def _cross_block(cov: np.ndarray, i: int, j: int) -> np.ndarray:
    return cov[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]


def is_gaussian_passive(state: MomentState, tol: float = DEFAULT_TOL) -> PassivityVerdict:
    """Decide whether any Gaussian operation can lower this two-mode state's energy.

    Passive states have vanishing first moments and either (i) a diagonal
    covariance diag(nu_a, nu_a, nu_b, nu_b) with the larger eigenvalue on
    the lower-frequency mode, or (ii) equal frequencies and a standard-form
    covariance whose off-diagonal block is proportional to the identity.
    """
    if state.n_modes != 2:
        raise ValidationError(
            "is_gaussian_passive handles two modes; use all_pairs_gaussian_passive"
        )
    violations = []
    residuals = {}
    x_resid = float(np.max(np.abs(state.x)))
    residuals["first_moments"] = x_resid
    if x_resid > tol:
        violations.append("nonzero first moments")

    cov = state.cov
    wa, wb = state.freqs
    va = 0.5 * (cov[0, 0] + cov[1, 1])
    vb = 0.5 * (cov[2, 2] + cov[3, 3])
    williamson = np.diag([va, va, vb, vb])
    resid_w = float(np.max(np.abs(cov - williamson)))
    residuals["williamson"] = resid_w

    equal_freqs = abs(wa - wb) <= 1e-12 * max(wa, wb)
    clause = None
    if resid_w <= tol:
        clause = "i"
        if wa < wb and va < vb - tol:
            violations.append("spectrum ordering violates frequency ordering")
            residuals["ordering"] = float(vb - va)
            clause = None
        elif wa > wb and vb < va - tol:
            violations.append("spectrum ordering violates frequency ordering")
            residuals["ordering"] = float(va - vb)
            clause = None
    elif equal_freqs:
        c = 0.5 * (cov[0, 2] + cov[1, 3])
        standard = np.array(
            [
                [va, 0.0, c, 0.0],
                [0.0, va, 0.0, c],
                [c, 0.0, vb, 0.0],
                [0.0, c, 0.0, vb],
            ]
        )
        resid_ii = float(np.max(np.abs(cov - standard)))
        residuals["standard_form"] = resid_ii
        if resid_ii <= tol:
            clause = "ii"
        else:
            violations.append("off-diagonal block not proportional to identity")
    else:
        violations.append("covariance not in Williamson form")

    passive = not violations and clause is not None
    return PassivityVerdict(
        passive=passive,
        clause=clause if passive else None,
        violations=tuple(violations),
        residuals=residuals,
    )


def all_pairs_gaussian_passive(state: MomentState, tol: float = DEFAULT_TOL) -> PassivityVerdict:
    """N-mode passivity through every two-mode marginal being passive."""
    if state.n_modes < 2:
        raise ValidationError("need at least two modes")
    x_resid = float(np.max(np.abs(state.x)))
    violations = []
    residuals = {"first_moments": x_resid}
    if x_resid > tol:
        violations.append("nonzero first moments")
    worst = 0.0
    for i in range(state.n_modes):
        for j in range(i + 1, state.n_modes):
            marg = _pair_marginal(state, i, j)
            verdict = is_gaussian_passive(marg, tol)
            worst = max(worst, verdict.residuals.get("williamson", 0.0))
            if not verdict.passive and any(
                v != "nonzero first moments" for v in verdict.violations
            ):
                violations.append(f"modes ({i},{j}): " + "; ".join(verdict.violations))
    residuals["worst_pair"] = worst
    passive = not violations
    return PassivityVerdict(
        passive=passive,
        clause="i" if passive else None,
        violations=tuple(violations),
        residuals=residuals,
    )


def _pair_marginal(state: MomentState, i: int, j: int) -> MomentState:
    idx = np.array([2 * i, 2 * i + 1, 2 * j, 2 * j + 1])
    return MomentState(
        freqs=state.freqs[[i, j]],
        x=state.x[idx],
        cov=state.cov[np.ix_(idx, idx)],
    )


def tms_parameter(a: float, b: float, c1: float, c2: float) -> float:
    """Two-mode squeeze parameter minimizing energy from standard form."""
    if abs(c1 - c2) >= a + b:
        raise ValidationError(
            f"|c1 - c2| = {abs(c1 - c2):.6g} must be below a + b = {a + b:.6g}"
        )
    return -0.5 * math.atanh((c1 - c2) / (a + b))


def bs_angle(a_t: float, b_t: float, c: float, first_larger: bool = True) -> float:
    """Beam-splitter angle diagonalizing [[a 1, c 1], [c 1, b 1]].

    The branch puts the larger symplectic eigenvalue on the first mode, or on
    the second with first_larger=False; degenerate blocks get
    theta = +-pi/4 * sign(c), the sign following first_larger.
    """
    if abs(a_t - b_t) <= 1e-14 * max(abs(a_t), abs(b_t), 1.0):
        quarter = math.pi / 4 if first_larger else -math.pi / 4
        return quarter * np.sign(c) if c != 0 else 0.0
    theta = 0.5 * math.atan(2.0 * c / (a_t - b_t))
    if (a_t < b_t) == first_larger:
        theta += math.pi / 2
    return theta


def minimal_gaussian_energy(spectrum, freqs) -> float:
    """Least mean energy on the Gaussian orbit: sort nu down, omega up."""
    nus = np.sort(np.atleast_1d(np.asarray(spectrum, dtype=float)))[::-1]
    ws = np.sort(np.atleast_1d(np.asarray(freqs, dtype=float)))
    if nus.size != ws.size:
        raise ValidationError("spectrum and frequency counts differ")
    if np.any(ws <= 0):
        raise ValidationError("frequencies must be positive")
    return float(np.sum(ws * (nus - 1.0) / 2.0))


def _emit(steps: list, op: GaussianOp, stage: str, state: MomentState) -> MomentState:
    state = apply(op, state)
    steps.append(ProtocolStep(op=op, stage=stage, energy_after=mean_energy(state)))
    return state


def _reduce_pair(
    state: MomentState,
    i: int,
    j: int,
    steps: list,
    stage: str,
) -> tuple[MomentState, StandardFormParams]:
    """Bring the (i, j) blocks to standard form with local operations."""
    n = state.n_modes
    for m in (i, j):
        block = _mode_block(state.cov, m)
        scale = max(abs(block[0, 0]), abs(block[1, 1]), 1.0)
        if abs(block[0, 1]) <= 1e-13 * scale:
            d1, d2 = block[0, 0], block[1, 1]
            if abs(d1 - d2) > 1e-13 * scale:
                r = 0.25 * math.log(d1 / d2)
                state = _emit(steps, squeeze(r, m, n), stage, state)
        else:
            lam, vec = np.linalg.eigh(block)
            if np.linalg.det(vec) < 0:
                vec = vec.copy()
                vec[:, 0] = -vec[:, 0]
            theta = math.atan2(vec[1, 0], vec[0, 0])
            if abs(theta) > _STEP_EPS:
                state = _emit(steps, rotation(theta, m, n), stage, state)
            r = 0.25 * math.log(lam[0] / lam[1])
            if abs(r) > _STEP_EPS:
                state = _emit(steps, squeeze(r, m, n), stage, state)

    cross = _cross_block(state.cov, i, j)
    off = max(abs(cross[0, 1]), abs(cross[1, 0]))
    if off > 1e-13 * max(1.0, float(np.max(np.abs(cross)))):
        u, s, vh = np.linalg.svd(cross)
        v = vh.T
        if np.linalg.det(u) < 0:
            u = u.copy()
            u[:, 1] = -u[:, 1]
        if np.linalg.det(v) < 0:
            v = v.copy()
            v[:, 1] = -v[:, 1]
        theta_a = math.atan2(u[1, 0], u[0, 0])
        theta_b = math.atan2(v[1, 0], v[0, 0])
        if abs(theta_a) > _STEP_EPS:
            state = _emit(steps, rotation(theta_a, i, n), stage, state)
        if abs(theta_b) > _STEP_EPS:
            state = _emit(steps, rotation(theta_b, j, n), stage, state)

    cov = state.cov
    params = StandardFormParams(
        a=0.5 * (cov[2 * i, 2 * i] + cov[2 * i + 1, 2 * i + 1]),
        b=0.5 * (cov[2 * j, 2 * j] + cov[2 * j + 1, 2 * j + 1]),
        c1=cov[2 * i, 2 * j],
        c2=cov[2 * i + 1, 2 * j + 1],
    )
    return state, params


def reduce_to_standard_form(
    state: MomentState, tol: float = DEFAULT_TOL
) -> tuple[MomentState, list[ProtocolStep], StandardFormParams]:
    """Local reduction of a two-mode state to standard form.

    Requires vanishing first moments; returns the reduced state, the local
    protocol steps taken, and the standard-form parameters (a, b, c1, c2).
    """
    if state.n_modes != 2:
        raise ValidationError("standard-form reduction is for two-mode states")
    if float(np.max(np.abs(state.x))) > tol:
        raise ValidationError("first moments must vanish before local reduction")
    steps: list[ProtocolStep] = []
    state, params = _reduce_pair(state, 0, 1, steps, "P2-local")
    return state, steps, params


def _pair_extract(
    state: MomentState,
    i: int,
    j: int,
    steps: list,
    tol: float,
    max_iters: int,
) -> MomentState:
    """Run the standard-form / two-mode-squeeze loop plus the final beam splitter."""
    n = state.n_modes
    stage = "P2-local"
    for it in range(max_iters):
        state, params = _reduce_pair(state, i, j, steps, stage)
        stage = "P3-realign"
        if abs(params.c1 - params.c2) <= tol:
            break
        r = tms_parameter(params.a, params.b, params.c1, params.c2)
        state = _emit(steps, two_mode_squeeze(r, (i, j), n), "P3-tms", state)
    else:
        raise ConvergenceError(
            f"standard-form loop did not converge in {max_iters} iterations "
            f"(|c1 - c2| = {abs(params.c1 - params.c2):.3e})",
            steps=steps,
        )
    c = 0.5 * (params.c1 + params.c2)
    first_larger = state.freqs[i] <= state.freqs[j]
    theta = bs_angle(params.a, params.b, c, first_larger)
    if abs(theta) > _STEP_EPS:
        state = _emit(steps, beam_splitter(theta, (i, j), n), "P4-beamsplit", state)
    return state


def _finish_report(
    initial_energy: float,
    steps: list,
    state: MomentState,
    spectrum: np.ndarray,
    passivity_tol: float,
    sweeps: int | None,
) -> ExtractionReport:
    final_energy = mean_energy(state)
    floor = minimal_gaussian_energy(spectrum, state.freqs)
    gap = final_energy - floor
    if abs(gap) > _GAP_WARN_RTOL * max(1.0, abs(floor)):
        warnings.warn(
            f"final energy differs from the spectral floor by {gap:.3e}",
            OptimalityWarning,
            stacklevel=3,
        )
    if state.n_modes == 2:
        certificate = is_gaussian_passive(state, passivity_tol)
    else:
        certificate = all_pairs_gaussian_passive(state, passivity_tol)
    return ExtractionReport(
        initial_energy=initial_energy,
        final_energy=final_energy,
        extracted_work=initial_energy - final_energy,
        steps=tuple(steps),
        final_state=state,
        certificate=certificate,
        spectrum=spectrum,
        optimality_gap=float(gap),
        sweeps=sweeps,
    )


def gaussian_ergotropy(
    state: MomentState,
    tol: float = CONVERGENCE_TOL,
    max_iters: int = MAX_ITERS,
    passivity_tol: float = DEFAULT_TOL,
) -> ExtractionReport:
    """Maximal Gaussian-extractable work from a two-mode state, with protocol.

    Returns an ExtractionReport whose steps lower the mean energy
    monotonically down to the spectral floor; already-passive states yield
    zero work and an empty protocol.
    """
    if state.n_modes != 2:
        raise ValidationError("gaussian_ergotropy expects a two-mode state")
    require_valid(state)
    initial_energy = mean_energy(state)
    spectrum = symplectic_spectrum(state.cov)

    verdict = is_gaussian_passive(state, passivity_tol)
    if verdict.passive:
        return ExtractionReport(
            initial_energy=initial_energy,
            final_energy=initial_energy,
            extracted_work=0.0,
            steps=(),
            final_state=state,
            certificate=verdict,
            spectrum=spectrum,
            optimality_gap=float(
                initial_energy - minimal_gaussian_energy(spectrum, state.freqs)
            ),
            sweeps=None,
        )

    steps: list[ProtocolStep] = []
    if float(np.max(np.abs(state.x))) > _STEP_EPS:
        state = _emit(steps, displacement(-state.x), "P1-displace", state)
    state = _pair_extract(state, 0, 1, steps, tol, max_iters)
    return _finish_report(initial_energy, steps, state, spectrum, passivity_tol, None)


def nmode_gaussian_ergotropy(
    state: MomentState,
    tol: float = CONVERGENCE_TOL,
    max_iters: int = MAX_ITERS,
    max_sweeps: int = MAX_SWEEPS,
    passivity_tol: float = DEFAULT_TOL,
) -> ExtractionReport:
    """Gaussian work extraction on N modes by pairwise sweeps on the joint state.

    Lexicographic mode pairs are processed with the two-mode pipeline
    (embedded in the full system) until no pair's marginal can be improved;
    for two modes this reduces to gaussian_ergotropy.
    """
    if state.n_modes < 2:
        raise ValidationError("nmode_gaussian_ergotropy expects at least two modes")
    require_valid(state)
    initial_energy = mean_energy(state)
    spectrum = symplectic_spectrum(state.cov)

    steps: list[ProtocolStep] = []
    if float(np.max(np.abs(state.x))) > _STEP_EPS:
        state = _emit(steps, displacement(-state.x), "P1-displace", state)

    n = state.n_modes
    sweeps = 0
    for _ in range(max_sweeps):
        sweeps += 1
        energy_before = mean_energy(state)
        ran_any = False
        for i in range(n):
            for j in range(i + 1, n):
                marginal = _pair_marginal(state, i, j)
                if is_gaussian_passive(marginal, passivity_tol).passive:
                    continue
                ran_any = True
                state = _pair_extract(state, i, j, steps, tol, max_iters)
        improvement = energy_before - mean_energy(state)
        if not ran_any or improvement <= tol:
            break
    else:
        raise ConvergenceError(
            f"pairwise sweeps did not reach a fixed point in {max_sweeps} sweeps",
            steps=steps,
        )
    return _finish_report(initial_energy, steps, state, spectrum, passivity_tol, sweeps)


def thermal_product_passivity(
    freq_a: float,
    freq_b: float,
    temp_a: float,
    temp_b: float,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Gaussian passivity of a two-mode thermal product, labeled freq_a <= freq_b.

    The product is passive exactly when the colder-labeled covariance is not
    smaller: coth(freq_a / 2 temp_a) >= coth(freq_b / 2 temp_b), with the
    zero-temperature limit coth -> 1; ties count as passive.
    """
    if freq_a <= 0 or freq_b <= 0:
        raise ValidationError("frequencies must be positive")
    if temp_a < 0 or temp_b < 0:
        raise ValidationError("temperatures must be nonnegative")
    if freq_a > freq_b:
        raise ValidationError("label the modes so that freq_a <= freq_b")
    nu_a = 1.0 if temp_a == 0 else 1.0 / math.tanh(freq_a / (2.0 * temp_a))
    nu_b = 1.0 if temp_b == 0 else 1.0 / math.tanh(freq_b / (2.0 * temp_b))
    return nu_a >= nu_b - tol
