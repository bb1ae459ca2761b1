r"""Gaussian passivity verdicts and optimal Gaussian work extraction.

One verdict and one extraction serve every mode count.  The extraction
zeroes the first moments, then sweeps over mode pairs with the two-mode
prescription: bring the pair to standard form, apply the two-mode squeeze
after which local squeezes leave the coupling block isotropic, then split the
modes apart with one beam splitter.  That squeeze is the closed-form root of
an isotropy condition, taken when it lies between 0 and twice the
energy-optimal squeeze r*, where no squeeze raises the energy; otherwise the
pipeline applies the pair's beam splitter, which cannot raise the energy
either, and reduces again.  One mode takes the same local turn and squeeze
with no pair.  The endpoint carries the symplectic spectrum sorted against
the mode frequencies, which is the least mean energy any Gaussian operation
can reach.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
import warnings

import numpy as np

from .core import (
    DEFAULT_TOL,
    MomentState,
    _require_temperatures,
    _thermal_nu,
    mean_energy,
    mode_energy,
    require_valid,
    symplectic_form,
)
from .exceptions import ConvergenceError, OptimalityWarning, ValidationError
from .ops import (
    GaussianOp,
    ProtocolStep,
    apply,
    beam_splitter,
    displacement,
    inverse,
    rotation,
    squeeze,
    two_mode_squeeze,
)

MAX_SWEEPS = 50

# steps whose parameters fall below this threshold are not worth recording
_STEP_EPS = 1e-13
# relative optimality slack before a report is flagged; float64 rounding
# accumulated over the sweeps makes anything tighter unreliable
_GAP_WARN_RTOL = 1e-8

_log = logging.getLogger("gausswork")


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
    sweeps: int  # whole-state verdicts taken


def _same_frequency(low: float, high: float) -> bool:
    """Whether frequencies low <= high count as equal: relative difference at most 1e-12."""
    return high - low <= 1e-12 * high


def _passivity(freqs: np.ndarray, x: np.ndarray, cov: np.ndarray, tol: float) -> PassivityVerdict:
    """Gaussian passivity of the moments (x, cov) of modes with these frequencies.

    Passive states have vanishing first moments, no covariance between modes
    of different frequency, and, within each group of equal frequency, a
    block commuting with Omega (local blocks nu*1, couplings c*1 + d*Omega);
    the eigenvalues of each group are at least those of every group of
    higher frequency.  Clause "i" is the Williamson-diagonal case, clause
    "ii" the one with couplings inside an equal-frequency group.
    """
    n = freqs.size
    violations = []
    x_resid = float(np.max(np.abs(x)))
    residuals = {"first_moments": x_resid}
    if x_resid > tol:
        violations.append("nonzero first moments")

    diag = np.diagonal(cov)
    v = 0.5 * (diag[0::2] + diag[1::2])
    target = np.diag(np.repeat(v, 2))
    resid_w = float(np.max(np.abs(cov - target)))
    residuals["williamson"] = resid_w

    groups: list[list[int]] = []  # equal frequencies (relative 1e-12), ascending
    for m in np.argsort(freqs, kind="stable").tolist():
        if groups and _same_frequency(freqs[groups[-1][0]], freqs[m]):
            groups[-1].append(m)
        else:
            groups.append([m])
    form = []
    if resid_w > tol:
        loose = resid_w
        if len(groups) < n:
            same = np.zeros((n, n), dtype=bool)
            for g in groups:
                same[np.ix_(g, g)] = True
            np.fill_diagonal(same, False)
            # cross blocks between distinct modes of one frequency group
            coupled = np.kron(same, np.ones((2, 2), dtype=bool))
            omega = symplectic_form(n)
            target = target + np.where(coupled, 0.5 * (cov - omega @ cov @ omega), 0.0)
            dev = np.abs(cov - target)
            residuals["standard_form"] = float(np.max(dev))
            if np.max(dev[coupled]) > tol:
                form.append("off-diagonal block not proportional to identity")
            loose = float(np.max(dev[~coupled]))
        if loose > tol:
            form.append("covariance not in Williamson form")
    violations += form

    if not form:
        spans = []  # least and largest eigenvalue of each group
        for g in groups:
            q = [k for m in g for k in (2 * m, 2 * m + 1)]
            nus = v[g] if len(g) == 1 else np.linalg.eigvalsh(target[np.ix_(q, q)])
            spans.append((nus.min(), nus.max()))
        ordering = []
        for a, b in itertools.combinations(range(len(groups)), 2):
            if spans[a][0] < spans[b][1] - tol:
                ordering.append(float(spans[b][1] - spans[a][0]))
                modes = sorted(groups[a] + groups[b])
                where = "" if len(modes) == n else f"modes ({','.join(map(str, modes))}): "
                violations.append(where + "spectrum ordering violates frequency ordering")
        if ordering:
            residuals["ordering"] = max(ordering)

    passive = not violations
    return PassivityVerdict(
        passive=passive,
        clause=("i" if resid_w <= tol else "ii") if passive else None,
        violations=tuple(violations),
        residuals=residuals,
    )


def is_gaussian_passive(state: MomentState, tol: float = DEFAULT_TOL) -> PassivityVerdict:
    """Decide whether any Gaussian operation can lower this state's energy, for any mode count."""
    return _passivity(state.freqs, state.x, state.cov, tol)


def tms_parameter(a: float, b: float, c1: float, c2: float) -> float:
    """Two-mode squeeze parameter minimizing energy from standard form."""
    if abs(c1 - c2) >= a + b:
        raise ValidationError(
            f"|c1 - c2| = {abs(c1 - c2):.6g} must be below a + b = {a + b:.6g}"
        )
    return -0.5 * math.atanh((c1 - c2) / (a + b))


def _isotropy_squeeze(params: StandardFormParams) -> float | None:
    """Two-mode squeeze after which local squeezes make the coupling isotropic.

    From standard form (a*1, b*1, diag(c1, c2)) a squeeze r keeps every block
    diagonal: with s = (a + b) / 2 the coupling becomes
    K11 = s sinh 2r + c1 cosh 2r, K22 = c2 cosh 2r - s sinh 2r, and the local
    determinants A11 B11 = K11^2 + ab - c1^2, A22 B22 = K22^2 + ab - c2^2.
    Squeezing both local blocks to multiples of 1 equalizes the coupling
    where K11 alpha = K22 beta, alpha = sqrt(ab - c2^2), beta = sqrt(ab - c1^2):
    tanh 2r = (c2 beta - c1 alpha) / (s (alpha + beta)).

    The pair's energy moves with (a + b) cosh 2r + (c1 - c2) sinh 2r, which is
    symmetric about r* = tms_parameter(a, b, c1, c2), so no r between 0 and
    2 r* raises it, and the local squeezes only lower it further.  The root is
    returned when it lies there; otherwise None is, and one debug record on
    the gausswork logger gives a, b, c1, c2, the root and r*.
    """
    a, b, c1, c2 = params.a, params.b, params.c1, params.c2
    r_star = tms_parameter(a, b, c1, c2)
    alpha, beta = math.sqrt(a * b - c2 * c2), math.sqrt(a * b - c1 * c1)
    if c1 * c2 > 0.0:  # c2 beta and c1 alpha nearly cancel; rationalize
        num = a * b * (c2 - c1) * (c2 + c1) / (c2 * beta + c1 * alpha)
    else:
        num = c2 * beta - c1 * alpha
    t = num / (0.5 * (a + b) * (alpha + beta))
    root = 0.5 * math.atanh(t) if abs(t) < 1.0 else None
    if root is not None and min(0.0, 2.0 * r_star) <= root <= max(0.0, 2.0 * r_star):
        return root
    if _log.isEnabledFor(logging.DEBUG):
        stats = {"a": a, "b": b, "c1": c1, "c2": c2, "root": root or "none", "r_star": r_star}
        _log.debug(
            "extraction.isotropy_fallback a=%(a).17g b=%(b).17g c1=%(c1).17g c2=%(c2).17g "
            "root=%(root)s r_star=%(r_star).17g", stats, extra=stats,
        )
    return None


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


def _decoupled_pair(state: MomentState) -> tuple[MomentState, list[GaussianOp]]:
    """A two-mode state brought to a product by a turn and a split, and the ops that undo them.

    A cross block c*1 + d*Omega (c and d averaged over the block) becomes
    hypot(c, d)*1 under a rotation of mode 1 by atan2(d, c), and the beam
    splitter at ``bs_angle`` removes it.  A one-mode state, or a coupling of
    at most 1e-12, is returned as it is, with no ops.
    """
    if state.n_modes != 2:
        return state, []
    cov = state.cov
    c = 0.5 * (cov[0, 2] + cov[1, 3])
    d = 0.5 * (cov[0, 3] - cov[1, 2])
    coupling = math.hypot(c, d)
    if coupling <= 1e-12:
        return state, []
    a_t = 0.5 * (cov[0, 0] + cov[1, 1])
    b_t = 0.5 * (cov[2, 2] + cov[3, 3])
    turn = rotation(math.atan2(d, c), 1, 2)
    splitter = beam_splitter(bs_angle(a_t, b_t, coupling), (0, 1), 2)
    return apply(splitter, apply(turn, state)), [inverse(splitter), inverse(turn)]


def minimal_gaussian_energy(spectrum, freqs) -> float:
    """Least mean energy on the Gaussian orbit: sort nu down, omega up."""
    nus = np.sort(np.atleast_1d(np.asarray(spectrum, dtype=float)))[::-1]
    ws = np.sort(np.atleast_1d(np.asarray(freqs, dtype=float)))
    if nus.size != ws.size:
        raise ValidationError("spectrum and frequency counts differ")
    if np.any(ws <= 0):
        raise ValidationError("frequencies must be positive")
    return float(np.sum(ws * (nus - 1.0) / 2.0))


class _Run:
    """The steps emitted so far and the per-mode energies of the state they reach."""

    def __init__(self, state: MomentState):
        self.steps: list[ProtocolStep] = []
        self.energies = [mode_energy(state, m) for m in range(state.n_modes)]

    @property
    def energy(self) -> float:
        """The mean energy: the in-order sum of the per-mode terms, as mean_energy adds them."""
        total = 0.0
        for e in self.energies:
            total += e
        return float(total)

    def emit(self, op: GaussianOp, stage: str, state: MomentState) -> MomentState:
        """Apply op, record it, and refresh the energies of the modes it touches."""
        state = apply(op, state)
        for m in op.modes:
            self.energies[m] = mode_energy(state, m)
        self.steps.append(ProtocolStep(op=op, stage=stage, energy_after=self.energy))
        return state


def _reduce_mode(state: MomentState, m: int, run: _Run, stage: str) -> MomentState:
    """Turn and squeeze mode m's local block to a multiple of 1.

    The block [[p, q], [q, s]] is turned by theta = atan2(2q, p - s)/2 + pi/2,
    folded into (-pi/2, pi/2], which puts its smaller eigenvalue
    lam- = (ps - q^2)/lam+ on x, then squeezed to sqrt(lam+ lam-) * 1.
    """
    n = state.n_modes
    (p, q), (_, s) = state.cov[2 * m : 2 * m + 2, 2 * m : 2 * m + 2].tolist()
    scale = max(abs(p), abs(s), 1.0)
    if abs(q) <= 1e-13 * scale:
        if abs(p - s) > 1e-13 * scale:
            state = run.emit(squeeze(0.25 * math.log(p / s), m, n), stage, state)
    else:
        theta = 0.5 * math.atan2(2.0 * q, p - s) + 0.5 * math.pi
        if theta > 0.5 * math.pi:
            theta -= math.pi
        if abs(theta) > _STEP_EPS:
            state = run.emit(rotation(theta, m, n), stage, state)
        lam_hi = 0.5 * (p + s) + math.hypot(0.5 * (p - s), q)
        r = 0.25 * math.log((p * s - q * q) / lam_hi / lam_hi)
        if abs(r) > _STEP_EPS:
            state = run.emit(squeeze(r, m, n), stage, state)
    return state


def _reduce_pair(
    state: MomentState,
    i: int,
    j: int,
    run: _Run,
    stage: str,
) -> tuple[MomentState, StandardFormParams]:
    """Bring the (i, j) blocks to standard form with local operations.

    Each local block goes to a multiple of 1 (_reduce_mode).  The cross block
    C = [[a, b], [c, d]] is R(theta_a)^T diag(d1, d2) R(theta_b) with
    d1 >= |d2| for theta_a + theta_b = atan2(c + b, a - d) and
    theta_a - theta_b = atan2(c - b, a + d), so turning mode i by theta_a and
    mode j by theta_b leaves it diagonal.
    """
    n = state.n_modes
    for m in (i, j):
        state = _reduce_mode(state, m, run, stage)

    (a, b), (c, d) = state.cov[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].tolist()
    if max(abs(b), abs(c)) > 1e-13 * max(1.0, abs(a), abs(b), abs(c), abs(d)):
        theta_sum, theta_diff = math.atan2(c + b, a - d), math.atan2(c - b, a + d)
        theta_a, theta_b = 0.5 * (theta_sum + theta_diff), 0.5 * (theta_sum - theta_diff)
        if abs(theta_a) > _STEP_EPS:
            state = run.emit(rotation(theta_a, i, n), stage, state)
        if abs(theta_b) > _STEP_EPS:
            state = run.emit(rotation(theta_b, j, n), stage, state)

    cov = state.cov
    params = StandardFormParams(
        a=0.5 * (cov.item(2 * i, 2 * i) + cov.item(2 * i + 1, 2 * i + 1)),
        b=0.5 * (cov.item(2 * j, 2 * j) + cov.item(2 * j + 1, 2 * j + 1)),
        c1=cov.item(2 * i, 2 * j),
        c2=cov.item(2 * i + 1, 2 * j + 1),
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
    run = _Run(state)
    state, params = _reduce_pair(state, 0, 1, run, "P2-local")
    return state, run.steps, params


def _pair_extract(state: MomentState, i: int, j: int, run: _Run) -> MomentState:
    """One pass of the pair prescription: standard form, squeeze, beam splitter.

    The isotropy squeeze is applied when its root lies in [0, 2 r*].  Where it
    lies beyond, the pair's beam splitter goes first: it turns x and p by one
    angle, so it diagonalizes the pair's x + p sum
    [[2a, c1 + c2], [c1 + c2, 2b]] and cannot raise the energy, and after it
    the pair is reduced and the root solved once more.  A root still outside
    is skipped, and the next sweep takes the pair up again.  The pass ends
    with the beam splitter that parts the modes of the reduced pair.
    """
    n = state.n_modes
    first_larger = state.freqs[i] <= state.freqs[j]
    state, params = _reduce_pair(state, i, j, run, "P2-local")
    r = _isotropy_squeeze(params)
    if r is None:
        theta = bs_angle(params.a, params.b, 0.5 * (params.c1 + params.c2), first_larger)
        state = run.emit(beam_splitter(theta, (i, j), n), "P3-realign", state)
        state, params = _reduce_pair(state, i, j, run, "P3-realign")
        r = _isotropy_squeeze(params)
    if r is not None and abs(r) > _STEP_EPS:
        state = run.emit(two_mode_squeeze(r, (i, j), n), "P3-tms", state)
        state, params = _reduce_pair(state, i, j, run, "P3-realign")
    theta = bs_angle(params.a, params.b, 0.5 * (params.c1 + params.c2), first_larger)
    if abs(theta) > _STEP_EPS:
        state = run.emit(beam_splitter(theta, (i, j), n), "P4-beamsplit", state)
    return state


def gaussian_ergotropy(state: MomentState) -> ExtractionReport:
    """Maximal Gaussian-extractable work from a state of any mode count, with protocol.

    Displace, then sweep the two-mode pipeline over lexicographic mode pairs
    (embedded in the full system) to a fixed point; a single mode takes its
    local turn and squeeze instead.  The steps lower the mean energy
    monotonically down to the spectral floor; an already-passive state yields
    zero work and no step beyond removing first moments above 1e-13.

    Each sweep opens with the whole-state certificate; the sweeps end when it is
    passive, or when a sweep emits no step and so leaves the state it certified.
    More than MAX_SWEEPS sweeps raise ConvergenceError with the steps so far.
    """
    spectrum = require_valid(state)
    initial_energy = mean_energy(state)
    input_cov = state.cov

    run = _Run(state)
    if float(np.max(np.abs(state.x))) > _STEP_EPS:
        state = run.emit(displacement(-state.x), "P1-displace", state)

    n = state.n_modes
    for sweeps in range(1, MAX_SWEEPS + 1):
        certificate = is_gaussian_passive(state, DEFAULT_TOL)
        if certificate.passive:
            break
        emitted = len(run.steps)
        if n == 1:
            state = _reduce_mode(state, 0, run, "P2-local")
        for i, j in itertools.combinations(range(n), 2):
            if n == 2:  # the pair is the whole state
                diagonal = certificate.clause == "i"
            elif max(map(abs, state.cov[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].flat)) > DEFAULT_TOL:
                diagonal = False  # a coupling above tol puts the Williamson residual above it
            else:
                idx = (2 * i, 2 * i + 1, 2 * j, 2 * j + 1)
                pair = _passivity(
                    state.freqs.take((i, j)), state.x.take(idx),
                    state.cov.take(idx, 0).take(idx, 1), DEFAULT_TOL,
                )
                diagonal = pair.clause == "i"
            if not diagonal:
                state = _pair_extract(state, i, j, run)
        if len(run.steps) == emitted:
            break
    else:
        raise ConvergenceError(
            f"pairwise sweeps did not converge to a fixed point in {MAX_SWEEPS} sweeps",
            steps=run.steps,
        )

    final_energy = mean_energy(state)
    floor = minimal_gaussian_energy(spectrum, state.freqs)
    gap = final_energy - floor
    if abs(gap) > _GAP_WARN_RTOL * max(1.0, abs(floor)):
        # float64 moments carry a backward error of about eps max|Gamma|
        rounding = np.finfo(float).eps * float(np.max(np.abs(input_cov)))
        where = "within" if abs(gap) <= rounding else "beyond"
        warnings.warn(
            f"final energy differs from the spectral floor by {gap:.3e}, {where} the "
            f"input's rounding scale eps*max|Gamma| = {rounding:.3e}",
            OptimalityWarning,
            stacklevel=2,
        )
    return ExtractionReport(
        initial_energy=initial_energy,
        final_energy=final_energy,
        extracted_work=initial_energy - final_energy,
        steps=tuple(run.steps),
        final_state=state,
        certificate=certificate,
        spectrum=spectrum,
        optimality_gap=float(gap),
        sweeps=sweeps,
    )


# the former n-mode names, kept for callers outside the package
all_pairs_gaussian_passive = is_gaussian_passive
nmode_gaussian_ergotropy = gaussian_ergotropy


def thermal_product_passivity(
    freq_a: float,
    freq_b: float,
    temp_a: float,
    temp_b: float,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Gaussian passivity of a two-mode thermal product, labeled freq_a <= freq_b.

    Equal frequencies (``_passivity``'s relative 1e-12) make every product
    passive.  Otherwise the product is passive exactly when the
    colder-labeled covariance is not smaller: coth(freq_a / 2 temp_a) >=
    coth(freq_b / 2 temp_b), with the zero-temperature limit coth -> 1; ties
    count as passive.
    """
    if freq_a <= 0 or freq_b <= 0:
        raise ValidationError("frequencies must be positive")
    _require_temperatures((temp_a, temp_b))
    if freq_a > freq_b:
        raise ValidationError("label the modes so that freq_a <= freq_b")
    if _same_frequency(freq_a, freq_b):
        return True
    return _thermal_nu(freq_a, temp_a) >= _thermal_nu(freq_b, temp_b) - tol
