r"""Witness states for the gap between Gaussian and unrestricted extraction.

Three constructions, all verifiable against the Fock oracle:

* a pure state whose first and second moments match those of a one- or
  two-mode Gaussian-passive state (so the moment-level machinery sees no
  extractable work while the full state is completely active),
* a fixed-entropy state with the same property at any prescribed entropy,
* an explicit two-level population swap that lowers the energy of a pair of
  thermal modes which is passive at the moment level.

The gap report (ergotropy_gap) takes its Gaussian figure for any mode count
from the spectral floor, in closed form, and runs no extraction.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    MomentState,
    _bose_occupation,
    _common_temperature,
    _require_temperatures,
    _truncated_populations,
    gaussian_entropy,
    mean_energy,
    require_valid,
    state_entropy,
    thermal_state,
)
from .exceptions import TruncationError, ValidationError
from .extraction import _decoupled_pair, is_gaussian_passive, minimal_gaussian_energy

if TYPE_CHECKING:  # the oracle loads on use
    from .fock import TruncatedDensityMatrix

__all__ = [
    "PureMatch",
    "match_pure_state",
    "pure_match_vector",
    "pure_match_for_state",
    "thermal_beta_for_entropy",
    "FixedEntropyConstruction",
    "fixed_entropy_state",
    "GapReport",
    "ergotropy_gap",
    "SwapWitness",
    "thermal_swap_witness",
]


@dataclasses.dataclass(frozen=True)
class PureMatch:
    """Parameters of the pure state sqrt(p)|n> + sqrt(1-p)|n+3>."""

    level: int
    weight: float
    nu: float


def match_pure_state(nu: float) -> PureMatch:
    """Pure state whose quadrature moments equal those of covariance nu*I.

    A superposition of two number states three levels apart has vanishing
    first moments and isotropic covariance (number offsets below 3 would
    pollute <a> or <a^2>), so only the mean occupation needs tuning:
    (nu-1)/2 = n + 3*(1-p).
    """
    if nu < 1.0 - 1e-12:
        raise ValidationError(f"symplectic eigenvalue {nu} below vacuum")
    occ = max((nu - 1.0) / 2.0, 0.0)
    level = int(math.floor(occ))
    if occ - level >= 1.0:  # guard against floor(x)==x-1 at exact integers
        level += 1
    weight = 1.0 - (occ - level) / 3.0
    return PureMatch(level=level, weight=weight, nu=float(nu))


def pure_match_vector(match: PureMatch, dim: int) -> np.ndarray:
    if dim < match.level + 4:
        raise ValidationError(
            f"cutoff {dim} too small; need at least {match.level + 4}"
        )
    v = np.zeros(dim)
    v[match.level] = math.sqrt(match.weight)
    v[match.level + 3] = math.sqrt(1.0 - match.weight)
    return v


def pure_match_for_state(state: MomentState, dim: int) -> TruncatedDensityMatrix:
    """Zero-entropy oracle state with the moments of a Gaussian-passive one- or two-mode state.

    A product covariance, each mode's block nu_m*1, is matched mode by mode:
    the oracle state is the Kronecker product of the pure matches.  A pair
    with correlated blocks (the equal-frequency passive case, cross block
    c*1 + d*Omega) is first brought to a product by an energy-preserving
    rotation of mode 1, which turns the cross block into hypot(c, d)*1, and a
    beam splitter; the product is matched, then un-rotated in the oracle.
    """
    from .fock import apply_gaussian_unitary, pure_state

    if state.n_modes > 2:
        raise ValidationError("pure matching handles one or two modes")
    verdict = is_gaussian_passive(state)
    if not verdict.passive:
        raise ValidationError(
            "pure matching needs a Gaussian-passive state; violations: "
            + "; ".join(verdict.violations)
        )
    state, undo = _decoupled_pair(state)
    vector = np.ones(1)
    for m in range(state.n_modes):
        match = match_pure_state(state.cov[2 * m, 2 * m])
        vector = np.kron(vector, pure_match_vector(match, dim))
    rho = pure_state(vector, state.freqs, dim)
    for op in undo:
        rho = apply_gaussian_unitary(op, rho)
    return rho


def thermal_beta_for_entropy(entropy: float, freq: float = 1.0) -> float:
    """Inverse temperature of the single-mode thermal state with this entropy."""
    if freq <= 0:
        raise ValidationError("frequency must be positive")
    return _common_temperature([freq], entropy)[0]


@dataclasses.dataclass(frozen=True)
class FixedEntropyConstruction:
    """A state of prescribed entropy matching covariance nu*I at one mode."""

    state: TruncatedDensityMatrix
    level: int
    mixing: float
    beta: float
    nu_thermal: float


def fixed_entropy_state(
    nu_target: float,
    entropy: float,
    freq: float = 1.0,
    cutoff: int = 60,
) -> FixedEntropyConstruction:
    """Build a state with entropy S whose moments match covariance nu*I.

    Starts from the thermal state of entropy S, then rotates the |0>,|n>
    plane (n >= 3, so no moment picks up off-diagonal terms) just enough to
    raise the mean occupation to (nu-1)/2.  Entropy is exactly preserved
    because the rotation is unitary.
    """
    if nu_target < 1.0 - 1e-12:
        raise ValidationError(f"target eigenvalue {nu_target} below vacuum")
    beta = thermal_beta_for_entropy(entropy, freq)
    occ_thermal = _bose_occupation(beta * freq)
    nu_thermal = 2.0 * occ_thermal + 1.0
    excess = (nu_target - nu_thermal) / 2.0
    if excess < -1e-12:
        raise ValidationError(
            f"entropy {entropy} forces occupation above the target covariance"
        )
    excess = max(excess, 0.0)
    pops = _truncated_populations(math.exp(-beta * freq), cutoff)
    level = None
    for n in range(3, cutoff // 2 + 1):
        if n * (pops[0] - pops[n]) >= excess - 1e-15:
            level = n
            break
    if level is None:
        suggestion = _suggest_cutoff(beta, freq, excess)
        raise TruncationError(
            f"no admissible rotation level below cutoff {cutoff}; "
            f"retry with cutoff >= {suggestion}"
        )
    denom = level * (pops[0] - pops[level])
    mixing = 0.0 if excess == 0.0 else excess / denom
    phi = math.asin(math.sqrt(mixing))
    u = np.eye(cutoff)
    u[0, 0] = u[level, level] = math.cos(phi)
    u[level, 0] = math.sin(phi)
    u[0, level] = -math.sin(phi)
    from .fock import mixture  # loads the oracle on use

    state = mixture(pops, u.T, [freq], cutoff)  # the columns of u, weighted by pops
    return FixedEntropyConstruction(
        state=state,
        level=level,
        mixing=mixing,
        beta=beta,
        nu_thermal=nu_thermal,
    )


def _suggest_cutoff(beta: float, freq: float, excess: float) -> int:
    """Smallest even cutoff admitting a rotation level, from untruncated tails.

    Level n raises the occupation by at most n p0 (1 - q^n), which grows
    with n, so the least admissible level below 100000 is found by bisection.
    """
    if math.isinf(beta):
        return 2 * (int(math.ceil(excess)) + 3)
    q = math.exp(-beta * freq)
    p0 = -math.expm1(-beta * freq)

    def admits(n):
        return n * (p0 - p0 * q**n) >= excess

    levels = range(3, 100000)
    if not admits(levels[-1]):
        raise ValidationError("no admissible rotation level exists")
    return 2 * levels[bisect.bisect_left(levels, True, key=admits)]


@dataclasses.dataclass(frozen=True)
class GapReport:
    """Gaussian-extractable vs. entropy-limited extractable energy."""

    initial_energy: float
    entropy: float
    gaussian_extractable: float
    total_extractable: float
    gap: float
    free_energy_gap: float | None = None


def _min_energy_at_entropy(freqs: np.ndarray, entropy: float) -> float:
    """Least mean energy of any state of given entropy on these modes.

    The minimum over occupation splits is attained by a common-temperature
    thermal product, the one ``_common_temperature`` finds.
    """
    _, occupations = _common_temperature(freqs, entropy)
    return sum(w * n for w, n in zip(freqs, occupations))


def ergotropy_gap(
    state: MomentState,
    entropy: float | None = None,
    t_ref: float | None = None,
) -> GapReport:
    """Compare Gaussian-extractable work with the entropy-limited maximum.

    The Gaussian figure is E minus the spectral floor, the least energy any
    Gaussian operation reaches (minimal_gaussian_energy), and exactly 0 for a
    state the passivity certificate accepts; no extraction runs.  The total
    figure is E - E_min(S): no unitary protocol can push the state
    below the least energy compatible with its entropy, and some sequence of
    (generally non-Gaussian) unitaries approaches it.  With ``entropy=None``
    the entropy of the maximum-entropy state with these moments is used.
    """
    spectrum = require_valid(state)
    energy = mean_energy(state)
    s0 = gaussian_entropy(spectrum) if entropy is None else float(entropy)
    if s0 < 0:
        raise ValidationError("entropy must be nonnegative")
    e_min = _min_energy_at_entropy(state.freqs, s0)
    if e_min > energy + 1e-9 * max(1.0, abs(energy)):
        raise ValidationError(
            f"entropy {s0} is unattainable at energy {energy}: "
            f"the least compatible energy is {e_min}"
        )
    total = float(max(energy - e_min, 0.0))
    if is_gaussian_passive(state).passive:
        gaussian = 0.0
    else:
        gaussian = float(max(energy - minimal_gaussian_energy(spectrum, state.freqs), 0.0))
    free_gap = None
    if t_ref is not None:
        if t_ref <= 0:
            raise ValidationError("reference temperature must be positive")
        ref = thermal_state(state.freqs, t_ref)
        free_state = energy - t_ref * s0
        free_ref = mean_energy(ref) - t_ref * state_entropy(ref)
        free_gap = free_state - free_ref
    return GapReport(
        initial_energy=energy,
        entropy=s0,
        gaussian_extractable=gaussian,
        total_extractable=total,
        # the two figures come from different formulas and can cross by rounding
        gap=max(total - gaussian, 0.0),
        free_energy_gap=free_gap,
    )


@dataclasses.dataclass(frozen=True)
class SwapWitness:
    """A two-level population swap that lowers the energy of a thermal pair.

    Levels are (n_a, n_b) occupations of two equal-frequency modes with
    frequency normalized to 1; energy_drop is the extracted energy per swap.
    """

    x: int
    from_levels: tuple[int, int]
    to_levels: tuple[int, int]
    energy_drop: float


def thermal_swap_witness(temp_a: float, temp_b: float) -> SwapWitness | None:
    """Population inversion hidden in a pair of unequal-temperature modes.

    The product of two thermal states at equal frequency is passive at the
    moment level, yet whenever the temperatures differ the joint level
    (x/2, x/2) is less populated than (0, x+1) on the hotter side for the
    smallest even x exceeding 2*T_min/(T_max - T_min), so swapping those
    populations extracts energy.  Returns None when the temperatures match.
    """
    _require_temperatures((temp_a, temp_b))
    if temp_a == temp_b:
        return None
    t_min, t_max = sorted((temp_a, temp_b))
    threshold = 2.0 * t_min / (t_max - t_min)
    x = 2 * (int(math.floor(threshold / 2.0)) + 1)
    from_levels = (x // 2, x // 2)
    to_levels = (0, x + 1) if temp_b > temp_a else (x + 1, 0)

    def population(levels):
        out = 1.0
        for n, t in zip(levels, (temp_a, temp_b)):
            if t == 0:
                out *= 1.0 if n == 0 else 0.0
            else:
                q = math.exp(-1.0 / t)
                out *= (1.0 - q) * q**n
        return out

    p_from = population(from_levels)
    p_to = population(to_levels)
    drop = p_to - p_from
    if drop <= 0:
        raise ValidationError(
            "internal inconsistency: selected swap does not lower the energy"
        )
    return SwapWitness(
        x=x, from_levels=from_levels, to_levels=to_levels, energy_drop=drop
    )
