r"""Truncated Fock-space oracle for one- and two-mode computations.

Everything here is independent of the moment-level code paths: states are
density matrices on a photon-number cutoff, operations are matrix
exponentials of their quadratic generators, and energies come from number
operators.  Used to cross-check the closed-form moment machinery.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time
import warnings

import numpy as np
import scipy.linalg
from scipy.optimize import minimize

from .core import MomentState
from .exceptions import (
    BudgetWarning,
    TruncationError,
    TruncationWarning,
    ValidationError,
)
from .ops import GaussianOp

TAIL_WARN = 1e-8
TAIL_ERROR = 1e-4
CUTOFF_CAP = 80

_SQRT2 = math.sqrt(2.0)

_log = logging.getLogger("gausswork")


def ladder(dim: int) -> np.ndarray:
    """Annihilation operator on a dim-level truncation: a|n> = sqrt(n)|n-1>."""
    if dim < 2:
        raise ValidationError("cutoff must be at least 2")
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def _check_dim(dim: int) -> None:
    if not 2 <= dim <= CUTOFF_CAP:
        raise ValidationError(f"cutoff {dim} outside supported range [2, {CUTOFF_CAP}]")


def _internal_dim(dim: int) -> int:
    return max(int(math.ceil(1.5 * dim)), dim + 10)


@dataclasses.dataclass(eq=False)
class TruncatedDensityMatrix:
    """A density matrix on (dim)^n_modes levels with per-mode frequencies.

    The state is stored either densely (matrix), as weighted pure components
    (weights w_k and column vectors v_k with rho = sum_k w_k |v_k><v_k|), or
    both.  Components let conjugations and moment evaluations run on stacked
    vectors instead of dense matrices; the dense form is assembled lazily.
    leak records trace lost to cutoff projections.
    """

    dim: int
    freqs: np.ndarray
    matrix: np.ndarray | None = None
    weights: np.ndarray | None = None
    vectors: np.ndarray | None = None
    leak: float = 0.0

    def __post_init__(self):
        freqs = np.atleast_1d(np.asarray(self.freqs, dtype=float))
        if freqs.size not in (1, 2):
            raise ValidationError("oracle states support one or two modes")
        if np.any(freqs <= 0):
            raise ValidationError("mode frequencies must be positive")
        _check_dim(self.dim)
        size = self.dim ** freqs.size
        if self.matrix is None and self.weights is None:
            raise ValidationError("state needs a matrix or pure components")
        if self.matrix is not None:
            matrix = np.asarray(self.matrix, dtype=complex)
            if matrix.shape != (size, size):
                raise ValidationError(
                    f"matrix shape {matrix.shape} does not match cutoff {self.dim}"
                )
            self.matrix = matrix
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
            self.vectors = np.asarray(self.vectors, dtype=complex)
            if self.vectors.shape != (size, self.weights.size):
                raise ValidationError("component vectors must be columns of size^n")
        self.freqs = freqs

    @property
    def n_modes(self) -> int:
        return self.freqs.size

    def dense(self) -> np.ndarray:
        """The density matrix itself, assembled from components if needed."""
        if self.matrix is None:
            self.matrix = (self.vectors * self.weights) @ self.vectors.conj().T
        return self.matrix

    def _component_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights and stacked vectors, decomposing the matrix if needed.

        Every positive eigenvalue is kept, so moments taken from the
        components lose none of the matrix's high levels.
        """
        if self.weights is None:
            eigs, vecs = np.linalg.eigh(self.matrix)
            keep = eigs > 0.0
            self.weights = eigs[keep]
            self.vectors = np.ascontiguousarray(vecs[:, keep], dtype=complex)
        return self.weights, self.vectors


def density_matrix(matrix, freqs, dim: int | None = None) -> TruncatedDensityMatrix:
    """Wrap and validate an explicit density matrix."""
    matrix = np.asarray(matrix, dtype=complex)
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if dim is None:
        dim = round(matrix.shape[0] ** (1.0 / freqs.size))
    herm = float(np.max(np.abs(matrix - matrix.T.conj())))
    if herm > 1e-12:
        raise ValidationError(f"matrix not Hermitian (residual {herm:.3e})")
    tr = float(np.real(np.trace(matrix)))
    if abs(tr - 1.0) > 1e-10:
        raise ValidationError(f"trace {tr} differs from 1")
    return TruncatedDensityMatrix(dim=dim, freqs=freqs, matrix=matrix)


def pure_state(vector, freqs, dim: int | None = None) -> TruncatedDensityMatrix:
    vector = np.asarray(vector, dtype=complex).reshape(-1)
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if dim is None:
        dim = round(vector.size ** (1.0 / freqs.size))
    norm = float(np.linalg.norm(vector))
    if abs(norm - 1.0) > 1e-10:
        raise ValidationError(f"state vector norm {norm} differs from 1")
    return TruncatedDensityMatrix(
        dim=dim,
        freqs=freqs,
        weights=np.array([1.0]),
        vectors=vector.copy().reshape(-1, 1),
    )


def mixture(weights, vectors, freqs, dim: int | None = None) -> TruncatedDensityMatrix:
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if abs(float(weights.sum()) - 1.0) > 1e-10 or np.any(weights < 0):
        raise ValidationError("mixture weights must be nonnegative and sum to 1")
    stacked = np.column_stack(
        [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    )
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if dim is None:
        dim = round(stacked.shape[0] ** (1.0 / freqs.size))
    return TruncatedDensityMatrix(
        dim=dim, freqs=freqs, weights=weights.copy(), vectors=stacked
    )


def fock_state(ns, freqs, dim: int) -> TruncatedDensityMatrix:
    """|n> or |n_a, n_b> as a truncated pure state."""
    ns = tuple(np.atleast_1d(ns).astype(int))
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    size = dim ** freqs.size
    idx = 0
    for n in ns:
        if not 0 <= n < dim:
            raise ValidationError(f"occupation {n} outside cutoff {dim}")
        idx = idx * dim + n
    v = np.zeros(size, dtype=complex)
    v[idx] = 1.0
    return pure_state(v, freqs, dim)


def thermal_fock_state(mean_occupations, freqs, dim: int) -> TruncatedDensityMatrix:
    """Product of truncated thermal modes, renormalized over the cutoff.

    Stored as weighted number-basis components; weights below 1e-16 of the
    total are dropped and booked as leak.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    occs = np.broadcast_to(
        np.asarray(mean_occupations, dtype=float), freqs.shape
    )
    pops = []
    for m in occs:
        if m < 0:
            raise ValidationError("mean occupation must be nonnegative")
        if m == 0:
            p = np.zeros(dim)
            p[0] = 1.0
        else:
            q = m / (m + 1.0)
            p = (1.0 - q) * q ** np.arange(dim)
            p /= p.sum()
        pops.append(p)
    diag = pops[0] if len(pops) == 1 else np.kron(pops[0], pops[1])
    keep = np.flatnonzero(diag > 1e-16)
    dropped = float(diag[diag <= 1e-16].sum())
    vectors = np.zeros((diag.size, keep.size), dtype=complex)
    vectors[keep, np.arange(keep.size)] = 1.0
    return TruncatedDensityMatrix(
        dim=dim,
        freqs=freqs,
        weights=diag[keep].copy(),
        vectors=vectors,
        leak=dropped,
    )


def _occupations(dim: int, n_modes: int) -> list[np.ndarray]:
    """Occupation number of each mode as a flat vector over the kron basis."""
    idx = np.arange(dim**n_modes)
    if n_modes == 1:
        return [idx.astype(float)]
    return [(idx // dim).astype(float), (idx % dim).astype(float)]


def _population_diagonal(rho: TruncatedDensityMatrix) -> np.ndarray:
    if rho.weights is not None:
        return (np.abs(rho.vectors) ** 2) @ rho.weights
    return np.real(np.diag(rho.matrix)).copy()


def _tail_measure(rho: TruncatedDensityMatrix) -> float:
    """Largest per-mode population in the top two cutoff levels, plus leak."""
    diag = _population_diagonal(rho)
    worst = 0.0
    for occ in _occupations(rho.dim, rho.n_modes):
        worst = max(worst, float(diag[occ >= rho.dim - 2].sum()))
    return worst + rho.leak


def _require_tail(rho: TruncatedDensityMatrix, where: str) -> None:
    tail = _tail_measure(rho)
    if tail > TAIL_ERROR:
        raise TruncationError(
            f"{where}: tail population {tail:.3e} exceeds {TAIL_ERROR}"
        )
    if tail > TAIL_WARN:
        warnings.warn(
            f"{where}: tail population {tail:.3e} may bias results",
            TruncationWarning,
            stacklevel=3,
        )


def moments_of(rho: TruncatedDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """First moments and covariance of an oracle state, with tail checks.

    The component vectors v_k form a (dim,)^n x r tensor.  Its ladder images
    a v[n] = sqrt(n+1) v[n+1] and a' v[n] = sqrt(n) v[n-1] are shifted slices
    on each mode axis; one Gram product of the stacked images, weighted by
    w_k and mapped to the quadratures (x_1, p_1, ..., x_N, p_N), gives every
    <q_i> and <q_i q_j>.
    """
    _require_tail(rho, "moments_of")
    weights, vectors = rho._component_parts()
    n, dim = rho.n_modes, rho.dim
    t = vectors.reshape((dim,) * n + (-1,))
    root = np.sqrt(np.arange(1.0, dim))
    images = np.zeros((2 * n + 1,) + t.shape, dtype=complex)
    images[0] = t
    # rows: 1, then x_m = (a_m + a_m')/sqrt2 and p_m = -i (a_m - a_m')/sqrt2
    to_quad = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    to_quad[0, 0] = 1.0
    for m in range(n):
        scale = root.reshape((-1,) + (1,) * (n - m))
        lo = (slice(None),) * m + (slice(None, -1),)
        hi = (slice(None),) * m + (slice(1, None),)
        np.multiply(scale, t[hi], out=images[2 * m + 1][lo])
        np.multiply(scale, t[lo], out=images[2 * m + 2][hi])
        to_quad[2 * m + 1, 2 * m + 1 : 2 * m + 3] = (1.0 / _SQRT2, 1.0 / _SQRT2)
        to_quad[2 * m + 2, 2 * m + 1 : 2 * m + 3] = (-1j / _SQRT2, 1j / _SQRT2)
    weighted = images.conj()
    weighted *= weights
    gram = weighted.reshape(2 * n + 1, -1) @ images.reshape(2 * n + 1, -1).T
    gram = np.real(to_quad.conj() @ gram @ to_quad.T)
    x = gram[0, 1:]
    cov = 2.0 * gram[1:, 1:] - 2.0 * np.outer(x, x)
    return x, cov


def energy_of(rho: TruncatedDensityMatrix) -> float:
    """Mean energy sum_m omega_m <n_m>."""
    _require_tail(rho, "energy_of")
    diag = _population_diagonal(rho)
    total = 0.0
    for w, occ in zip(rho.freqs, _occupations(rho.dim, rho.n_modes)):
        total += w * float(diag @ occ)
    return total


def entropy_of(rho: TruncatedDensityMatrix) -> float:
    """Von Neumann entropy -sum p ln p of the truncated matrix."""
    eigs = np.linalg.eigvalsh(rho.dense())
    eigs = eigs[eigs > 1e-15]
    return float(-np.sum(eigs * np.log(eigs)))


def ergotropy_of(rho: TruncatedDensityMatrix) -> float:
    """Energy above the passive arrangement of the same eigenvalues."""
    _require_tail(rho, "ergotropy_of")
    eigs = np.sort(np.linalg.eigvalsh(rho.dense()))[::-1]
    levels = np.zeros(rho.dim**rho.n_modes)
    for w, occ in zip(rho.freqs, _occupations(rho.dim, rho.n_modes)):
        levels += w * occ
    levels = np.sort(levels)
    passive_energy = float(np.clip(eigs, 0.0, None) @ levels)
    return energy_of(rho) - passive_energy


def _single_mode_unitary(kind: str, params: dict, dim: int) -> np.ndarray:
    """A one-mode unitary on dim levels: phases for a rotation, else a dense block."""
    if kind == "rotation":
        return np.exp(-1j * params["theta"] * np.arange(dim))
    a = ladder(dim)
    ad = a.T
    if kind == "squeeze":
        r = params["r"]
        return scipy.linalg.expm(0.5 * r * (a @ a - ad @ ad))
    if kind == "displacement":
        alpha = params["alpha"]
        return scipy.linalg.expm(alpha * ad - np.conj(alpha) * a)
    raise ValidationError(f"unsupported single-mode kind {kind!r}")


def _tms_sectors(r: float, dim: int) -> list:
    """exp[r (a'b' - ab)] as ((n_a, n_b), block) per photon-number-difference sector."""
    sectors = []
    for d in range(-(dim - 1), dim):
        nb = np.arange(max(0, -d), min(dim, dim - d))
        na = nb + d
        amp = r * np.sqrt((na[:-1] + 1.0) * (nb[:-1] + 1.0))
        sectors.append(((na, nb), scipy.linalg.expm(np.diag(amp, -1) - np.diag(amp, 1))))
    return sectors


def _bs_sectors(theta: float, dim: int) -> list:
    """Mode-b parity times exp[theta (a'b - ab')] as ((n_a, n_b), block) per total-number sector."""
    sectors = []
    for total in range(2 * dim - 1):
        na = np.arange(max(0, total - (dim - 1)), min(total, dim - 1) + 1)
        nb = total - na
        amp = theta * np.sqrt((na[:-1] + 1.0) * nb[:-1])
        u = scipy.linalg.expm(np.diag(amp, -1) - np.diag(amp, 1))
        sectors.append(((na, nb), (1.0 - 2.0 * (nb % 2))[:, None] * u))
    return sectors


def _unitary_factors(op: GaussianOp, dim: int) -> list[tuple]:
    """The op's unitary on dim levels per mode as ``(modes, block)`` factors.

    A one-mode factor holds the phases or the dense dim x dim block for its
    tensor axis; a two-mode factor holds the dense blocks of its conserved
    sectors.  No factor is a dim^n x dim^n matrix.
    """
    if op.n_modes not in (1, 2):
        raise ValidationError("oracle unitaries support one or two modes")
    if op.kind in ("rotation", "squeeze"):
        return [(op.modes, _single_mode_unitary(op.kind, op.params, dim))]
    if op.kind == "displacement":
        return [
            ((m,), _single_mode_unitary("displacement", {"alpha": complex(dx, dp) / _SQRT2}, dim))
            for m, (dx, dp) in enumerate(op.d.reshape(-1, 2))
        ]
    if op.kind == "two_mode_squeeze":
        return [(op.modes, _tms_sectors(op.params["r"], dim))]
    if op.kind == "beam_splitter":
        return [(op.modes, _bs_sectors(op.params["theta"], dim))]
    raise ValidationError(f"operation kind {op.kind!r} has no oracle unitary")


def _matmul(block: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """block @ rows for complex C-contiguous rows, in real arithmetic if the block is real."""
    if np.isrealobj(block):
        return (block @ rows.view(float)).view(complex)
    return block @ rows


def _apply_sectors(t: np.ndarray, sectors: list, modes: tuple[int, ...]) -> np.ndarray:
    """Gather each sector's rows of a (dim, dim, r) tensor, apply its block, scatter.

    Modes (1, 0) transpose the tensor's first two axes, done here by reading
    the sector levels through the transposed grid of flat indices.
    """
    dim = t.shape[0]
    grid = np.arange(dim * dim).reshape(dim, dim)
    if modes == (1, 0):
        grid = grid.T
    flat = t.reshape(dim * dim, -1)
    out = np.empty_like(flat)
    for levels, block in sectors:
        idx = grid[levels]
        out[idx] = _matmul(block, flat[idx])
    return out.reshape(t.shape)


def _apply_factors(factors: list[tuple], vectors: np.ndarray, dim: int, n_modes: int) -> np.ndarray:
    """U v for each column of a dim^n stack, on the internal register, projected back."""
    dim_int = _internal_dim(dim)
    r = vectors.shape[1]
    kept = (slice(dim),) * n_modes
    t = np.zeros((dim_int,) * n_modes + (r,), dtype=complex)
    t[kept] = vectors.reshape((dim,) * n_modes + (r,))
    for modes, block in factors:
        if len(modes) == 2:
            t = _apply_sectors(t, block, modes)
        elif block.ndim == 1:
            t *= block.reshape((-1,) + (1,) * (n_modes - modes[0]))
        elif modes[0] == 0:
            t = _matmul(block, t.reshape(dim_int, -1)).reshape(t.shape)
        else:
            t = _matmul(block, t)  # contracts axis 1 for each level of axis 0
    return np.ascontiguousarray(t[kept].reshape(dim**n_modes, r))


def gaussian_unitary_matrix(op: GaussianOp, dim: int) -> np.ndarray:
    """Truncated unitary at the requested cutoff.

    The cutoff's identity columns go through the same path as
    ``apply_gaussian_unitary``: embedded in an enlarged internal space (1.5x,
    at least +10 levels), transformed there and projected back down, so matrix
    elements within the cutoff are accurate for low-energy states.  Raises
    when the cutoff is too small for the parameter magnitude (measured by mass
    the vacuum image loses to the discarded levels).
    """
    _check_dim(dim)
    factors = _unitary_factors(op, _internal_dim(dim))
    eye = np.eye(dim**op.n_modes, dtype=complex)
    projected = _apply_factors(factors, eye, dim, op.n_modes)
    vacuum_loss = 1.0 - float(np.sum(np.abs(projected[:, 0]) ** 2))
    if vacuum_loss > TAIL_ERROR:
        raise TruncationError(
            f"cutoff {dim} too small for {op.kind} with params {op.params} "
            f"(vacuum image loses {vacuum_loss:.3e} of its mass)"
        )
    return projected


def apply_gaussian_unitary(
    op: GaussianOp, rho: TruncatedDensityMatrix
) -> TruncatedDensityMatrix:
    """Conjugate an oracle state by the op's unitary in the enlarged space.

    Logs one debug record on the ``gausswork`` logger with the op ``kind``,
    the number of component ``columns``, the seconds spent building the
    unitary's blocks (``build_s``) and applying them (``apply_s``), and the
    cumulative ``leak``; the fields are also attributes of the record.
    """
    if op.n_modes != rho.n_modes:
        raise ValidationError("operation and state mode counts differ")
    weights, vectors = rho._component_parts()
    start = time.perf_counter()
    factors = _unitary_factors(op, _internal_dim(rho.dim))
    built = time.perf_counter()
    small = _apply_factors(factors, vectors, rho.dim, rho.n_modes)
    kept_mass = float(np.sum(weights * np.sum(np.abs(small) ** 2, axis=0)))
    leak = rho.leak + max(0.0, 1.0 - rho.leak - kept_mass)
    stats = {
        "kind": op.kind,
        "columns": small.shape[1],
        "build_s": built - start,
        "apply_s": time.perf_counter() - built,
        "leak": leak,
    }
    _log.debug(
        "fock.apply.%(kind)s columns=%(columns)d build_s=%(build_s).3g "
        "apply_s=%(apply_s).3g leak=%(leak).3g",
        stats,
        extra=stats,
    )
    return TruncatedDensityMatrix(
        dim=rho.dim,
        freqs=rho.freqs,
        weights=weights.copy(),
        vectors=small,
        leak=leak,
    )


class _BudgetExhausted(Exception):
    pass


def _local_rows(theta: float, r: float, phi: float) -> tuple[float, ...]:
    """Row-major entries of rotation(theta) @ diag(e^-r, e^r) @ rotation(phi)."""
    ct, st = math.cos(theta), math.sin(theta)
    cf, sf = math.cos(phi), math.sin(phi)
    em, ep = math.exp(-r), math.exp(r)
    return (
        ct * cf * em - st * sf * ep,
        ct * sf * em + st * cf * ep,
        -st * cf * em - ct * sf * ep,
        ct * cf * ep - st * sf * em,
    )


def _family_energy(cov: np.ndarray, freqs: np.ndarray):
    """Energy above vacuum of ``cov`` after the ten-parameter search family.

    The family is local, local, squeeze, realign, split: ``S = B(tb) @
    diag(R(u1), R(u2)) @ T(rt) @ diag(L(t1, r1, f1), L(t2, r2, f2))`` with
    parameters ``(t1, r1, f1, t2, r2, f2, rt, u1, u2, tb)``, where ``R`` is a
    rotation, ``L(t, r, f) = R(t) @ diag(e^-r, e^r) @ R(f)``, ``T`` the
    two-mode squeeze and ``B`` the beam splitter.  Returns a function of that
    parameter vector that builds the four rows of ``S`` in closed form and
    takes their quadratic forms against ``cov`` directly, since the energy
    needs only the diagonal of ``S @ cov @ S.T``.
    """
    (g00, g01, g02, g03), (_, g11, g12, g13), (_, _, g22, g23), (_, _, _, g33) = (
        np.asarray(cov, dtype=float).tolist()
    )
    w0, w1 = (float(w) for w in freqs)

    def quad(v0, v1, v2, v3):
        return (
            g00 * v0 * v0
            + g11 * v1 * v1
            + g22 * v2 * v2
            + g33 * v3 * v3
            + 2.0 * (v0 * (g01 * v1 + g02 * v2 + g03 * v3) + v1 * (g12 * v2 + g13 * v3))
            + 2.0 * g23 * v2 * v3
        )

    def energy(p) -> float:
        t1, r1, f1, t2, r2, f2, rt, u1, u2, tb = np.asarray(p, dtype=float).tolist()
        a0, a1, b0, b1 = _local_rows(t1, r1, f1)
        c0, c1, d0, d1 = _local_rows(t2, r2, f2)
        # Two-mode squeeze gives rows (ch a, sh c), (ch b, -sh d), (sh a, ch c),
        # (-sh b, ch d); realign rotates rows 0,1 by u1 and rows 2,3 by u2.
        ch, sh = math.cosh(rt), math.sinh(rt)
        k, s = math.cos(u1), math.sin(u1)
        x00, x01 = ch * (k * a0 + s * b0), ch * (k * a1 + s * b1)
        y00, y01 = sh * (k * c0 - s * d0), sh * (k * c1 - s * d1)
        x10, x11 = ch * (k * b0 - s * a0), ch * (k * b1 - s * a1)
        y10, y11 = -sh * (k * d0 + s * c0), -sh * (k * d1 + s * c1)
        k, s = math.cos(u2), math.sin(u2)
        x20, x21 = sh * (k * a0 - s * b0), sh * (k * a1 - s * b1)
        y20, y21 = ch * (k * c0 + s * d0), ch * (k * c1 + s * d1)
        x30, x31 = -sh * (k * b0 + s * a0), -sh * (k * b1 + s * a1)
        y30, y31 = ch * (k * d0 - s * c0), ch * (k * d1 - s * c1)
        # The beam splitter maps rows (0, 2) to (k r0 + s r2, s r0 - k r2), likewise (1, 3).
        k, s = math.cos(tb), math.sin(tb)
        q0 = quad(k * x00 + s * x20, k * x01 + s * x21, k * y00 + s * y20, k * y01 + s * y21)
        q1 = quad(k * x10 + s * x30, k * x11 + s * x31, k * y10 + s * y30, k * y11 + s * y31)
        q2 = quad(s * x00 - k * x20, s * x01 - k * x21, s * y00 - k * y20, s * y01 - k * y21)
        q3 = quad(s * x10 - k * x30, s * x11 - k * x31, s * y10 - k * y30, s * y11 - k * y31)
        return (w0 * (q0 + q1 - 2.0) + w1 * (q2 + q3 - 2.0)) / 4.0

    return energy


def brute_force_min_energy(
    state: MomentState,
    seed: int = 1234,
    starts: int = 16,
    maxfev: int = 1500,
    budget: int | None = None,
) -> float:
    """Direct-search floor for the Gaussian-reachable energy of a two-mode state.

    Runs seeded multi-start Nelder-Mead over a ten-parameter family of
    symplectics (two general local operations, a two-mode squeeze, two
    realigning rotations, a beam splitter) after zeroing the first moments.
    Exceeding the evaluation budget returns best-so-far with a warning.
    """
    if state.n_modes != 2:
        raise ValidationError("brute_force_min_energy expects a two-mode state")
    if starts < 1:
        raise ValidationError("need at least one start")
    energy = _family_energy(state.cov, state.freqs)
    evals = 0

    def objective(p):
        nonlocal evals
        if budget is not None and evals >= budget:
            raise _BudgetExhausted
        evals += 1
        return energy(p)

    rng = np.random.default_rng(seed)
    points = [np.zeros(10)]
    for _ in range(starts - 1):
        p0 = rng.uniform(-1.0, 1.0, 10)
        p0[[0, 2, 3, 5, 7, 8, 9]] *= math.pi
        points.append(p0)

    best = math.inf
    best_x = points[0]
    exhausted = False
    for p0 in points:
        try:
            res = minimize(
                objective,
                p0,
                method="Nelder-Mead",
                options={"maxfev": maxfev, "fatol": 1e-12, "xatol": 1e-10},
            )
        except _BudgetExhausted:
            exhausted = True
            break
        if res.fun < best:
            best, best_x = float(res.fun), res.x
    if not exhausted:
        try:
            res = minimize(
                objective,
                best_x,
                method="Nelder-Mead",
                options={"maxfev": maxfev, "fatol": 1e-14, "xatol": 1e-12},
            )
            if res.fun < best:
                best = float(res.fun)
        except _BudgetExhausted:
            exhausted = True
    if exhausted:
        warnings.warn(
            f"evaluation budget {budget} exhausted; returning best-so-far",
            BudgetWarning,
            stacklevel=2,
        )
    return best
