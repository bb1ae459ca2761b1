r"""Truncated Fock-space oracle for one- and two-mode computations.

The oracle is independent of the moment-level code paths: states are
density matrices on a photon-number cutoff, held as weighted pure components,
operations are exponentials of their quadratic generators truncated on an
enlarged register, and energies come from number operators.  Each
non-diagonal generator splits into real antisymmetric tridiagonal chains
(parity ladders, conserved sectors), whose exponentials come in closed form
from eigenbases cached per cutoff and are only ever formed on the cutoff's
own levels.  ``verify`` cross-checks the closed-form moment machinery with it.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
import time
import warnings

import numpy as np

# brute_force_min_energy looks minimize up here on each local solve, so a
# wrapper put in its place (a tracer counting each result's nfev) sees every solve.
from .bfgs import minimize
from .core import MomentState, _truncated_populations, mean_energy, require_valid
from .exceptions import (
    BudgetWarning,
    TruncationError,
    TruncationWarning,
    ValidationError,
)
from .extraction import _decoupled_pair, minimal_gaussian_energy
from .ops import (
    GaussianOp, ProtocolStep, apply, compose, inverse, rotation, squeeze, two_mode_squeeze,
)

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


def _check_modes(n_modes: int) -> None:
    if n_modes not in (1, 2):
        raise ValidationError("oracle states support one or two modes")


def _internal_dim(dim: int) -> int:
    return max(int(math.ceil(1.5 * dim)), dim + 10)


@dataclasses.dataclass(eq=False)
class TruncatedDensityMatrix:
    """A density matrix rho = sum_k w_k |v_k><v_k| on (dim)^n_modes levels.

    The state is held as its weighted pure components: the weights w_k and
    the column vectors v_k, stacked dim^n x r.  Conjugations, moments and
    spectra run on the stacked vectors; ``dense`` assembles the matrix on
    each call.  leak records trace lost to cutoff projections.
    """

    dim: int
    freqs: np.ndarray
    weights: np.ndarray
    vectors: np.ndarray
    leak: float = 0.0

    def __post_init__(self):
        freqs = np.atleast_1d(np.asarray(self.freqs, dtype=float))
        _check_modes(freqs.size)
        if np.any(freqs <= 0):
            raise ValidationError("mode frequencies must be positive")
        _check_dim(self.dim)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        self.vectors = np.asarray(self.vectors, dtype=complex)
        if self.vectors.shape != (self.dim**freqs.size, self.weights.size):
            raise ValidationError("component vectors must be columns of size^n")
        self.freqs = freqs

    @property
    def n_modes(self) -> int:
        return self.freqs.size

    def dense(self) -> np.ndarray:
        """The density matrix (V w) V^H, assembled on each call."""
        return (self.vectors * self.weights) @ self.vectors.conj().T


def density_matrix(matrix, freqs, dim: int | None = None) -> TruncatedDensityMatrix:
    """Validate an explicit density matrix and keep it as its eigencomponents.

    Every positive eigenvalue is kept, so moments taken from the components
    lose none of the matrix's high levels.
    """
    matrix = np.asarray(matrix, dtype=complex)
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if dim is None:
        dim = round(matrix.shape[0] ** (1.0 / freqs.size))
    size = dim**freqs.size
    if matrix.shape != (size, size):
        raise ValidationError(f"matrix shape {matrix.shape} does not match cutoff {dim}")
    herm = float(np.max(np.abs(matrix - matrix.T.conj())))
    if herm > 1e-12:
        raise ValidationError(f"matrix not Hermitian (residual {herm:.3e})")
    tr = float(np.real(np.trace(matrix)))
    if abs(tr - 1.0) > 1e-10:
        raise ValidationError(f"trace {tr} differs from 1")
    eigs, vecs = np.linalg.eigh(matrix)
    keep = eigs > 0.0
    return TruncatedDensityMatrix(
        dim=dim, freqs=freqs, weights=eigs[keep], vectors=np.ascontiguousarray(vecs[:, keep])
    )


def pure_state(vector, freqs, dim: int | None = None) -> TruncatedDensityMatrix:
    """|v><v| as a one-component ``mixture``; v must have norm 1 within 1e-10."""
    vector = np.asarray(vector, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(vector))
    if abs(norm - 1.0) > 1e-10:
        raise ValidationError(f"state vector norm {norm} differs from 1")
    return mixture([1.0], [vector], freqs, dim)


def mixture(weights, vectors, freqs, dim: int | None = None) -> TruncatedDensityMatrix:
    """sum_k w_k |v_k><v_k| for weights summing to 1 and components of norm at most 1.

    Both hold within 1e-10.  A component below norm 1, as a conjugation
    leaves one where the cutoff dropped amplitude, keeps its norm, and the
    trace the components lack is booked as leak.
    """
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if abs(float(weights.sum()) - 1.0) > 1e-10 or np.any(weights < 0):
        raise ValidationError("mixture weights must be nonnegative and sum to 1")
    columns = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    norms = np.array([np.linalg.norm(v) for v in columns])
    if np.any(norms > 1.0 + 1e-10):
        k = int(np.argmax(norms))
        raise ValidationError(f"component {k} has norm {norms[k]}, above 1")
    stacked = np.column_stack(columns)
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if dim is None:
        dim = round(stacked.shape[0] ** (1.0 / freqs.size))
    return TruncatedDensityMatrix(
        dim=dim, freqs=freqs, weights=weights.copy(), vectors=stacked,
        leak=max(1.0 - float(weights @ norms**2), 0.0),
    )


def fock_state(ns, freqs, dim: int) -> TruncatedDensityMatrix:
    """|n> or |n_a, n_b> as a truncated pure state."""
    ns = tuple(np.atleast_1d(ns).astype(int))
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if len(ns) != freqs.size:
        raise ValidationError(f"expected one occupation per mode ({freqs.size}), got {len(ns)}")
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

    An occupation m, finite and nonnegative, gives the populations
    q^n / sum_{k<dim} q^k with q = m/(m + 1).  Stored as weighted
    number-basis components; weights below 1e-16 of the total are dropped
    and booked as leak.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    _check_modes(freqs.size)
    _check_dim(dim)
    occs = np.broadcast_to(
        np.asarray(mean_occupations, dtype=float), freqs.shape
    )
    if not np.all((occs >= 0) & np.isfinite(occs)):
        raise ValidationError("mean occupations must be finite and nonnegative")
    pops = [_truncated_populations(m / (m + 1.0), dim) for m in occs.tolist()]
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
    return (np.abs(rho.vectors) ** 2) @ rho.weights


def _require_tail(rho: TruncatedDensityMatrix, where: str) -> np.ndarray:
    """The population diagonal, once its tail is checked.

    The tail is the largest per-mode population in the top two cutoff
    levels, plus leak.
    """
    diag = _population_diagonal(rho)
    worst = 0.0
    for occ in _occupations(rho.dim, rho.n_modes):
        worst = max(worst, float(diag[occ >= rho.dim - 2].sum()))
    tail = worst + rho.leak
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
    return diag


def _ladder_shifts(dim: int) -> dict[int, tuple[slice, slice, np.ndarray]]:
    """Levels kept, their image levels and factors c for each ladder power on a dim-level axis.

    (A u)[n] = c[n] u[n + s] on the kept levels n: shift s = 1 is a, with
    c = sqrt(n + 1), s = 2 is a^2, and s = -1 is a', which drops the top level.
    """
    root = np.sqrt(np.arange(1.0, dim))
    return {
        1: (slice(None, -1), slice(1, None), root),
        2: (slice(None, -2), slice(2, None), root[:-1] * root[1:]),
        -1: (slice(1, None), slice(None, -1), root),
    }


def _slab_overlap(left: np.ndarray, right: np.ndarray, shifts: tuple[int, ...], ladders: dict) -> complex:
    """sum conj(left) (A right), A the ladder powers of ``shifts`` on the slab's mode axes."""
    kept, image = [slice(None)] * left.ndim, [slice(None)] * left.ndim
    scale = None
    for axis, s in enumerate(shifts):
        if s:
            kept[axis], image[axis], c = ladders[s]
            c = c.reshape((-1,) + (1,) * (left.ndim - 1 - axis))
            scale = c if scale is None else scale * c
    left = left[tuple(kept)]
    return np.vdot(left if scale is None else left * scale, right[tuple(image)])


def moments_of(rho: TruncatedDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """First moments and covariance of an oracle state, with tail checks.

    With u_k = sqrt(w_k) v_k and <A> = sum_k <u_k|A u_k>, x_i = Re <R_i> and
    Γ_ij = 2 Re <R_i R_j> - 2 x_i x_j for R = (x_1, p_1, ..., x_N, p_N),
    x_m = (a_m + a_m')/sqrt2 and p_m = -i (a_m - a_m')/sqrt2, where a_m is
    ``ladder(dim)`` on mode axis m and its transpose a_m' drops the top
    level.  Expanded in ladders, every moment comes from a few overlaps: per
    mode <a_m>, <a_m^2>, and <a_m' a_m> + <a_m a_m'> from the population
    diagonal, and per pair m < l <a_m a_l> and <a_l' a_m>.  Each overlap is a
    weighted sum of products of shifted slices of the (dim,)^n x r component
    tensor, taken slab by slab along the first mode axis, so the overlaps
    hold at most one dim^(n-1) x r slab at a time.
    """
    diag = _require_tail(rho, "moments_of")
    n, dim = rho.n_modes, rho.dim
    t = rho.vectors.reshape((dim,) * n + (rho.weights.size,))
    ladders = _ladder_shifts(dim)

    def shifts(*moves):
        """Per-mode shifts of an overlap, from (mode, shift) pairs."""
        return tuple(dict(moves).get(i, 0) for i in range(n))

    wanted = [shifts((m, s)) for m in range(n) for s in (1, 2)]
    wanted += [shifts((m, 1), (l, s)) for m in range(n) for l in range(m + 1, n) for s in (1, -1)]
    sums = dict.fromkeys(wanted, 0j)
    for k in range(dim):
        left = t[k] * rho.weights
        for key in wanted:
            first = key[0]  # the first mode is only ever lowered, from level k + first to k
            if k + first < dim:
                factor = ladders[first][2][k] if first else 1.0
                sums[key] += factor * _slab_overlap(left, t[k + first], key[1:], ladders)
    lowered = [sums[shifts((m, 1))] for m in range(n)]
    x = _SQRT2 * np.array([(f.real, f.imag) for f in lowered]).reshape(-1)
    second = np.empty((2 * n, 2 * n))  # Re <R_i R_j>
    for m, occ in enumerate(_occupations(dim, n)):
        # <a'a> + <a a'> = sum (2n + 1) p_n, less the top level's dropped n + 1
        half = float(diag @ (2.0 * occ + 1.0 - dim * (occ == dim - 1))) / 2.0
        q = sums[shifts((m, 2))]
        second[2 * m:2 * m + 2, 2 * m:2 * m + 2] = [[half + q.real, q.imag], [q.imag, half - q.real]]
        for l in range(m + 1, n):
            g, h = sums[shifts((m, 1), (l, 1))], sums[shifts((m, 1), (l, -1))]
            block = np.array([[g.real + h.real, g.imag - h.imag], [g.imag + h.imag, h.real - g.real]])
            second[2 * m:2 * m + 2, 2 * l:2 * l + 2] = block
            second[2 * l:2 * l + 2, 2 * m:2 * m + 2] = block.T
    return x, 2.0 * second - 2.0 * np.outer(x, x)


def energy_of(rho: TruncatedDensityMatrix) -> float:
    """Mean energy sum_m omega_m <n_m>."""
    diag = _require_tail(rho, "energy_of")
    total = 0.0
    for w, occ in zip(rho.freqs, _occupations(rho.dim, rho.n_modes)):
        total += w * float(diag @ occ)
    return total


def _spectrum(rho: TruncatedDensityMatrix) -> np.ndarray:
    """Eigenvalues of rho, ascending, from its r x r components' Gram matrix.

    rho = A A^H for A = V sqrt(w), and A^H A = sqrt(w) V^H V sqrt(w) has the
    same nonzero eigenvalues; those of rho it lacks are zero.
    """
    scaled = rho.vectors * np.sqrt(rho.weights)
    return np.linalg.eigvalsh(scaled.conj().T @ scaled)


def entropy_of(rho: TruncatedDensityMatrix) -> float:
    """Von Neumann entropy -sum p ln p of the truncated matrix."""
    eigs = _spectrum(rho)
    eigs = eigs[eigs > 0.0]
    return float(-np.sum(eigs * np.log(eigs)))


def ergotropy_of(rho: TruncatedDensityMatrix) -> float:
    """Energy above the passive arrangement of the same eigenvalues.

    The zero eigenvalues that the component spectrum leaves out pair with
    the highest levels and add nothing to the passive energy.
    """
    diag = _require_tail(rho, "ergotropy_of")
    eigs = _spectrum(rho)[::-1]
    levels = np.zeros(rho.dim**rho.n_modes)
    for w, occ in zip(rho.freqs, _occupations(rho.dim, rho.n_modes)):
        levels += w * occ
    k = min(eigs.size, levels.size)
    passive_energy = float(np.clip(eigs[:k], 0.0, None) @ np.sort(levels)[:k])
    return float(diag @ levels) - passive_energy


_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _chain(amps: np.ndarray, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kept rows of D V and the eigenvalues Λ for a chain with off-diagonal amps.

    T (amps above the diagonal, -amps below) is D (i H) D* for the symmetric
    H = V Λ V^T with the same off-diagonal and D = diag(i^k), so
    exp(t T) = (D V) e^{i t Λ} (D V)^H; ``_chain_block`` evaluates it.
    """
    h = np.diag(amps, 1) + np.diag(amps, -1)
    eigs, vecs = np.linalg.eigh(h)
    rows = _I_POWERS[kept % 4, None] * vecs[kept]
    rows.setflags(write=False)
    eigs.setflags(write=False)
    return rows, eigs


def _chain_block(chain: tuple[np.ndarray, np.ndarray], t: float) -> np.ndarray:
    """exp(t T) on a chain's kept levels; real, since T is."""
    rows, eigs = chain
    return ((rows * np.exp(1j * t * eigs)) @ rows.conj().T).real


@functools.lru_cache(maxsize=CUTOFF_CAP)
def _bases(kind: str, dim: int) -> list[tuple]:
    """``(levels, chain)`` per tridiagonal chain of a kind's generator at a cutoff.

    Each generator is built on the internal register of ``_internal_dim(dim)``
    levels per mode, and each chain keeps only its rows below the cutoff:
    the squeeze's even and odd ladders, the displacement's one ladder, a
    two-mode squeeze's photon-number-difference sectors and a beam
    splitter's total-number sectors.  ``levels`` are the kept levels, as an
    array for one mode and an ``(n_a, n_b)`` pair for two.  Raising along a
    chain moves below its diagonal, so a generator ``t (R - R^T)`` with
    ``R`` raising is the chain's ``T`` at ``-t``.  Logs one ``fock.bases``
    debug record when a basis is built.
    """
    start = time.perf_counter()
    size = _internal_dim(dim)
    sectors = []
    if kind == "squeeze":
        for parity in (0, 1):
            n = np.arange(parity, size, 2)
            kept = np.flatnonzero(n < dim)
            sectors.append((n[kept], _chain(0.5 * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0)), kept)))
    elif kind == "displacement":
        sectors.append((np.arange(dim), _chain(np.sqrt(np.arange(1.0, size)), np.arange(dim))))
    elif kind == "two_mode_squeeze":
        for d in range(-(dim - 1), dim):
            nb = np.arange(max(0, -d), size - max(0, d))
            na = nb + d
            kept = np.flatnonzero((na < dim) & (nb < dim))
            sectors.append(((na[kept], nb[kept]), _chain(np.sqrt((na[:-1] + 1.0) * (nb[:-1] + 1.0)), kept)))
    else:  # beam_splitter
        for total in range(2 * dim - 1):
            na = np.arange(max(0, total - (size - 1)), min(total, size - 1) + 1)
            nb = total - na
            kept = np.flatnonzero((na < dim) & (nb < dim))
            sectors.append(((na[kept], nb[kept]), _chain(np.sqrt((na[:-1] + 1.0) * nb[:-1]), kept)))
    if _log.isEnabledFor(logging.DEBUG):
        stats = {"kind": kind, "cutoff": dim, "sectors": len(sectors), "seconds": time.perf_counter() - start}
        _log.debug(
            "fock.bases kind=%(kind)s cutoff=%(cutoff)d sectors=%(sectors)d seconds=%(seconds).3g",
            stats,
            extra=stats,
        )
    return sectors


def _single_mode_unitary(kind: str, params: dict, dim: int) -> np.ndarray:
    """A one-mode unitary on the cutoff's levels: phases for a rotation, else a dense block."""
    if kind == "rotation":
        return np.exp(-1j * params["theta"] * np.arange(dim))
    if kind == "squeeze":
        block = np.zeros((dim, dim))
        for levels, chain in _bases("squeeze", dim):
            block[np.ix_(levels, levels)] = _chain_block(chain, params["r"])
        return block
    if kind == "displacement":
        # exp(alpha a' - alpha* a) = e^{i phi n} exp(|alpha| (a' - a)) e^{-i phi n}
        alpha = params["alpha"]
        [(levels, chain)] = _bases("displacement", dim)
        phases = np.exp(1j * np.angle(alpha) * levels)
        return phases[:, None] * _chain_block(chain, -abs(alpha)) * phases.conj()
    raise ValidationError(f"unsupported single-mode kind {kind!r}")


def _tms_sectors(r: float, dim: int) -> list:
    """exp[r (a'b' - ab)] as ((n_a, n_b), block) per photon-number-difference sector."""
    return [(levels, _chain_block(chain, -r)) for levels, chain in _bases("two_mode_squeeze", dim)]


def _bs_sectors(theta: float, dim: int) -> list:
    """Mode-b parity times exp[theta (a'b - ab')] as ((n_a, n_b), block) per total-number sector."""
    return [
        ((na, nb), (1.0 - 2.0 * (nb % 2))[:, None] * _chain_block(chain, -theta))
        for (na, nb), chain in _bases("beam_splitter", dim)
    ]


def _unitary_factors(op: GaussianOp, dim: int) -> list[tuple]:
    """The op's unitary on the cutoff's dim levels per mode as ``(modes, block)`` factors.

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
    """U v for each column of a dim^n stack, with U given by its factors on the kept levels."""
    r = vectors.shape[1]
    t = np.ascontiguousarray(vectors).reshape((dim,) * n_modes + (r,))
    for modes, block in factors:
        if len(modes) == 2:
            t = _apply_sectors(t, block, modes)
        elif block.ndim == 1:
            t = t * block.reshape((-1,) + (1,) * (n_modes - modes[0]))
        elif modes[0] == 0:
            t = _matmul(block, t.reshape(dim, -1)).reshape(t.shape)
        else:
            t = _matmul(block, t)  # contracts axis 1 for each level of axis 0
    return t.reshape(dim**n_modes, r)


def gaussian_unitary_matrix(op: GaussianOp, dim: int) -> np.ndarray:
    """Truncated unitary at the requested cutoff.

    Each generator is truncated on an enlarged internal register (1.5x, at
    least +10 levels), so matrix elements within the cutoff are accurate for
    low-energy states; only the elements between kept levels are computed,
    by the same factors as ``apply_gaussian_unitary`` applied to the
    cutoff's identity columns.  Raises when the cutoff is too small for the
    parameter magnitude (measured by mass the vacuum image loses to the
    discarded levels).
    """
    _check_dim(dim)
    factors = _unitary_factors(op, dim)
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
    """Conjugate an oracle state by the op's unitary, projected onto the cutoff.

    The unitary is that of ``gaussian_unitary_matrix``: the exponential of
    the generator truncated on the enlarged internal register, restricted to
    the kept levels.  The input has no weight above the cutoff and the output
    is projected back onto it, and every factor acts on one mode axis or
    within one conserved sector, so the restricted factors compose to the
    restricted product.  Rows at or above the cutoff are never formed; mass
    the exact image would put there is booked as ``leak``.

    Logs one debug record on the ``gausswork`` logger with the op ``kind``,
    the number of component ``columns``, the seconds spent building the
    unitary's blocks (``build_s``) and applying them (``apply_s``), and the
    cumulative ``leak``; the fields are also attributes of the record.
    """
    if op.n_modes != rho.n_modes:
        raise ValidationError("operation and state mode counts differ")
    start = time.perf_counter()
    factors = _unitary_factors(op, rho.dim)
    built = time.perf_counter()
    small = _apply_factors(factors, rho.vectors, rho.dim, rho.n_modes)
    kept_mass = float(np.sum(rho.weights * np.sum(np.abs(small) ** 2, axis=0)))
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
        weights=rho.weights.copy(),
        vectors=small,
        leak=leak,
    )


class _SolveStopped(Exception):
    """The evaluation count reached the cap of the running local solve."""


def _turn(u: float, v: float, c: float, s: float) -> tuple[float, float]:
    """(u, v) turned by the angle whose cosine is c and sine is s."""
    return c * u + s * v, c * v - s * u


def _boost(u: float, v: float, ch: float, sh: float) -> tuple[float, float]:
    """(u, v) boosted by the rapidity whose cosh is ch and sinh is sh."""
    return ch * u - sh * v, ch * v - sh * u


def _family_energy(cov: np.ndarray, freqs: np.ndarray):
    r"""Least energy above vacuum of ``cov`` over the search family, and its gradient.

    The family is local, local, squeeze, realign, split: ``S = B(tb) @
    diag(R(u1), R(u2)) @ T(rt) @ diag(L(t1, r1, f1), L(t2, r2, f2))``, where
    ``R`` is a rotation, ``L(t, r, f) = R(t) @ diag(e^-r, e^r) @ R(f)``, ``T``
    the two-mode squeeze and ``B`` the beam splitter.  Four of its ten
    parameters have closed forms.  Write ``M = A cov A^T`` for ``A = T(rt) @
    diag(L1, L2)``, ``T0`` and ``T1`` for the traces of its mode blocks and
    ``C`` for its cross block:

    - ``t2`` is a gauge: ``T`` commutes with ``diag(R(phi), R(-phi))``, so
      ``t2`` moves into ``t1`` and the realign angles;
    - in ``tb`` the energy is ``e0 + e1 cos 2tb + e2 sin 2tb``, least at
      ``e0 - sqrt(e1^2 + e2^2)``;
    - the realign angles act through ``tr(R(u1 - u2) C)``, whose largest
      magnitude is ``sqrt((C00 + C11)^2 + (C10 - C01)^2)``.

    So over ``(t2, u1, u2, tb)`` the least energy is ``(w0 + w1)(T0 + T1 -
    4)/8 - |w0 - w1|/4 sqrt(((T0 - T1)/2)^2 + (C00 + C11)^2 + (C10 -
    C01)^2)``, attained at concrete angles.  Returns a function of ``p = (t1,
    r1, f1, r2, f2, rt)`` giving that energy and its gradient.

    In closed form: write a mode block as ``k0 1 + k1 Z + k2 X`` and the cross
    block as ``c0 1 + c1 Z + c2 X + c3 J`` (``Z = diag(1, -1)``, ``X`` the
    swap, ``J = [[0, 1], [-1, 0]]``).  Rotating a mode by ``theta`` turns its
    ``(k1, k2)`` by ``2 theta``, and its squeeze boosts ``(k0, k1)`` by
    ``2r``; ``R(a) C R(b)^T`` turns the cross ``(c3, c0)`` by ``a - b`` and
    ``(c1, c2)`` by ``a + b``, and the squeezes boost ``(c0, c1)`` by ``r1 +
    r2`` and ``(c2, c3)`` by ``r1 - r2``.  With ``p``, ``q`` the final mode
    blocks and ``ch, sh = cosh 2rt, sinh 2rt``: ``T0 + T1 = 2 ch (p0 + q0) + 4
    sh c1``, ``T0 - T1 = 2 (p0 - q0)``, ``C00 + C11 = 2 ch c0 + sh (p1 + q1)``
    and ``C10 - C01 = -2 ch c3 + sh (p2 - q2)``.  The gradient runs the same
    turns and boosts backwards.  A point whose energy overflows gets ``inf``.
    """
    (g00, g01, g02, g03), (_, g11, g12, g13), (_, _, g22, g23), (_, _, _, g33) = (
        np.asarray(cov, dtype=float).tolist()
    )
    w0, w1 = (float(w) for w in freqs)
    a, b, shift = (w0 + w1) / 8.0, abs(w0 - w1) / 4.0, (w0 + w1) / 2.0
    mode0 = ((g00 + g11) / 2.0, (g00 - g11) / 2.0, g01)
    mode1 = ((g22 + g33) / 2.0, (g22 - g33) / 2.0, g23)
    cross = ((g02 + g13) / 2.0, (g02 - g13) / 2.0, (g03 + g12) / 2.0, (g03 - g12) / 2.0)

    def energy(p) -> tuple[float, list[float]]:
        t1, r1, f1, r2, f2, rt = np.asarray(p, dtype=float).tolist()
        try:
            cf1, sf1 = math.cos(2.0 * f1), math.sin(2.0 * f1)
            ch1, sh1 = math.cosh(2.0 * r1), math.sinh(2.0 * r1)
            ct1, st1 = math.cos(2.0 * t1), math.sin(2.0 * t1)
            cf2, sf2 = math.cos(2.0 * f2), math.sin(2.0 * f2)
            ch2, sh2 = math.cosh(2.0 * r2), math.sinh(2.0 * r2)
            cm, sm = math.cos(f1 - f2), math.sin(f1 - f2)
            cp, sp = math.cos(f1 + f2), math.sin(f1 + f2)
            chs, shs = math.cosh(r1 + r2), math.sinh(r1 + r2)
            chd, shd = math.cosh(r1 - r2), math.sinh(r1 - r2)
            ct, st = math.cos(t1), math.sin(t1)
            ch, sh = math.cosh(2.0 * rt), math.sinh(2.0 * rt)
        except OverflowError:
            return math.inf, [0.0] * 6
        # forward: mode 0, mode 1, then the cross block, stage by stage
        a1, a2 = _turn(mode0[1], mode0[2], cf1, sf1)
        p0, b1 = _boost(mode0[0], a1, ch1, sh1)
        p1, p2 = _turn(b1, a2, ct1, st1)
        e1, q2 = _turn(mode1[1], mode1[2], cf2, sf2)
        q0, q1 = _boost(mode1[0], e1, ch2, sh2)
        x3, x0 = _turn(cross[3], cross[0], cm, sm)
        x1, x2 = _turn(cross[1], cross[2], cp, sp)
        y0, y1 = _boost(x0, x1, chs, shs)
        y2, y3 = _boost(x2, x3, chd, shd)
        c3, c0 = _turn(y3, y0, ct, st)
        c1, c2 = _turn(y1, y2, ct, st)
        d = p0 - q0
        x = 2.0 * ch * c0 + sh * (p1 + q1)
        y = -2.0 * ch * c3 + sh * (p2 - q2)
        root = math.hypot(d, x, y)
        value = a * (2.0 * ch * (p0 + q0) + 4.0 * sh * c1) - b * root - shift
        # backward: kd, kx, ky are the root's weights; 0 where it has no gradient
        kd = kx = ky = 0.0
        if root > 0.0:
            kd, kx, ky = b * d / root, b * x / root, b * y / root
        g_rt = 2.0 * (
            a * (2.0 * sh * (p0 + q0) + 4.0 * ch * c1)
            - kx * (2.0 * sh * c0 + ch * (p1 + q1))
            - ky * (ch * (p2 - q2) - 2.0 * sh * c3)
        )
        bp0, bp1, bp2 = 2.0 * a * ch - kd, -sh * kx, -sh * ky
        bq0, bq1, bq2 = 2.0 * a * ch + kd, -sh * kx, sh * ky
        bc0, bc1, bc3 = -2.0 * ch * kx, 4.0 * a * sh, 2.0 * ch * ky
        g_t1 = 2.0 * (bp1 * p2 - bp2 * p1) + bc3 * c0 - bc0 * c3 + bc1 * c2
        bp1, bp2 = _turn(bp1, bp2, ct1, -st1)
        g_r1 = -2.0 * (bp0 * b1 + bp1 * p0)
        bp0, bp1 = _boost(bp0, bp1, ch1, sh1)
        g_f1 = 2.0 * (bp1 * a2 - bp2 * a1)
        g_r2 = -2.0 * (bq0 * q1 + bq1 * q0)
        bq0, bq1 = _boost(bq0, bq1, ch2, sh2)
        g_f2 = 2.0 * (bq1 * q2 - bq2 * e1)
        bc3, bc0 = _turn(bc3, bc0, ct, -st)
        bc1, bc2 = _turn(bc1, 0.0, ct, -st)
        g_sum, g_dif = -(bc0 * y1 + bc1 * y0), -(bc2 * y3 + bc3 * y2)
        bc0, bc1 = _boost(bc0, bc1, chs, shs)
        bc2, bc3 = _boost(bc2, bc3, chd, shd)
        g_m, g_p = bc3 * x0 - bc0 * x3, bc1 * x2 - bc2 * x1
        grad = [g_t1, g_r1 + g_sum + g_dif, g_f1 + g_m + g_p, g_r2 + g_sum - g_dif, g_f2 + g_p - g_m, g_rt]
        if not math.isfinite(value + sum(grad)):
            return math.inf, [0.0] * 6
        return value, grad

    return energy


def _family_ops(p) -> list[GaussianOp]:
    """The family's operations before its passive tail, for p = (t1, r1, f1, r2, f2, rt)."""
    t1, r1, f1, r2, f2, rt = p
    return [
        rotation(f1, 0, 2),
        squeeze(r1, 0, 2),
        rotation(t1, 0, 2),
        rotation(f2, 1, 2),
        squeeze(r2, 1, 2),
        two_mode_squeeze(rt),
    ]


# The family's angles are polar coordinates about r1 = r2 = rt = 0, so the
# re-centred polish starts away from there, where every direction has a parameter.
_POLISH_START = np.array([0.0, 0.5, 0.0, 0.5, 0.0, 0.5])
_TO_POLISH_START = [inverse(op) for op in reversed(_family_ops(_POLISH_START))]
_POLISH_ROUNDS = 4


def brute_force_min_energy(
    state: MomentState,
    seed: int = 1234,
    starts: int = 16,
    maxfev: int = 1500,
    budget: int | None = None,
) -> float:
    """Direct-search floor for the Gaussian-reachable energy of a two-mode state.

    Runs seeded multi-start BFGS with the analytic gradient of
    ``_family_energy`` (two local operations and a two-mode squeeze, with the
    passive tail in closed form) after zeroing the first moments.  The polish
    then re-centres: it moves the covariance by the best point's operations
    and searches again from ``_POLISH_START``, so a strongly squeezed state is
    searched where its energy is well conditioned; it repeats while that
    lowers the energy, at most ``_POLISH_ROUNDS`` times.  Every value the search
    sees is the energy of a concrete Gaussian unitary, and it returns the
    least of them, so the result lies below the true floor only by rounding,
    which grows with the state's squeezing.  ``maxfev``
    caps the evaluations of each local solve and ``budget`` those of the
    whole call; an exhausted budget returns best-so-far with a
    ``BudgetWarning``.

    Logs one ``fock.search`` debug record on the ``gausswork`` logger with
    ``starts``, ``evaluations``, the local solves that ``converged`` and those
    stopped at ``maxfev`` (``capped``), ``budget_exhausted`` and ``seconds``;
    the fields are also attributes of the record.
    """
    if state.n_modes != 2:
        raise ValidationError("brute_force_min_energy expects a two-mode state")
    if starts < 1:
        raise ValidationError("need at least one start")
    if maxfev < 1:
        raise ValidationError("need at least one evaluation per local solve")
    if budget is not None and budget < 1:
        raise ValidationError("evaluation budget must be at least 1")
    began = time.perf_counter()
    frame = np.eye(4)  # the search moves frame @ cov @ frame.T
    energy = _family_energy(state.cov, state.freqs)
    limit = math.inf if budget is None else budget
    evals = cap = converged = capped = 0
    best, best_x = math.inf, np.zeros(6)

    def objective(p):
        nonlocal evals, best, best_x
        if evals >= cap:
            raise _SolveStopped
        evals += 1
        value, grad = energy(p)
        if value < best:
            best, best_x = value, np.array(p, dtype=float)
        return value, grad

    def solve(x0, gtol) -> bool:
        """One local BFGS solve; False when the budget ran out during it."""
        nonlocal cap, converged, capped
        cap = min(evals + maxfev, limit)
        try:
            minimize(objective, x0, gtol)
        except _SolveStopped:
            if evals >= limit:
                return False
            capped += 1
        else:
            converged += 1
        return True

    rng = np.random.default_rng(seed)
    points = [np.zeros(6)]
    for _ in range(starts - 1):
        p0 = rng.uniform(-1.0, 1.0, 6)
        p0[[0, 2, 4]] *= math.pi
        points.append(p0)

    exhausted = not all(solve(p0, 1e-8) for p0 in points)
    for _ in range(0 if exhausted else _POLISH_ROUNDS):
        reached = best
        frame = compose(_family_ops(best_x) + _TO_POLISH_START).block @ frame
        energy = _family_energy(frame @ state.cov @ frame.T, state.freqs)
        exhausted = not solve(_POLISH_START, 1e-10)
        if exhausted or best >= reached:
            break
    if exhausted:
        warnings.warn(
            f"evaluation budget {budget} exhausted; returning best-so-far",
            BudgetWarning,
            stacklevel=2,
        )
    if _log.isEnabledFor(logging.DEBUG):
        stats = {
            "starts": starts,
            "evaluations": evals,
            "converged": converged,
            "capped": capped,
            "budget_exhausted": exhausted,
            "seconds": time.perf_counter() - began,
        }
        _log.debug(
            "fock.search starts=%(starts)d evaluations=%(evaluations)d converged=%(converged)d "
            "capped=%(capped)d budget_exhausted=%(budget_exhausted)s seconds=%(seconds).3g",
            stats,
            extra=stats,
        )
    return best


@dataclasses.dataclass(frozen=True)
class OracleReport:
    """What ``verify`` measured, in its order; a check that did not run leaves None."""

    cutoff: int
    replay_residual: float | None = None
    moment_residual: float | None = None
    energy_residual: float | None = None
    spectrum: list[float] | None = None
    brute_force_min_energy: float | None = None
    spectral_floor: float | None = None
    floor_residual: float | None = None


def _moment_gap(x: np.ndarray, cov: np.ndarray, state: MomentState) -> float:
    return max(float(np.max(np.abs(cov - state.cov))), float(np.max(np.abs(x - state.x))))


def verify(state: MomentState, steps: list[ProtocolStep] | None = None,
           final_state: MomentState | None = None, cutoff: int = 40,
           seed: int = 1234, starts: int = 16) -> OracleReport:
    """Confirm a state's moment-level answers in truncated Fock space.

    ``steps`` and the ``final_state`` they reach, a protocol's two parts,
    come together.  With them the composed steps must carry ``state`` to
    ``final_state`` (replay_residual), and the inverse steps, run as Fock
    unitaries from the thermal state with the final modes' occupations, must
    give back its moments and energy (moment_residual, energy_residual).  A
    final pair coupled by a cross block c*1 + d*Omega is first turned and
    split to a product (``_decoupled_pair``); the thermal state takes the
    product's occupations, and the ops undoing the split run before the
    inverse steps.
    Without a protocol, or on two modes, the direct search must meet the
    spectral floor (floor_residual).  Both states must pass ``require_valid``,
    and the cutoff must lie in [2, ``CUTOFF_CAP``].
    """
    _check_dim(cutoff)
    spectrum = require_valid(state)
    fields = {}
    if steps is not None:
        if final_state.n_modes != state.n_modes:
            raise ValidationError("protocol and state mode counts differ")
        fields["spectrum"] = [float(v) for v in require_valid(final_state)]
        replayed = apply(compose([s.op for s in steps]), state) if steps else state
        fields["replay_residual"] = _moment_gap(replayed.x, replayed.cov, final_state)
        product, undo = _decoupled_pair(final_state)
        diag = np.diag(product.cov)
        occupations = (0.5 * (diag[0::2] + diag[1::2]) - 1.0) / 2.0
        rho = thermal_fock_state(occupations, final_state.freqs, cutoff)
        for op in undo + [inverse(step.op) for step in reversed(steps)]:
            rho = apply_gaussian_unitary(op, rho)
        fields["moment_residual"] = _moment_gap(*moments_of(rho), state)
        fields["energy_residual"] = float(abs(energy_of(rho) - mean_energy(state)))
    if steps is None or state.n_modes == 2:
        brute = brute_force_min_energy(state, seed=seed, starts=starts)
        floor = minimal_gaussian_energy(spectrum, state.freqs)
        fields.update(brute_force_min_energy=brute, spectral_floor=floor, floor_residual=brute - floor)
    return OracleReport(cutoff=cutoff, **fields)
