r"""Elementary Gaussian operations as affine maps on moments.

Every operation is a pair (S, d) acting as Gamma -> S Gamma S^T and
x -> S x + d, with S symplectic.  An operation stores only the 2k x 2k block
of S on its k target modes plus the full displacement d of its N-mode
system; the embedded 2N x 2N S is built on demand.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .core import MomentState, symplectic_form
from .exceptions import ValidationError

SYMPLECTIC_TOL = 1e-10

# kind -> (parameter name, number of target modes, sign of the inverse's parameter)
_KINDS = {
    "rotation": ("theta", 1, -1.0),
    "squeeze": ("r", 1, -1.0),
    "two_mode_squeeze": ("r", 2, -1.0),
    "beam_splitter": ("theta", 2, 1.0),  # involutive for every theta
}


@dataclasses.dataclass(frozen=True, eq=False)
class GaussianOp:
    """An affine Gaussian operation with a serializable label.

    kind is one of rotation, squeeze, two_mode_squeeze, beam_splitter,
    displacement, or sequence (for compositions); params holds the defining
    scalars and modes the target mode indices.  block is the symplectic on
    those modes, in their order; d is the displacement of the whole system.
    """

    block: np.ndarray
    d: np.ndarray
    kind: str
    params: dict
    modes: tuple[int, ...]

    @property
    def n_modes(self) -> int:
        return self.d.size // 2

    @property
    def S(self) -> np.ndarray:
        """The 2N x 2N symplectic: block on the target modes, identity elsewhere."""
        S = np.eye(2 * self.n_modes)
        idx = _indices(self.modes)
        S[np.ix_(idx, idx)] = self.block
        return S


def _indices(modes) -> list[int]:
    return [q for m in modes for q in (2 * m, 2 * m + 1)]


def _block(kind: str, value: float) -> np.ndarray:
    """The symplectic of one elementary kind on its own one or two modes."""
    if kind == "rotation":
        c, s = np.cos(value), np.sin(value)
        return np.array([[c, s], [-s, c]])
    if kind == "squeeze":
        return np.array([[np.exp(-value), 0.0], [0.0, np.exp(value)]])
    if kind == "two_mode_squeeze":
        ch, sh = np.cosh(value), np.sinh(value)
        return np.array(
            [[ch, 0.0, sh, 0.0], [0.0, ch, 0.0, -sh], [sh, 0.0, ch, 0.0], [0.0, -sh, 0.0, ch]]
        )
    c, s = np.cos(value), np.sin(value)  # beam_splitter
    return np.array([[c, 0.0, s, 0.0], [0.0, c, 0.0, s], [s, 0.0, -c, 0.0], [0.0, s, 0.0, -c]])


@functools.lru_cache(maxsize=64)
def _zero_displacement(n_modes: int) -> np.ndarray:
    """The displacement of every elementary op on n_modes: zeros, shared and read-only."""
    d = np.zeros(2 * n_modes)
    d.flags.writeable = False
    return d


def _elementary(kind: str, value: float, modes, n_modes: int) -> GaussianOp:
    name, count, _ = _KINDS[kind]
    modes = tuple(modes)
    if len(modes) != count:
        raise ValidationError(f"{kind} acts on {count} mode(s), got target modes {list(modes)}")
    for m in modes:
        if not 0 <= m < n_modes:
            raise ValidationError(f"mode index {m} out of range for {n_modes} modes")
    if len(set(modes)) != len(modes):
        raise ValidationError("target modes must be distinct")
    return GaussianOp(
        block=_block(kind, value),
        d=_zero_displacement(n_modes),
        kind=kind,
        params={name: float(value)},
        modes=modes,
    )


def rotation(theta: float, mode: int = 0, n_modes: int = 1) -> GaussianOp:
    """Phase-space rotation R(theta) = [[cos, sin], [-sin, cos]] on one mode."""
    return _elementary("rotation", theta, (mode,), n_modes)


def squeeze(r: float, mode: int = 0, n_modes: int = 1) -> GaussianOp:
    """Single-mode squeeze diag(e^-r, e^r)."""
    return _elementary("squeeze", r, (mode,), n_modes)


def two_mode_squeeze(r: float, modes: tuple[int, int] = (0, 1), n_modes: int = 2) -> GaussianOp:
    """Two-mode squeeze [[cosh r * 1, sinh r * sz], [sinh r * sz, cosh r * 1]]."""
    return _elementary("two_mode_squeeze", r, modes, n_modes)


def beam_splitter(theta: float, modes: tuple[int, int] = (0, 1), n_modes: int = 2) -> GaussianOp:
    """Beam splitter [[cos t * 1, sin t * 1], [sin t * 1, -cos t * 1]].

    theta = pi/2 swaps the two modes; the map is involutive for every theta.
    """
    return _elementary("beam_splitter", theta, modes, n_modes)


def displacement(d, n_modes: int | None = None) -> GaussianOp:
    """Phase-space displacement x -> x + d with identity S, targeting every mode."""
    d = np.asarray(d, dtype=float).reshape(-1)
    if d.size % 2:
        raise ValidationError("displacement vector must have even length")
    n = d.size // 2 if n_modes is None else n_modes
    if d.size != 2 * n:
        raise ValidationError(f"displacement length {d.size} does not match {n} modes")
    return GaussianOp(
        block=np.eye(2 * n),
        d=d.copy(),
        kind="displacement",
        params={"d": [float(v) for v in d]},
        modes=tuple(range(n)),
    )


def is_symplectic(S: np.ndarray, tol: float = SYMPLECTIC_TOL) -> bool:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2:
        return False
    omega = symplectic_form(S.shape[0] // 2)
    return bool(np.max(np.abs(S @ omega @ S.T - omega)) <= tol)


def apply(op: GaussianOp, state: MomentState) -> MomentState:
    """Transform a state's moments: Gamma -> S Gamma S^T, x -> S x + d.

    Only the rows of the op's target modes are computed, once, through a
    slice when the targets are ascending and adjacent: B Gamma, with the
    target block B Gamma_t B^T symmetrized.  The target columns are written
    as the transpose of those rows, so the result is exactly symmetric
    wherever the op touched it.  An elementary op leaves an exactly zero x as
    it is, and the result shares that array.  The result also shares the
    input's frequencies and is not re-validated: its shapes are the input's,
    and finiteness is checked only on what was computed, the target rows and,
    whenever x moves, all of x.
    """
    if op.n_modes != state.n_modes:
        raise ValidationError(
            f"operation acts on {op.n_modes} modes, state has {state.n_modes}"
        )
    first = op.modes[0]
    if op.modes == tuple(range(first, first + len(op.modes))):
        idx = slice(2 * first, 2 * (first + len(op.modes)))
    else:
        idx = _indices(op.modes)
    rows = op.block @ state.cov[idx]
    block = rows[:, idx] @ op.block.T
    rows[:, idx] = 0.5 * (block + block.T)
    finite = np.isfinite(rows).all()
    x = state.x
    displaced = op.kind not in _KINDS  # elementary kinds carry d = 0
    if displaced or np.count_nonzero(x):
        x = x.copy()
        x[idx] = op.block @ x[idx]
        if displaced:
            x += op.d
        finite = finite and np.isfinite(x).all()
    if not finite:
        raise ValidationError("moments and frequencies must be finite")
    cov = state.cov.copy()
    cov[idx] = rows
    cov[:, idx] = rows.T
    return MomentState._inherit(state, x, cov)


def compose(ops) -> GaussianOp:
    """Compose operations applied left to right: ops[0] acts first.

    The result's modes are the sorted union of the ops' modes, and its block
    is the composed S on that union.
    """
    ops = list(ops)
    if not ops:
        raise ValidationError("cannot compose an empty operation list")
    n = ops[0].n_modes
    S = np.eye(2 * n)
    d = np.zeros(2 * n)
    for op in ops:
        if op.n_modes != n:
            raise ValidationError("composed operations act on different mode counts")
        idx = _indices(op.modes)
        S[idx] = op.block @ S[idx]
        d[idx] = op.block @ d[idx]
        d += op.d
    modes = tuple(sorted({m for op in ops for m in op.modes}))
    union = _indices(modes)
    return GaussianOp(
        block=S[np.ix_(union, union)],
        d=d,
        kind="sequence",
        params={"length": len(ops)},
        modes=modes,
    )


def inverse(op: GaussianOp) -> GaussianOp:
    """Exact inverse: negated parameter per kind, beam splitters self-invert."""
    if op.kind in _KINDS:
        name, _, sign = _KINDS[op.kind]
        return _elementary(op.kind, sign * op.params[name], op.modes, op.n_modes)
    if op.kind == "displacement":
        return displacement(-op.d, op.n_modes)
    # generic fall-back: the block is symplectic, so its inverse is Omega^T B^T Omega
    omega = symplectic_form(len(op.modes))
    block = omega.T @ op.block.T @ omega
    idx = _indices(op.modes)
    d = op.d.copy()
    d[idx] = block @ d[idx]
    return GaussianOp(
        block=block,
        d=-d,
        kind="sequence",
        params={"inverse_of": op.kind},
        modes=op.modes,
    )


def op_from_label(kind: str, params: dict, modes, n_modes: int) -> GaussianOp:
    """Rebuild an operation from its serialized label."""
    modes = tuple(int(m) for m in modes)
    if kind == "displacement":
        if modes != tuple(range(n_modes)):
            raise ValidationError(f"displacement targets every mode, got {list(modes)}")
        return displacement(np.asarray(params["d"], dtype=float), n_modes)
    if kind not in _KINDS:
        raise ValidationError(f"unknown operation kind {kind!r}")
    return _elementary(kind, float(params[_KINDS[kind][0]]), modes, n_modes)


def describe(op: GaussianOp) -> str:
    """One-line human-readable description used in trace tables."""
    if op.kind in _KINDS:
        name = _KINDS[op.kind][0]
        where = "mode" if len(op.modes) == 1 else "modes"
        return f"{op.kind}({name}={op.params[name]:.9g}) on {where} {','.join(map(str, op.modes))}"
    if op.kind == "displacement":
        norm = float(np.linalg.norm(op.d))
        return f"displacement(|d|={norm:.9g})"
    return f"{op.kind} on modes {op.modes}"


@dataclasses.dataclass(frozen=True, eq=False)
class ProtocolStep:
    """One protocol entry: the operation, its pipeline stage, and the energy after."""

    op: GaussianOp
    stage: str
    energy_after: float


PROTOCOL_STAGES = (
    "P1-displace",
    "P2-local",
    "P3-tms",
    "P3-realign",
    "P4-beamsplit",
)
