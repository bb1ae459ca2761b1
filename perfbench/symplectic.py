"""Symplectic matrices built by the benchmark itself, apart from ``gausswork.ops``.

The benchmark generates its input states and checks the program's protocols
with these builders, so that a fault in the program's own operation layer
cannot hide behind a check that uses the same code.  Conventions follow the
program's documentation: quadratures (x_1, p_1, ..., x_N, p_N), a rotation is
[[cos, sin], [-sin, cos]], a squeeze diag(e^-r, e^r), a two-mode squeeze
[[ch 1, sh Z], [sh Z, ch 1]] and a beam splitter [[c 1, s 1], [s 1, -c 1]].
"""

from __future__ import annotations

import math

import numpy as np


def block(kind: str, params: dict) -> np.ndarray:
    """The 2x2 or 4x4 block of one elementary operation."""
    if kind == "rotation":
        c, s = math.cos(params["theta"]), math.sin(params["theta"])
        return np.array([[c, s], [-s, c]])
    if kind == "squeeze":
        return np.diag([math.exp(-params["r"]), math.exp(params["r"])])
    if kind == "two_mode_squeeze":
        ch, sh = math.cosh(params["r"]), math.sinh(params["r"])
        return np.array(
            [
                [ch, 0.0, sh, 0.0],
                [0.0, ch, 0.0, -sh],
                [sh, 0.0, ch, 0.0],
                [0.0, -sh, 0.0, ch],
            ]
        )
    if kind == "beam_splitter":
        c, s = math.cos(params["theta"]), math.sin(params["theta"])
        return np.array(
            [
                [c, 0.0, s, 0.0],
                [0.0, c, 0.0, s],
                [s, 0.0, -c, 0.0],
                [0.0, s, 0.0, -c],
            ]
        )
    raise ValueError(f"no symplectic block for kind {kind!r}")


def left_multiply(S: np.ndarray, kind: str, params: dict, modes) -> None:
    """Replace S by E @ S in place, E the op embedded on the given modes."""
    idx = [q for m in modes for q in (2 * m, 2 * m + 1)]
    S[idx, :] = block(kind, params) @ S[idx, :]


def affine_map(labels, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The map x -> S x + d of labelled steps applied in order.

    Each label is ``(kind, params, modes)`` as a protocol file stores it; a
    displacement carries its vector in ``params["d"]``.  ``S`` and ``d`` are
    kept side by side as one 2N x (2N + 1) matrix.
    """
    M = np.hstack([np.eye(2 * n_modes), np.zeros((2 * n_modes, 1))])
    for kind, params, modes in labels:
        if kind == "displacement":
            M[:, -1] += np.asarray(params["d"], dtype=float)
        else:
            left_multiply(M, kind, params, modes)
    return M[:, :-1], M[:, -1]


def random_symplectic(rng, n_modes: int, layers: int, r_local: float, r_tms: float) -> np.ndarray:
    """A product of random local, two-mode-squeeze and beam-splitter layers.

    Each layer puts a rotation and a squeeze on every mode, then two-mode
    squeezes and beam splitters on random disjoint pairs.  Squeeze parameters
    are drawn from [-r, r] / sqrt(layers), so deeper mixing keeps the overall
    squeezing of the same order.
    """
    S = np.eye(2 * n_modes)
    scale = 1.0 / math.sqrt(layers)
    for _ in range(layers):
        for m in range(n_modes):
            left_multiply(S, "rotation", {"theta": rng.uniform(-math.pi, math.pi)}, (m,))
            left_multiply(S, "squeeze", {"r": scale * rng.uniform(-r_local, r_local)}, (m,))
        for kind, lo in (("two_mode_squeeze", r_tms), ("beam_splitter", math.pi)):
            perm = rng.permutation(n_modes)
            for k in range(0, n_modes - 1, 2):
                value = rng.uniform(-lo, lo)
                params = {"r": scale * value} if kind == "two_mode_squeeze" else {"theta": value}
                left_multiply(S, kind, params, (int(perm[k]), int(perm[k + 1])))
    return S


def williamson_cov(S: np.ndarray, nus) -> np.ndarray:
    """S diag(nu_1, nu_1, ..., nu_N, nu_N) S^T, symmetrised exactly."""
    cov = (S * np.repeat(np.asarray(nus, dtype=float), 2)) @ S.T
    return 0.5 * (cov + cov.T)


def spectral_floor(nus, freqs) -> float:
    """Least Gaussian-reachable energy: sum omega (nu - 1) / 2, nu down, omega up."""
    nus = sorted((float(v) for v in nus), reverse=True)
    ws = sorted(float(w) for w in freqs)
    return math.fsum(w * (nu - 1.0) / 2.0 for w, nu in zip(ws, nus))
