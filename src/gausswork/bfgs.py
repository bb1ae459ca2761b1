"""BFGS with the Moré–Thuente line search, iterate for iterate as SciPy's.

``minimize(fun, x0, gtol)`` takes the steps that ``scipy.optimize.minimize(fun,
x0, jac=True, method="BFGS", options={"gtol": gtol})`` takes in SciPy 1.17 and
returns the same ``x``, ``fun`` and ``nfev``.  It keeps SciPy's defaults (Wolfe
constants c1 = 1e-4 and c2 = 0.9, step bounds 1e-100 and 1e100, xtol 1e-14, at
most 100 dcsrch iterations and 200·n BFGS iterations) and its one-point memo:
a request for the last evaluated point does not call ``fun`` again, and
``nfev`` counts value requests the way SciPy's ``ScalarFunction`` does.  The
products whose rounding decides the path (directional derivatives and the
inverse-Hessian update) stay in NumPy; the Moré–Thuente step runs on Python
floats and is rerun on NumPy scalars, as SciPy runs it, whenever Python raises
where NumPy would return inf or nan.  NumPy's overflow warnings match SciPy's
except once an iterate's norm overflows (beyond about 1e154), where SciPy's
relative step test warns on every iteration.

Ported from SciPy's ``_minimize_bfgs`` (``scipy/optimize/_optimize.py``),
``line_search_wolfe1``, ``line_search_wolfe2``, ``_zoom``, ``_cubicmin`` and
``_quadmin`` (``_linesearch.py``), and ``DCSRCH``/``dcstep``
(``_dcsrch.py``), SciPy's Python port of MINPACK-2's dcsrch and dcstep by
Jorge J. Moré and David J. Thuente (MINPACK-1 Project, June 1983, Argonne
National Laboratory; MINPACK-2 Project, November 1993, Argonne National
Laboratory and University of Minnesota, with Brett M. Averick and Richard G.
Carter); J. J. Moré and D. J. Thuente, ACM Trans. Math. Softw. 20, 286 (1994).

SciPy's license:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_C1, _C2 = 1e-4, 0.9  # sufficient decrease and curvature
_AMIN, _AMAX, _XTOL = 1e-100, 1e100, 1e-14
_DCSRCH_ITERS = 100
_WOLFE2_ITERS = _ZOOM_ITERS = 10


class Result(NamedTuple):
    """The last iterate, its value, and the value requests the solve made."""

    x: np.ndarray
    fun: float
    nfev: int


def minimize(fun, x0, gtol: float) -> Result:
    """Minimize ``fun`` by BFGS from ``x0`` until the gradient's largest entry is at most ``gtol``.

    ``fun(x)`` returns ``(value, gradient)`` for a 1-D float array ``x`` that
    it must not modify.  The solve ends, as SciPy's does, at the gradient
    tolerance, after 200·n iterations, when both line searches fail, on a zero
    step, or at a non-finite value.  An exception raised by ``fun`` propagates.
    """
    xk = np.asarray(x0, dtype=float).flatten()
    memo_x = memo_f = memo_g = None
    counted = False  # whether nfev counts a value request at memo_x
    nfev = 0

    def evaluate(x) -> None:
        nonlocal memo_x, memo_f, memo_g, counted
        key = x.tolist()
        if key != memo_x:
            value, grad = fun(x)
            memo_x, memo_f, memo_g, counted = key, value, np.array(grad, dtype=float), False

    def value(x):
        nonlocal nfev, counted
        evaluate(x)
        if not counted:
            nfev += 1
            counted = True
        return memo_f

    def gradient(x) -> np.ndarray:
        evaluate(x)
        return memo_g

    def phi(stp: float) -> tuple[float, float]:
        """The value and slope at ``xk + stp pk``, as dcsrch asks for them."""
        f = value(xk + stp * pk)
        return f, float(np.dot(memo_g, pk))

    old_fval = value(xk)
    gfk = memo_g
    identity = np.eye(len(xk))
    hk = identity
    old_old_fval = old_fval + np.linalg.norm(gfk) / 2  # a first step of about 1
    gnorm = _max_abs(gfk)
    k = 0
    while gnorm > gtol and k < 200 * len(xk):
        pk = -np.dot(hk, gfk)
        derphi0 = np.dot(gfk, pk)
        alpha1 = 1.0
        if derphi0 != 0:
            alpha1 = min(1.0, 1.01 * 2 * (old_fval - old_old_fval) / derphi0)
            if alpha1 < 0:
                alpha1 = 1.0
        alpha_k, fval = _dcsrch(phi, float(alpha1), old_fval, float(derphi0))
        gfkp1 = memo_g
        if alpha_k is None:
            alpha_k, fval, gfkp1 = _wolfe2(value, gradient, xk, pk, alpha1, old_fval, derphi0)
            if alpha_k is None:  # precision loss
                break
        old_old_fval, old_fval = old_fval, fval
        sk = alpha_k * pk
        xk = xk + sk
        if gfkp1 is None:
            gfkp1 = gradient(xk)
        yk = gfkp1 - gfk
        gfk = gfkp1
        k += 1
        gnorm = _max_abs(gfk)
        if gnorm <= gtol:
            break
        # SciPy's relative step test at xrtol = 0: alpha |pk| <= 0 * (0 + |xk|), with
        # squares by * so that an overflow gives inf, as in NumPy, instead of raising
        if alpha_k * math.sqrt(sum(v * v for v in pk.tolist())) <= 0 and math.isfinite(
            sum(v * v for v in xk.tolist())
        ):
            break
        if not math.isfinite(old_fval):
            break
        rhok_inv = np.dot(yk, sk)
        rhok = 1000.0 if rhok_inv == 0.0 else 1.0 / rhok_inv
        a1 = identity - np.multiply.outer(sk, yk) * rhok
        a2 = a1.T.copy()  # I - y s^T rho, entry for entry: products commute exactly
        hk = np.dot(a1, np.dot(hk, a2)) + np.multiply.outer(rhok * sk, sk)
    return Result(xk, old_fval, nfev)


def _max_abs(v: np.ndarray) -> float:
    """SciPy's ``abs(v).max()`` on Python floats: nan if any entry is nan, as NumPy's max."""
    magnitudes = [abs(e) for e in v.tolist()]
    return math.nan if math.isnan(sum(magnitudes)) else max(magnitudes)


def _dcsrch(phi, stp, finit, ginit):
    """MINPACK-2's dcsrch (Moré–Thuente): a step meeting the strong Wolfe conditions.

    ``phi(stp)`` gives the value and slope at a step.  Returns the step, or
    None on an error or warning task, and the value at the last trial step.
    """
    if not (_AMIN <= stp <= _AMAX) or ginit >= 0:
        return None, finit
    brackt, stage = False, 1
    gtest = _C1 * ginit
    width = _AMAX - _AMIN
    width1 = width / 0.5
    stx, fx, gx = 0.0, finit, ginit
    sty, fy, gy = 0.0, finit, ginit
    stmin, stmax = 0, stp + 4.0 * stp
    f, g = phi(stp)
    for _ in range(_DCSRCH_ITERS - 1):
        ftest = finit + stp * gtest
        if stage == 1 and f <= ftest and g >= 0:
            stage = 2
        if f <= ftest and abs(g) <= _C2 * -ginit:
            return stp, f
        if (
            brackt and (stp <= stmin or stp >= stmax)
            or brackt and stmax - stmin <= _XTOL * stmax
            or stp == _AMAX and f <= ftest and g <= gtest
            or stp == _AMIN and (f > ftest or g >= gtest)
        ):
            return None, f
        if stage == 1 and f <= fx and f > ftest:
            # the modified function psi(stp) = f(stp) - f(0) - stp gtest
            stx, fxm, gxm, sty, fym, gym, stp, brackt = _step(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                stp, f - stp * gtest, g - gtest, brackt, stmin, stmax,
            )
            fx = fxm + stx * gtest
            fy = fym + sty * gtest
            gx = gxm + gtest
            gy = gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _step(
                stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax
            )
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1 = width
            width = abs(sty - stx)
            stmin = min(stx, sty)
            stmax = max(stx, sty)
        else:
            stmin = stp + 1.1 * (stp - stx)
            stmax = stp + 4.0 * (stp - stx)
        stp = min(max(stp, _AMIN), _AMAX)
        if brackt and (stp <= stmin or stp >= stmax) or brackt and stmax - stmin <= _XTOL * stmax:
            stp = stx
        if not math.isfinite(stp):
            return None, f
        f, g = phi(stp)
    return None, f


def _step(*args):
    """``_dcstep`` on Python floats, or on NumPy scalars where Python raises.

    SciPy runs dcstep on NumPy scalars with overflow and invalid operations
    ignored, so a division by zero or the root of a negative number gives
    inf or nan there instead of an exception.
    """
    try:
        return _dcstep(*args)
    except (ArithmeticError, ValueError):
        with np.errstate(invalid="ignore", over="ignore"):
            *values, brackt, stpmin, stpmax = (
                a if isinstance(a, bool) else np.float64(a) for a in args
            )
            out = _dcstep(*values, brackt, stpmin, stpmax, sqrt=np.sqrt)
        return (*(float(v) for v in out[:7]), out[7])


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax, sqrt=math.sqrt):
    """MINPACK-2's dcstep: the next trial step and the updated bracket.

    ``(stx, fx, dx)`` is the best step so far with its value and slope,
    ``(sty, fy, dy)`` the other end of the interval and ``(stp, fp, dp)`` the
    current trial; the step is safeguarded to ``[stpmin, stpmax]``.
    """
    opposite = dp < 0.0 < dx or dx < 0.0 < dp  # sign(dp) * sign(dx) < 0
    if fp > fx:
        # higher value: the minimum is bracketed; cubic, or halfway to the quadratic step
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * sqrt((theta / s) ** 2 - dx / s * (dp / s))
        if stp < stx:
            gamma *= -1
        p = gamma - dx + theta
        q = gamma - dx + gamma + dp
        r = p / q
        stpc = stx + r * (stp - stx)
        stpq = stx + dx / ((fx - fp) / (stp - stx) + dx) / 2.0 * (stp - stx)
        if abs(stpc - stx) <= abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        # slopes of opposite sign: bracketed; the cubic or the secant step
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * sqrt((theta / s) ** 2 - dx / s * (dp / s))
        if stp > stx:
            gamma *= -1
        p = gamma - dp + theta
        q = gamma - dp + gamma + dx
        r = p / q
        stpc = stp + r * (stx - stp)
        stpq = stp + dp / (dp - dx) * (stx - stp)
        if abs(stpc - stp) > abs(stpq - stp):
            stpf = stpc
        else:
            stpf = stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # same sign, smaller slope: the cubic only if it tends to infinity in the step's direction
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * sqrt(max(0, (theta / s) ** 2 - dx / s * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = gamma - dp + theta
        q = gamma + (dx - dp) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + dp / (dp - dx) * (stx - stp)
        if brackt:
            if abs(stpc - stp) < abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            if abs(stpc - stp) > abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            stpf = min(max(stpf, stpmin), stpmax)
    elif brackt:
        # same sign, no smaller slope, bracketed: the cubic through stp and sty
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = s * sqrt((theta / s) ** 2 - dy / s * (dp / s))
        if stp > sty:
            gamma = -gamma
        p = gamma - dp + theta
        q = gamma - dp + gamma + dy
        r = p / q
        stpc = stp + r * (sty - stp)
        stpf = stpc
    elif stp > stx:
        stpf = stpmax
    else:
        stpf = stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def _wolfe2(value, gradient, xk, pk, alpha1, phi0, derphi0):
    """SciPy's ``line_search_wolfe2`` (Nocedal and Wright, Algorithm 3.5), BFGS's fallback.

    Returns the step, the value there and the gradient there; the step is
    None when the search fails, and the gradient None when the search ran
    out of iterations without evaluating it.
    """
    grad = [None]

    def phi(alpha):
        return value(xk + alpha * pk)

    def derphi(alpha):
        grad[0] = gradient(xk + alpha * pk)
        return np.dot(grad[0], pk)

    alpha0 = 0
    alpha1 = min(alpha1, _AMAX)
    phi_a1 = phi(alpha1)
    phi_a0 = phi0
    derphi_a0 = derphi0
    for i in range(_WOLFE2_ITERS):
        if alpha1 == 0 or alpha0 > _AMAX:
            return None, phi0, None
        if phi_a1 > phi0 + _C1 * alpha1 * derphi0 or (phi_a1 >= phi_a0 and i > 0):
            alpha_star, phi_star = _zoom(alpha0, alpha1, phi_a0, phi_a1, derphi_a0, phi, derphi, phi0, derphi0)
            break
        derphi_a1 = derphi(alpha1)
        if abs(derphi_a1) <= -_C2 * derphi0:
            return alpha1, phi_a1, grad[0]
        if derphi_a1 >= 0:
            alpha_star, phi_star = _zoom(alpha1, alpha0, phi_a1, phi_a0, derphi_a1, phi, derphi, phi0, derphi0)
            break
        alpha2 = min(2 * alpha1, _AMAX)
        alpha0 = alpha1
        alpha1 = alpha2
        phi_a0 = phi_a1
        phi_a1 = phi(alpha1)
        derphi_a0 = derphi_a1
    else:
        return alpha1, phi_a1, None
    return alpha_star, phi_star, None if alpha_star is None else grad[0]


def _zoom(a_lo, a_hi, phi_lo, phi_hi, derphi_lo, phi, derphi, phi0, derphi0):
    """Zoom stage of ``_wolfe2`` (Nocedal and Wright, Algorithm 3.6): (step, value), step None on failure."""
    i = 0
    phi_rec = phi0
    a_rec = 0
    while True:
        dalpha = a_hi - a_lo
        if dalpha < 0:
            a, b = a_hi, a_lo
        else:
            a, b = a_lo, a_hi
        # cubic interpolation first, then quadratic, then bisection
        if i > 0:
            cchk = 0.2 * dalpha
            a_j = _cubicmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi, a_rec, phi_rec)
        if i == 0 or a_j is None or a_j > b - cchk or a_j < a + cchk:
            qchk = 0.1 * dalpha
            a_j = _quadmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi)
            if a_j is None or a_j > b - qchk or a_j < a + qchk:
                a_j = a_lo + 0.5 * dalpha
        phi_aj = phi(a_j)
        if phi_aj > phi0 + _C1 * a_j * derphi0 or phi_aj >= phi_lo:
            phi_rec = phi_hi
            a_rec = a_hi
            a_hi = a_j
            phi_hi = phi_aj
        else:
            derphi_aj = derphi(a_j)
            if abs(derphi_aj) <= -_C2 * derphi0:
                return a_j, phi_aj
            if derphi_aj * (a_hi - a_lo) >= 0:
                phi_rec = phi_hi
                a_rec = a_hi
                a_hi = a_lo
                phi_hi = phi_lo
            else:
                phi_rec = phi_lo
                a_rec = a_lo
            a_lo = a_j
            phi_lo = phi_aj
            derphi_lo = derphi_aj
        i += 1
        if i > _ZOOM_ITERS:
            return None, None


def _cubicmin(a, fa, fpa, b, fb, c, fc):
    """Minimizer of the cubic through (a, fa), (b, fb), (c, fc) with slope fpa at a; None if none."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            C = fpa
            db = b - a
            dc = c - a
            denom = (db * dc) ** 2 * (db - dc)
            d1 = np.empty((2, 2))
            d1[0, 0] = dc**2
            d1[0, 1] = -(db**2)
            d1[1, 0] = -(dc**3)
            d1[1, 1] = db**3
            [A, B] = np.dot(d1, np.asarray([fb - fa - C * db, fc - fa - C * dc]).flatten())
            A /= denom
            B /= denom
            radical = B * B - 3 * A * C
            xmin = a + (-B + np.sqrt(radical)) / (3 * A)
        except ArithmeticError:
            return None
    if not np.isfinite(xmin):
        return None
    return xmin


def _quadmin(a, fa, fpa, b, fb):
    """Minimizer of the quadratic through (a, fa), (b, fb) with slope fpa at a; None if none."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            D = fa
            C = fpa
            db = b - a * 1.0
            B = (fb - D - C * db) / (db * db)
            xmin = a - C / (2.0 * B)
        except ArithmeticError:
            return None
    if not np.isfinite(xmin):
        return None
    return xmin
