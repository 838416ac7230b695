"""Small numeric helpers used across modules."""
from __future__ import annotations

import functools

import numpy as np

from numpy._core.multiarray import c_einsum as einsum  # np.einsum less its wrapper, about 2 us a call
from numpy._core.multiarray import count_nonzero  # np.count_nonzero of a whole array less its wrapper

# np.where, np.copyto and np.vdot less their __array_function__ dispatch, about 0.25 us a call
where, copyto, vdot = np.where._implementation, np.copyto._implementation, np.vdot._implementation

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
_EPS4 = 4.0 * float(np.finfo(float).eps)


def as_point(x, dim: int | None = None) -> np.ndarray:
    x = np.array(x, dtype=float, copy=None, ndmin=1)  # np.atleast_1d of np.asarray
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D point, got shape {x.shape}")
    if dim is not None and x.size != dim:
        raise ValueError(f"expected a point of dimension {dim}, got {x.size}")
    return x


def as_points(X, dim: int | None = None) -> np.ndarray:
    """A stack of points: an (m, dim) float array."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or (dim is not None and X.shape[1] != dim):
        raise ValueError(f"expected a stack of points of shape (m, {dim or 'n'}), got shape {X.shape}")
    return X


class Stacked:
    """Mixin for a frozen dataclass that holds one point's data or a stack of
    it. In a stack every field carries a leading row axis: a float field is
    an (m,) array, an array field gains a first axis of length m, and a
    nested Stacked field is itself a stack. None, and a str field, are shared
    by every row; a bool column's row is a bool.

    These conversions sit on the one-point path, so they fill the instance's
    __dict__ directly rather than through the frozen dataclass __init__."""

    def row(self, i: int):
        """Row i of a stack, as the one-point instance."""
        out = {}
        for name, v in self.__dict__.items():
            if type(v) is np.ndarray:
                out[name] = (bool(v[i]) if v.dtype.kind == "b" else float(v[i])) if v.ndim == 1 else v[i]
            else:
                out[name] = v if v is None or type(v) is str else v.row(i)
        return _new(type(self), out)

    def select(self, rows):
        """The stack of the rows picked by an index array or a mask."""
        out = {}
        for name, v in self.__dict__.items():
            out[name] = v[rows] if type(v) is np.ndarray else (v if v is None or type(v) is str else v.select(rows))
        return _new(type(self), out)

    def stacked(self):
        """A one-point instance as a stack of one row."""
        out = {}
        for name, v in self.__dict__.items():
            if isinstance(v, Stacked):
                out[name] = v.stacked()
            elif v is None or type(v) is str:
                out[name] = v
            else:
                out[name] = np.asarray(v, dtype=bool if type(v) is bool else float)[None]
        return _new(type(self), out)


def _new(cls, values: dict):
    # the fields of a frozen dataclass are its instance __dict__; filling it
    # directly skips only the per-field object.__setattr__ calls of __init__
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


@functools.cache
def eye(n: int) -> np.ndarray:
    """The n x n identity, built once per n: a read-only view."""
    return np.broadcast_to(np.eye(n), (n, n))


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.outer of two vectors, or of each pair of rows of two stacks."""
    return a[..., :, None] * b[..., None, :]


def trace(a: np.ndarray) -> np.ndarray:
    """The trace of each matrix of a stack, as np.trace sums the diagonal."""
    return np.add.reduce(a.diagonal(0, -2, -1), -1)  # ndarray.sum less its Python wrapper


def unit_directions(dim: int, count: int, seed: int) -> np.ndarray:
    """Deterministic unit vectors: a golden-angle ring in 2-D (no axis bias),
    seeded Gaussian higher."""
    if count < 1:
        raise ValueError(f"need at least one ray direction, got {count}")
    if dim == 2:
        th = np.mod(np.arange(count) * GOLDEN_ANGLE, 2.0 * np.pi)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, dim))
    return v / np.sqrt(np.add.reduce(v * v, axis=1, keepdims=True))  # np.linalg.norm's own reduction


def brentq_lanes(f, a, b, xtol: float, maxiter: int = 100) -> np.ndarray:
    """Brent's method on lanes, lane i on [a[i], b[i]]: a step-for-step array
    port of scipy's `brentq.c` (Brent 1973, ch. 4), so each root equals
    `scipy.optimize.brentq`'s at its default rtol, bit for bit. `f(x, lanes)`
    is f at x[j] on lane lanes[j], called on both ends at once, then once per
    iteration on the open lanes, to which the state is cut once at most half
    are open. A lane where f is NaN (brentq raises) gets root NaN; one-sign
    ends raise ValueError, and no convergence RuntimeError."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    lanes = np.arange(a.size)
    ends = f(np.concatenate([a, b]), np.concatenate([lanes, lanes]))
    fpre, fcur = ends[: a.size], ends[a.size :]
    nan = np.isnan(fpre) | np.isnan(fcur)
    out = where(nan, np.nan, where(fpre == 0, a, where(fcur == 0, b, np.nan)))
    live = ~nan & (fpre != 0) & (fcur != 0)
    if count_nonzero(live & (np.signbit(fpre) == np.signbit(fcur))):
        raise ValueError("f(a) and f(b) must have different signs")
    xpre, xcur, root = a, b, out.copy()  # root: the state's lanes, out: all lanes
    xblk, fblk, spre, scur = np.zeros((4, a.size))
    with np.errstate(all="ignore"):  # closed lanes, and the trial steps of bisecting ones, are ignored
        for _ in range(maxiter):
            # brentq.c flips where fpre != 0, fcur != 0 and the signs differ. An open lane has fpre
            # != 0, and one with fcur == 0 closes below whatever it flips, so the product's sign bit
            # decides: it is the factors' differing, also where the product rounds to 0 or inf
            flip = np.signbit(fpre * fcur)
            if count_nonzero(flip):  # the count skips the selects where no lane takes them
                copyto(xblk, xpre, where=flip)
                copyto(fblk, fpre, where=flip)
                copyto(spre, xcur - xpre, where=flip)
                copyto(scur, spre, where=flip)
            swap = np.abs(fblk) < np.abs(fcur)
            if count_nonzero(swap):
                xpre, xcur, xblk = where(swap, xcur, xpre), where(swap, xblk, xcur), where(swap, xcur, xblk)
                fpre, fcur, fblk = where(swap, fcur, fpre), where(swap, fblk, fcur), where(swap, fcur, fblk)
            # Python floats, not ints, as the ufuncs convert them faster
            delta = (xtol + _EPS4 * np.abs(xcur)) / 2.0  # brentq's default rtol
            dxblk = xblk - xcur
            sbis = dxblk / 2.0
            done = live & ((fcur == 0.0) | (np.abs(sbis) < delta))
            copyto(root, xcur, where=done)
            live ^= done
            open_ = count_nonzero(live)
            if 2 * open_ <= live.size:  # few lanes are open: the state is cut down to them
                out[lanes] = root
                if not open_:
                    return out
                state = [v[live] for v in (xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, root, lanes, delta, dxblk)]
                xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, root, lanes, delta, dxblk = state
                sbis, live = sbis[live], live[live]
            afcur, abis, apre = np.abs(fcur), np.abs(sbis), np.abs(spre)
            dx, df = xpre - xcur, fpre - fcur
            dpre, dblk = df / dx, (fblk - fcur) / dxblk
            nfcur = -fcur
            interpolate = nfcur * dx / df  # brentq's (xcur - xpre) / (fcur - fpre): both negations are exact
            extrapolate = nfcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            stry = where(xpre == xblk, interpolate, extrapolate)
            short = (apre > delta) & (afcur < np.abs(fpre))
            short &= 2.0 * np.abs(stry) < np.minimum(apre, 3.0 * abis - delta)
            spre, scur = where(short, scur, sbis), where(short, stry, sbis)
            # an open lane has sbis != 0, so the bisection step takes its sign
            step = where(np.abs(scur) > delta, scur, np.copysign(delta, sbis))
            xpre, fpre, xcur = xcur, fcur, xcur + step
            if open_ == live.size:
                fcur = f(xcur, lanes)
            else:
                fcur, at = np.zeros(live.size), live.nonzero()[0]
                fcur[at] = f(xcur[at], lanes[at])
            live &= fcur == fcur  # f is not NaN
    if live.any():
        raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur[live][0]}")
    return out


def brentq(f, a: float, b: float, xtol: float) -> float:
    """The root of the scalar function f on [a, b], scipy's `brentq` root bit
    for bit: one lane of `brentq_lanes` that calls f at one point at a time,
    so an error f raises comes where scipy's would."""
    return float(brentq_lanes(lambda t, lanes: np.array([f(ti) for ti in t]), [a], [b], xtol)[0])


def richardson_limit(s: np.ndarray, y: np.ndarray) -> float:
    """Limit of y(s) as s -> 0 assuming y = y0 + c*s + O(s^2).

    Uses the two smallest s samples (first-order elimination).
    """
    order = np.argsort(s)
    s0, s1 = s[order[0]], s[order[1]]
    y0, y1 = y[order[0]], y[order[1]]
    return float((y0 * s1 - y1 * s0) / (s1 - s0))
