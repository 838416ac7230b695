"""Small numeric helpers used across modules."""
from __future__ import annotations


import numpy as np

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def as_point(x, dim: int | None = None) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
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
    nested Stacked field is itself a stack. None stays None.

    These conversions sit on the one-point path, so they fill the instance's
    __dict__ directly rather than through the frozen dataclass __init__."""

    def row(self, i: int):
        """Row i of a stack, as the one-point instance."""
        out = {}
        for name, v in self.__dict__.items():
            if type(v) is np.ndarray:
                out[name] = float(v[i]) if v.ndim == 1 else v[i]
            else:
                out[name] = v if v is None else v.row(i)
        return _new(type(self), out)

    def select(self, rows):
        """The stack of the rows picked by an index array or a mask."""
        out = {}
        for name, v in self.__dict__.items():
            out[name] = v[rows] if type(v) is np.ndarray else (v if v is None else v.select(rows))
        return _new(type(self), out)

    def stacked(self):
        """A one-point instance as a stack of one row."""
        out = {}
        for name, v in self.__dict__.items():
            if isinstance(v, Stacked):
                out[name] = v.stacked()
            else:
                out[name] = v if v is None else np.asarray(v, dtype=float)[None]
        return _new(type(self), out)

    @classmethod
    def from_rows(cls, rows):
        """The stack of a nonempty list of one-point instances."""
        if len(rows) == 1:
            return rows[0].stacked()
        out = {}
        for name, first in rows[0].__dict__.items():
            if isinstance(first, Stacked):
                out[name] = type(first).from_rows([getattr(r, name) for r in rows])
            else:
                out[name] = first if first is None else np.array([getattr(r, name) for r in rows], dtype=float)
        return _new(cls, out)


def _new(cls, values: dict):
    # the fields of a frozen dataclass are its instance __dict__; filling it
    # directly skips only the per-field object.__setattr__ calls of __init__
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


def maxabs(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def ring_directions(count: int) -> np.ndarray:
    """count unit vectors in the plane, golden-angle spaced (no axis bias)."""
    k = np.arange(count)
    th = np.mod(k * GOLDEN_ANGLE, 2.0 * np.pi)
    return np.stack([np.cos(th), np.sin(th)], axis=1)


def unit_directions(dim: int, count: int, seed: int) -> np.ndarray:
    """Deterministic unit vectors: golden-angle ring in 2-D, seeded Gaussian higher."""
    if dim == 2:
        return ring_directions(count)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def richardson_limit(s: np.ndarray, y: np.ndarray) -> float:
    """Limit of y(s) as s -> 0 assuming y = y0 + c*s + O(s^2).

    Uses the two smallest s samples (first-order elimination).
    """
    order = np.argsort(s)
    s0, s1 = s[order[0]], s[order[1]]
    y0, y1 = y[order[0]], y[order[1]]
    return float((y0 * s1 - y1 * s0) / (s1 - s0))


def convergence_slopes(h: np.ndarray, err: np.ndarray) -> np.ndarray:
    """log2 error-reduction rates for a step sequence h, h/2, h/4, ..."""
    h = np.asarray(h, dtype=float)
    err = np.asarray(err, dtype=float)
    order = np.argsort(-h)
    e = np.maximum(err[order], 1e-300)
    hh = h[order]
    return np.log(e[:-1] / e[1:]) / np.log(hh[:-1] / hh[1:])
