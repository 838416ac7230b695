"""Field kinds that only the tests build, and the grid file writer. A
values kernel here defines `values` on a stack of rows, NaN where it is
undefined, and no jets: the finite-difference field, the one route that
reads it, reads only values. The scaled field is a full kernel kind."""

import numpy as np

from curv.fields import Ball, FiniteDifferenceField, ScalarField, SphereCap, random_trig_field, whole_space


class ValuesKernel(ScalarField):
    """The field whose values on a stack of rows X (any leading axes) are
    `values(X)`, on the given domain (the whole space by default)."""

    def __init__(self, values, dim: int, domain=None, name: str = "kernel"):
        self._values = values
        self.dim = dim
        self.domain = domain if domain is not None else whole_space(dim)
        self.name = name

    def values(self, X):
        return self._values(X)


def cap_without_domain() -> SphereCap:
    """The unit sphere cap on the whole plane, NaN at and past the rim (its
    own domain would refuse such a point first), so ray samples and stencils
    cross the rim."""
    cap = SphereCap(2, 1.0)
    cap.domain = whole_space(2)
    return cap


def enveloped_field(seed: int) -> FiniteDifferenceField:
    """(1 - |x|)^2 times a seeded trig field on the ball of radius 1.2, with
    FD jets at step 1e-5: it vanishes at the rim, so a barrier slide
    certifies an interior touching point."""
    trig = random_trig_field(2, seed=seed)

    def values(X):
        w = 1.0 - np.sqrt(np.vecdot(X, X))  # np.linalg.norm of each row, bit for bit
        return w * w * trig.values(X)

    return FiniteDifferenceField(ValuesKernel(values, 2, Ball(2, 1.2), f"envelope({trig.name})"), 2, step=1e-5)


def raises_beyond(limit: float) -> ValuesKernel:
    """|x|^2, whose values raise a plain error, naming the first such row,
    on a stack with a row where x_0 > limit."""

    def values(X):
        beyond = X[..., 0] > limit
        if beyond.any():
            raise ArithmeticError(f"no value at {X[beyond][0].tolist()}")
        return np.vecdot(X, X)

    return ValuesKernel(values, 2, name=f"raises-beyond({limit})")


class ScaledField(ScalarField):
    """c u for a general factor c. It declares no slope bounds (a product
    rounds), so a slicer scans every block of its rays."""

    def __init__(self, base: ScalarField, factor: float):
        self.base = base
        self.factor = float(factor)
        self.dim = base.dim
        self.domain = base.domain
        self.name = f"scaled({base.name},{factor})"

    def values(self, X):
        return self.factor * self.base.values(X)

    def jets(self, X):
        u, du, ddu = self.base.jets(X)
        return self.factor * u, self.factor * du, self.factor * ddu

    def margin(self, x):
        return self.base.margin(x)


def write_grid(grid, path) -> None:
    """Write a GridField in the format GridField.read parses: the header
    "n,h,origin...,counts...", then one sample per line in row-major (C)
    order."""
    header = [repr(grid.dim), repr(grid.h)]
    header += [repr(float(v)) for v in grid.origin]
    header += [repr(int(c)) for c in grid.samples.shape]
    lines = [",".join(header)]
    lines += [repr(float(v)) for v in grid.samples.ravel(order="C")]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
