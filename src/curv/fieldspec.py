"""Field specification mini-language.

Format: ``name[:param[,param]]``. Built-ins:

* ``paraboloid[:scale]``         u = scale |x|^2 / 2
* ``cup:c1,...,cn``              u = sum c_k x_k^2 / 2  (dim from the list)
* ``plane:c1,...,cn``            u = sum c_k x_k        (dim from the list)
* ``sphere-cap:radius[,height]`` upper cap of a round sphere
* ``hemisphere:radius``          sphere-cap with height 0
* ``constant:c``                 u = c
* ``poly:c1,c2,...``             coefficients against graded-lex monomials
* ``trig:seed[,modes]`` (alias ``random:seed``)  seeded trigonometric field
* ``radial:<profile>[:<a>]``     revolution profiles S-u, S-v, E-f (dim 2)
* ``grid:<path>``                sampled grid file (see GridField)

The ``dim`` argument applies to specs that do not fix their own dimension.
"""
from __future__ import annotations

import itertools

from .fields import (
    Constant,
    GridField,
    Paraboloid,
    Plane,
    PolynomialField,
    QuadraticCup,
    ScalarField,
    SphereCap,
    random_trig_field,
)
from .revolution import RevolutionProfile, radial_field


def graded_lex_monomials(dim: int, count: int) -> list[tuple[int, ...]]:
    """First `count` exponent tuples ordered by total degree, then reverse
    lexicographically within a degree: 1; x, y; x^2, xy, y^2; ..."""
    out: list[tuple[int, ...]] = []
    degree = 0
    while len(out) < count:
        level = [a for a in itertools.product(range(degree + 1), repeat=dim) if sum(a) == degree]
        out.extend(sorted(level, reverse=True))
        degree += 1
    return out[:count]


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def parse_field(spec: str, dim: int = 2) -> ScalarField:
    """Parse a field spec string; raises ValueError on malformed input."""
    spec = spec.strip()
    if not spec:
        raise ValueError("empty field spec")
    name, _, rest = spec.partition(":")
    name = name.strip().lower()

    if name == "paraboloid":
        scale = _floats(rest)[0] if rest else 1.0
        return Paraboloid(dim, scale)
    if name in ("sphere-cap", "spherecap"):
        params = _floats(rest)
        if not params:
            raise ValueError("sphere-cap needs a radius")
        height = params[1] if len(params) > 1 else 0.0
        return SphereCap(dim, params[0], height)
    if name == "hemisphere":
        params = _floats(rest)
        if not params:
            raise ValueError("hemisphere needs a radius")
        return SphereCap(dim, params[0], 0.0)
    if name == "cup":
        coeffs = _floats(rest)
        if not coeffs:
            raise ValueError("cup needs coefficients")
        return QuadraticCup(coeffs)
    if name == "plane":
        coeffs = _floats(rest)
        if not coeffs:
            raise ValueError("plane needs coefficients")
        return Plane(coeffs)
    if name == "constant":
        return Constant(dim, _floats(rest)[0] if rest else 0.0)
    if name == "poly":
        coeffs = _floats(rest)
        if not coeffs:
            raise ValueError("poly needs coefficients")
        monos = graded_lex_monomials(dim, len(coeffs))
        return PolynomialField(dim, list(zip(coeffs, monos)))
    if name in ("trig", "random"):
        try:
            params = [int(tok) for tok in rest.split(",") if tok.strip()] or [0]
        except ValueError:
            raise ValueError(f"{name} needs an integer seed and mode count, got {rest!r}") from None
        modes = params[1] if len(params) > 1 else 4
        if modes < 1:
            raise ValueError(f"{name} needs at least one mode, got {spec!r}")
        return random_trig_field(dim, params[0], modes=modes)
    if name == "radial":
        if dim != 2:
            raise ValueError(f"radial profiles are two-dimensional, got dim {dim}")
        kind, _, a_text = rest.partition(":")
        if not kind:
            raise ValueError("radial needs a profile kind, e.g. radial:S-u:0.5")
        a = float(a_text) if a_text else 0.5
        return radial_field(RevolutionProfile(kind, a))
    if name == "grid":
        if not rest:
            raise ValueError("grid needs a file path")
        return GridField.read(rest)
    raise ValueError(f"unknown field spec {spec!r}")
