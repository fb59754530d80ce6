"""Built-in desk-scale spaces.

A preset name reads as (family, projective dimension, q): `Q6_2` is the
parabolic quadric in PG(6, 2), and `Sp4_3` is the symplectic W(3, 3).
Each family's form is the standard one of Hirschfeld and Thas, *General
Galois Geometries* (1991), on coordinates x0 ... xn:

- W, symplectic: the gram of 2x2 blocks [[0, 1], [-1, 0]];
- Q, parabolic: x0^2 + x1 x2 + x3 x4 + ...;
- Qp, hyperbolic: x0 x1 + x2 x3 + ...;
- Qm, elliptic: x0^2 + x0 x1 + v x1^2 + x2 x3 + ..., with v the least
  element code for which t^2 + t + v has no root;
- H, hermitian: the identity gram.

Each preset's spec text is generated once, at import, and `--preset
NAME` is exactly `--spec` on `preset_text(NAME)`.  Built spaces are
cached; they are immutable, so sharing is safe.
"""

from __future__ import annotations

import os

from .errors import UsageError
from .field import field_make
from .polar import DEFAULT_POINT_CAP
from .specfile import SpaceSpec, build_space_from_spec, format_spec, parse_spec

PRESETS = {
    "W3_2": ("W", 3, 2),  # symplectic quadrangle: 15 points, 15 lines
    "Sp4_3": ("W", 3, 3),  # symplectic quadrangle: 40 points, 40 lines
    "Q4_2": ("Q", 4, 2),  # parabolic quadric: 15 points, 15 lines
    "Q4_3": ("Q", 4, 3),  # parabolic quadric: 40 points, 40 lines
    "Qm5_2": ("Qm", 5, 2),  # elliptic quadric: 27 points
    "Qp5_2": ("Qp", 5, 2),  # hyperbolic quadric: 35 points
    "H3_4": ("H", 3, 4),  # hermitian quadrangle: 45 points, 27 lines
    "H4_4": ("H", 4, 4),  # hermitian polar space: 165 points
    "Q6_2": ("Q", 6, 2),  # rank-3 parabolic quadric: 63 points
    "W5_2": ("W", 5, 2),  # rank-3 symplectic space: 63 points
    "Qp3_2": ("Qp", 3, 2),  # grid: 9 points on 6 lines
    "Qp3_4": ("Qp", 3, 4),  # grid of order 5: 25 points on 10 lines
}

ALIASES = {
    "W3_3": "Sp4_3",
}

_SPACE_CACHE: dict = {}


def _family_spec(family: str, n: int, q: int) -> SpaceSpec:
    """The standard form of `family` on PG(n, q), as a spec."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 1
    while p**k < q:
        k += 1
    F = field_make(p, k)
    dim = n + 1
    gram = [[0] * dim for _ in range(dim)]
    if family == "W":
        for i in range(0, dim, 2):
            gram[i][i + 1], gram[i + 1][i] = 1, F.neg(1)
    elif family == "H":
        for i in range(dim):
            gram[i][i] = 1
    else:
        # an anisotropic head on x0 (and x1), then hyperbolic pairs
        head = {"Qp": 0, "Q": 1, "Qm": 2}[family]
        if family == "Q":
            gram[0][0] = 1
        elif family == "Qm":
            nu = next(v for v in F.elements()
                      if all(F.add(F.mul(t, t), F.add(t, v)) for t in F.elements()))
            gram[0][0], gram[0][1], gram[1][1] = 1, 1, nu
        for i in range(head, dim, 2):
            gram[i][i + 1] = 1
    kind = {"W": "alternating", "H": "hermitian"}.get(family, "quadratic")
    return SpaceSpec(p, k, kind, dim, tuple(map(tuple, gram)))


_TEXTS = {name: format_spec(_family_spec(*args)) for name, args in PRESETS.items()}


def resolve_preset(name: str) -> str:
    key = ALIASES.get(name, name)
    if key not in PRESETS:
        known = ", ".join(sorted(PRESETS) + sorted(ALIASES))
        raise UsageError(f"unknown preset {name!r}; known presets: {known}")
    return key


def preset_text(name: str) -> str:
    return _TEXTS[resolve_preset(name)]


def point_cap() -> int:
    """Point-count cap, overridable through POLARIS_POINT_CAP."""
    raw = os.environ.get("POLARIS_POINT_CAP")
    if raw is None:
        return DEFAULT_POINT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # refused below, like any cap under 1
    if cap < 1:
        raise UsageError(f"POLARIS_POINT_CAP must be a positive integer, got {raw!r}")
    return cap


def build_preset(name: str):
    """The built preset, cached per name and resolved point cap."""
    key = resolve_preset(name)
    cap = point_cap()
    if (key, cap) not in _SPACE_CACHE:
        spec = parse_spec(preset_text(key))
        _SPACE_CACHE[key, cap] = build_space_from_spec(spec, cap=cap, label=key)
    return _SPACE_CACHE[key, cap]
