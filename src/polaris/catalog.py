"""Built-in desk-scale spaces.

Every preset embeds its spec text verbatim, so `--preset NAME` is
exactly `--spec <file with that text>`.  Built spaces are cached; they
are immutable, so sharing is safe.
"""

from __future__ import annotations

import os

from .errors import UsageError
from .polar import DEFAULT_POINT_CAP
from .specfile import build_space_from_spec, parse_spec

PRESETS = {
    # symplectic generalized quadrangle over GF(2): 15 points, 15 lines
    "W3_2": """\
field p=2 k=1
form kind=alternating dim=4
row 0 1 0 0
row 1 0 0 0
row 0 0 0 1
row 0 0 1 0
""",
    # symplectic generalized quadrangle over GF(3): 40 points, 40 lines
    "Sp4_3": """\
field p=3 k=1
form kind=alternating dim=4
row 0 1 0 0
row 2 0 0 0
row 0 0 0 1
row 0 0 2 0
""",
    # parabolic quadric x0^2 + x1 x2 + x3 x4 over GF(2): 15 points, 15 lines
    "Q4_2": """\
field p=2 k=1
form kind=quadratic dim=5
row 1 0 0 0 0
row 0 0 1 0 0
row 0 0 0 0 0
row 0 0 0 0 1
row 0 0 0 0 0
""",
    # parabolic quadric over GF(3): 40 points, 40 lines
    "Q4_3": """\
field p=3 k=1
form kind=quadratic dim=5
row 1 0 0 0 0
row 0 0 1 0 0
row 0 0 0 0 0
row 0 0 0 0 1
row 0 0 0 0 0
""",
    # elliptic quadric x0^2+x0x1+x1^2 + x2x3 + x4x5 over GF(2): 27 points
    "Qm5_2": """\
field p=2 k=1
form kind=quadratic dim=6
row 1 1 0 0 0 0
row 0 1 0 0 0 0
row 0 0 0 1 0 0
row 0 0 0 0 0 0
row 0 0 0 0 0 1
row 0 0 0 0 0 0
""",
    # hyperbolic quadric x0x1 + x2x3 + x4x5 over GF(2): 35 points
    "Qp5_2": """\
field p=2 k=1
form kind=quadratic dim=6
row 0 1 0 0 0 0
row 0 0 0 0 0 0
row 0 0 0 1 0 0
row 0 0 0 0 0 0
row 0 0 0 0 0 1
row 0 0 0 0 0 0
""",
    # hermitian generalized quadrangle over GF(4): 45 points, 27 lines
    "H3_4": """\
field p=2 k=2
form kind=hermitian dim=4
row 1 0 0 0
row 0 1 0 0
row 0 0 1 0
row 0 0 0 1
""",
    # hermitian polar space over GF(4) in dimension 5: 165 points
    "H4_4": """\
field p=2 k=2
form kind=hermitian dim=5
row 1 0 0 0 0
row 0 1 0 0 0
row 0 0 1 0 0
row 0 0 0 1 0
row 0 0 0 0 1
""",
    # rank-3 parabolic quadric over GF(2): 63 points
    "Q6_2": """\
field p=2 k=1
form kind=quadratic dim=7
row 1 0 0 0 0 0 0
row 0 0 1 0 0 0 0
row 0 0 0 0 0 0 0
row 0 0 0 0 1 0 0
row 0 0 0 0 0 0 0
row 0 0 0 0 0 0 1
row 0 0 0 0 0 0 0
""",
    # rank-3 symplectic space over GF(2): 63 points
    "W5_2": """\
field p=2 k=1
form kind=alternating dim=6
row 0 1 0 0 0 0
row 1 0 0 0 0 0
row 0 0 0 1 0 0
row 0 0 1 0 0 0
row 0 0 0 0 0 1
row 0 0 0 0 1 0
""",
    # grid: hyperbolic quadric x0x1 + x2x3 over GF(2), 9 points on 6 lines
    "Qp3_2": """\
field p=2 k=1
form kind=quadratic dim=4
row 0 1 0 0
row 0 0 0 0
row 0 0 0 1
row 0 0 0 0
""",
    # grid of order 5 (lines of size 5): hyperbolic quadric over GF(4)
    "Qp3_4": """\
field p=2 k=2
form kind=quadratic dim=4
row 0 1 0 0
row 0 0 0 0
row 0 0 0 1
row 0 0 0 0
""",
}

ALIASES = {
    "W3_3": "Sp4_3",
}

_SPACE_CACHE: dict = {}


def preset_names():
    return tuple(PRESETS)


def resolve_preset(name: str) -> str:
    key = ALIASES.get(name, name)
    if key not in PRESETS:
        known = ", ".join(sorted(PRESETS) + sorted(ALIASES))
        raise UsageError(f"unknown preset {name!r}; known presets: {known}")
    return key


def preset_text(name: str) -> str:
    return PRESETS[resolve_preset(name)]


def point_cap() -> int:
    """Point-count cap, overridable through POLARIS_POINT_CAP."""
    raw = os.environ.get("POLARIS_POINT_CAP")
    if raw is None:
        return DEFAULT_POINT_CAP
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"POLARIS_POINT_CAP must be an integer, got {raw!r}")


def build_preset(name: str, cap: int | None = None):
    """The built preset, cached per name and resolved point cap."""
    key = resolve_preset(name)
    cap = point_cap() if cap is None else cap
    if (key, cap) not in _SPACE_CACHE:
        spec = parse_spec(PRESETS[key])
        _SPACE_CACHE[key, cap] = build_space_from_spec(spec, cap=cap, label=key)
    return _SPACE_CACHE[key, cap]
