"""Two reports equal up to rounding.

A change that moves only the last digits of floating values (a new root
solver, a reordered sum) must leave every report equal to its old self up
to rounding.  report_differences states that check on two report
documents: they agree when they have the same shape (shape: every key,
length, integer, exact scalar and string, with each floating value replaced
by "F") and each floating value lies within TOLERANCE of its counterpart.
The shape holds the classifications, the critical fates (kind, cycle id,
steps), the asymptotic valencies, the warning codes and the algebra with
its floating labels normalized.  A floating value is close to its
counterpart within TOLERANCE, chordally or relative to max(1, |value|).

A cycle's points may start at another of its points: the first is the
least under sphere.point_sort_key, which rounding may change.  A multiple
fixed point is determined to about eps^(1/m) only, and so is the
multiplier there.  The cycles classified rationally indifferent or
indifferent ambiguous may be multiple fixed points of some R^p, so their
points and multipliers, and each floating value that equals one of them,
need only lie within MULTIPLE_POINT_TOLERANCE.
"""

from __future__ import annotations

import re

from ratmap.errors import RatmapError
from ratmap.scalars import parse_scalar

TOLERANCE = 1e-9
MULTIPLE_POINT_TOLERANCE = 1e-6

# a floating scalar written inside a longer string, such as the label
# "K_[0.03+0.75i]" or "RO({-2.0, 2.0})"; exact ones such as "-1/8+3/8i" have
# no decimal point or exponent
_DECIMAL = r"(?:\d+\.\d*(?:e[-+]?\d+)?|\.\d+(?:e[-+]?\d+)?|\d+e[-+]?\d+)"
_FLOATING_LITERAL = re.compile(rf"[-+]?{_DECIMAL}(?:[-+]{_DECIMAL}i)?i?")


def _floating(node):
    """(template, values): a floating leaf with each floating value as "F", or None.

    Floating values are the non-integer JSON numbers, the strings that
    parse_scalar reads as floating scalars, and floating scalars written
    inside other strings; exact strings such as "1/2" or "inf" are not.
    """
    if isinstance(node, float):
        return "F", [complex(node)]
    if not isinstance(node, str):
        return None
    try:
        value = parse_scalar(node)
    except RatmapError:
        literals = _FLOATING_LITERAL.findall(node)
        if not literals:
            return None
        return _FLOATING_LITERAL.sub("F", node), [complex(parse_scalar(x)) for x in literals]
    return ("F", [value]) if isinstance(value, complex) else None


def shape(node):
    """The report document with every floating value replaced by "F"."""
    if isinstance(node, dict):
        return {k: shape(v) for k, v in node.items()}
    if isinstance(node, list):
        return [shape(v) for v in node]
    floating = _floating(node)
    return node if floating is None else floating[0]


def _chordal(a: complex, b: complex) -> float:
    return 2.0 * abs(a - b) / ((1.0 + abs(a) ** 2) ** 0.5 * (1.0 + abs(b) ** 2) ** 0.5)


def _close(a: complex, b: complex, tol: float) -> bool:
    return _chordal(a, b) <= tol or abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _multiple_values(report) -> set:
    """The floating points and multipliers of the indifferent cycles of a report document."""
    values = set()
    for cycle in report["cycles"]:
        if cycle["classification"] in ("rationally_indifferent", "indifferent_ambiguous"):
            for x in cycle["points"] + [cycle["multiplier"]]:
                floating = _floating(x)
                if floating is not None:
                    values.update(floating[1])
    return values


def _distance(x: str, y: str) -> float:
    """The chordal distance between two points of a report, infinite where one is "inf"."""
    if x == y:
        return 0.0
    if "inf" in (x, y):
        return float("inf")
    return _chordal(complex(parse_scalar(x)), complex(parse_scalar(y)))


def _rotated_like(a, b):
    """b with each cycle's points rotated to start at the point nearest a's first point."""
    cycles = []
    for ca, cb in zip(a["cycles"], b["cycles"]):
        points = cb["points"]
        if ca["points"] and len(points) > 1:
            k = min(range(len(points)), key=lambda i: _distance(ca["points"][0], points[i]))
            cb = dict(cb, points=points[k:] + points[:k])
        cycles.append(cb)
    return dict(b, cycles=cycles + b["cycles"][len(cycles):])


def report_differences(a, b) -> list:
    """Where two report documents differ beyond rounding, one message each; [] when they agree."""
    multiple = _multiple_values(a) | _multiple_values(b)
    out = []
    _compare(a, _rotated_like(a, b), "", multiple, out)
    return out


def _compare(x, y, path, multiple, out):
    if isinstance(x, dict) and isinstance(y, dict):
        if list(x) != list(y):
            out.append(f"{path}: keys {list(x)} against {list(y)}")
            return
        for key in x:
            _compare(x[key], y[key], f"{path}/{key}", multiple, out)
    elif isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            out.append(f"{path}: {len(x)} entries against {len(y)}")
            return
        for i, (u, v) in enumerate(zip(x, y)):
            _compare(u, v, f"{path}/{i}", multiple, out)
    elif x != y or type(x) is not type(y):
        fx, fy = _floating(x), _floating(y)
        if fx is None or fy is None or fx[0] != fy[0]:
            out.append(f"{path}: {x!r} against {y!r}")
            return
        for u, v in zip(fx[1], fy[1]):
            tol = MULTIPLE_POINT_TOLERANCE if u in multiple or v in multiple else TOLERANCE
            if not _close(u, v, tol):
                out.append(f"{path}: {x!r} against {y!r}")
                return
