"""Symbolic operator-algebra expressions and their synthesis from dynamics.

The expression language covers exactly the building blocks the structure
theory emits: scalars, matrix algebras, continuous functions on the circle,
torus, Cantor set and real line, compact operators (plain or indexed by a
restricted orbit), Bunce-Deddens algebras, the mapping torus of their
canonical endomorphism, irrational rotation algebras, and opaque simple
algebras known only by their properties.  Combinators are tensor products,
direct sums and finite powers C^k.

normalize() produces a canonical form: a direct sum of sorted tensor words,
with Matrix(1)/C^1 elided, Matrix merged under tensor, compacts absorbing
matrix factors and itself, and C^k distributed as a k-fold direct sum.
Only isomorphism-preserving identities are used; stable isomorphisms
(e.g. absorbing a compact factor) are deliberately not applied, so printed
formulas stay in the shape the structure theorems give them.

Each atom's canonical rank is its index in _ATOMS.  The text and JSON tag
of the seven atoms without parameters live in _PLAIN_ATOMS; render() and
expr_to_json() spell out only the atoms with parameters and the
combinators, whose operands _children() lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class Expr:
    """Base class; nodes are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Zero(Expr):
    pass


@dataclass(frozen=True)
class Scalars(Expr):
    """The complex numbers, the tensor unit."""


@dataclass(frozen=True)
class Matrix(Expr):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix size must be >= 1")


@dataclass(frozen=True)
class CircleAlg(Expr):
    """C(T), continuous functions on the circle."""


@dataclass(frozen=True)
class CantorAlg(Expr):
    """C(K), continuous functions on the Cantor set."""


@dataclass(frozen=True)
class TorusAlg2(Expr):
    """C(T^2), continuous functions on the 2-torus."""


@dataclass(frozen=True)
class RealsC0(Expr):
    """C_0(R), functions vanishing at infinity on the line."""


@dataclass(frozen=True)
class Compacts(Expr):
    """K, compact operators on a separable infinite-dimensional space."""


@dataclass(frozen=True)
class CompactsOn(Expr):
    """Compacts on l^2 of a restricted orbit: Matrix(#orbit) when the orbit
    is finite (exposed), plain compacts otherwise.  Resolution happens in
    normalize(); the unresolved form keeps the label for display."""

    label: str
    exposed_size: int | None


@dataclass(frozen=True)
class BunceDeddens(Expr):
    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("Bunce-Deddens type needs d >= 2")

    def k_theory(self):
        return {"K0": f"Z[1/{self.d}] (ordered, unit 1)", "K1": "Z"}


@dataclass(frozen=True)
class MappingTorus(Expr):
    """Mapping torus of the canonical endomorphism on BD(d^inf)."""

    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("mapping torus type needs d >= 2")


@dataclass(frozen=True)
class IrrationalRotation(Expr):
    theta: float
    theta_label: str | None = None


@dataclass(frozen=True)
class OpaqueSimple(Expr):
    tag: str
    attributes: tuple = ()


@dataclass(frozen=True)
class NamedUnknown(Expr):
    label: str


@dataclass(frozen=True)
class Tensor(Expr):
    factors: tuple

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(factors))
        if not self.factors:
            raise ValueError("tensor needs at least one factor")


@dataclass(frozen=True)
class DirectSum(Expr):
    summands: tuple

    def __init__(self, summands):
        object.__setattr__(self, "summands", tuple(summands))


@dataclass(frozen=True)
class FinitePower(Expr):
    """base + base + ... (k copies); FinitePower(Scalars, k) is C^k."""

    base: Expr
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("finite power needs k >= 1")


# Canonical rank of each atom is its index here: normalize() sorts sums and
# tensor words by it, so the order is part of every printed formula.
_ATOMS = (
    Scalars, CantorAlg, CircleAlg, TorusAlg2, RealsC0, Matrix, Compacts,
    CompactsOn, BunceDeddens, MappingTorus, IrrationalRotation, OpaqueSimple,
    NamedUnknown, Zero,
)

# Text and JSON tag of the atoms without parameters.
_PLAIN_ATOMS = {
    Zero: ("0", "zero"),
    Scalars: ("C", "scalars"),
    CircleAlg: ("C(T)", "circle"),
    CantorAlg: ("C(K)", "cantor"),
    TorusAlg2: ("C(T^2)", "torus2"),
    RealsC0: ("C_0(R)", "reals_c0"),
    Compacts: ("K", "compacts"),
}


def _children(e: Expr) -> tuple:
    """The operands of a combinator; () for an atom."""
    t = type(e)
    if t is Tensor:
        return e.factors
    if t is DirectSum:
        return e.summands
    if t is FinitePower:
        return (e.base,)
    return ()


def _sort_key(e: Expr):
    t = type(e)
    if t is FinitePower:
        return (1, e.k) + _sort_key(e.base)
    if t is Tensor or t is DirectSum:
        kids = _children(e)
        return (2 if t is Tensor else 3, len(kids)) + tuple(_sort_key(k) for k in kids)
    if t not in _ATOMS:
        raise TypeError(f"not an expression: {e!r}")
    rank = _ATOMS.index(t)
    if t is Matrix:
        return (0, rank, e.n, "")
    if t is CompactsOn:
        return (0, rank, e.exposed_size or 0, e.label)
    if t is BunceDeddens or t is MappingTorus:
        return (0, rank, e.d, "")
    if t is IrrationalRotation:
        return (0, rank, e.theta, e.theta_label or "")
    if t is OpaqueSimple:
        return (0, rank, 0, e.tag)
    if t is NamedUnknown:
        return (0, rank, 0, e.label)
    return (0, rank, 0, "")


def normalize(e: Expr) -> Expr:
    """Canonical form; idempotent, and invariant under child reordering."""
    t = type(e)
    if t is CompactsOn:
        if e.exposed_size is not None:
            return normalize(Matrix(e.exposed_size)) if e.exposed_size > 1 else Scalars()
        return Compacts()
    if t is Matrix:
        return Scalars() if e.n == 1 else e
    if t in _ATOMS:
        return e
    if t is FinitePower:
        base = normalize(e.base)
        if e.k == 1:
            return base
        return normalize(DirectSum([e.base] * e.k))
    if t is DirectSum:
        flat = []
        for s in e.summands:
            ns = normalize(s)
            if isinstance(ns, DirectSum):
                flat.extend(ns.summands)
            elif isinstance(ns, Zero):
                continue
            else:
                flat.append(ns)
        if not flat:
            return Zero()
        if len(flat) == 1:
            return flat[0]
        return DirectSum(sorted(flat, key=_sort_key))
    if t is Tensor:
        flat = []
        for f in e.factors:
            nf = normalize(f)
            if isinstance(nf, Tensor):
                flat.extend(nf.factors)
            elif isinstance(nf, Zero):
                return Zero()
            else:
                flat.append(nf)
        # distribute over direct sums: canonical form is a sum of tensor words
        for i, f in enumerate(flat):
            if isinstance(f, DirectSum):
                rest = flat[:i] + flat[i + 1:]
                return normalize(
                    DirectSum([Tensor([s] + rest) for s in f.summands])
                )
        matrix_product = 1
        has_compacts = False
        atoms = []
        for f in flat:
            if isinstance(f, Scalars):
                continue
            if isinstance(f, Matrix):
                matrix_product *= f.n
                continue
            if isinstance(f, Compacts):
                has_compacts = True
                continue
            atoms.append(f)
        if has_compacts:
            atoms.append(Compacts())  # compacts absorb matrix factors and itself
        elif matrix_product > 1:
            atoms.append(Matrix(matrix_product))
        if not atoms:
            return Scalars()
        if len(atoms) == 1:
            return atoms[0]
        return Tensor(sorted(atoms, key=_sort_key))
    raise TypeError(f"not an expression: {e!r}")


def dimension(e: Expr):
    """Linear dimension for finite-dimensional trees, None when infinite."""
    t = type(e)
    if t is Zero:
        return 0
    if t is Scalars:
        return 1
    if t is Matrix:
        return e.n * e.n
    if t is CompactsOn:
        return e.exposed_size**2 if e.exposed_size is not None else None
    if t not in (FinitePower, Tensor, DirectSum):
        return None
    dims = [dimension(k) for k in _children(e)]
    if None in dims:
        return None
    if t is FinitePower:
        return e.k * dims[0]
    return math.prod(dims) if t is Tensor else sum(dims)


def render(e: Expr) -> str:
    """ASCII rendering; tensor is (x), direct sum is (+)."""
    t = type(e)
    if t in _PLAIN_ATOMS:
        return _PLAIN_ATOMS[t][0]
    if t is Matrix:
        return f"M_{e.n}"
    if t is CompactsOn:
        return f"K_[{e.label}]"
    if t is BunceDeddens:
        return f"BD({e.d}^inf)"
    if t is MappingTorus:
        return f"MT_{e.d}"
    if t is IrrationalRotation:
        return "A_theta"
    if t is OpaqueSimple:
        return e.tag
    if t is NamedUnknown:
        return e.label
    if t is FinitePower:
        base = render(e.base)
        if isinstance(e.base, Scalars):
            return f"C^{e.k}"
        return f"({base})^(+{e.k})"
    if t is Tensor:
        parts = []
        for f in e.factors:
            s = render(f)
            if isinstance(f, (DirectSum,)):
                s = f"({s})"
            parts.append(s)
        return " (x) ".join(parts)
    if t is DirectSum:
        if not e.summands:
            return "0"
        if len(e.summands) == 1:
            return render(e.summands[0])
        parts = []
        for s in e.summands:
            txt = render(s)
            if isinstance(s, (Tensor, DirectSum)):
                txt = f"({txt})"
            parts.append(txt)
        return " (+) ".join(parts)
    raise TypeError(f"not an expression: {e!r}")


def expr_to_json(e: Expr):
    t = type(e)
    if t in _PLAIN_ATOMS:
        return {"atom": _PLAIN_ATOMS[t][1]}
    if t is Matrix:
        return {"atom": "matrix", "n": e.n}
    if t is CompactsOn:
        return {"atom": "compacts_on", "label": e.label, "exposed_size": e.exposed_size}
    if t is BunceDeddens:
        return {"atom": "bunce_deddens", "d": e.d, "k_theory": e.k_theory()}
    if t is MappingTorus:
        return {"atom": "mapping_torus", "d": e.d}
    if t is IrrationalRotation:
        out = {"atom": "irrational_rotation", "theta": e.theta}
        if e.theta_label:
            out["theta_label"] = e.theta_label
        return out
    if t is OpaqueSimple:
        return {"atom": "opaque_simple", "tag": e.tag, "attributes": list(e.attributes)}
    if t is NamedUnknown:
        return {"unknown": e.label}
    if t is FinitePower:
        return {"op": "finite_power", "k": e.k, "base": expr_to_json(e.base)}
    if t is Tensor:
        return {"op": "tensor", "factors": [expr_to_json(f) for f in e.factors]}
    if t is DirectSum:
        return {"op": "direct_sum", "summands": [expr_to_json(s) for s in e.summands]}
    raise TypeError(f"not an expression: {e!r}")


def collect_labels(e: Expr, out=None):
    """All CompactsOn labels in a tree; the structural audit uses this."""
    if out is None:
        out = []
    if isinstance(e, CompactsOn):
        out.append(e.label)
    for k in _children(e):
        collect_labels(k, out)
    return out


# -- extensions and diagrams -----------------------------------------------


@dataclass
class ExtensionSeq:
    """0 -> ideal -> total -> quotient -> 0.  Exactness is a consumed fact,
    recorded, never checked here."""

    ideal: Expr
    total: Expr
    quotient: Expr
    label: str = ""
    collapsed: bool = False

    def render(self) -> str:
        if self.collapsed:
            text = render(self.total)
            if isinstance(self.total, OpaqueSimple) and self.total.attributes:
                text += " [" + ", ".join(self.total.attributes) + "]"
            return text
        return (
            f"0 -> {render(self.ideal)} -> {render(self.total)} -> "
            f"{render(self.quotient)} -> 0"
        )

    def to_json(self):
        return {
            "label": self.label,
            "ideal": expr_to_json(self.ideal),
            "total": expr_to_json(self.total),
            "quotient": expr_to_json(self.quotient),
            "collapsed": self.collapsed,
            "text": self.render(),
            "quotient_normal_text": render(normalize(self.quotient)),
        }


@dataclass
class SixSquare:
    """3x3 commuting grid with exact rows and columns; the corner entries
    are the four synthesized corner algebras."""

    grid: list  # 3 rows of 3 Expr
    row_labels: tuple = ("F_R \\ I_c row", "C*_r(R) row", "I_c row")
    col_labels: tuple = ("F_R \\ I_p column", "middle column", "J_R column")

    @property
    def corners(self):
        return {
            "fatou_free": self.grid[0][0],
            "iota_p": self.grid[0][2],
            "iota_c": self.grid[2][0],
            "julia": self.grid[2][2],
        }

    def render(self) -> str:
        cells = [[render(c) for c in row] for row in self.grid]
        widths = [max(len(cells[r][c]) for r in range(3)) for c in range(3)]
        lines = []
        for r in range(3):
            line = "   ".join(cells[r][c].ljust(widths[c]) for c in range(3))
            lines.append(line.rstrip())
            if r < 2:
                lines.append("")
        return "\n".join(lines)

    def to_json(self):
        return {
            "grid": [[expr_to_json(c) for c in row] for row in self.grid],
            "corners": {k: expr_to_json(v) for k, v in self.corners.items()},
            "text": self.render(),
        }


@dataclass
class CaseIvDiagram:
    """The quotient picture for a primitive ideal with free-orbit co-support:
    the top algebra (the primitive quotient of the region ideal) and the
    exact rows tying it to the Julia quotient."""

    region_kind: str
    top: Expr
    rows: list  # ExtensionSeq

    def to_json(self):
        return {
            "region_kind": self.region_kind,
            "top": expr_to_json(self.top),
            "rows": [row.to_json() for row in self.rows],
        }

    def render(self) -> str:
        return "\n".join(row.render() for row in self.rows)
