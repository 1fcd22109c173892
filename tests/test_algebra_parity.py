"""Parity of the expression functions with frozen reference copies.

The reference functions below are the type switches that spelled out every
atom's rank, text and JSON tag branch by branch.  The library now reads the
rank from one ordered tuple and the text and tag of the atoms without
parameters from one table; on random trees both must agree with ==.
"""

from __future__ import annotations

import random

from ratmap import algebra
from ratmap.algebra import (
    BunceDeddens,
    CantorAlg,
    CircleAlg,
    Compacts,
    CompactsOn,
    DirectSum,
    Expr,
    FinitePower,
    IrrationalRotation,
    MappingTorus,
    Matrix,
    NamedUnknown,
    OpaqueSimple,
    RealsC0,
    Scalars,
    Tensor,
    TorusAlg2,
    Zero,
    collect_labels,
    dimension,
    expr_to_json,
    normalize,
    render,
)

from .test_algebra import ATOMS, random_expr

ref_ATOM_ORDER = {
    Scalars: 0,
    CantorAlg: 1,
    CircleAlg: 2,
    TorusAlg2: 3,
    RealsC0: 4,
    Matrix: 5,
    Compacts: 6,
    CompactsOn: 7,
    BunceDeddens: 8,
    MappingTorus: 9,
    IrrationalRotation: 10,
    OpaqueSimple: 11,
    NamedUnknown: 12,
    Zero: 13,
}


def ref_sort_key(e: Expr):
    t = type(e)
    if t in ref_ATOM_ORDER:
        if t is Matrix:
            return (0, ref_ATOM_ORDER[t], e.n, "")
        if t is CompactsOn:
            return (0, ref_ATOM_ORDER[t], e.exposed_size or 0, e.label)
        if t is BunceDeddens or t is MappingTorus:
            return (0, ref_ATOM_ORDER[t], e.d, "")
        if t is IrrationalRotation:
            return (0, ref_ATOM_ORDER[t], e.theta, e.theta_label or "")
        if t is OpaqueSimple:
            return (0, ref_ATOM_ORDER[t], 0, e.tag)
        if t is NamedUnknown:
            return (0, ref_ATOM_ORDER[t], 0, e.label)
        return (0, ref_ATOM_ORDER[t], 0, "")
    if t is FinitePower:
        return (1, e.k) + ref_sort_key(e.base)
    if t is Tensor:
        return (2, len(e.factors)) + tuple(ref_sort_key(f) for f in e.factors)
    if t is DirectSum:
        return (3, len(e.summands)) + tuple(ref_sort_key(s) for s in e.summands)
    raise TypeError(f"not an expression: {e!r}")


def ref_normalize(e: Expr) -> Expr:
    """Canonical form; idempotent, and invariant under child reordering."""
    t = type(e)
    if t is CompactsOn:
        if e.exposed_size is not None:
            return ref_normalize(Matrix(e.exposed_size)) if e.exposed_size > 1 else Scalars()
        return Compacts()
    if t is Matrix:
        return Scalars() if e.n == 1 else e
    if t in (Zero, Scalars, CircleAlg, CantorAlg, TorusAlg2, RealsC0,
             Compacts, BunceDeddens, MappingTorus, IrrationalRotation,
             OpaqueSimple, NamedUnknown):
        return e
    if t is FinitePower:
        base = ref_normalize(e.base)
        if e.k == 1:
            return base
        return ref_normalize(DirectSum([e.base] * e.k))
    if t is DirectSum:
        flat = []
        for s in e.summands:
            ns = ref_normalize(s)
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
        return DirectSum(sorted(flat, key=ref_sort_key))
    if t is Tensor:
        flat = []
        for f in e.factors:
            nf = ref_normalize(f)
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
                return ref_normalize(
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
        return Tensor(sorted(atoms, key=ref_sort_key))
    raise TypeError(f"not an expression: {e!r}")


def ref_dimension(e: Expr):
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
    if t is FinitePower:
        d = ref_dimension(e.base)
        return None if d is None else e.k * d
    if t is Tensor:
        total = 1
        for f in e.factors:
            d = ref_dimension(f)
            if d is None:
                return None
            total *= d
        return total
    if t is DirectSum:
        total = 0
        for s in e.summands:
            d = ref_dimension(s)
            if d is None:
                return None
            total += d
        return total
    return None


def ref_render(e: Expr) -> str:
    """ASCII rendering; tensor is (x), direct sum is (+)."""
    t = type(e)
    if t is Zero:
        return "0"
    if t is Scalars:
        return "C"
    if t is Matrix:
        return f"M_{e.n}"
    if t is CircleAlg:
        return "C(T)"
    if t is CantorAlg:
        return "C(K)"
    if t is TorusAlg2:
        return "C(T^2)"
    if t is RealsC0:
        return "C_0(R)"
    if t is Compacts:
        return "K"
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
        base = ref_render(e.base)
        if isinstance(e.base, Scalars):
            return f"C^{e.k}"
        return f"({base})^(+{e.k})"
    if t is Tensor:
        parts = []
        for f in e.factors:
            s = ref_render(f)
            if isinstance(f, (DirectSum,)):
                s = f"({s})"
            parts.append(s)
        return " (x) ".join(parts)
    if t is DirectSum:
        if not e.summands:
            return "0"
        if len(e.summands) == 1:
            return ref_render(e.summands[0])
        parts = []
        for s in e.summands:
            txt = ref_render(s)
            if isinstance(s, (Tensor, DirectSum)):
                txt = f"({txt})"
            parts.append(txt)
        return " (+) ".join(parts)
    raise TypeError(f"not an expression: {e!r}")


def ref_expr_to_json(e: Expr):
    t = type(e)
    if t is Zero:
        return {"atom": "zero"}
    if t is Scalars:
        return {"atom": "scalars"}
    if t is Matrix:
        return {"atom": "matrix", "n": e.n}
    if t is CircleAlg:
        return {"atom": "circle"}
    if t is CantorAlg:
        return {"atom": "cantor"}
    if t is TorusAlg2:
        return {"atom": "torus2"}
    if t is RealsC0:
        return {"atom": "reals_c0"}
    if t is Compacts:
        return {"atom": "compacts"}
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
        return {"op": "finite_power", "k": e.k, "base": ref_expr_to_json(e.base)}
    if t is Tensor:
        return {"op": "tensor", "factors": [ref_expr_to_json(f) for f in e.factors]}
    if t is DirectSum:
        return {"op": "direct_sum", "summands": [ref_expr_to_json(s) for s in e.summands]}
    raise TypeError(f"not an expression: {e!r}")


def ref_collect_labels(e: Expr, out=None):
    """All CompactsOn labels in a tree; the structural audit uses this."""
    if out is None:
        out = []
    if isinstance(e, CompactsOn):
        out.append(e.label)
    elif isinstance(e, Tensor):
        for f in e.factors:
            ref_collect_labels(f, out)
    elif isinstance(e, DirectSum):
        for s in e.summands:
            ref_collect_labels(s, out)
    elif isinstance(e, FinitePower):
        ref_collect_labels(e.base, out)
    return out


PARITY_ATOMS = ATOMS + [
    Zero(),
    NamedUnknown("C*_r(J_R)"),
    IrrationalRotation(0.6180339887498949, "golden"),
    CompactsOn("0", 1),
    CompactsOn("inf", None),
    CompactsOn("1/2+i", 3),
]


def test_expression_functions_match_the_reference_type_switches():
    rng = random.Random(20240811)
    seen = set()
    for _ in range(2000):
        e = random_expr(rng, atoms=PARITY_ATOMS)
        n = normalize(e)
        assert n == ref_normalize(e)
        for tree in (e, n):
            assert algebra._sort_key(tree) == ref_sort_key(tree)
            assert dimension(tree) == ref_dimension(tree)
            assert render(tree) == ref_render(tree)
            assert expr_to_json(tree) == ref_expr_to_json(tree)
            assert collect_labels(tree) == ref_collect_labels(tree)
            seen.update(type(a) for a in _atoms(tree))
    assert seen == set(ref_ATOM_ORDER)


def _atoms(e):
    if isinstance(e, Tensor):
        return [a for f in e.factors for a in _atoms(f)]
    if isinstance(e, DirectSum):
        return [a for s in e.summands for a in _atoms(s)]
    if isinstance(e, FinitePower):
        return _atoms(e.base)
    return [e]
