from __future__ import annotations

import random

import pytest

from ratmap.algebra import (
    BunceDeddens,
    CantorAlg,
    CircleAlg,
    Compacts,
    CompactsOn,
    DirectSum,
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
    dimension,
    normalize,
    render,
)


def test_normalize_examples():
    assert normalize(Tensor([Matrix(1), CircleAlg()])) == CircleAlg()
    assert normalize(Tensor([FinitePower(Scalars(), 2), Matrix(1)])) == DirectSum(
        [Scalars(), Scalars()]
    )
    assert normalize(Tensor([Matrix(2), Matrix(2)])) == Matrix(4)


def test_normalize_compacts_absorption():
    assert normalize(Tensor([Compacts(), Compacts()])) == Compacts()
    assert normalize(Tensor([Compacts(), Matrix(3)])) == Compacts()
    # but compacts do not absorb commutative factors
    out = normalize(Tensor([Compacts(), CantorAlg()]))
    assert out == Tensor([CantorAlg(), Compacts()])


def test_normalize_compacts_on_resolution():
    assert normalize(CompactsOn("x", 2)) == Matrix(2)
    assert normalize(CompactsOn("x", 1)) == Scalars()
    assert normalize(CompactsOn("x", None)) == Compacts()


def test_normalize_distributes_finite_powers():
    e = Tensor([Matrix(1), CircleAlg(), FinitePower(Scalars(), 2)])
    assert normalize(e) == DirectSum([CircleAlg(), CircleAlg()])


def test_render_ascii():
    assert render(Tensor([CircleAlg(), Matrix(2)])) == "C(T) (x) M_2"
    assert render(Tensor([Compacts(), MappingTorus(2)])) == "K (x) MT_2"
    assert render(DirectSum([Scalars(), Scalars()])) == "C (+) C"
    assert render(Zero()) == "0"
    e = DirectSum([CircleAlg(), CircleAlg(), Tensor([CircleAlg(), Matrix(2)])])
    assert render(e) == "C(T) (+) C(T) (+) (C(T) (x) M_2)"


def test_bd_k_theory_annotation():
    bd = BunceDeddens(2)
    assert bd.k_theory() == {"K0": "Z[1/2] (ordered, unit 1)", "K1": "Z"}


ATOMS = [
    Scalars(),
    Matrix(1),
    Matrix(2),
    Matrix(3),
    CircleAlg(),
    CantorAlg(),
    TorusAlg2(),
    RealsC0(),
    Compacts(),
    CompactsOn("a", 2),
    CompactsOn("b", None),
    BunceDeddens(2),
    MappingTorus(3),
    IrrationalRotation(0.5773502691896258),
    OpaqueSimple("Q", ("simple",)),
]


def random_expr(rng, depth=3, atoms=ATOMS):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(atoms)
    kind = rng.randrange(3)
    if kind == 0:
        return Tensor([random_expr(rng, depth - 1, atoms) for _ in range(rng.randint(1, 3))])
    if kind == 1:
        return DirectSum([random_expr(rng, depth - 1, atoms) for _ in range(rng.randint(1, 3))])
    return FinitePower(random_expr(rng, depth - 1, atoms), rng.randint(1, 3))


def shuffle_expr(e, rng):
    """Same expression with children permuted; normalize must not care."""
    if isinstance(e, Tensor):
        kids = [shuffle_expr(f, rng) for f in e.factors]
        rng.shuffle(kids)
        return Tensor(kids)
    if isinstance(e, DirectSum):
        kids = [shuffle_expr(s, rng) for s in e.summands]
        rng.shuffle(kids)
        return DirectSum(kids)
    if isinstance(e, FinitePower):
        return FinitePower(shuffle_expr(e.base, rng), e.k)
    return e


def test_normalize_idempotent_and_order_independent():
    rng = random.Random(42)
    for _ in range(1000):
        e = random_expr(rng)
        n1 = normalize(e)
        assert normalize(n1) == n1, f"not idempotent on {e}"
        n2 = normalize(shuffle_expr(e, rng))
        assert n2 == n1, f"order dependence on {e}"


def test_normalize_preserves_dimension_semantics():
    rng = random.Random(7)
    checked = 0
    for _ in range(1000):
        e = random_expr(rng)
        d = dimension(e)
        if d is None:
            continue
        assert dimension(normalize(e)) == d
        checked += 1
    assert checked > 100
