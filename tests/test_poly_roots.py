from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

import ratmap.roots
import ratmap.sphere
from ratmap.errors import MultiplicityAmbiguousError, RatmapError, RootFindingFailedError
from ratmap.poly import Polynomial
from ratmap.roots import (
    DEFAULT_CLUSTER_RADIUS,
    _cluster,
    _eval_scaled,
    _link_reach,
    _linked,
    find_roots,
    find_roots_many,
)
from ratmap.scalars import GaussianRational
from ratmap.sphere import DIRECT_MAX_POINTS, near_partners


def test_degree_and_normalization():
    p = Polynomial([0, 0, 1, 2])
    assert p.degree == 1
    assert Polynomial([0]).is_zero
    assert Polynomial([]).degree == -1


def test_arithmetic():
    p = Polynomial([1, -1])  # z - 1
    q = Polynomial([1, 1])  # z + 1
    assert (p * q) == Polynomial([1, 0, -1])
    assert (p + q) == Polynomial([2, 0])
    assert p.derivative() == Polynomial([1])


def test_equal_polynomials_hash_equal_and_print_their_coefficients():
    exact = Polynomial([1, 0, Fraction(-1, 2)])
    floating = Polynomial([1.0, 0.0, -0.5])
    assert exact == floating and hash(exact) == hash(floating)
    assert len({exact, floating, Polynomial([1, 0, -1])}) == 2
    assert repr(exact) == "Polynomial(['1', '0', '-1/2'])"
    assert repr(floating) == "Polynomial(['(1+0j)', '0j', '(-0.5+0j)'])"


def test_exact_divmod_and_gcd():
    p = Polynomial([1, 0, -1])  # z^2 - 1
    d = Polynomial([1, -1])
    q, r = p.divmod_exact(d)
    assert r.is_zero
    assert q == Polynomial([1, 1])
    g = p.gcd_exact(Polynomial([1, -2, 1]))  # gcd(z^2-1, (z-1)^2) = z-1
    assert g == Polynomial([1, -1])


# roots: oracle values from the quadratic formula


def test_roots_simple():
    roots = find_roots(Polynomial([1, 0, -1]))
    vals = sorted(complex(r).real for r, _, _ in roots)
    assert vals == pytest.approx([-1.0, 1.0])
    assert all(m == 1 for _, m, _ in roots)
    # exact snap
    assert all(isinstance(r, GaussianRational) for r, _, _ in roots)


def test_roots_fixed_point_polynomial_of_chebyshev():
    # z^2 - z - 2 = (z - 2)(z + 1), the degree-1 fixed-point polynomial data
    roots = find_roots(Polynomial([1, -1, -2]))
    got = sorted((complex(r).real, m) for r, m, _ in roots)
    assert got[0][0] == pytest.approx(-1.0)
    assert got[1][0] == pytest.approx(2.0)


def test_roots_double():
    # (z - 3)^2 expanded
    roots = find_roots(Polynomial([1, -6, 9]))
    assert len(roots) == 1
    r, m, res = roots[0]
    assert m == 2
    assert r == GaussianRational(3)
    assert res < 1e-9


def test_roots_high_degree_reconstruction():
    rng = random.Random(7)
    for _ in range(25):
        deg = rng.randint(3, 9)
        coeffs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(deg + 1)]
        while abs(coeffs[0]) < 0.1:
            coeffs[0] = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        p = Polynomial(coeffs)
        roots = find_roots(p)
        assert sum(m for _, m, _ in roots) == deg
        rebuilt = Polynomial.from_roots(
            [r for r, m, _ in roots for _ in range(m)], leading=coeffs[0]
        )
        scale = p.coeff_scale()
        for a, b in zip(p.coeffs, rebuilt.coeffs):
            assert abs(complex(a) - complex(b)) < 1e-6 * scale


def test_roots_exact_multiple_roots_with_rational_cluster():
    # (z - 1)^3 (z + 2)
    p = Polynomial([1, -2, 1]) * Polynomial([1, -2, 1]).gcd_exact(Polynomial([1, -2, 1]))
    p = Polynomial([1, -1]) * Polynomial([1, -1]) * Polynomial([1, -1]) * Polynomial([1, 2])
    roots = find_roots(p)
    as_map = {complex(r): m for r, m, _ in roots}
    assert as_map[complex(1, 0)] == 3
    assert as_map[complex(-2, 0)] == 1


def test_roots_zero_multiplicity_deflation():
    p = Polynomial([1, 0, 0, 0])  # z^3
    roots = find_roots(p)
    assert len(roots) == 1
    assert roots[0][1] == 3
    assert roots[0][0] == GaussianRational(0)


def test_roots_rejects_constants():
    with pytest.raises(ValueError):
        find_roots(Polynomial([5]))


def test_resultant_detects_common_roots():
    p = Polynomial([1.0, -3.0, 2.0])  # (z-1)(z-2)
    q = Polynomial([1.0, -1.0])  # z - 1
    assert p.resultant_magnitude(q) < 1e-12
    q2 = Polynomial([1.0, -4.0])
    assert p.resultant_magnitude(q2) > 1e-6


def test_scaled_residual_past_float_range():
    coeffs = np.array([1.0, 0.0, 1.0], dtype=complex)  # z^2 + 1
    for z in (3 + 4j, np.complex128(-2e100 + 1j), 0.5j):
        acc = (z * z + 1)
        assert _eval_scaled(coeffs, z) == abs(acc) / max(1.0, abs(z)) ** 2
    # |z|^2 overflows: |p(z)| / |z|^2 = |1 + 1/z^2|
    for z in (-2e200 + 0j, np.complex128(3e250j)):
        assert _eval_scaled(coeffs, z) == pytest.approx(1.0)


def _cluster_pairwise(points, radius, radii=None):
    """roots._cluster as it was before the pair screen: every pair through _linked."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if _linked(points, radius, radii, i, j):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted((sorted(idx) for idx in groups.values()), key=lambda g: g[0])


def _point_cloud(rng):
    """Clusters of spreads around both clustering radii, at magnitudes up to 1e200."""
    points = []
    for _ in range(rng.integers(2, 8)):
        center = complex(*rng.normal(size=2)) * 10.0 ** rng.choice([-3, 0, 2, 80, 160, 200])
        spread = 10.0 ** rng.uniform(-9, -3) * max(1.0, abs(center))
        points += [center + spread * complex(*rng.normal(size=2))
                   for _ in range(rng.integers(1, 6))]
    return np.array(points)


def _clusterings(z, radius, radii, monkeypatch):
    """_cluster's clusters three ways: from its own partners, from the
    partners _clusters finds once at the wider radius, and with the screen
    forced on a set of any size."""
    def clusters(reach):
        return _cluster(z, radius, radii, near_partners(z, _link_reach(reach, radii)))

    with monkeypatch.context() as m:
        m.setattr(ratmap.sphere, "DIRECT_MAX_POINTS", 0)
        screened = clusters(radius)
    return [clusters(radius), clusters(10.0 * DEFAULT_CLUSTER_RADIUS), screened]


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("with_radii", [False, True])
def test_screened_clusters_match_the_pairwise_loop(seed, with_radii, monkeypatch):
    rng = np.random.default_rng(seed)
    z = _point_cloud(rng)
    radii = 10.0 ** rng.uniform(-12, -4, size=len(z)) if with_radii else None
    for radius in (1e-6, 1e-5):
        want = _cluster_pairwise(z, radius, radii)
        assert _clusterings(z, radius, radii, monkeypatch) == [want] * 3


@pytest.mark.parametrize("n", [0, 1, 2, DIRECT_MAX_POINTS - 1, DIRECT_MAX_POINTS,
                               DIRECT_MAX_POINTS + 1])
@pytest.mark.parametrize("with_radii", [False, True])
def test_the_direct_and_the_screened_clusters_agree_around_the_crossover(n, with_radii,
                                                                         monkeypatch):
    rng = np.random.default_rng(n)
    for _ in range(40):
        z = np.concatenate([_point_cloud(rng) for _ in range(5)])[:n]
        # NaN and infinite rows, which the screen may pass and _linked never links
        z[rng.random(n) < 0.15] = complex("nan+nanj")
        infinite = rng.random(n) < 0.1
        z[infinite] = rng.choice([complex("inf"), complex("-inf"), complex("infj")],
                                 size=int(infinite.sum()))
        radii = 10.0 ** rng.uniform(-12, -4, size=n) if with_radii else None
        if with_radii:
            # a NaN radius links by the chordal radius alone
            radii[rng.random(n) < 0.15] = np.nan
        for radius in (1e-6, 1e-5):
            # _linked's arithmetic on an infinite row gives NaN
            with np.errstate(invalid="ignore"):
                want = _cluster_pairwise(z, radius, radii)
                assert _clusterings(z, radius, radii, monkeypatch) == [want] * 3


def test_the_link_reach_is_attained_by_a_pair_linked_through_its_radii():
    # near 0 the chordal distance is twice the gap, and a gap of 10 (r_i + r_j) links
    radii = np.array([1e-5, 1e-5])
    z = np.array([0j, 20.0 * 1e-5 * (1.0 - 1e-9)])
    assert _linked(z, DEFAULT_CLUSTER_RADIUS, radii, 0, 1)
    chordal = 2.0 * abs(z[1]) / np.hypot(abs(z[1]), 1.0)
    assert 0.999 * _link_reach(DEFAULT_CLUSTER_RADIUS, radii) < chordal
    assert chordal <= _link_reach(DEFAULT_CLUSTER_RADIUS, radii)


def test_a_pair_with_a_nan_radius_links_alike_in_either_order():
    # a NaN radius is never resolved, so a resolved partner does not veto
    # the link: the pair links by the chordal radius alone
    z = np.array([0j, 1e-7 + 0j])
    radii = np.array([np.nan, 1e-12])
    swapped_z, swapped_radii = z[::-1].copy(), radii[::-1].copy()
    assert _linked(z, 1e-6, radii, 0, 1)
    assert _linked(z, 1e-6, radii, 1, 0)
    assert _linked(swapped_z, 1e-6, swapped_radii, 0, 1)
    assert _linked(swapped_z, 1e-6, swapped_radii, 1, 0)
    assert not _linked(z, 1e-7, radii, 1, 0)


def test_an_exact_square_free_factor_is_not_clustered(monkeypatch):
    calls = []
    cluster = ratmap.roots._cluster

    def counted(points, *args):
        calls.append(len(points))
        return cluster(points, *args)

    monkeypatch.setattr(ratmap.roots, "_cluster", counted)
    # (z - 1)^2 (z^3 - 2) (z + 1/3): factors of degree 1 and 4
    exact = (Polynomial([1, -1]) * Polynomial([1, -1]) * Polynomial([1, 0, 0, -2])
             * Polynomial([1, Fraction(1, 3)]))
    assert sum(m for _, m, _ in find_roots(exact)) == 6
    assert calls == []
    # a floating polynomial is clustered at both radii
    assert sum(m for _, m, _ in find_roots(exact.to_complex())) == 6
    assert calls == [6, 6]


def _bits(x):
    """A float or complex value, bit for bit, the sign of a zero included."""
    c = complex(x)
    return c.real.hex(), c.imag.hex()


def _fingerprint(result):
    """find_roots' list, or the RatmapError it raised, bit for bit."""
    if isinstance(result, RatmapError):
        residuals = tuple(_bits(res) for res in getattr(result, "residuals", ()))
        return type(result).__name__, str(result), repr(result.context), residuals
    return [(type(root).__name__, str(root), _bits(root), mult, _bits(res))
            for root, mult, res in result]


def _lone(p):
    try:
        return find_roots(p)
    except RatmapError as err:
        return err


def _from_roots(*roots):
    p = Polynomial([1.0])
    for root in roots:
        p = p * Polynomial([1.0, -complex(root)])
    return p


def _parity_polynomials():
    rng = random.Random(20240811)
    polys = []
    for n in range(1, 7):
        for _ in range(6):
            polys.append(Polynomial([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                     for _ in range(n + 1)]))
            polys.append(Polynomial([Fraction(rng.randint(1, 4))]
                                    + [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                                       for _ in range(n)]))
    polys += [
        _from_roots(1.0, 1.0, -2.0, 3.0),  # a merged double root
        _from_roots(1.0, 1.0, 1.0, -0.5),  # a merged triple root
        Polynomial([1e-300, 0.0, 0.0, 1.0]),  # its start circle overflows: _settle fails
        _from_roots(1.0, 1.0 + 3e-6, -2.0),  # MultiplicityAmbiguousError
        Polynomial([1.0, 2.0, 3.0, 0.0, 0.0]),  # exact zeros at the origin
        Polynomial([2.0, 1.0, 0.0, 0.0]),  # deflated to degree 1
        Polynomial([Fraction(1), Fraction(-1), Fraction(0)]),
        Polynomial([1.0, 0.0, 0.0, 0.0, -1.0]),
    ]
    return polys


def test_a_batch_gives_every_polynomial_the_bits_of_its_lone_solve():
    polys = _parity_polynomials()
    lone = [_fingerprint(_lone(p)) for p in polys]
    kinds = {type(r).__name__ for r in map(_lone, polys) if isinstance(r, RatmapError)}
    assert kinds == {"RootFindingFailedError", "MultiplicityAmbiguousError"}
    # every degree with many groups, in two orders
    assert [_fingerprint(r) for r in find_roots_many(polys)] == lone
    assert [_fingerprint(r) for r in find_roots_many(polys[::-1])] == lone[::-1]
    # one group per degree in a batch of many
    first = {}
    for i, p in enumerate(polys):
        first.setdefault((p.degree, p.is_exact), i)
    picked = sorted(first.values())
    assert [_fingerprint(r) for r in find_roots_many([polys[i] for i in picked])] == [
        lone[i] for i in picked]
    # n = 1: degree-1 polynomials alone and many together
    linear = [p for p in polys if p.degree == 1]
    for p in linear:
        assert _fingerprint(find_roots_many([p])[0]) == _fingerprint(_lone(p))
    assert [_fingerprint(r) for r in find_roots_many(linear)] == [
        _fingerprint(_lone(p)) for p in linear]


def test_a_failed_or_ambiguous_solve_stays_with_its_own_polynomial():
    ambiguous = _from_roots(1.0, 1.0 + 3e-6, -2.0)
    failing = Polynomial([1e-300, 0.0, 0.0, 1.0])
    good = [_from_roots(2.0, -1.0j, 0.5), _from_roots(1.0, 1.0, -2.0, 3.0)]
    got = find_roots_many([good[0], ambiguous, failing, good[1]])
    assert isinstance(got[1], MultiplicityAmbiguousError)
    assert isinstance(got[2], RootFindingFailedError)
    assert [_fingerprint(got[i]) for i in (0, 3)] == [_fingerprint(find_roots(p)) for p in good]
    assert [m for _, m, _ in got[3]] == [1, 2, 1]
    with pytest.raises(MultiplicityAmbiguousError):
        find_roots(ambiguous)
