"""Simultaneous root finding by Aberth-Ehrlich iteration.

One Aberth loop serves two callers.  It takes an evaluator of (f, f') on an
array and start points, so it never needs the coefficients of f:

* find_roots, for polynomials, passes Horner and a perturbed circle at the
  Cauchy bound;
* the cycle solver in dynamics passes the orbit recursion of R^p through
  find_zeros.

At most 200 sweeps run, then a short Newton polish.  The residual check and
the clustering are shared (_settle).  Multiplicities of a floating
polynomial are assigned by clustering in the chordal metric.  The
assignment is ambiguous when re-clustering at ten times the radius changes
the multiplicity profile; that is an error.  An exact polynomial is split
into square-free factors first, and every root of a factor is simple, so
nothing is clustered.

For exact polynomials every root is snapped to a small Gaussian rational
candidate and kept exact when the candidate is verified to be a root; two
approximations that snap to one root are an error.  This is what lets
downstream set-membership decisions (criticality, preimage coincidences)
run in exact arithmetic on the maps where it matters.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import MultiplicityAmbiguousError, RootFindingFailedError
from .poly import Polynomial, squarefree_decomposition_exact
from .scalars import GaussianRational

ABERTH_MAX_ITER = 200
NEWTON_POLISH_STEPS = 5
DEFAULT_CLUSTER_RADIUS = 1e-6
SNAP_DENOMINATOR_BOUND = 10**6


def _chordal_c(a: complex, b: complex) -> float:
    return 2.0 * abs(a - b) / (math.hypot(abs(a), 1.0) * math.hypot(abs(b), 1.0))


def _horner_pair(coeffs: np.ndarray, dcoeffs: np.ndarray, z: np.ndarray):
    p = np.full_like(z, coeffs[0])
    for c in coeffs[1:]:
        p = p * z + c
    if len(dcoeffs):
        d = np.full_like(z, dcoeffs[0])
        for c in dcoeffs[1:]:
            d = d * z + c
    else:
        d = np.zeros_like(z)
    return p, d


def _horner(coeffs: np.ndarray):
    """The (p, p') evaluator of a polynomial for _aberth and _newton_polish."""
    n = len(coeffs) - 1
    dcoeffs = coeffs[:-1] * np.arange(n, 0, -1)
    return lambda z: _horner_pair(coeffs, dcoeffs, z)


def start_circle(n: int, radius: float) -> np.ndarray:
    """n Aberth start points on a perturbed circle of the given radius."""
    # deterministic perturbed circle; the 0.41 offset breaks real-coefficient symmetry
    k = np.arange(n)
    angles = 2.0 * np.pi * (k + 0.41) / n + 0.003 * k
    radii = radius * (1.0 + 0.002 * (k + 1) / n)
    return radii * np.exp(1j * angles)


def _aberth(evaluate, z: np.ndarray) -> np.ndarray:
    """Aberth-Ehrlich sweeps from the start points z, one root per point.

    evaluate(z) gives (f(z), f'(z)) on an array, or any common rescaling of
    the pair: only the Newton correction f/f' enters.
    """
    # a start too far out overflows to inf and NaN; _settle rejects the
    # NaN residuals that follow
    with np.errstate(all="ignore"):
        for _ in range(ABERTH_MAX_ITER):
            p, d = evaluate(z)
            d = np.where(d == 0, 1e-300, d)
            newton = p / d
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            inv = 1.0 / diff
            np.fill_diagonal(inv, 0.0)
            s = inv.sum(axis=1)
            denom = 1.0 - newton * s
            denom = np.where(denom == 0, 1e-300, denom)
            corr = newton / denom
            z = z - corr
            if np.all(np.abs(corr) <= 1e-14 * (1.0 + np.abs(z))):
                break
    return z


def _newton_polish(evaluate, z: np.ndarray, steps: int) -> np.ndarray:
    for _ in range(steps):
        p, d = evaluate(z)
        safe = np.abs(d) > 1e-300
        step = np.where(safe, p / np.where(safe, d, 1.0), 0.0)
        z = z - step
    return z


def polish(evaluate, z: np.ndarray) -> np.ndarray:
    """Newton-polished simple roots, with denormal components cleared."""
    return np.array([_zap_denormals(complex(zi))
                     for zi in _newton_polish(evaluate, z, NEWTON_POLISH_STEPS)])


def _settle(evaluate, residual, z: np.ndarray, *, uncertainty=None, **context):
    """Polish approximate roots, check them, and group them into clusters.

    residual(z) gives a scale-free residual per root; a root above 1e-6, NaN
    included, is a RootFindingFailedError.  uncertainty(z), when given, is
    the radius within which each root is still undetermined; two roots whose
    radii are both far below their distance are resolved simple roots and
    never share a cluster.  Returns (z, clusters, ambiguity),
    where ambiguity is the MultiplicityAmbiguousError to raise unless every
    cluster is then resolved exactly, or None.
    """
    z = _newton_polish(evaluate, z, NEWTON_POLISH_STEPS)
    residuals = residual(z)
    # multiple roots legitimately stall above machine precision; the
    # acceptance bar here only rejects genuine non-convergence, NaN included
    if not all(res <= 1e-6 for res in residuals):
        raise RootFindingFailedError(
            "root finder did not converge", residuals=residuals, **context
        )
    radii = None
    if uncertainty is not None:
        # a vanishing derivative says nothing beyond "somewhere in the cluster"
        radii = np.minimum(uncertainty(z), 100.0 * DEFAULT_CLUSTER_RADIUS)
    clusters = _cluster(z, DEFAULT_CLUSTER_RADIUS, radii)
    clusters_wide = _cluster(z, 10.0 * DEFAULT_CLUSTER_RADIUS, radii)
    ambiguity = None
    if _profile(clusters) != _profile(clusters_wide):
        ambiguity = MultiplicityAmbiguousError(
            "two clusterings within a factor 10 disagree",
            radius=DEFAULT_CLUSTER_RADIUS,
            profiles=(_profile(clusters), _profile(clusters_wide)),
        )
    return z, clusters, ambiguity


def find_zeros(evaluate, residual, uncertainty, start: np.ndarray, **context):
    """Zeros of an analytic f from evaluations of (f, f') only, one per start point.

    Aberth from start, then _settle.  Returns ([members], ambiguity): one
    array of approximations per cluster, a simple zero being a cluster of one.
    """
    z, clusters, ambiguity = _settle(
        evaluate, residual, _aberth(evaluate, start), uncertainty=uncertainty, **context,
    )
    return [z[g] for g in clusters], ambiguity


def _linked(points, radius, radii, i, j) -> bool:
    if radii is None:
        return _chordal_c(points[i], points[j]) <= radius
    gap = abs(points[i] - points[j])
    if max(radii[i], radii[j]) < 1e-3 * gap:
        return False  # both resolved: distinct simple roots
    # a root of multiplicity m scatters its approximations over about
    # eps^(1/m), which passes the radius for m >= 3; their uncertainty
    # discs still overlap
    return _chordal_c(points[i], points[j]) <= radius or gap <= 10.0 * (radii[i] + radii[j])


# relative margin of the pair screen, far above the rounding of either evaluation
PAIR_SCREEN_SLACK = 1e-9


def _screened_pairs(points: np.ndarray, radius: float, radii):
    """The pairs (i, j), i < j, in row order, that _linked may accept.

    The arrays repeat _linked's chordal and gap formulas; they differ from
    its scalar values by rounding only, so a pair above both bounds by the
    relative margin PAIR_SCREEN_SLACK cannot link.  A NaN is never screened
    out.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(points[:, None] - points[None, :])
        norm = np.hypot(np.abs(points), 1.0)
        far = 2.0 * gap / np.outer(norm, norm) > radius * (1.0 + PAIR_SCREEN_SLACK)
        if radii is not None:
            far &= gap > 10.0 * (radii[:, None] + radii[None, :]) * (1.0 + PAIR_SCREEN_SLACK)
    return np.argwhere(np.triu(~far, 1))


def _cluster(points: np.ndarray, radius: float, radii=None):
    """Union-find clustering under the chordal metric.

    Given uncertainty radii, two points whose radii are both below 1e-3 of
    their distance are never linked, and two points within ten times the
    sum of their radii always are.  Only the pairs _screened_pairs passes
    are tested.
    """
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in _screened_pairs(points, radius, radii).tolist():
        if _linked(points, radius, radii, i, j):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted((sorted(idx) for idx in groups.values()), key=lambda g: g[0])


def _profile(clusters):
    return sorted(len(g) for g in clusters)


def snap(center: complex) -> GaussianRational | None:
    """The nearest Gaussian rational with denominators <= SNAP_DENOMINATOR_BOUND.

    None for a non-finite center, which has no rational neighbour.
    """
    if not (math.isfinite(center.real) and math.isfinite(center.imag)):
        return None
    return GaussianRational(
        Fraction(center.real).limit_denominator(SNAP_DENOMINATOR_BOUND),
        Fraction(center.imag).limit_denominator(SNAP_DENOMINATOR_BOUND),
    )


def _snap_root(reduced: Polynomial, center: complex) -> GaussianRational | None:
    """Verified Gaussian-rational root near a floating approximation.

    A well-conditioned root is located to ~1e-13, well inside the gap
    between distinct denominator-bounded rationals, so the direct candidate
    settles it.  Ill-conditioned roots (near-double geometry) carry
    irreducible floating error; for those the approximation is refined by
    exact rational Newton steps before snapping.  None when no exact root
    confirms.
    """
    cand = snap(center)
    if cand is None:
        return None
    if reduced.evaluate(cand).is_zero():
        return cand
    dv_center = complex(reduced.derivative().evaluate(complex(center)))
    if abs(dv_center) > 1e-3 * max(1.0, reduced.coeff_scale()):
        return None  # well-conditioned and not rational: nothing to refine
    x = GaussianRational(
        Fraction(center.real).limit_denominator(10**15),
        Fraction(center.imag).limit_denominator(10**15),
    )
    deriv = reduced.derivative()
    for _ in range(2):
        pv = reduced.evaluate(x)
        if pv.is_zero():
            break
        dv = deriv.evaluate(x)
        if dv.is_zero():
            break
        x = x - pv / dv
        # keep fraction sizes bounded without losing the precision gained
        x = GaussianRational(
            x.re.limit_denominator(10**40), x.im.limit_denominator(10**40)
        )
    cand = GaussianRational(
        x.re.limit_denominator(SNAP_DENOMINATOR_BOUND),
        x.im.limit_denominator(SNAP_DENOMINATOR_BOUND),
    )
    if reduced.evaluate(cand).is_zero():
        return cand
    return None


def _eval_scaled(coeffs: np.ndarray, z: complex) -> float:
    """|p(z)| / max(1, |z|)^n, where n = deg p.

    Where |z|^n overflows, |z| > 1 and the value is |p(z) / z^n|, the
    reversed Horner sum at 1/z.
    """
    try:
        power = max(1.0, float(abs(z))) ** (len(coeffs) - 1)
    except OverflowError:
        u = 1.0 / z
        acc = 0j
        for a in reversed(coeffs):
            acc = acc * u + a
        return abs(acc)
    acc = 0j
    for a in coeffs:
        acc = acc * z + a
    return abs(acc) / power


def _zap_denormals(z: complex) -> complex:
    # components this small are iteration dust, never meaningful values
    re = 0.0 if abs(z.real) < 1e-250 else z.real
    im = 0.0 if abs(z.imag) < 1e-250 else z.imag
    return complex(re, im)


def find_roots(p: Polynomial):
    """All roots of p with multiplicities; the multiplicities sum to deg p.

    Returns a list of (root, multiplicity, residual) triples, sorted by the
    floating value of the root.  A root is a GaussianRational when it was
    verified exactly and a complex number otherwise.

    Exact polynomials are split into square-free factors first, so their
    multiplicities are exact algebra and no two roots of a factor merge.
    """
    if p.degree < 1:
        raise ValueError("find_roots needs degree >= 1")
    if p.is_exact:
        _, factors = squarefree_decomposition_exact(p)
        results = []
        for factor, mult in factors:
            for root, m, res in _find_roots_numeric(factor):
                results.append((root, m * mult, res))
        total = sum(m for _, m, _ in results)
        if total != p.degree:
            raise RootFindingFailedError(
                "multiplicities do not sum to the degree",
                found=total,
                degree=p.degree,
            )
        results.sort(key=lambda t: (complex(t[0]).real, complex(t[0]).imag))
        return results
    return _find_roots_numeric(p)


def _find_roots_numeric(p: Polynomial):
    """find_roots of a floating p, or of one square-free factor of an exact p."""
    exact = p.is_exact

    # deflate exact zeros at the origin first
    zero_mult = 0
    work = list(p.coeffs)
    while len(work) > 1 and (
        work[-1].is_zero() if isinstance(work[-1], GaussianRational) else work[-1] == 0
    ):
        zero_mult += 1
        work.pop()
    reduced = Polynomial(work)

    results = []
    if zero_mult:
        zero_root = GaussianRational(0) if exact else complex(0)
        results.append((zero_root, zero_mult, 0.0))

    if reduced.degree >= 1:
        rc = reduced.to_complex_array()
        rc = rc / max(abs(rc))
        horner = _horner(rc)
        if reduced.degree == 1:
            z = np.array([-rc[1] / rc[0]])
        elif reduced.degree == 2:
            a, b, c = rc
            disc = np.sqrt(b * b - 4 * a * c + 0j)
            q = -(b + disc) / 2 if abs(b + disc) >= abs(b - disc) else -(b - disc) / 2
            if abs(q) == 0:
                z = np.array([0j, 0j])
            else:
                z = np.array([q / a, c / q])
        else:
            cauchy = 1.0 + float(max(abs(rc[1:] / rc[0])))
            z = _aberth(horner, start_circle(reduced.degree, cauchy))
        z, clusters, ambiguity = _settle(
            horner, lambda zs: [_eval_scaled(rc, zi) for zi in zs], z, degree=p.degree,
        )
        if exact:
            # a square-free factor: two approximations in one cluster are two
            # close simple roots, never one multiple root
            clusters = [[i] for i in range(len(z))]
        elif ambiguity is not None:
            raise ambiguity

        snapped = set()
        for group in clusters:
            pts = z[group]
            center = _zap_denormals(complex(pts.mean()))
            mult = len(group)
            if mult > 1:
                # the centroid cancels the leading perturbation term; polish it
                # on the (mult-1)-th derivative where the root is simple
                g = reduced
                for _ in range(mult - 1):
                    g = g.derivative()
                gc = g.to_complex_array()
                gc = gc / max(abs(gc))
                center = complex(polish(_horner(gc), np.array([center]))[0])
            # exact representation when a snapped candidate verifies exactly
            cand = _snap_root(reduced, center) if exact else None
            if cand is None:
                results.append((center, mult, _eval_scaled(rc, center)))
                continue
            if (cand.re, cand.im) in snapped:
                raise MultiplicityAmbiguousError(
                    "approximations of distinct simple roots snap to one point",
                    point=str(cand),
                )
            snapped.add((cand.re, cand.im))
            results.append((cand, 1, _eval_scaled(rc, complex(cand))))

    total_mult = sum(m for _, m, _ in results)
    if total_mult != p.degree:
        raise RootFindingFailedError(
            "multiplicities do not sum to the degree",
            found=total_mult,
            degree=p.degree,
        )
    results.sort(key=lambda t: (complex(t[0]).real, complex(t[0]).imag))
    return results
