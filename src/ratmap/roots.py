"""Simultaneous root finding by Aberth-Ehrlich iteration.

One Aberth loop serves two callers.  It takes an evaluator of (f, f') on
an array and groups of start points, one group per function, so it never
needs the coefficients of f:

* find_roots_many, for many polynomials at once (the preimage sets that
  RationalMap.preimages_many asks for), passes one polynomial per group,
  each from a perturbed circle at its Cauchy bound, the polynomials of
  one degree through one grouped Horner; find_roots is its case of one
  polynomial, and every root has the same bits alone or in a batch;
* the cycle solver in dynamics passes the orbit recursion of R^p through
  find_zeros, one group per period, all solved in lock step.

The groups share each evaluation, but each has its own pairwise sum and
stop test and runs at most 200 sweeps; a group that stops drops out of the
later evaluations.  Consecutive groups of one size (the polynomials of
one degree) have their pairwise sums made as one (k, n, n) block,
each group's sums those of its own matrix.  After Aberth, find_roots_many
and find_zeros Newton-polish all groups in one walk per step; each point
stops once its step passes Aberth's stop test (_converged), after at most
NEWTON_POLISH_STEPS steps.  No operation on a point reads another group,
so a group's bits do not depend on its batch.  The residual check
(_settle) and the clustering (_clusters) are shared, and are made per
group; a group that fails does not stop the others.  Multiplicities
of a floating polynomial are assigned by clustering in the chordal metric.
The assignment is ambiguous when re-clustering at ten times the radius
changes the multiplicity profile; that is an error.  An exact polynomial is
split into square-free factors first, and every root of a factor is simple,
so nothing is clustered.  Clustering tests only the pairs that
sphere.near_partners finds within _link_reach, once for both radii.

The cycle solver's starts come from preimage trees, whose levels need only
be near their roots and distinct: preimages solves a level, one polynomial
y2 A - y1 B per target (y1, y2), as the eigenvalues of their companion
matrices (companion_roots), all in one batched LAPACK call.

For exact polynomials every root is snapped to a small Gaussian rational
candidate and kept exact when the candidate is verified to be a root; two
approximations that snap to one root are an error.  This is what lets
downstream set-membership decisions (criticality, preimage coincidences)
run in exact arithmetic on the maps where it matters.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import MultiplicityAmbiguousError, RatmapError, RootFindingFailedError
from .poly import Polynomial, squarefree_decomposition_exact
from .scalars import GaussianRational, limit_ratios
from .sphere import near_partners

ABERTH_MAX_ITER = 200
NEWTON_POLISH_STEPS = 5
DEFAULT_CLUSTER_RADIUS = 1e-6
SNAP_DENOMINATOR_BOUND = 10**6
EPSILON = float(np.finfo(float).eps)


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
    """The (p, p') evaluator of a polynomial for _aberth and _newton_polish.

    It takes _aberth's tuple of active groups too, and ignores it.
    """
    n = len(coeffs) - 1
    dcoeffs = coeffs[:-1] * np.arange(n, 0, -1)
    return lambda z, active=None: _horner_pair(coeffs, dcoeffs, z)


def _grouped_horner(coeffs: np.ndarray):
    """The (p, p') evaluator for _aberth of one polynomial per group.

    Row g of coeffs holds the coefficients of group g's polynomial of
    degree n, highest first, and the group has its n roots' points.
    """
    n = coeffs.shape[1] - 1
    dcoeffs = coeffs[:, :-1] * np.arange(n, 0, -1)
    # the coefficients of each point, per tuple of active groups
    gathered = {}

    def evaluate(z, active):
        if active not in gathered:
            rows = np.repeat(active, n)
            gathered[active] = coeffs[rows].T, dcoeffs[rows].T
        return _horner_pair(*gathered[active], z)

    return evaluate


def start_circle(n: int, radius: float) -> np.ndarray:
    """n Aberth start points on a perturbed circle of the given radius."""
    # deterministic perturbed circle; the 0.41 offset breaks real-coefficient symmetry
    k = np.arange(n)
    angles = 2.0 * np.pi * (k + 0.41) / n + 0.003 * k
    radii = radius * (1.0 + 0.002 * (k + 1) / n)
    return radii * np.exp(1j * angles)


def _pairwise_sums(z: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """sum over j != i of 1 / (z_i - z_j), for each i of each row of z.

    z is (n,) or (k, n), k groups of n points, and buf the (n, n) or
    (k, n, n) scratch matrix; each group's sums are those of its own
    (n, n) matrix.
    """
    n = z.shape[-1]
    diagonal = buf.reshape(buf.shape[:-2] + (n * n,))[..., :: n + 1]
    np.subtract(z[..., :, None], z[..., None, :], out=buf)
    diagonal[...] = 1.0
    np.divide(1.0, buf, out=buf)
    diagonal[...] = 0.0
    return buf.sum(axis=-1)


def _blocks(zs, active):
    """(groups, rows, (k, n)) for each run of k consecutive active groups of n points."""
    start = 0
    for n, run in itertools.groupby(active, key=lambda g: len(zs[g])):
        run = tuple(run)
        yield run, slice(start, start + len(run) * n), (len(run), n)
        start += len(run) * n


def _converged(step: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per point, whether the step that gave z is at most 1e-14 (1 + |z|).

    The stop test of each Aberth group (all its points) and of each point
    of the Newton polish; a NaN step never passes.
    """
    return np.abs(step) <= 1e-14 * (1.0 + np.abs(z))


def _aberth(evaluate, starts) -> list:
    """Aberth-Ehrlich sweeps from each group of start points, one root per point.

    The groups are independent problems that share their evaluations: each
    has its own pairwise sum, its own stop test and at most ABERTH_MAX_ITER
    sweeps, and a group that stops drops out of the later evaluations.
    evaluate(z, active) gives (f(z), f'(z)), or any common rescaling of the
    pair per point, where z holds the points of the groups whose indices the
    tuple active lists, one group after the other; only the Newton
    correction f/f' enters.  Consecutive active groups of one size have
    their pairwise sums and stop tests made as one block.  Returns one array
    of points per group.
    """
    zs = list(starts)
    # one pairwise matrix per block shape, written in place by every sweep
    buffers = {}
    active, running = None, tuple(range(len(zs)))
    # a start too far out overflows to inf and NaN; _settle rejects the
    # NaN residuals that follow
    with np.errstate(all="ignore"):
        for _ in range(ABERTH_MAX_ITER):
            if running != active:
                active = running
                if not active:
                    break
                z = np.concatenate([zs[g] for g in active])
                blocks = list(_blocks(zs, active))
                for _, _, (k, n) in blocks:
                    if (k, n) not in buffers:
                        buffers[k, n] = np.empty((k, n, n), complex)
            p, d = evaluate(z, active)
            d = np.where(d == 0, 1e-300, d)
            newton = p / d
            s = np.concatenate([_pairwise_sums(z[rows].reshape(shape), buffers[shape]).ravel()
                                for _, rows, shape in blocks])
            denom = 1.0 - newton * s
            denom = np.where(denom == 0, 1e-300, denom)
            corr = newton / denom
            z = z - corr
            done = _converged(corr, z)
            running = []
            for run, rows, shape in blocks:
                stopped = done[rows].reshape(shape).all(axis=1)
                for g, zg, stop in zip(run, z[rows].reshape(shape), stopped):
                    zs[g] = zg
                    if not stop:
                        running.append(g)
            running = tuple(running)
    return zs


def companion_roots(rows: np.ndarray) -> np.ndarray:
    """The n roots of each row's polynomial of degree n, coefficients highest first.

    Row k's roots are the eigenvalues of its companion matrix, and all rows
    are solved in one batched np.linalg.eigvals call: LAPACK balances each
    matrix, and the roots are those of a nearby polynomial (Edelman and
    Murakami, Math. Comp. 64, 1995).  Each matrix is solved alone, so a
    row's roots do not depend on its batch.  A row whose companion matrix
    is not finite (its leading coefficient vanishes, say) has NaN roots,
    where eigvals would raise, and so has every row when LAPACK does not
    converge.
    """
    with np.errstate(all="ignore"):
        top = -rows[:, 1:] / rows[:, :1]
    ok = np.isfinite(top).all(axis=1)
    k, n = top.shape
    companion = np.zeros((int(ok.sum()), n, n), complex)
    companion[:, 0] = top[ok]
    companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    roots = np.full((k, n), np.nan, complex)
    if len(companion):
        try:
            roots[ok] = np.linalg.eigvals(companion)
        except np.linalg.LinAlgError:
            pass
    return roots


def preimages(table: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The d roots of y2 A - y1 B for each target (y1, y2), target by target.

    table[i] = (A_i, B_i) holds the coefficients of two polynomials A and B
    of degree d, highest first, so the roots of target (y1, y2) are the
    points where A / B takes the value y1 / y2.  Each target's polynomial is
    scaled to largest modulus 1, and all are solved together
    (companion_roots); a target whose leading coefficient vanishes gives
    NaN roots.
    """
    with np.errstate(all="ignore"):
        a = targets[:, 1:] * table[:, 0] - targets[:, :1] * table[:, 1]
        a /= np.abs(a).max(axis=1, keepdims=True)
    return companion_roots(a).ravel()


def _newton_polish(evaluate, z: np.ndarray) -> np.ndarray:
    """Newton steps on all points in one walk each, every point until its step
    passes _converged or its value is not finite, at most NEWTON_POLISH_STEPS.

    A stopped point is still walked but keeps its value, so each point gets
    the bits of its polish alone; the loop ends when no point moves.
    """
    moving = np.ones(z.shape, bool)
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_POLISH_STEPS):
            p, d = evaluate(z)
            safe = np.abs(d) > 1e-300
            step = np.where(safe, p / np.where(safe, d, 1.0), 0.0)
            z = np.where(moving, z - step, z)
            moving &= ~_converged(step, z) & np.isfinite(z)
            if not moving.any():
                break
    return z


def polish(evaluate, z: np.ndarray) -> np.ndarray:
    """Newton-polished simple roots (_newton_polish), with dust components
    cleared (_zap_denormals)."""
    return np.array([_zap_denormals(complex(zi)) for zi in _newton_polish(evaluate, z)])


def _settle(evaluate, measure, zs, contexts) -> list:
    """Polish the approximate roots of each group and check them.

    evaluate is _aberth's; the polish (_newton_polish) steps all groups at
    once, each point until it converges.
    measure(z) gives, for the points of all groups one after the other,
    (residuals, uncertainty): a scale-free residual per root, and either
    None or the radius within which each root is still undetermined.  A
    group with a residual above 1e-6, NaN included, gives a
    RootFindingFailedError with its context.  Returns, per group, that
    error or (z, radii): the polished roots and, for _clusters, their
    uncertainty radii capped at 100 DEFAULT_CLUSTER_RADIUS, or None.
    """
    groups = tuple(range(len(zs)))
    z = _newton_polish(lambda z: evaluate(z, groups), np.concatenate(zs))
    residuals, uncertainty = measure(z)
    results, start = [], 0
    for zg, context in zip(zs, contexts):
        rows = slice(start, start + len(zg))
        start = rows.stop
        # multiple roots legitimately stall above machine precision; the
        # acceptance bar here only rejects genuine non-convergence, NaN included
        if not all(res <= 1e-6 for res in residuals[rows]):
            results.append(RootFindingFailedError(
                "root finder did not converge", residuals=residuals[rows], **context
            ))
            continue
        radii = None
        if uncertainty is not None:
            # a vanishing derivative says nothing beyond "somewhere in the cluster"
            radii = np.minimum(uncertainty[rows], 100.0 * DEFAULT_CLUSTER_RADIUS)
        results.append((z[rows], radii))
    return results


def _clusters(z: np.ndarray, radii):
    """(clusters, ambiguity) of settled roots with _settle's radii.

    Two roots whose radii are both far below their distance are resolved
    simple roots and never share a cluster.  ambiguity is the
    MultiplicityAmbiguousError to raise unless every cluster is then
    resolved exactly, or None.  Where near_partners pairs no roots, every
    root is its own cluster at both radii.
    """
    wide = 10.0 * DEFAULT_CLUSTER_RADIUS
    partners = near_partners(z, _link_reach(wide, radii))
    if not any(partners):
        return [[i] for i in range(len(z))], None
    clusters = _cluster(z, DEFAULT_CLUSTER_RADIUS, radii, partners)
    clusters_wide = _cluster(z, wide, radii, partners)
    ambiguity = None
    if _profile(clusters) != _profile(clusters_wide):
        ambiguity = MultiplicityAmbiguousError(
            "two clusterings within a factor 10 disagree",
            radius=DEFAULT_CLUSTER_RADIUS,
            profiles=(_profile(clusters), _profile(clusters_wide)),
        )
    return clusters, ambiguity


def find_zeros(evaluate, measure, starts, contexts) -> list:
    """Zeros of analytic functions from evaluations of (f, f') only, one per start point.

    Group g holds the start points starts[g] of one function; Aberth runs
    all groups in lock step (_aberth), then _settle and _clusters.  Returns,
    per group, ([members], ambiguity), one array of approximations per
    cluster and a simple zero being a cluster of one, or the group's
    RootFindingFailedError, which is not raised.
    """
    results = []
    for settled in _settle(evaluate, measure, _aberth(evaluate, starts), contexts):
        if isinstance(settled, RootFindingFailedError):
            results.append(settled)
        else:
            z, radii = settled
            clusters, ambiguity = _clusters(z, radii)
            results.append(([z[g] for g in clusters], ambiguity))
    return results


def _linked(points, radius, radii, i, j) -> bool:
    if radii is None:
        return _chordal_c(points[i], points[j]) <= radius
    gap = abs(points[i] - points[j])
    if radii[i] < 1e-3 * gap and radii[j] < 1e-3 * gap:
        return False  # both resolved (a NaN radius never is): distinct simple roots
    # a root of multiplicity m scatters its approximations over about
    # eps^(1/m), which passes the radius for m >= 3; their uncertainty
    # discs still overlap
    return _chordal_c(points[i], points[j]) <= radius or gap <= 10.0 * (radii[i] + radii[j])


def _link_reach(radius: float, radii) -> float:
    """A chordal distance beyond which _linked never links two points.

    A linked pair is within the radius, or its gap is at most
    10 (r_i + r_j) and its chordal distance at most twice its gap; a NaN
    radius links by the radius alone.
    """
    return radius if radii is None else float(np.fmax.reduce(40.0 * radii, initial=radius))


def _cluster(points: np.ndarray, radius: float, radii, partners):
    """Union-find clustering under the chordal metric.

    Given uncertainty radii, two points whose radii are both below 1e-3 of
    their distance are never linked, and two points within ten times the
    sum of their radii always are.  Only the pairs of partners, near_partners
    at _link_reach or beyond, are tested; no other pair can link, and the
    order of the tests does not change the clusters.
    """
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for j, earlier in enumerate(partners):
        for i in earlier:
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
    return GaussianRational.approximating(center, SNAP_DENOMINATOR_BOUND)


def snap_many(centers: np.ndarray) -> tuple:
    """The snaps of finite centers as the ratio arrays (p1, q1, p2, q2).

    Row i is snap(centers[i]) = p1/q1 + (p2/q2) i, each part in lowest terms
    with a positive denominator; all parts are limited in one array pass
    (scalars.limit_ratios).
    """
    n, d = limit_ratios(np.concatenate([centers.real, centers.imag]), SNAP_DENOMINATOR_BOUND)
    m = len(centers)
    return n[:m], d[:m], n[m:], d[m:]


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
    x = GaussianRational.approximating(center, 10**15)
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
        x = x.limit_denominator(10**40)
    cand = x.limit_denominator(SNAP_DENOMINATOR_BOUND)
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
    # components this small, or this far below the other one, are iteration
    # dust, never meaningful values: a real point stays real.  A polish step
    # that passes _converged is at most about 1e-14 of |z| and leaves an
    # error of about its square, so 1e-28 of the larger component is dust
    dust = max(1e-250, 1e-28 * max(abs(z.real), abs(z.imag)))
    re = 0.0 if abs(z.real) < dust else z.real
    im = 0.0 if abs(z.imag) < dust else z.imag
    return complex(re, im)


def find_roots(p: Polynomial):
    """All roots of p with multiplicities; the multiplicities sum to deg p.

    Returns a list of (root, multiplicity, residual) triples, sorted by the
    floating value of the root.  A root is a GaussianRational when it was
    verified exactly and a complex number otherwise.

    Exact polynomials are split into square-free factors first, so their
    multiplicities are exact algebra and no two roots of a factor merge.
    This is find_roots_many of p alone.
    """
    [roots] = find_roots_many([p])
    if isinstance(roots, RatmapError):
        raise roots.with_traceback(None)
    return roots


def find_roots_many(polys) -> list:
    """find_roots of each polynomial, or the RatmapError it raises, which is not raised.

    The floating polynomials and the square-free factors of the exact ones
    are solved together (_roots_numeric), and each root has the bits of the
    lone solve.  A ValueError for a polynomial of degree < 1 is raised.
    """
    jobs = []  # (index of the polynomial, a polynomial to solve, its multiplicity)
    for i, p in enumerate(polys):
        if p.degree < 1:
            raise ValueError("find_roots needs degree >= 1")
        if p.is_exact:
            _, factors = squarefree_decomposition_exact(p)
            jobs.extend((i, factor, mult) for factor, mult in factors)
        else:
            jobs.append((i, p, 1))
    results = [[] for _ in polys]
    for (i, _, mult), solved in zip(jobs, _roots_numeric([f for _, f, _ in jobs])):
        if isinstance(results[i], RatmapError):
            continue  # its first failing factor decides
        if isinstance(solved, RatmapError):
            results[i] = solved
        else:
            results[i].extend((root, m * mult, res) for root, m, res in solved)
    for i, p in enumerate(polys):
        roots = results[i]
        if not p.is_exact or isinstance(roots, RatmapError):
            continue
        total = sum(m for _, m, _ in roots)
        if total != p.degree:
            results[i] = RootFindingFailedError(
                "multiplicities do not sum to the degree",
                found=total,
                degree=p.degree,
            )
        else:
            roots.sort(key=lambda t: (complex(t[0]).real, complex(t[0]).imag))
    return results


def _closed_form(rc: np.ndarray) -> np.ndarray:
    """The roots of a polynomial of degree 1 or 2, coefficients rc highest first."""
    if len(rc) == 2:
        return np.array([-rc[1] / rc[0]])
    a, b, c = rc
    disc = np.sqrt(b * b - 4 * a * c + 0j)
    q = -(b + disc) / 2 if abs(b + disc) >= abs(b - disc) else -(b - disc) / 2
    if abs(q) == 0:
        return np.array([0j, 0j])
    return np.array([q / a, c / q])


# overflow and NaN stay silent: _settle rejects the roots they spoil
@np.errstate(all="ignore")
def _roots_numeric(polys) -> list:
    """The roots of each floating polynomial, or of one square-free factor of
    an exact one, as find_roots lists them, or the RatmapError, not raised.

    Exact zeros at the origin are deflated first.  The rest of each
    polynomial is solved in a group of its own: the polynomials of one
    degree n share one _grouped_horner, one _aberth call from their
    Cauchy circles (the closed forms for n <= 2) and one _settle, whose
    operations on each point do not depend on the other groups.  Then each
    group is clustered (_clusters), a floating one only, and each multiple
    root merged on its own.
    """
    reduced, zero_mults = [], []
    for p in polys:
        work = list(p.coeffs)
        zero_mults.append(0)
        while len(work) > 1 and (
            work[-1].is_zero() if isinstance(work[-1], GaussianRational) else work[-1] == 0
        ):
            zero_mults[-1] += 1
            work.pop()
        reduced.append(Polynomial(work))
    scaled = {}  # index -> the coefficients of its reduced polynomial, largest modulus 1
    by_degree = {}
    for i, f in enumerate(reduced):
        if f.degree >= 1:
            rc = f.to_complex_array()
            scaled[i] = rc / max(abs(rc))
            by_degree.setdefault(f.degree, []).append(i)
    settled = {}
    for n, members in by_degree.items():
        coeffs = np.array([scaled[i] for i in members])
        evaluate = _grouped_horner(coeffs)
        if n <= 2:
            zs = [_closed_form(rc) for rc in coeffs]
        else:
            zs = _aberth(evaluate, [start_circle(n, 1.0 + float(max(abs(rc[1:] / rc[0]))))
                                    for rc in coeffs])

        def measure(z, coeffs=coeffs, n=n):
            return [_eval_scaled(rc, zi) for rc, zg in zip(coeffs, z.reshape(-1, n))
                    for zi in zg], None

        contexts = [{"degree": polys[i].degree} for i in members]
        settled.update(zip(members, _settle(evaluate, measure, zs, contexts)))
    results = []
    for i, p in enumerate(polys):
        try:
            results.append(_finish_roots(p, reduced[i], zero_mults[i], scaled.get(i),
                                         settled.get(i)))
        except RatmapError as err:
            results.append(err)
    return results


def _finish_roots(p, reduced, zero_mult, rc, settled):
    """find_roots' list for p from _settle's result for its reduced polynomial."""
    exact = p.is_exact
    results = []
    if zero_mult:
        results.append((GaussianRational(0) if exact else complex(0), zero_mult, 0.0))
    if settled is not None:
        if isinstance(settled, RootFindingFailedError):
            raise settled
        z, _ = settled
        if exact:
            # a square-free factor: two close approximations are two close
            # simple roots, never one multiple root, so nothing is clustered
            clusters = [[i] for i in range(len(z))]
        else:
            clusters, ambiguity = _clusters(z, None)
            if ambiguity is not None:
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
            if cand in snapped:
                raise MultiplicityAmbiguousError(
                    "approximations of distinct simple roots snap to one point",
                    point=str(cand),
                )
            snapped.add(cand)
            results.append((cand, 1, _eval_scaled(rc, complex(cand))))
    results.sort(key=lambda t: (complex(t[0]).real, complex(t[0]).imag))
    return results
