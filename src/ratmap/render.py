"""Escape/attraction-time rendering of Julia sets as binary PPM images.

Pixels iterate under the map until captured by a small chordal
neighbourhood of an attracting, superattracting or parabolic cycle; the
capture time drives the color, read from a table with one row per capture
time up to the largest in the image.  Pixels never captured (the Julia
locus at this resolution) are black.

A capture is defined by the chordal test alone: the chordal distance to a
target is below CAPTURE_RADIUS.  Where |z|^2 + 1 overflows, the norm
sqrt(|z|^2 + 1) in it is |z|, divided out before anything else multiplies
in, so a huge finite value keeps its true distance to a finite target.
Two cheaper tests are derived from the chordal one and decide the same
way.  For the infinity target the test is monotone in |z|, so it is a
threshold on |z|, found once per image by bisection over the float64
values; it is decided from |z| alone, since every non-finite value fails
|z| < threshold too.  For a finite target t every capture has
||z| - |t|| below a bound that depends on t only, so the chordal test runs
only on the values within it; a target whose screen passes no value costs
no chordal arithmetic at all.

The grid is iterated in fixed blocks of BLOCK_PIXELS pixels, small enough
for the cache, one block after the other.  Within a block only the pixels
still in flight are advanced: each step evaluates the map by in-place
Horner from the leading coefficient, tests the captures and drops the
captured pixels, so its cost follows the active set, not the grid; a step
that captures and drops nothing gathers nothing.  Each step does only the
arithmetic that can change a capture time.  Horner skips its exact
no-ops, the product by a leading 1 and the sum with a zero coefficient,
and a denominator that is the constant 1 is not evaluated or divided by.
On finite values each of these changes at most the sign of a zero part.
That sign changes no magnitude in a later sum, product or division, and
no test against a zero denominator, so no capture reads it, and the
capture times and the image are byte for byte those of the plain loop.
Every pixel sees the same floating-point operations in the same order
whatever the block size, so the capture times do not depend on it.  On a
map without an infinity target, a finite value whose Horner overflows in
the chart of z is stepped again through the 1/z-chart pair, as
RationalMap.evaluate steps it, so an orbit that is huge but finite is not
lost.  The targets are the cycles of period <= 2 of the floating map,
whose solves an analysis of the same map has memoized already.  A map
with no such cycle has nothing to capture, so its image is all black and
no pixel is iterated.  An image in which no pixel is captured is written
as its zero bytes directly, with no color table.  The output is
deterministic for a fixed configuration.

Output format: binary PPM (P6), 8-bit RGB, header "P6\\n<w> <h>\\n255\\n"
followed by rows top to bottom, left to right.
"""

from __future__ import annotations

import numpy as np

from .dynamics import periodic_cycles
from .rational import RationalMap

CAPTURE_RADIUS = 1e-3
# pixels iterated together: 16 384 complex128 values are 256 KB
BLOCK_PIXELS = 16384


def _infinity_threshold() -> float:
    """The least |z| captured by an infinity target.

    The chordal test 2/sqrt(|z|^2 + 1) < CAPTURE_RADIUS is made of monotone
    floating-point operations, so it holds exactly from this value up.
    Non-negative float64 values are ordered as their bit patterns, so the
    value is found by bisection over the patterns, in about 63 steps.
    """
    lo, hi = 0, 0x7FF0000000000000  # the patterns of 0.0 and inf
    with np.errstate(over="ignore"):
        while hi - lo > 1:
            mid = (lo + hi) // 2
            a = np.int64(mid).view(np.float64)
            if 2.0 / np.sqrt(a * a + 1.0) < CAPTURE_RADIUS:
                hi = mid
            else:
                lo = mid
    return float(np.int64(hi).view(np.float64))


def _captured(z: np.ndarray, targets, a_inf: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks (captured, dropped) over an array of chart values.

    A value is captured when its chordal distance to some target (None
    encodes infinity) is below CAPTURE_RADIUS; NaN/inf entries mean 'at
    infinity'.  A dropped value is captured or non-finite; with an infinity
    target every non-finite value is captured, so dropped is captured
    itself.  a_inf is _infinity_threshold(): a capture by infinity is
    ~(|z| < a_inf), which holds for every non-finite z too.  The chordal
    expression 2|z - t| / (sqrt(|z|^2 + 1) sqrt(|t|^2 + 1)) is the one
    definition of a capture by a finite target t, with |z| for the norm
    where |z|^2 + 1 overflows; it is evaluated only on the values that pass
    a screen on |z| which every capture passes.
    """
    a = np.abs(z)
    if None in targets:
        hit = ~(a < a_inf)
        bad = None
    else:
        hit = np.zeros(z.shape, dtype=bool)
        bad = ~np.isfinite(z)
    for target in targets:
        if target is None:
            continue
        tnorm = np.sqrt(abs(target) ** 2 + 1.0)
        overflowed = None
        if CAPTURE_RADIUS * tnorm < 1.0:
            # |z - t| >= ||z| - |t|| and sqrt(|z|^2 + 1) <= tnorm + ||z| - |t||,
            # so a capture has ||z| - |t|| < R tnorm^2 / (2 - R tnorm); the
            # factor 2 is margin for rounding
            bound = 2.0 * CAPTURE_RADIUS * tnorm**2 / (2.0 - CAPTURE_RADIUS * tnorm)
            near = np.flatnonzero(np.abs(a - abs(target)) < bound)
        else:  # the bound grows without limit as R tnorm nears 2: check every finite z
            near = np.flatnonzero(np.isfinite(z))
            # a finite z such as 1.5e308+1.5e308j whose |z| itself overflows
            overflowed = np.isinf(a[near])
            if bad is not None and 2.0 / tnorm < CAPTURE_RADIUS:
                hit |= bad  # infinity lies inside this target's disc
        if near.size == 0:
            continue
        an = a[near]
        dist = np.abs(z[near] - target)
        norm = np.sqrt(an**2 + 1.0)
        d = 2.0 * dist / (norm * tnorm)
        # where |z|^2 + 1 overflows the norm is |z|, divided out first so
        # that no product overflows either
        huge = np.isinf(norm)
        d[huge] = 2.0 * (dist[huge] / an[huge]) / tnorm
        if overflowed is not None:
            # where |z| overflows too, |z - t| / |z| is |1 - t/z|
            d[overflowed] = 2.0 * np.abs(1.0 - target / z[near[overflowed]]) / tnorm
        hit[near[d < CAPTURE_RADIUS]] = True
    return hit, (hit if bad is None else hit | bad)


def _capture_targets(cycles):
    return [None if p.is_infinity else complex(p.z)
            for cyc in cycles if cyc.has_basin for p in cyc.points]


def _capture_times(r: RationalMap, render_cfg) -> np.ndarray:
    """The h x w grid of capture iterations; -1 marks a pixel never captured."""
    render_cfg.validate()
    w, h = render_cfg.width, render_cfg.height
    xmin, xmax, ymin, ymax = render_cfg.window
    times = np.full(h * w, -1, dtype=int)
    cycles, _, _ = periodic_cycles(r.floating(), 2)
    targets = _capture_targets(cycles)
    if not targets:
        return times.reshape(h, w)

    xs = xmin + (xmax - xmin) * (np.arange(w) + 0.5) / w
    ys = ymax - (ymax - ymin) * (np.arange(h) + 0.5) / h
    z = (xs[None, :] + 1j * ys[:, None]).ravel()
    pc = r.floating().p.to_complex_array()
    qc = r.floating().q.to_complex_array()
    # the homogeneous table's rows backwards, (P_d, Q_d) first: the 1/z-chart pair
    rev = None if None in targets else np.array(r.floating().homogeneous, complex)[::-1]
    a_inf = _infinity_threshold()
    # overflow, or division by zero at a pole, gives the inf or NaN by which
    # a pixel reaches infinity
    with np.errstate(all="ignore"):
        for start in range(0, h * w, BLOCK_PIXELS):
            block = slice(start, start + BLOCK_PIXELS)
            _iterate_block(z[block], times[block], targets, a_inf, pc, qc, rev,
                           render_cfg.max_iter)
    return times.reshape(h, w)


def _horner(coeffs, z: np.ndarray) -> np.ndarray:
    """The polynomial with coefficients coeffs, highest degree first, at z.

    Horner runs in place from the leading coefficient, without its exact
    no-ops: a leading 1 starts from a copy of z instead of 1*z, and a zero
    coefficient is not added.  For finite z each of these, like starting
    from c0 rather than 0*z + c0, changes at most the sign of a zero part,
    which changes no magnitude in a later sum, product or division, and so
    no capture.
    """
    if len(coeffs) == 1:
        return np.full_like(z, coeffs[0])
    if coeffs[0] == 1:
        acc = z.copy()
    else:
        acc = np.full_like(z, coeffs[0])
        acc *= z
    for i, c in enumerate(coeffs[1:]):
        if i:
            acc *= z
        if c != 0:
            acc += c
    return acc


def _iterate_block(z: np.ndarray, times: np.ndarray, targets, a_inf: float, pc, qc, rev,
                   max_iter: int):
    """Iterate the pixels z of one block, writing their capture times into times.

    rev is the 1/z-chart pair on a map without an infinity target and None
    on a map with one.
    """
    # idx holds the block indices of the pixels in flight, z their chart values
    hit, _ = _captured(z, targets, a_inf)
    times[hit] = 0
    idx = np.flatnonzero(~hit)
    z = z[idx]
    # dividing by 1 is exact up to the sign of a zero part, which no capture reads
    unit_den = len(qc) == 1 and qc[0] == 1
    for it in range(1, max_iter + 1):
        if idx.size == 0:
            break
        num = _horner(pc, z)
        if not unit_den:
            den = _horner(qc, z)
            num /= den
        hit, dropped = _captured(num, targets, a_inf)
        if dropped.any():
            if rev is not None:
                # a non-finite value off a pole overflowed in the chart of z:
                # step it again in the 1/z chart
                over = np.flatnonzero(dropped)
                over = over[~np.isfinite(num[over]) & (unit_den or den[over] != 0)]
                if over.size:
                    t = 1.0 / z[over]
                    num[over] = _horner(rev[:, 0], t) / _horner(rev[:, 1], t)
                    hit[over], dropped[over] = _captured(num[over], targets, a_inf)
            # a blown-up value is captured by an infinity target or dropped
            times[idx[hit]] = it
            keep = ~dropped
            idx = idx[keep]
            num = num[keep]
        z = num


def render_julia(r: RationalMap, render_cfg) -> bytes:
    """Render the capture-time picture as PPM bytes."""
    times = _capture_times(r, render_cfg)
    h, w = times.shape
    header = f"P6\n{w} {h}\n255\n".encode()
    if times.max() < 0:  # nothing captured: every pixel is black
        return header + bytes(3 * w * h)
    return header + _color(times, render_cfg.max_iter).tobytes()


def _color(times: np.ndarray, max_iter: int) -> np.ndarray:
    """The RGB image of a capture-time grid; never-captured pixels are black.

    The color of each capture time up to the largest one in the grid is
    computed once into a table whose row 0 is black, and the image is read
    from it at times + 1.
    """
    t = np.arange(times.max() + 1).astype(float) / max(1, max_iter)
    table = np.zeros((t.size + 1, 3), dtype=np.uint8)
    table[1:, 0] = (40 + 215 * t).astype(np.uint8)
    table[1:, 1] = (20 + 160 * np.sqrt(t)).astype(np.uint8)
    table[1:, 2] = (90 + 165 * (1 - t)).astype(np.uint8)
    return np.take(table, times + 1, axis=0)


def max_iteration_mask(r: RationalMap, render_cfg) -> np.ndarray:
    """Boolean grid of pixels never captured; used by the acceptance checks."""
    return _capture_times(r, render_cfg) < 0
