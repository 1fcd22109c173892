"""Escape/attraction-time rendering of Julia sets as binary PPM images.

Pixels iterate under the map until captured by a small chordal
neighbourhood of an attracting, superattracting or parabolic cycle; the
capture time drives the color, read from a table with one row per capture
time up to the largest in the image.  Pixels never captured (the Julia
locus at this resolution) are black.

A capture is defined by the chordal test alone: the chordal distance to a
target is below CAPTURE_RADIUS.  Two cheaper tests are derived from it and
decide the same way.  For the infinity target the test is monotone in |z|,
so it is a threshold on |z|, found once per image by bisection over the
float64 values.  For a finite target t every capture has ||z| - |t|| below
a bound that depends on t only, so the chordal test runs only on the
values within it.

The grid is iterated in fixed blocks of BLOCK_PIXELS pixels, small enough
for the cache, one block after the other.  Within a block only the pixels
still in flight are advanced: each step evaluates the map by in-place
Horner from the leading coefficient, tests the captures and drops the
captured pixels, so its cost follows the active set, not the grid.  Every
pixel sees the same floating-point operations in the same order whatever
the block size, so the capture times do not depend on it.  A map with no
such cycle of period <= 2 has nothing to capture, so its image is all black
and no pixel is iterated.  The output is deterministic for a fixed
configuration.

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
    """Masks (captured, non-finite) over an array of chart values.

    A value is captured when its chordal distance to some target (None
    encodes infinity) is below CAPTURE_RADIUS; NaN/inf entries mean 'at
    infinity'.  a_inf is _infinity_threshold().  The chordal expression
    2|z - t| / (sqrt(|z|^2 + 1) sqrt(|t|^2 + 1)) is the one definition of
    a capture by a finite target t; it is evaluated only on the values that
    pass a screen on |z| which every capture passes.
    """
    a = np.abs(z)
    bad = ~np.isfinite(z)
    if None in targets:
        hit = bad | (a >= a_inf)
        wide = np.empty(0, dtype=np.intp)
    else:
        hit = np.zeros(z.shape, dtype=bool)
        # for a huge finite z, |z|^2 overflows the chordal norm to inf and the
        # expression can read 0, a capture no screen on |z| foresees; the
        # infinity test captures those values first, so only without it are
        # the finite values from a_inf up checked against every target
        wide = np.flatnonzero(a >= a_inf)
        wide = wide[~bad[wide]]
    for target in targets:
        if target is None:
            continue
        tnorm = np.sqrt(abs(target) ** 2 + 1.0)
        if CAPTURE_RADIUS * tnorm < 1.0:
            # |z - t| >= ||z| - |t|| and sqrt(|z|^2 + 1) <= tnorm + ||z| - |t||,
            # so a capture has ||z| - |t|| < R tnorm^2 / (2 - R tnorm); the
            # factor 2 is margin for rounding
            bound = 2.0 * CAPTURE_RADIUS * tnorm**2 / (2.0 - CAPTURE_RADIUS * tnorm)
            near = np.flatnonzero(np.abs(a - abs(target)) < bound)
            near = np.concatenate((near, wide))
        else:  # the bound grows without limit as R tnorm nears 2: check every value
            near = np.flatnonzero(~bad)
            if 2.0 / tnorm < CAPTURE_RADIUS:  # infinity lies inside this target's disc
                hit |= bad
        d = 2.0 * np.abs(z[near] - target) / (np.sqrt(a[near] ** 2 + 1.0) * tnorm)
        hit[near[d < CAPTURE_RADIUS]] = True
    return hit, bad


def _capture_targets(cycles):
    return [None if p.is_infinity else complex(p.z)
            for cyc in cycles if cyc.has_basin for p in cyc.points]


def _capture_times(r: RationalMap, render_cfg, cycles=None) -> np.ndarray:
    """The h x w grid of capture iterations; -1 marks a pixel never captured."""
    render_cfg.validate()
    w, h = render_cfg.width, render_cfg.height
    xmin, xmax, ymin, ymax = render_cfg.window
    times = np.full(h * w, -1, dtype=int)
    if cycles is None:
        cycles, _, _ = periodic_cycles(r.floating(), 2)
    targets = _capture_targets(cycles)
    if not targets:
        return times.reshape(h, w)

    xs = xmin + (xmax - xmin) * (np.arange(w) + 0.5) / w
    ys = ymax - (ymax - ymin) * (np.arange(h) + 0.5) / h
    z = (xs[None, :] + 1j * ys[:, None]).ravel()
    pc = r.floating().p.to_complex_array()
    qc = r.floating().q.to_complex_array()
    a_inf = _infinity_threshold()
    # overflow, or division by zero at a pole, gives the inf or NaN by which
    # a pixel reaches infinity
    with np.errstate(all="ignore"):
        for start in range(0, h * w, BLOCK_PIXELS):
            block = slice(start, start + BLOCK_PIXELS)
            _iterate_block(z[block], times[block], targets, a_inf, pc, qc,
                           render_cfg.max_iter)
    return times.reshape(h, w)


def _iterate_block(z: np.ndarray, times: np.ndarray, targets, a_inf: float, pc, qc,
                   max_iter: int):
    """Iterate the pixels z of one block, writing their capture times into times."""
    # idx holds the block indices of the pixels in flight, z their chart values
    hit, _ = _captured(z, targets, a_inf)
    times[hit] = 0
    idx = np.flatnonzero(~hit)
    z = z[idx]
    for it in range(1, max_iter + 1):
        if idx.size == 0:
            break
        # z is finite, so starting at the leading coefficient differs from
        # 0*z + c0 at most in the sign of a zero part
        num = np.full_like(z, pc[0])
        for c in pc[1:]:
            num *= z
            num += c
        den = np.full_like(z, qc[0])
        for c in qc[1:]:
            den *= z
            den += c
        num /= den
        z = num
        hit, bad = _captured(z, targets, a_inf)
        times[idx[hit]] = it
        # a blown-up value is captured by an infinity target or dropped
        keep = ~(hit | bad)
        idx = idx[keep]
        z = z[keep]


def render_julia(r: RationalMap, render_cfg, cycles=None) -> bytes:
    """Render the capture-time picture as PPM bytes."""
    times = _capture_times(r, render_cfg, cycles)
    h, w = times.shape
    rgb = _color(times, render_cfg.max_iter)
    header = f"P6\n{w} {h}\n255\n".encode()
    return header + rgb.tobytes()


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


def max_iteration_mask(r: RationalMap, render_cfg, cycles=None) -> np.ndarray:
    """Boolean grid of pixels never captured; used by the acceptance checks."""
    return _capture_times(r, render_cfg, cycles) < 0
