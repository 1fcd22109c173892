"""Escape/attraction-time rendering of Julia sets as binary PPM images.

Pixels iterate under the map until captured by a small chordal
neighbourhood of an attracting, superattracting or parabolic cycle; the
capture time drives the color.  Pixels never captured (the Julia locus at
this resolution) are black.  The grid is iterated in fixed blocks of
BLOCK_PIXELS pixels, small enough for the cache, one block after the
other.  Within a block only the pixels still in flight are advanced: each
step evaluates the map by in-place Horner, measures the distance to the
targets and drops the captured pixels, so its cost follows the active set,
not the grid.  Every pixel sees the same floating-point operations in the
same order whatever the block size, so the capture times do not depend on
it.  A map with no such cycle of period <= 2 has nothing to capture, so its
image is all black and no pixel is iterated.  The output is deterministic
for a fixed configuration.

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


def _captured(z: np.ndarray, targets) -> tuple[np.ndarray, np.ndarray]:
    """Masks (captured, non-finite) over an array of chart values.

    A value is captured when its chordal distance to some target (None
    encodes infinity) is below CAPTURE_RADIUS; NaN/inf entries mean 'at
    infinity'.
    """
    bad = ~np.isfinite(z)
    zs = np.where(bad, 0.0, z)
    norm = np.sqrt(np.abs(zs) ** 2 + 1.0)
    hit = np.zeros(z.shape, dtype=bool)
    for target in targets:
        if target is None:
            hit |= bad | (2.0 / norm < CAPTURE_RADIUS)
            continue
        tnorm = np.sqrt(abs(target) ** 2 + 1.0)
        d = 2.0 * np.abs(zs - target) / (norm * tnorm)
        if 2.0 / tnorm < CAPTURE_RADIUS:  # infinity lies inside this target's disc
            hit |= bad
        hit |= ~bad & (d < CAPTURE_RADIUS)
    return hit, bad


def _capture_targets(r: RationalMap, cycles):
    targets = []
    for cyc in cycles or ():
        if cyc.classification not in (
            "superattracting", "attracting", "rationally_indifferent"
        ):
            continue
        for p in cyc.points:
            targets.append(None if p.is_infinity else complex(p.z))
    return targets


def _capture_times(r: RationalMap, render_cfg, cycles=None) -> np.ndarray:
    """The h x w grid of capture iterations; -1 marks a pixel never captured."""
    render_cfg.validate()
    w, h = render_cfg.width, render_cfg.height
    xmin, xmax, ymin, ymax = render_cfg.window
    times = np.full(h * w, -1, dtype=int)
    if cycles is None:
        cycles, _, _ = periodic_cycles(r.floating(), 2)
    targets = _capture_targets(r, cycles)
    if not targets:
        return times.reshape(h, w)

    xs = xmin + (xmax - xmin) * (np.arange(w) + 0.5) / w
    ys = ymax - (ymax - ymin) * (np.arange(h) + 0.5) / h
    z = (xs[None, :] + 1j * ys[:, None]).astype(complex).ravel()
    pc = r.floating().p.to_complex_array()
    qc = r.floating().q.to_complex_array()
    # overflow, or division by zero at a pole, gives the inf or NaN by which
    # a pixel reaches infinity
    with np.errstate(all="ignore"):
        for start in range(0, h * w, BLOCK_PIXELS):
            block = slice(start, start + BLOCK_PIXELS)
            _iterate_block(z[block], times[block], targets, pc, qc, render_cfg.max_iter)
    return times.reshape(h, w)


def _iterate_block(z: np.ndarray, times: np.ndarray, targets, pc, qc, max_iter: int):
    """Iterate the pixels z of one block, writing their capture times into times."""
    # idx holds the block indices of the pixels in flight, z their chart values
    hit, _ = _captured(z, targets)
    times[hit] = 0
    idx = np.flatnonzero(~hit)
    z = z[idx]
    for it in range(1, max_iter + 1):
        if idx.size == 0:
            break
        num = np.zeros_like(z)
        for c in pc:
            num *= z
            num += c
        den = np.zeros_like(z)
        for c in qc:
            den *= z
            den += c
        num /= den
        z = num
        hit, bad = _captured(z, targets)
        times[idx[hit]] = it
        # a blown-up value is captured by an infinity target or dropped
        keep = ~(hit | bad)
        idx = idx[keep]
        z = z[keep]


def render_julia(r: RationalMap, render_cfg, cycles=None) -> bytes:
    """Render the capture-time picture as PPM bytes."""
    times = _capture_times(r, render_cfg, cycles)
    h, w = times.shape
    rgb = np.zeros((h, w, 3), dtype=np.uint8)
    escaped = times >= 0
    t = np.where(escaped, times, 0).astype(float) / max(1, render_cfg.max_iter)
    rgb[..., 0] = np.where(escaped, (40 + 215 * t).astype(np.uint8), 0)
    rgb[..., 1] = np.where(escaped, (20 + 160 * np.sqrt(t)).astype(np.uint8), 0)
    rgb[..., 2] = np.where(escaped, (90 + 165 * (1 - t)).astype(np.uint8), 0)

    header = f"P6\n{w} {h}\n255\n".encode()
    return header + rgb.tobytes()


def max_iteration_mask(r: RationalMap, render_cfg, cycles=None) -> np.ndarray:
    """Boolean grid of pixels never captured; used by the acceptance checks."""
    return _capture_times(r, render_cfg, cycles) < 0
