from __future__ import annotations

import hashlib

import numpy as np
import pytest

import ratmap.render
from ratmap.dynamics import periodic_cycles
from ratmap.errors import ConfigError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.render import (
    _capture_targets,
    _capture_times,
    _captured,
    _color,
    _infinity_threshold,
    max_iteration_mask,
    render_julia,
)
from ratmap.report import RenderConfig, parse_map

from .test_report import WORKED_MAPS


def test_ppm_header_and_size():
    r = RationalMap(Polynomial([1, 0, 0]), Polynomial([1]))
    cfg = RenderConfig(width=64, height=48, window=(-1.5, 1.5, -1.5, 1.5), max_iter=40)
    data = render_julia(r, cfg)
    assert data.startswith(b"P6\n64 48\n255\n")
    header = len(b"P6\n64 48\n255\n")
    assert len(data) - header == 64 * 48 * 3


def test_render_deterministic():
    r = RationalMap(Polynomial([1, 0, -2]), Polynomial([1]))
    cfg = RenderConfig(width=50, height=50, window=(-2.2, 2.2, -2.2, 2.2), max_iter=50)
    assert render_julia(r, cfg) == render_julia(r, cfg)


def test_degenerate_window_rejected():
    r = RationalMap(Polynomial([1, 0, 0]), Polynomial([1]))
    cfg = RenderConfig(width=10, height=10, window=(0.0, 0.0, -1.0, 1.0))
    with pytest.raises(ConfigError):
        render_julia(r, cfg)


def test_unit_circle_locus_small():
    # z^2 at modest resolution: uncaptured pixels hug the unit circle.
    # the iteration budget is matched to the pixel scale; a much larger
    # budget captures everything except the measure-zero circle itself
    r = RationalMap(Polynomial([1, 0, 0]), Polynomial([1]))
    cfg = RenderConfig(width=160, height=160, window=(-1.5, 1.5, -1.5, 1.5), max_iter=8)
    mask = max_iteration_mask(r, cfg)
    assert np.array_equal(mask, _capture_times(r, cfg) < 0)
    ys, xs = np.nonzero(mask)
    assert len(xs) > 0
    cx = -1.5 + 3.0 * (xs + 0.5) / 160
    cy = 1.5 - 3.0 * (ys + 0.5) / 160
    z = cx + 1j * cy
    radius_err = np.abs(np.abs(z) - 1.0)
    assert (radius_err < 0.05).mean() > 0.9


# sha256 of the PPM bytes at 120x90 over [-2, 2] x [-1.5, 1.5] with 60
# iterations, recorded from a renderer that advanced the whole grid every
# step: advancing only the pixels in flight must not change a byte
PINNED_DIGESTS = [
    ([1, 0, -2], [1], "90db15206943e3384dd1a032f788421a233c670eaa1af8a7921f627216bbad14"),
    ([1, -4, 4], [1, 0, 0], "2f936ac02e497af412f2416785b5b3448c1f55952976411b3e5bfcd8a6897e62"),
    ([1, 0, 0], [1], "521b732cc61315a048011d234707ac2143c83bf7a8fc174963d12b365436d9ec"),
    # no infinity target: pixels blown up at the pole are dropped
    ([1, 0, 1], [2, 0], "e8cdef2292b1dc35d42f52d8ac3f59bf19bc1ac6d58e52287fc4845bcc6e6be5"),
    ([1, 0, -1], [1], "ec662d195aeb445a24191618d832512b880ce5c2871d9fda02827b52be8ac25c"),
]


@pytest.mark.parametrize("num, den, digest", PINNED_DIGESTS)
def test_render_bytes_pinned(num, den, digest):
    r = RationalMap(Polynomial(num), Polynomial(den))
    cfg = RenderConfig(width=120, height=90, window=(-2.0, 2.0, -1.5, 1.5), max_iter=60)
    assert hashlib.sha256(render_julia(r, cfg)).hexdigest() == digest


def test_map_without_capture_target_is_all_black():
    # (z-2)^2/z^2 has no attracting or parabolic cycle: its Julia set is the sphere
    r = RationalMap(Polynomial([1, -4, 4]), Polynomial([1, 0, 0]))
    cfg = RenderConfig(width=40, height=30, window=(-3.0, 3.0, -3.0, 3.0), max_iter=50)
    assert (_capture_times(r, cfg) == -1).all()
    header = b"P6\n40 30\n255\n"
    assert render_julia(r, cfg) == header + bytes(40 * 30 * 3)


def test_pole_pixel_captured_by_a_far_target():
    # 3000 + (z-3000)^2/(z^2+1) has a superattracting fixed point at 3000,
    # whose capture disc contains infinity; the centre pixel sits on the
    # pole z = i, is sent to infinity and is captured there at once
    r = RationalMap(Polynomial([3001, -6000, 9003000]), Polynomial([1, 0, 1]))
    cfg = RenderConfig(width=3, height=3, window=(-1.0, 1.0, -1.0, 3.0), max_iter=30)
    assert (_capture_times(r, cfg) == 1).all()


# sha256 of the PPM bytes of the worked maps at the default 800x800 config,
# which spans many blocks; recorded from the whole-grid renderer
WORKED_MAP_DIGESTS = [
    "8c7e58df60ae511fa8a19500a289c54dd469d68822b0391fe11cd060cd10dadb",  # z^2 - 2
    "8be7eb7e98d208ff1ff5a7547c3c4b07b0d14d8a3d7c45ac0dd32b84a7329458",  # (z-2)^2/z^2
    "80618930c36678d2b5c62de49a7ea84abe6f10f60f627796a42aaeca3c7ffb44",  # z^2
]


@pytest.mark.parametrize("doc, digest", zip(WORKED_MAPS, WORKED_MAP_DIGESTS))
def test_worked_map_images_pinned(doc, digest):
    data = render_julia(parse_map(doc), RenderConfig())
    assert hashlib.sha256(data).hexdigest() == digest


def _reference_captured(z, targets):
    """Reference: the chordal capture test evaluated on every value for every target."""
    bad = ~np.isfinite(z)
    zs = np.where(bad, 0.0, z)
    norm = np.sqrt(np.abs(zs) ** 2 + 1.0)
    hit = np.zeros(z.shape, dtype=bool)
    for target in targets:
        if target is None:
            hit |= bad | (2.0 / norm < ratmap.render.CAPTURE_RADIUS)
            continue
        tnorm = np.sqrt(abs(target) ** 2 + 1.0)
        d = 2.0 * np.abs(zs - target) / (norm * tnorm)
        if 2.0 / tnorm < ratmap.render.CAPTURE_RADIUS:
            hit |= bad
        hit |= ~bad & (d < ratmap.render.CAPTURE_RADIUS)
    return hit, bad


def _whole_grid_capture_times(r, render_cfg):
    """Reference: every step advances all pixels in flight over the whole grid."""
    w, h = render_cfg.width, render_cfg.height
    xmin, xmax, ymin, ymax = render_cfg.window
    times = np.full(h * w, -1, dtype=int)
    cycles, _, _ = periodic_cycles(r.floating(), 2)
    targets = _capture_targets(cycles)
    if not targets:
        return times.reshape(h, w)

    xs = xmin + (xmax - xmin) * (np.arange(w) + 0.5) / w
    ys = ymax - (ymax - ymin) * (np.arange(h) + 0.5) / h
    z = (xs[None, :] + 1j * ys[:, None]).astype(complex).ravel()
    pc = r.floating().p.to_complex_array()
    qc = r.floating().q.to_complex_array()

    hit, _ = _reference_captured(z, targets)
    times[hit] = 0
    idx = np.flatnonzero(~hit)
    z = z[idx]
    for it in range(1, render_cfg.max_iter + 1):
        if idx.size == 0:
            break
        with np.errstate(all="ignore"):
            num = np.zeros_like(z)
            for c in pc:
                num = num * z + c
            den = np.zeros_like(z)
            for c in qc:
                den = den * z + c
            z = np.where(den == 0.0, np.inf, num / den)
            hit, bad = _reference_captured(z, targets)
        times[idx[hit]] = it
        keep = ~(hit | bad)
        idx = idx[keep]
        z = z[keep]
    return times.reshape(h, w)


PARITY_MAPS = [(num, den) for num, den, _ in PINNED_DIGESTS] + [
    ([4, 0, 1], [4]),  # z^2 + 1/4: parabolic fixed point 1/2
    ([1, 0, 0, 0], [3, 0, 0, 1]),  # z^3/(3z^3 + 1)
    # decimal coefficients with -0.0 imaginary parts: Horner that starts at
    # the leading coefficient differs from 0*z + c0 in the sign of a zero
    (["1.0-0.0i", "0.0", "-1.0-0.0i"], ["1.0-0.0i"]),
    (["1.0-0.0i", "0.0", "0.0"], ["-1.0-0.0i"]),
]
PARITY_CONFIGS = [
    # 77 357 pixels: the last block is partial
    RenderConfig(width=301, height=257, window=(-2.0, 2.0, -1.5, 1.5), max_iter=60),
    # smaller than one block
    RenderConfig(width=120, height=90, window=(-2.0, 2.0, -1.5, 1.5), max_iter=1),
    RenderConfig(width=120, height=90, window=(-2.0, 2.0, -1.5, 1.5), max_iter=200),
]


@pytest.mark.parametrize("cfg", PARITY_CONFIGS)
@pytest.mark.parametrize("num, den", PARITY_MAPS)
def test_capture_times_match_the_whole_grid_loop(num, den, cfg):
    r = parse_map({"numerator": num, "denominator": den})
    assert np.array_equal(_capture_times(r, cfg), _whole_grid_capture_times(r, cfg))


def test_pole_map_matches_the_whole_grid_loop():
    r = RationalMap(Polynomial([3001, -6000, 9003000]), Polynomial([1, 0, 1]))
    for cfg in [RenderConfig(width=3, height=3, window=(-1.0, 1.0, -1.0, 3.0), max_iter=30),
                *PARITY_CONFIGS]:
        assert np.array_equal(_capture_times(r, cfg), _whole_grid_capture_times(r, cfg))


@pytest.mark.parametrize("block_pixels", [1, 7, 500, 1201, 16385])
def test_capture_times_do_not_depend_on_the_block_size(monkeypatch, block_pixels):
    # z^2 + 1/4 and z^2 each have a finite target and the infinity target;
    # 161 x 103 pixels span two blocks of either 16 384 or 16 385
    size = (40, 30) if block_pixels < 16384 else (161, 103)
    cfg = RenderConfig(width=size[0], height=size[1], window=(-2.0, 2.0, -1.5, 1.5),
                       max_iter=80)
    for num, den in (([4, 0, 1], [4]), ([1, 0, 0], [1])):
        r = RationalMap(Polynomial(num), Polynomial(den))
        expected = _capture_times(r, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(ratmap.render, "BLOCK_PIXELS", block_pixels)
            assert np.array_equal(_capture_times(r, cfg), expected)


def test_infinity_threshold_is_where_the_chordal_test_turns():
    a_inf = _infinity_threshold()
    assert a_inf == 1999.9997499999845
    below = np.nextafter(a_inf, 0.0)
    hit, _ = _reference_captured(np.array([a_inf, below, -a_inf, -below], dtype=complex), [None])
    assert hit.tolist() == [True, False, True, False]


# the screen on |z| is nearly tight for targets far out, such as 900
CAPTURE_TEST_TARGETS = [0.0, 0.5 + 0.25j, 1e-9j, 900.0, -600 + 700j]


def _disc_boundary_points(target, rng, rays=64):
    """Points a few ulps either side of target's capture-disc boundary, on random rays."""
    u = np.exp(2j * np.pi * rng.random(rays))
    lo, hi = np.zeros(rays), np.full(rays, 1e4)
    for _ in range(100):  # bisect each ray's boundary radius to the last bit
        mid = (lo + hi) / 2
        inside, _ = _reference_captured(target + mid * u, [target])
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    steps = np.arange(-4, 5)
    radii = hi[:, None] * (1.0 + steps[None, :] * np.finfo(float).eps)
    return (target + radii * u[:, None]).ravel()


def _capture_test_values(rng):
    a_inf = _infinity_threshold()
    ulps = a_inf + np.arange(-6, 7) * np.spacing(a_inf)
    angles = np.exp(2j * np.pi * rng.random(ulps.size))
    inf, nan = np.inf, np.nan
    special = np.array([
        complex(inf, 0), complex(-inf, 1), complex(0, inf), complex(nan, 0),
        complex(0, nan), complex(inf, nan), complex(nan, -inf), complex(inf, inf),
        # finite values whose |z| or |z|^2 overflows
        1e200, 8e307j, complex(1.5e308, 1.5e308), 1.3e154, 1.4e154,
    ])
    return np.concatenate([
        ulps, -ulps, 1j * ulps, ulps * angles, special,
        *(_disc_boundary_points(t, rng) for t in CAPTURE_TEST_TARGETS),
        3000 + 10.0 ** rng.uniform(-3, 6, 200) * np.exp(2j * np.pi * rng.random(200)),
        10.0 ** rng.uniform(-12, 4, 400) * np.exp(2j * np.pi * rng.random(400)),
    ])


@pytest.mark.parametrize("length", [1, 7, 16384, 16385])
@pytest.mark.parametrize("targets", [
    [None],
    [0.0, None],
    [0.5 + 0.25j],
    [1e-9j, 0.5 + 0.25j],
    [900.0, -600 + 700j, 0.0],
    [3000.0],  # its disc holds infinity
    [None, 3000.0, 0.0],
    [3000.0, 1e-9j],
])
def test_capture_test_matches_the_chordal_reference(length, targets):
    rng = np.random.default_rng(length)
    values = _capture_test_values(rng)
    a_inf = _infinity_threshold()
    for _ in range(max(1, 3 * values.size // length)):
        z = rng.choice(values, length)
        with np.errstate(all="ignore"):  # as in _capture_times
            hit, bad = _captured(z, targets, a_inf)
            ref_hit, ref_bad = _reference_captured(z, targets)
        assert np.array_equal(bad, ref_bad)
        assert np.array_equal(hit, ref_hit)


def _reference_color(times, max_iter):
    """Reference: each pixel's color computed from its capture time."""
    rgb = np.zeros((*times.shape, 3), dtype=np.uint8)
    escaped = times >= 0
    t = np.where(escaped, times, 0).astype(float) / max(1, max_iter)
    rgb[..., 0] = np.where(escaped, (40 + 215 * t).astype(np.uint8), 0)
    rgb[..., 1] = np.where(escaped, (20 + 160 * np.sqrt(t)).astype(np.uint8), 0)
    rgb[..., 2] = np.where(escaped, (90 + 165 * (1 - t)).astype(np.uint8), 0)
    return rgb


@pytest.mark.parametrize("max_iter", [1, 2, 60, 100, 1000])
def test_color_table_matches_the_per_pixel_formula(max_iter):
    rng = np.random.default_rng(max_iter)
    for shape in [(1, 1), (7, 3), (90, 120)]:
        times = rng.integers(-1, max_iter + 1, size=shape)
        assert np.array_equal(_color(times, max_iter), _reference_color(times, max_iter))
    black = np.full((5, 4), -1)
    assert np.array_equal(_color(black, max_iter), np.zeros((5, 4, 3), dtype=np.uint8))


def test_color_table_is_sized_by_the_capture_times():
    # every pixel near 0 is captured within a few steps, so a huge budget
    # costs neither iterations nor a table row per allowed step
    r = RationalMap(Polynomial([1, 0, 0]), Polynomial([1]))
    cfg = RenderConfig(width=4, height=4, window=(-0.1, 0.1, -0.1, 0.1), max_iter=10**12)
    times = _capture_times(r, cfg)
    assert 0 <= times.min() and times.max() < 5
    data = render_julia(r, cfg)
    assert data == b"P6\n4 4\n255\n" + _reference_color(times, cfg.max_iter).tobytes()
