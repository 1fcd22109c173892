from __future__ import annotations

import hashlib

import numpy as np
import pytest

from ratmap.errors import ConfigError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.render import _capture_times, max_iteration_mask, render_julia
from ratmap.report import RenderConfig


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
