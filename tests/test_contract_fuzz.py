"""Contract fuzz of the tracer and of the CLI.

hypothesis draws the cases; ``derandomize=True`` and ``database=None`` make
it draw the same ones on every run, so a failure here is reproducible.

The library contract: once launched, a trace reports every abnormal ending
as a status and raises nothing.  Only its launch raises: a ValueError for a
source outside the water or a pulse past the steep cutoff, or a DomainError
for a launch point outside a field or bottom.  On every trace that
launches:

- every row is finite and r never decreases;
- every row but a bounce's lies in the water to 1e-9 m;
- every bounce row lies exactly on its boundary;
- a completed trace reaches r_end;
- the ray-only trace has the full trace's status, bounces and final row.

The CLI contract: ``trace``, ``fan`` and ``kappa-scan`` exit 0, or 2 on a
config error, on every config, profiles that overflow or underflow and
scans whose span overflows included.
"""

import contextlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from varitrace import (
    ArcBottom,
    ConstantField,
    DomainError,
    FlatBottom,
    GriddedField,
    LinearGradientField,
    LinearSlopeBottom,
    MunkField,
    PiecewiseBottom,
    SinusoidalBottom,
    TraceConfig,
    TraceStatus,
    trace_from_pulse,
    trace_ray,
)
from varitrace.cli import main

FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])

# The ValueErrors trace_ray raises at launch, after its TraceConfig is made.
LAUNCH_ERRORS = re.compile(r"source depth .* outside the water column|"
                           r"source on the \w+ must launch into the water|"
                           r"initial pulse .* exceeds the steep-ray cutoff")


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def fields(draw, depth):
    kind = draw(st.sampled_from(["constant", "linear", "munk", "grid"]))
    if kind == "constant":
        return ConstantField(1500.0, draw(floats(1400.0, 1600.0)))
    if kind == "linear":
        return LinearGradientField(1500.0, draw(floats(-2e-4, 2e-4)),
                                   range_gradient=draw(floats(-1e-5, 1e-5)))
    if kind == "munk":  # down to a scale depth whose exp(-eta) overflows in the water
        return MunkField(z_axis=draw(floats(0.0, depth)),
                         scale_depth=draw(st.one_of(floats(0.1 * depth, 2.0 * depth),
                                                    floats(0.5, 2.0))),
                         epsilon=draw(floats(0.0, 0.02)))
    # A 1D grid reaching well past the surface and the deepest bottom drawn.
    depths = np.linspace(-0.5 * depth, 2.5 * depth, 7)
    return GriddedField(depths, [draw(floats(1470.0, 1530.0)) for _ in depths])


@st.composite
def bottoms(draw, depth, r_end):
    kind = draw(st.sampled_from(["flat", "sloped", "sinusoidal", "arc", "piecewise"]))
    if kind == "flat":
        return FlatBottom(depth)
    if kind == "sloped":
        return LinearSlopeBottom(depth, draw(floats(-0.5 * depth / r_end, 0.5)))
    if kind == "sinusoidal":
        return SinusoidalBottom(depth, draw(floats(0.0, 0.5 * depth)),
                                draw(floats(1e-3, 0.1)), phase=draw(floats(0.0, 6.3)))
    if kind == "arc":
        # `depth` at r_center, over the whole range and below the surface
        r_center, bulge = draw(floats(0.0, r_end)), draw(st.sampled_from(["up", "down"]))
        reach = max(r_center, r_end - r_center)
        radius = draw(floats(1.01 * reach, 10.0 * r_end))
        z_center = depth + radius if bulge == "up" else depth - radius
        assume(bulge == "up" or z_center + math.sqrt(radius**2 - reach**2) > 0.0)
        return ArcBottom(radius, r_center, z_center, bulge)
    knots = np.linspace(0.0, r_end, draw(st.integers(3, 8)))
    heights = [depth * draw(floats(0.6, 1.4)) for _ in knots]
    try:
        return PiecewiseBottom(knots, heights)
    except ValueError:  # a spline that reaches the surface
        assume(False)


@st.composite
def scenarios(draw):
    depth = draw(floats(20.0, 2000.0))
    r_end = draw(floats(100.0, 1000.0))
    cfg = TraceConfig(r_start=0.0, r_end=r_end, z0=depth * draw(floats(0.0, 1.0)),
                      theta0=math.radians(draw(floats(-80.0, 80.0))),
                      dr=draw(floats(0.5, 50.0)))
    return draw(fields(depth)), draw(bottoms(depth, r_end)), cfg


def on_boundary(bath, bounce):
    return bounce.z == (0.0 if bounce.boundary == "surface" else bath.bottom_at(bounce.r)[0])


@settings(FUZZ, max_examples=200)
@given(scenarios())
def test_trace_contract(scenario):
    field, bath, cfg = scenario
    try:
        res = trace_ray(field, bath, cfg)
    except DomainError:
        return  # the loop ends every DomainError as a status, so this was the launch
    except ValueError as exc:
        assert LAUNCH_ERRORS.search(str(exc)), exc
        return
    samples = res.samples
    assert np.isfinite(samples).all()
    assert (np.diff(res.r) >= 0.0).all()
    bounce_rows = {(b.r, b.z) for b in res.bounces}
    for r, z in samples[:, :2].tolist():
        if (r, z) not in bounce_rows:
            assert -1e-9 <= z <= bath.depth_at(r) + 1e-9, (r, z)
    assert all(on_boundary(bath, b) for b in res.bounces)
    assert {(b.r, b.z) for b in res.bounces} <= set(map(tuple, samples[:, :2].tolist()))
    if res.status is TraceStatus.COMPLETED:
        assert res.r[-1] == pytest.approx(cfg.r_end, abs=1e-9)
    p0 = res.packed_samples[2]  # a float: a numpy pulse would overflow to inf, not raise
    ray_only = trace_from_pulse(field, bath, cfg, cfg.z0, p0, variations=False)
    assert ray_only.status is res.status
    assert ray_only.bounces == res.bounces
    assert ray_only.samples[-1, :3].tolist() == samples[-1, :3].tolist()
    assert ray_only.n[-1] == res.n[-1]


# Config values: ordinary ones beside the extremes of float64 and its rounding.
EDGES = st.sampled_from(["0", "-0.0", "5e-324", "-5e-324", "1e-300", "1e-200", "1e-160",
                         "1e-30", "1e30", "1e200", "1e300", "-1e300", "1.7976931348623157e308",
                         "nan", "inf", "-1"])


def values(lo, hi):
    return st.one_of(floats(lo, hi).map(repr), EDGES)


@st.composite
def cli_configs(draw):
    kind = draw(st.sampled_from(["constant", "linear-gradient", "munk"]))
    keys = {"constant": {"c0": values(1400.0, 1600.0), "c": values(1400.0, 1600.0)},
            "linear-gradient": {"c_surface": values(1400.0, 1600.0),
                                "gradient": values(-1e-3, 1e-3)},
            "munk": {"c_axis": values(1400.0, 1600.0), "z_axis": values(0.0, 3000.0),
                     "scale_depth": values(1.0, 3000.0), "epsilon": values(0.0, 0.05)}}[kind]
    env = "".join(f"{key} = {draw(value)}\n" for key, value in keys.items()
                  if draw(st.booleans()))
    depth = draw(values(10.0, 3000.0))
    bottom = draw(st.sampled_from([
        f"kind = flat\ndepth = {depth}\n",
        f"kind = linear-slope\ndepth0 = {depth}\nslope = {draw(values(-0.5, 0.5))}\n",
        f"kind = sinusoidal\nmean_depth = {depth}\n"
        f"amplitude = {draw(values(0.0, 100.0))}\nwavenumber = {draw(values(1e-4, 0.1))}\n"]))
    r_start, r_end = draw(floats(-1000.0, 1000.0)), draw(floats(-1000.0, 3000.0))
    dr = draw(values(0.5, 100.0))
    rays = draw(st.integers(1, 3))
    # At most 2,000 base steps over all rays, to keep the run short.
    step = float(dr)
    if math.isfinite(step) and step > 0.0:
        assume((r_end - r_start) / step * rays <= 2000.0)
    return (f"[environment]\nkind = {kind}\n{env}\n[bathymetry]\n{bottom}\n"
            f"[trace]\nr_start = {r_start!r}\nr_end = {r_end!r}\n"
            f"z0 = {draw(values(0.0, 3000.0))}\ntheta0_deg = {draw(values(-89.0, 89.0))}\n"
            f"dr = {dr}\n\n[fan]\ntheta_min_deg = {draw(floats(-80.0, 0.0))!r}\n"
            f"theta_max_deg = {draw(floats(0.0, 80.0))!r}\ncount = {rays}\n")


@settings(FUZZ, max_examples=150)
@given(cli_configs(), st.sampled_from(["trace", "fan"]))
def test_cli_exits_0_or_2(tmp_path_factory, text, command):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([command, "--config", str(path)]) in (0, 2)


@st.composite
def scan_configs(draw):
    keys = {"alpha_min_deg": values(-180.0, 180.0), "alpha_max_deg": values(-180.0, 360.0),
            "alpha_step_deg": values(1.0, 90.0), "curvature": values(-0.1, 0.1),
            "n": values(0.5, 2.0), "n_z": values(-0.1, 0.1), "n_r": values(-0.1, 0.1)}
    drawn = {key: draw(value) for key, value in keys.items() if draw(st.booleans())}
    if draw(st.booleans()):
        drawn["theta_deg"] = ", ".join(draw(st.lists(values(-90.0, 90.0), max_size=3)))
    # Skip scans of over 20,000 rows that the bound of 1e7 lets run, to keep
    # the run short; a longer scan is a config error found before any row.
    thetas = len(drawn["theta_deg"].split(",")) if "theta_deg" in drawn else 17
    lo, hi, step = (float(drawn.get(key, default)) for key, default in (
        ("alpha_min_deg", "0"), ("alpha_max_deg", "180"), ("alpha_step_deg", "1")))
    if math.isfinite(step) and step > 0.0:
        assume(not 2e4 < thetas * (hi - lo) / step <= 1e7)
    return "[kappa_scan]\n" + "".join(f"{key} = {value}\n" for key, value in drawn.items())


@settings(FUZZ, max_examples=80)
@given(scan_configs())
def test_kappa_scan_exits_0_or_2(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "scan.cfg"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["kappa-scan", "--config", str(path)]) in (0, 2)
