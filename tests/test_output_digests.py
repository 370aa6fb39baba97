"""Output bytes pinned by SHA-256 digest.

Each digest was recorded once and is checked against fixed bytes, not
against a rerun of the code under test, so a change that should leave
output unchanged shows when it does not.  The verify digests were
re-pinned when the arc-linear preset's field got a range gradient of
1e-3, so that the gate sees kappa12's horizontal-gradient term; only that
preset's two lines changed (default-h error 2.182e-09 -> 1.043e-09,
order 2.00 both times).  The README trace and fan digests were re-pinned when the
mirror law's <t, N> became the written-out tr nr + tz nz on every bounce
path instead of a BLAS dot product, whose last bit depended on the
kernel the BLAS build picks for the CPU; p and theta moved by at most
1.5e-11 relative and the entries of q by 2e-12.  Since then no output
byte depends on the BLAS kernel.  The README kappa-scan digest was
recorded at that change.  The shallow-fan, gradient-slope and 2D gridded
digests were recorded before the scalar RK4 path was flattened (plain
index tuples, the ray right-hand side written into the step).  The
library fans of ``FAN_DIGESTS`` were recorded before the crossing search
learnt to skip the bottom query above a bathymetry's depth floor.  The
digests hold on x86-64 Linux (glibc libm); a platform whose libm rounds
differently in the last place may need its own record.
"""

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np
import pytest

from varitrace import (
    ArcBottom,
    ConstantField,
    FlatBottom,
    GriddedField,
    LinearGradientField,
    LinearSlopeBottom,
    MunkField,
    PiecewiseBottom,
    TraceConfig,
    TraceStatus,
    trace_fan,
)
from varitrace.cli import main

DATA = Path(__file__).parent / "data"

# The README "Example configuration", comments included: its bytes are
# hashed into the "# config:" metadata line.
README_CFG = """\
[environment]
kind = munk           # constant | linear-gradient | munk | gridded
# munk keys: c_axis, z_axis, scale_depth, epsilon, c0 (all optional)

[bathymetry]
kind = sinusoidal     # flat | linear-slope | sinusoidal | arc | piecewise
mean_depth = 2000.0
amplitude = 60.0
wavenumber = 0.003    # rad/m

[trace]
r_start = 0.0
r_end = 30000.0
z0 = 900.0            # source depth (m)
theta0_deg = 14.0     # launch grazing angle, degrees, positive = down
dr = 20.0             # base range step (m)
# optional: bisect_tol (m, default 1e-9), steep_cutoff_deg (89.5),
#           max_bounces (10000)
# bisect_tol is the landing residual: a bounce is placed on an exact RK4
# state whose distance past the boundary is below it. Crossings are
# found on each step's cubic dense output (its end and its midpoint,
# which catches a shallow double crossing) and refined by a secant
# search on the RK4 map itself.
# The integrator is a fixed-step classical 4th-order scheme: pick dr
# small against the ray-oscillation scale. The det_q output column is
# the built-in quality monitor. Judge it by the scaled residual
# |det_q - 1| / (|q11 q22| + |q12 q21|) (TraceResult.det_q_residual):
# keep it well below 1e-6. On this example it reads 4e-13 at dr = 20
# and 8e-8 at dr = 400, while at dr = 1 rounding over 30,000 steps
# lifts it to 4e-11. The raw |det_q - 1| is no such guide: once
# the entries of q grow large (chaotic rays over a rough bottom), det_q
# cancels two huge products and its raw distance from 1 grows with them.
# Near-vertical rays need a finer dr (the equations stiffen as 1/cos^3).

[fan]                 # only used by `varitrace fan`
angles_deg = -14, -7, 0, 7, 14
# or: theta_min_deg / theta_max_deg / count
"""

# The README "Boundary-jump sweep" example, comments included.
README_SCAN_CFG = """\
[kappa_scan]
theta_deg = -80, -60, -30, 30, 60, 80   # default: -80..80 step 10
alpha_min_deg = 0
alpha_max_deg = 180
alpha_step_deg = 1.0
curvature = 0.02      # 1/m
n = 1.0
n_z = 0.01            # 1/m
n_r = 0.0             # 1/m
"""

FILE_DIGESTS = {
    "trace": "40cae301bfad341b6f213c4b7a11e3d79b75cdcf9814b9a7222e28788eda2664",
    "fan": "f991ef100b3cc28a76450b3a3d4e4deac388d1b903c082744e085c7cb25090ee",
    "kappa-scan": "1f8a1d53b46e964ffc11af27a7f77b83b6a9b62f00499a84ea894608436ea769",
}

# A linear-gradient field over a sloping bottom, a fan of 5 rays with
# surface and bottom bounces.
GRADIENT_SLOPE_CFG = """\
[environment]
kind = linear-gradient
c_surface = 1500.0
gradient = 2e-4

[bathymetry]
kind = linear-slope
depth0 = 300.0
slope = -0.02

[trace]
r_start = 0.0
r_end = 6000.0
z0 = 120.0
theta0_deg = 10.0
dr = 5.0

[fan]
angles_deg = -20, -10, 0.5, 10, 20
"""

# CSV outputs of configs other than the README's: the shallow fan reads a
# 1D gridded profile and a piecewise bottom from data/shallow_fan (an
# 11-ray version of the benchmark's seed-1 shallow-fan input).
CONFIG_DIGESTS = {
    "shallow-fan": "2dd62634e357d4d397886cadf55693527fbeebfbc0d5fc84050cc9722f78e116",
    "gradient-slope": "145664ef64b694308f690a6f97816fdcc5521f6dec2136fb0f0359c19dc2e488",
}

# r, z, p, q and n of a fan through a range-dependent gridded field (the
# library API: the config file offers only 1D profiles), hashed as float64
# bytes.
GRIDDED_2D_DIGEST = "986cf8892c6af4fea997362594a51e5f97e5550b4c5208614579eff75444d13f"

VERIFY_DIGESTS = {
    0: "410f0031bb576fbd6beb898faeb28f2b994a0c32808058b6f84cf70527eb1af0",
    7: "8957ca4faa8240e2f438426d7a1437a32fdacfca130f48927c0e64390a94ec16",
    1715831031: "7cafa79261c6d95cf48fc87aa7920124407fd60cb4c745024d67f28a6ded659a",
    653457016: "80b6fbd9f4b4e6f67cd765ffdff783f733a2e15ea79d6714842e0f4b2d19e791",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fan_digest(results) -> str:
    """SHA-256 of each trace's samples and index, as float64 bytes."""
    digest = hashlib.sha256()
    for res in results:
        digest.update(res.samples.tobytes())
        digest.update(res.n.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("command", FILE_DIGESTS)
def test_readme_csv_bytes(tmp_path, command):
    """README trace (1,503 samples, 3 bounces), its 5-angle fan and the
    README kappa scan (6 angles x 181 normals)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(README_SCAN_CFG if command == "kappa-scan" else README_CFG)
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--output", str(out)]) == 0
    assert sha256(out.read_bytes()) == FILE_DIGESTS[command]


@pytest.mark.parametrize("seed", VERIFY_DIGESTS)
def test_verify_all_stdout_bytes(tmp_path, seed):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("[verify]\npreset = all\n")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["verify", "--config", str(cfg), "--seed", str(seed)]) == 0
    assert sha256(stdout.getvalue().encode()) == VERIFY_DIGESTS[seed]


def test_config_csv_bytes(tmp_path):
    cfgs = {"shallow-fan": DATA / "shallow_fan" / "fan.cfg",
            "gradient-slope": tmp_path / "gradient.cfg"}
    cfgs["gradient-slope"].write_text(GRADIENT_SLOPE_CFG)
    for name, cfg in cfgs.items():
        out = tmp_path / f"{name}.csv"
        assert main(["fan", "--config", str(cfg), "--output", str(out)]) == 0
        assert sha256(out.read_bytes()) == CONFIG_DIGESTS[name], name


def test_range_dependent_gridded_fan_bytes():
    ranges = np.linspace(-100.0, 4_100.0, 8)
    depths = np.linspace(-20.0, 260.0, 15)
    c = (1510.0 - 0.06 * depths[None, :] + 3e-4 * depths[None, :] ** 2
         + 4.0 * np.sin(ranges[:, None] / 900.0) * np.exp(-depths[None, :] / 120.0))
    field = GriddedField(depths, c, ranges=ranges)
    cfg = TraceConfig(r_start=0.0, r_end=4_000.0, z0=60.0, theta0=0.0, dr=8.0)
    results = trace_fan(field, FlatBottom(220.0), cfg,
                        [math.radians(a) for a in (-12.0, -5.0, 7.0, 11.0)])
    assert all(res.bounces for res in results)
    assert fan_digest(results) == GRIDDED_2D_DIGEST


# The two launch angles (rad) that bracket the first bottom hit of the
# range-gradient field below to the last float: the lower one touches
# z = depth tangentially and ends backscattered, the upper one lands a
# grazing bounce.
GRAZE_LO, GRAZE_HI = 0.19835936388164485, 0.19835936388164488

# Library fans, r, z, p, q and n hashed as float64 bytes, with the
# statuses each must end in: (field, bathymetry, config, angles in rad,
# statuses).
FAN_CASES = {
    "constant-arc-up": (
        ConstantField(), ArcBottom(radius=1500.0, r_center=1000.0, z_center=1620.0),
        TraceConfig(r_start=0.0, r_end=2000.0, z0=60.0, theta0=0.0, dr=5.0),
        [math.radians(a) for a in (-10.0, -3.0, 2.0, 6.0, 12.0)],
        {TraceStatus.COMPLETED}),
    "constant-arc-down": (
        ConstantField(),
        ArcBottom(radius=1500.0, r_center=1000.0, z_center=-998.0, bulge="down"),
        TraceConfig(r_start=0.0, r_end=2000.0, z0=60.0, theta0=0.0, dr=5.0),
        [math.radians(a) for a in (-10.0, -3.0, 2.0, 6.0, 12.0)],
        {TraceStatus.COMPLETED, TraceStatus.BACKSCATTERED}),
    "range-gradient-flat": (
        LinearGradientField(1500.0, -1e-4, range_gradient=5e-6), FlatBottom(300.0),
        TraceConfig(r_start=0.0, r_end=5000.0, z0=100.0, theta0=0.0, dr=10.0),
        [GRAZE_LO, GRAZE_HI] + [math.radians(a) for a in (-8.0, 3.0, 15.0)],
        {TraceStatus.COMPLETED, TraceStatus.BACKSCATTERED}),
    "munk-slope": (
        MunkField(), LinearSlopeBottom(depth0=3500.0, slope=-0.05),
        TraceConfig(r_start=0.0, r_end=40_000.0, z0=1000.0, theta0=0.0, dr=50.0),
        [math.radians(a) for a in (-15.0, -8.0, 5.0, 12.0, 16.0)],
        {TraceStatus.COMPLETED}),
    "piecewise-exit": (
        LinearGradientField(1500.0, -1e-4),
        PiecewiseBottom(np.linspace(0.0, 3000.0, 16),
                        200.0 + 20.0 * np.sin(np.linspace(0.0, 3000.0, 16) / 300.0)),
        TraceConfig(r_start=0.0, r_end=4000.0, z0=50.0, theta0=0.0, dr=7.0),
        [math.radians(a) for a in (-6.0, 0.0, 1.0, 4.0, 9.0)],
        {TraceStatus.DOMAIN_EXIT}),
}

FAN_DIGESTS = {
    "constant-arc-up": "e45f97742d519c97dd27c3cff6f943e11b4713f921ce5c594991f0e2e5c67229",
    "constant-arc-down": "278622bfcb6e47a3a5a46c645bd6a47b3b12c457bcad4bb0b8b7dd6a6acc7b27",
    "range-gradient-flat": "a68795b791e317e8929900a1e12a2f5afb7f079289e03793ce0651f97e5ea290",
    "munk-slope": "7d70990a63de48238cfbf82f1c8d916d8e7d55f76b69e2932f5d0d463ddcb039",
    "piecewise-exit": "e0027ba226402c2b308587102d012b6721b54a534eeebedd52706f98e5791da4",
}


@pytest.mark.parametrize("case", FAN_CASES)
def test_library_fan_bytes(case):
    field, bath, cfg, angles, statuses = FAN_CASES[case]
    results = trace_fan(field, bath, cfg, angles)
    assert {res.status for res in results} == statuses
    assert any(res.bounces for res in results)
    assert fan_digest(results) == FAN_DIGESTS[case]
