"""Output bytes pinned by SHA-256 digest.

The digests were recorded before the integrator's ray and variation parts
were split (verify seeds 0 and 653457016: before the verify sweeps were
evaluated as array blocks), so a later change that should leave output
unchanged is checked against fixed bytes, not against a rerun of itself.  They hold on
x86-64 Linux (glibc libm); a platform whose libm rounds differently in the
last place may need its own record.
"""

import contextlib
import hashlib
import io

import pytest

from varitrace.cli import main

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

FILE_DIGESTS = {
    "trace": "cefdc5f244f56af1156eb2da5598a692d51e7eeab466cb23051585d55d996afc",
    "fan": "0cbdce7c57eda657aa1b2dfdd505999b16c770e5d712bc771b0a98f073c272d6",
}

VERIFY_DIGESTS = {
    0: "a019bba346b0803db8ea9adf27d6dfa6e511143cde795db1aefb34dae71a3628",
    7: "598c5b35eb009c788b735cdc5611aec1edc1e38cbcfeab6438d06987d354b0ce",
    1715831031: "7e6688a4079eb1b2c390cb0f76e1160767d5f87c71e8607fdbd5ead914287294",
    653457016: "4b1ab16853060ebeb43d4e8249f1b7e86c8dd9d67728e68a69cc1449a4d03b6f",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", FILE_DIGESTS)
def test_readme_csv_bytes(tmp_path, command):
    """README trace (1,503 samples, 3 bounces) and its 5-angle fan."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(README_CFG)
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
