"""Seeded input generator for the varitrace benchmark.

Every input a workload runs is a pure function of (workload, seed, smoke):
the same arguments write byte-identical files.  The program sees only these
files (and, for ``verify``, the ``--seed`` the generator chose), never the
benchmark's own seed.

Sizes are chosen so that no operation fails at the parent commit and so
that the work per operation hardly depends on the seed: the seed moves
geometry around, not the amount of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("deep-trace", "shallow-fan", "verify-all")


@dataclass(frozen=True)
class Op:
    """One CLI command: ``varitrace <command> --config <config> [--seed <seed>]``."""

    command: str        # "trace", "fan" or "verify"
    config: str         # file name inside the input directory
    seed: int | None    # value passed to --seed, None to omit it
    r_end: float        # range every ray must reach (trace and fan)
    rays: int           # rays the command traces; nominal oracle traces for verify


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one workload.

    ``warmup`` runs untimed during set-up and again after the timed loop,
    where its CSV must come out byte-identical.  The closed loop cycles
    through ``ops`` in order; the traced run makes exactly one pass.
    """

    warmup: Op
    ops: tuple[Op, ...]


# `varitrace verify` runs, for each preset, 4 verify_kappa calls (default
# offsets plus 3 study halvings) of 10 traces each (analytic central, FD
# central, 2 Richardson levels x 4 perturbed); preset = all has 4 presets.
# This nominal count gives rays_per_s on verify-all; the traced run counts
# the traces the oracle really makes (oracle.traces).
ORACLE_TRACES_PER_PRESET = 4 * 10


def _num(x: float) -> str:
    return repr(float(x))


def _write(directory: Path, name: str, text: str) -> str:
    (directory / name).write_text(text)
    return name


def _munk_sinusoid_cfg(phase: float, z0: float, theta_deg: float, r_end: float) -> str:
    # The README example: canonical Munk channel over a corrugated bottom.
    return (
        "[environment]\n"
        "kind = munk\n"
        "\n"
        "[bathymetry]\n"
        "kind = sinusoidal\n"
        "mean_depth = 2000.0\n"
        "amplitude = 60.0\n"
        "wavenumber = 0.003\n"
        f"phase = {_num(phase)}\n"
        "\n"
        "[trace]\n"
        "r_start = 0.0\n"
        f"r_end = {_num(r_end)}\n"
        f"z0 = {_num(z0)}\n"
        f"theta0_deg = {_num(theta_deg)}\n"
        "dr = 20.0\n"
    )


def _deep_trace(rng: random.Random, directory: Path, smoke: bool) -> Workload:
    count, r_end = (3, 2000.0) if smoke else (100, 8000.0)
    ops = []
    for i in range(count):
        text = _munk_sinusoid_cfg(phase=rng.uniform(0.0, 2.0 * math.pi),
                                  z0=rng.uniform(300.0, 1700.0),
                                  theta_deg=rng.uniform(-14.0, 14.0), r_end=r_end)
        name = _write(directory, f"trace-{i:03d}.cfg", text)
        ops.append(Op("trace", name, None, r_end, 1))
    return Workload(ops[0], tuple(ops))


def _thermocline_table(rng: random.Random) -> str:
    # Mixed layer over a tanh thermocline over a weak deep gradient.  The
    # thermocline is kept 33-37 m thick and 11-13 m/s deep, so that, with
    # dr = 4, |det q - 1| stays well inside the README's 1e-6 guidance even
    # on rays with ~20 bounces, and the bounces per fan hardly depend on
    # the seed.  The table reaches past the surface and below the deepest
    # bottom, because crossing detection evaluates trial steps that overshoot.
    c_mixed = rng.uniform(1515.0, 1525.0)
    drop = rng.uniform(11.0, 13.0)
    centre = rng.uniform(26.0, 30.0)
    thickness = rng.uniform(33.0, 37.0)
    deep_gradient = rng.uniform(-0.05, 0.0)
    lines = ["# z (m)  c (m/s): mixed layer, thermocline, deep water"]
    for k in range(-4, 45):
        z = 2.5 * k
        c = (c_mixed - 0.5 * drop * (1.0 + math.tanh((z - centre) / (0.5 * thickness)))
             + deep_gradient * max(0.0, z - centre))
        lines.append(f"{_num(z)} {_num(c)}")
    return "\n".join(lines) + "\n"


def _bottom_knots(rng: random.Random, r_max: float) -> str:
    # Three random sinusoids around a fixed 62.5 m mean, so the bottom
    # stays inside 55-70 m with gentle slopes (no backscatter at +-25 deg)
    # and the bounce count per ray barely depends on the seed.
    terms = [(rng.uniform(1.5, 2.5), rng.uniform(2.0 * math.pi / 2000.0, 2.0 * math.pi / 700.0),
              rng.uniform(0.0, 2.0 * math.pi)) for _ in range(3)]
    lines = ["# r (m)  z_b (m)"]
    r = 0.0
    while r <= r_max:
        z = 62.5 + sum(a * math.sin(k * r + ph) for a, k, ph in terms)
        lines.append(f"{_num(r)} {_num(z)}")
        r += 100.0
    return "\n".join(lines) + "\n"


def _shallow_fan(rng: random.Random, directory: Path, smoke: bool) -> Workload:
    rays, r_end = (3, 500.0) if smoke else (21, 2000.0)
    _write(directory, "ssp.txt", _thermocline_table(rng))
    _write(directory, "bottom.txt", _bottom_knots(rng, r_end + 100.0))
    text = (
        "[environment]\n"
        "kind = gridded\n"
        "file = ssp.txt\n"
        "c0 = 1500.0\n"
        "\n"
        "[bathymetry]\n"
        "kind = piecewise\n"
        "file = bottom.txt\n"
        "\n"
        "[trace]\n"
        "r_start = 0.0\n"
        f"r_end = {_num(r_end)}\n"
        f"z0 = {_num(rng.uniform(20.0, 30.0))}\n"
        f"theta0_deg = {_num(rng.uniform(-25.0, 25.0))}\n"
        "dr = 4.0\n"
        "\n"
        "[fan]\n"
        "theta_min_deg = -25.0\n"
        "theta_max_deg = 25.0\n"
        f"count = {rays}\n"
    )
    name = _write(directory, "fan.cfg", text)
    # The warm-up traces the single ray of the [trace] section.
    return Workload(Op("trace", name, None, r_end, 1),
                    (Op("fan", name, None, r_end, rays),))


def _verify_all(rng: random.Random, directory: Path, smoke: bool) -> Workload:
    warm = _write(directory, "warmup.cfg", _munk_sinusoid_cfg(
        phase=rng.uniform(0.0, 2.0 * math.pi), z0=rng.uniform(300.0, 1700.0),
        theta_deg=rng.uniform(-14.0, 14.0), r_end=4000.0))
    # The program fixes the size of preset = all; smoke size verifies one preset.
    which, presets = ("flat-linear", 1) if smoke else ("all", 4)
    name = _write(directory, "verify.cfg",
                  f"[verify]\npreset = {which}\ntolerance = 1e-3\n")
    verify = Op("verify", name, rng.randrange(1, 2**31), 0.0, presets * ORACLE_TRACES_PER_PRESET)
    return Workload(Op("trace", warm, None, 4000.0, 1), (verify,))


def generate(workload: str, seed: int, directory: Path, smoke: bool = False) -> Workload:
    """Write the inputs of ``workload`` for ``seed`` into ``directory``."""
    generators = {"deep-trace": _deep_trace, "shallow-fan": _shallow_fan,
                "verify-all": _verify_all}
    if workload not in generators:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return generators[workload](rng, Path(directory), smoke)
