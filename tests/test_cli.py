"""CLI tests: config validation, CSV output, exit codes, verify gate."""

import hashlib
import io
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from varitrace.cli import DEFAULT_SCAN_THETAS, main, scan_kappa
from varitrace.config import load_config
from varitrace.environment import (
    ArcBottom,
    ConstantField,
    FlatBottom,
    GriddedField,
    LinearGradientField,
    LinearSlopeBottom,
    MunkField,
    NormalFrame,
    PiecewiseBottom,
    SinusoidalBottom,
)
from varitrace.errors import ConfigError, GeometryError
from varitrace.propagation import TraceConfig
from varitrace.reflection import identity_checks, kappa_matrix

SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env() -> dict:
    """Environment for running ``python -m varitrace.cli`` in a fresh process."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

BASE_CFG = """\
[environment]
kind = constant
c0 = 1500.0

[bathymetry]
kind = flat
depth = 1000.0

[trace]
r_start = 0.0
r_end = 6000.0
z0 = 0.0
theta0_deg = 45.0
dr = 50.0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    """Data rows of a CSV file as lists of raw string fields."""
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#") or line[0].isalpha():
                continue
            rows.append(line.split(","))
    return rows


class TestConfigParsing:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["trace", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG + "pasta = carbonara\n")
        assert main(["trace", "--config", cfg]) == 2
        assert "pasta" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG + "\n[nonsense]\nx = 1\n")
        assert main(["trace", "--config", cfg]) == 2
        assert "nonsense" in capsys.readouterr().err

    def test_bad_number_reported(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG.replace("depth = 1000.0", "depth = deep"))
        assert main(["trace", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "depth" in err and "deep" in err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG.replace("theta0_deg = 45.0\n", ""))
        assert main(["trace", "--config", cfg]) == 2
        assert "theta0_deg" in capsys.readouterr().err

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[environment\nkind = constant\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_unknown_field_kind(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG.replace("kind = constant", "kind = magic"))
        assert main(["trace", "--config", cfg]) == 2
        assert "magic" in capsys.readouterr().err

    def test_missing_referenced_file(self, tmp_path, capsys):
        text = BASE_CFG.replace("kind = flat\ndepth = 1000.0",
                                "kind = piecewise\nfile = missing.txt")
        cfg = write_cfg(tmp_path, text)
        assert main(["trace", "--config", cfg]) == 2
        assert "missing.txt" in capsys.readouterr().err

    def test_piecewise_spline_reaching_the_surface(self, tmp_path, capsys):
        """Every knot lies below the surface, but the spline through them dips
        to -7.47 m at r = 250: a config error, not a trace that bounces off
        a bottom above the water (it used to end backscattered, exit 0)."""
        (tmp_path / "bottom.txt").write_text(
            "".join(f"{r} {z}\n" for r, z in zip(range(0, 501, 100), (50, 50, 2, 2, 50, 50))))
        text = (BASE_CFG.replace("kind = flat\ndepth = 1000.0", "kind = piecewise\nfile = bottom.txt")
                .replace("r_end = 6000.0", "r_end = 500.0").replace("z0 = 0.0", "z0 = 1.0")
                .replace("theta0_deg = 45.0", "theta0_deg = 0.5").replace("dr = 50.0", "dr = 5.0"))
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", write_cfg(tmp_path, text), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "reaches the surface: -7.474 m at r = 250" in err
        assert not out.exists()


class TestKindTables:
    """Each config kind builds what its constructor builds: with only the
    required keys, every other one taking the constructor's default, and
    with every optional key set as well.  Per case: the section, its
    required keys, its optional keys, and the constructor calls with the
    required keywords and with all of them (given the table directory)."""

    CASES = {
        "constant": ("environment", "kind = constant\n", "c0 = 1490.0\nc = 1510.0\n",
                     lambda d: ConstantField(), lambda d: ConstantField(c0=1490.0, c=1510.0)),
        "linear-gradient": (
            "environment", "kind = linear-gradient\ngradient = 2e-5\n",
            "c_surface = 1520.0\nc0 = 1490.0\n",
            lambda d: LinearGradientField(gradient=2e-5),
            lambda d: LinearGradientField(gradient=2e-5, c_surface=1520.0, c0=1490.0)),
        "munk": ("environment", "kind = munk\n",
                 "c_axis = 1490.0\nz_axis = 1000.0\nscale_depth = 1200.0\nepsilon = 0.0057\n"
                 "c0 = 1500.0\n",
                 lambda d: MunkField(),
                 lambda d: MunkField(c_axis=1490.0, z_axis=1000.0, scale_depth=1200.0,
                                     epsilon=0.0057, c0=1500.0)),
        "gridded": ("environment", "kind = gridded\nfile = ssp.txt\n", "c0 = 1490.0\n",
                    lambda d: GriddedField.from_file(d / "ssp.txt"),
                    lambda d: GriddedField.from_file(d / "ssp.txt", c0=1490.0)),
        "flat": ("bathymetry", "kind = flat\ndepth = 800.0\n", "",
                 lambda d: FlatBottom(depth=800.0), None),
        "linear-slope": ("bathymetry", "kind = linear-slope\ndepth0 = 800.0\nslope = -0.1\n", "",
                         lambda d: LinearSlopeBottom(depth0=800.0, slope=-0.1), None),
        "sinusoidal": (
            "bathymetry",
            "kind = sinusoidal\nmean_depth = 800.0\namplitude = 30.0\nwavenumber = 0.01\n",
            "phase = 0.7\n",
            lambda d: SinusoidalBottom(mean_depth=800.0, amplitude=30.0, wavenumber=0.01),
            lambda d: SinusoidalBottom(mean_depth=800.0, amplitude=30.0, wavenumber=0.01,
                                       phase=0.7)),
        "arc": ("bathymetry",
                "kind = arc\nradius = 400.0\nr_center = 120.0\nz_center = 900.0\nbulge = up\n", "",
                lambda d: ArcBottom(radius=400.0, r_center=120.0, z_center=900.0, bulge="up"),
                None),
        "piecewise": ("bathymetry", "kind = piecewise\nfile = bottom.txt\n", "",
                      lambda d: PiecewiseBottom.from_file(d / "bottom.txt"), None),
        "trace": ("trace", "r_start = 0.0\nr_end = 6000.0\nz0 = 10.0\ntheta0_deg = 12.0\n",
                  "dr = 25.0\nbisect_tol = 1e-7\nsteep_cutoff_deg = 80.0\nmax_bounces = 7\n",
                  lambda d: TraceConfig(r_start=0.0, r_end=6000.0, z0=10.0,
                                        theta0=math.radians(12.0)),
                  lambda d: TraceConfig(r_start=0.0, r_end=6000.0, z0=10.0,
                                        theta0=math.radians(12.0), dr=25.0, bisect_tol=1e-7,
                                        steep_cutoff=math.radians(80.0), max_bounces=7)),
    }

    @staticmethod
    def build(tmp_path, section, keys):
        run = load_config(write_cfg(tmp_path, f"[{section}]\n{keys}"))
        return {"environment": run.build_field, "bathymetry": run.build_bathymetry,
                "trace": run.build_trace_config}[section]()

    @staticmethod
    def assert_same(got, want):
        assert type(got) is type(want)
        if isinstance(want, TraceConfig):
            assert got == want
            return
        public = {k: v for k, v in vars(want).items() if not k.startswith("_")}
        assert {k: v for k, v in vars(got).items() if not k.startswith("_")} == public
        for r, z in [(10.0, 5.0), (120.0, 200.0), (230.0, 900.0)]:
            if hasattr(want, "index_at"):
                assert got.index_at(r, z) == want.index_at(r, z)
            else:
                assert got._profile(r) == want._profile(r)

    @pytest.mark.parametrize("kind", CASES)
    def test_config_builds_the_constructors_object(self, tmp_path, kind):
        (tmp_path / "ssp.txt").write_text("".join(
            f"{z} {1500.0 + 0.02 * z}\n" for z in range(-20, 1021, 40)))
        (tmp_path / "bottom.txt").write_text("".join(
            f"{r} {800.0 + 5.0 * (r % 100 == 0)}\n" for r in range(0, 301, 50)))
        section, required, optional, bare, full = self.CASES[kind]
        self.assert_same(self.build(tmp_path, section, required), bare(tmp_path))
        if full is not None:
            self.assert_same(self.build(tmp_path, section, required + optional), full(tmp_path))

    def test_arc_needs_bulge(self, tmp_path, capsys):
        """No default: ``up`` (a bump) and ``down`` (a basin) are equally
        plausible, and the config reader once defaulted to the opposite of
        the constructor."""
        cfg = write_cfg(tmp_path, BASE_CFG.replace(
            "kind = flat\ndepth = 1000.0",
            "kind = arc\nradius = 400.0\nr_center = 120.0\nz_center = 900.0"))
        assert main(["trace", "--config", cfg]) == 2
        assert "missing required key 'bulge' in [bathymetry]" in capsys.readouterr().err


class TestTraceCommand:
    def test_zigzag_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", cfg, "--output", str(out)]) == 0
        text = out.read_text()
        assert "# status: completed" in text
        assert text.splitlines()[0].startswith("# varitrace")
        rows = read_rows(out)
        det = np.array([float(r[8]) for r in rows])
        np.testing.assert_allclose(det, 1.0, atol=1e-9)
        z = np.array([float(r[1]) for r in rows])
        assert z.max() == pytest.approx(1000.0, abs=1e-6)
        assert z.min() == pytest.approx(0.0, abs=1e-6)
        flags = {r[9] for r in rows if len(r) > 9 and r[9]}
        assert flags == {"surface", "bottom"}

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["trace", "--config", cfg, "--output", str(out1), "--seed", "7"]) == 0
        assert main(["trace", "--config", cfg, "--output", str(out2), "--seed", "7"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert "# seed: 7" in out1.read_text()

    def test_abnormal_status_still_exits_zero(self, tmp_path, capsys):
        text = BASE_CFG.replace("kind = flat\ndepth = 1000.0",
                                "kind = linear-slope\ndepth0 = 500.0\nslope = -1.5")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "t.csv"
        assert main(["trace", "--config", cfg, "--output", str(out)]) == 0
        assert "backscattered" in capsys.readouterr().err
        assert "# status: backscattered" in out.read_text()


class TestSlopeFloor:
    """A deepening slope's floor (depth0, over the deepening side of r = 0)
    lets the step screen skip bottom queries: trace and fan write the bytes
    they write without a floor, with fewer ``depth_at`` calls."""

    CFG = (BASE_CFG.replace("kind = constant\nc0 = 1500.0",
                            "kind = linear-gradient\nc_surface = 1490.0\ngradient = 3e-4")
           .replace("kind = flat\ndepth = 1000.0",
                    "kind = linear-slope\ndepth0 = 200.0\nslope = 0.02")
           .replace("z0 = 0.0", "z0 = 50.0").replace("theta0_deg = 45.0", "theta0_deg = 12.0")
           .replace("dr = 50.0", "dr = 10.0")
           + "\n[fan]\ntheta_min_deg = -25\ntheta_max_deg = 25\ncount = 11\n")

    @pytest.mark.parametrize("command", ["trace", "fan"])
    def test_same_bytes_fewer_depth_queries(self, tmp_path, monkeypatch, command):
        cfg = write_cfg(tmp_path, self.CFG)
        calls = []
        depth_at = LinearSlopeBottom.depth_at

        def counted(self, r):
            calls[-1] += 1
            return depth_at(self, r)

        monkeypatch.setattr(LinearSlopeBottom, "depth_at", counted)
        outputs = []
        for floored in (True, False):
            if not floored:
                init = LinearSlopeBottom.__init__

                def no_floor(self, *args, **kwargs):
                    init(self, *args, **kwargs)
                    del self.floor  # the class default, which promises nothing

                monkeypatch.setattr(LinearSlopeBottom, "__init__", no_floor)
            calls.append(0)
            outputs.append(tmp_path / f"{command}-{floored}.csv")
            assert main([command, "--config", cfg, "--output", str(outputs[-1])]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()
        assert len(read_rows(outputs[0])) > 500
        assert 0 < calls[0] < calls[1]


class TestDomainExitWhereTheSoundSpeedVanishes:
    """A ray whose plain step ends past the depth where c = 0 ends as
    ``domain_exit`` with exit 0, in a trace and among the rays of a fan."""

    CFG = BASE_CFG.replace(
        "kind = constant\nc0 = 1500.0", "kind = linear-gradient\ngradient = 1e-3").replace(
        "depth = 1000.0", "depth = 2000.0").replace(
        "r_end = 6000.0\nz0 = 0.0\ntheta0_deg = 45.0\ndr = 50.0",
        "r_end = 200.0\nz0 = 995.9256754734123\ntheta0_deg = 11.721352594948826\n"
        "dr = 3.895472066773521")

    def test_trace(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["trace", "--config", write_cfg(tmp_path, self.CFG), "--output", str(out)]) == 0
        assert "# status: domain_exit" in out.read_text()

    def test_fan_keeps_every_ray(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG + "[fan]\nangles_deg = 5, 11.721352594948826, 20\n")
        out = tmp_path / "f.csv"
        assert main(["fan", "--config", cfg, "--output", str(out)]) == 0
        rays = [line for line in out.read_text().splitlines() if line.startswith("# ray")]
        assert len(rays) == 3
        assert "status=domain_exit" in rays[1]


class TestUnconvergedLandings:
    """Landings whose residual could not get below bisect_tol are reported on
    stderr, one line per affected ray with its count; the CSV is unchanged."""

    CFG = """\
[environment]
kind = linear-gradient
c_surface = 1500.0
gradient = 2e-4

[bathymetry]
kind = flat
depth = 400.0

[trace]
r_start = 0.0
r_end = 3000.0
z0 = 100.0
theta0_deg = 30.0
dr = 10.0
bisect_tol = 1e-300

[fan]
angles_deg = 30, 0, -30
"""

    def test_trace_and_fan_report_each_ray(self, tmp_path, capsys):
        from varitrace import FlatBottom, LinearGradientField, TraceConfig, trace_ray

        cfg = write_cfg(tmp_path, self.CFG)
        field = LinearGradientField(c_surface=1500.0, gradient=2e-4)
        counts = []
        for angle in (30.0, 0.0, -30.0):
            res = trace_ray(field, FlatBottom(400.0), TraceConfig(
                r_start=0.0, r_end=3000.0, z0=100.0, theta0=math.radians(angle),
                dr=10.0, bisect_tol=1e-300))
            counts.append((res.unconverged_bounces, len(res.bounces)))
        assert counts[0][0] >= 1

        out = tmp_path / "t.csv"
        assert main(["trace", "--config", cfg, "--output", str(out)]) == 0
        unconverged, bounces = counts[0]
        assert capsys.readouterr().err.splitlines() == [
            f"varitrace trace: {unconverged} of {bounces} bounce landings "
            "stopped above bisect_tol"]
        assert "bisect_tol" not in out.read_text()

        assert main(["fan", "--config", cfg, "--output", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"varitrace fan: ray {i}: {k} of {n} bounce landings stopped above bisect_tol"
            for i, (k, n) in enumerate(counts) if k]
        assert "bisect_tol" not in out.read_text()


class TestOutputKeptOnConfigError:
    """A config error found while building or tracing leaves an existing
    ``--output`` file byte for byte as it was."""

    GRIDDED_CFG = BASE_CFG.replace("kind = constant\nc0 = 1500.0",
                                   "kind = gridded\nfile = ssp.txt")

    @staticmethod
    def run_over_old_file(tmp_path, text):
        (tmp_path / "ssp.txt").write_text("".join(
            f"{z} {1500.0 + 0.1 * z}\n" for z in range(-20, 180, 10)))
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out.csv"
        old = b"# an earlier run\n1,2,3\n"
        out.write_bytes(old)
        code = main(["trace", "--config", cfg, "--output", str(out)])
        return code, out.read_bytes() == old

    def test_missing_gridded_file(self, tmp_path, capsys):
        text = self.GRIDDED_CFG.replace("file = ssp.txt", "file = missing.txt")
        assert self.run_over_old_file(tmp_path, text) == (2, True)
        assert "config error: referenced file does not exist" in capsys.readouterr().err

    def test_source_outside_the_grid(self, tmp_path, capsys):
        text = (self.GRIDDED_CFG.replace("depth = 1000.0", "depth = 140.0")
                .replace("z0 = 0.0", "z0 = 500.0"))
        assert self.run_over_old_file(tmp_path, text) == (2, True)
        assert "config error: depth outside gridded field (z = 500)" in capsys.readouterr().err

    def test_valid_run_replaces_the_file(self, tmp_path):
        text = (self.GRIDDED_CFG.replace("depth = 1000.0", "depth = 140.0")
                .replace("z0 = 0.0", "z0 = 50.0").replace("dr = 50.0", "dr = 5.0"))
        assert self.run_over_old_file(tmp_path, text) == (0, False)
        assert "# status: completed" in (tmp_path / "out.csv").read_text()


class TestPathErrors:
    """A path that cannot be read or written is a config error (exit 2),
    not a traceback with the exit code of a failed verification, and an
    existing ``--output`` file keeps its bytes."""

    OLD = b"# an earlier run\n1,2,3\n"

    def run(self, config, output):
        if output.parent.is_dir():
            output.write_bytes(self.OLD)
        return main(["trace", "--config", str(config), "--output", str(output)])

    def test_config_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert self.run(tmp_path, out) == 2
        assert "config error: cannot read config file" in capsys.readouterr().err
        assert out.read_bytes() == self.OLD

    @pytest.mark.parametrize("section,text", [
        ("environment", BASE_CFG.replace("kind = constant\nc0 = 1500.0",
                                         "kind = gridded\nfile = data")),
        ("bathymetry", BASE_CFG.replace("kind = flat\ndepth = 1000.0",
                                        "kind = piecewise\nfile = data")),
    ], ids=["gridded", "piecewise"])
    def test_referenced_file_is_a_directory(self, tmp_path, capsys, section, text):
        (tmp_path / "data").mkdir()
        out = tmp_path / "out.csv"
        assert self.run(write_cfg(tmp_path, text), out) == 2
        assert f"config error: [{section}] " in capsys.readouterr().err
        assert out.read_bytes() == self.OLD

    @pytest.mark.parametrize("data", [b"[trace\n", b"[trace]\nz0 = 1\nz0 = 2\n",
                                      b"\xff\xfe[trace]\n"],
                             ids=["header", "duplicate-key", "not-utf8"])
    def test_unparsable_config(self, tmp_path, capsys, data):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(data)
        out = tmp_path / "out.csv"
        assert self.run(cfg, out) == 2
        assert "config error: cannot parse" in capsys.readouterr().err
        assert out.read_bytes() == self.OLD

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_digest_names_the_parsed_bytes(self, tmp_path, newline):
        """One read is both hashed and parsed, with newlines translated as
        a text-mode open() translates them."""
        cfg = tmp_path / "other.cfg"
        cfg.write_bytes(BASE_CFG.replace("\n", newline).encode())
        run, plain = load_config(cfg), load_config(write_cfg(tmp_path, BASE_CFG))
        assert run.sha256 == hashlib.sha256(cfg.read_bytes()).hexdigest() != plain.sha256
        assert ({name: sec.raw for name, sec in run.sections.items()}
                == {name: sec.raw for name, sec in plain.sections.items()})

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.csv"
        assert self.run(write_cfg(tmp_path, BASE_CFG), out) == 2
        assert "config error: cannot write output file" in capsys.readouterr().err
        assert not out.parent.exists()


class TestTableLineErrors:
    """A table line that does not hold exactly two finite numbers is a
    config error (exit 2) that names the file and the line; a nan or inf
    used to fail later, as a spline error naming neither."""

    TABLES = {
        "gridded": ("environment", "kind = constant\nc0 = 1500.0", "ssp.txt",
                    [(z, 1500.0 + 0.01 * z) for z in range(-20, 1100, 20)]),
        "piecewise": ("bathymetry", "kind = flat\ndepth = 1000.0", "bottom.txt",
                      [(r, 1000.0) for r in range(0, 7000, 500)]),
    }

    @pytest.mark.parametrize("bad", ["40.0 1500.4 7.0", "40.0 fast", "40.0 nan", "-inf 1500.4"],
                             ids=["three-fields", "non-number", "nan", "inf"])
    @pytest.mark.parametrize("kind", TABLES)
    def test_bad_line_names_file_and_line(self, tmp_path, capsys, kind, bad):
        section, replaced, name, rows = self.TABLES[kind]
        lines = ["# two columns", ""] + [f"{a} {b}" for a, b in rows]
        lines[5] = bad + "  # line 6"
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        cfg = write_cfg(tmp_path, BASE_CFG.replace(replaced, f"kind = {kind}\nfile = {name}"))
        assert main(["trace", "--config", cfg]) == 2
        assert (f"varitrace: config error: [{section}] {tmp_path / name}, line 6: expected "
                f"two finite numbers, got {bad + '  # line 6'!r}") in capsys.readouterr().err


class TestNonFiniteNumbers:
    """nan and inf are config errors, not numbers: a nan step or angle used
    to write NaN rows with status backscattered, and an infinite range
    never finished.  Each case runs in its own process with a timeout, so
    a regression fails instead of hanging the suite."""

    CASES = {
        "dr-nan": ("trace", "[trace] dr = 'nan'",
                   BASE_CFG.replace("dr = 50.0", "dr = nan")),
        "theta0-nan": ("trace", "[trace] theta0_deg = 'nan'",
                       BASE_CFG.replace("theta0_deg = 45.0", "theta0_deg = nan")),
        "r_end-inf": ("trace", "[trace] r_end = 'inf'",
                      BASE_CFG.replace("r_end = 6000.0", "r_end = inf")),
        "fan-angle-nan": ("fan", "[fan] angles_deg = 'nan'",
                          BASE_CFG + "\n[fan]\nangles_deg = 10, nan\n"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_config_error_keeps_output(self, tmp_path, case):
        command, named, text = self.CASES[case]
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out.csv"
        old = b"# an earlier run\n1,2,3\n"
        out.write_bytes(old)
        proc = subprocess.run(
            [sys.executable, "-m", "varitrace.cli", command, "--config", cfg,
             "--output", str(out)],
            capture_output=True, text=True, timeout=60, env=cli_env())
        assert proc.returncode == 2, proc.stderr
        assert f"varitrace: config error: {named} is not a finite number" in proc.stderr
        assert out.read_bytes() == old


class TestStepBelowRangeResolution:
    """A ``dr`` that rounds away at the trace's largest range used to pass
    validation and append rows forever; it is a config error (exit 2) that
    keeps ``--output``.  It runs in its own process with a timeout, so a
    regression fails instead of hanging the suite."""

    def test_config_error_keeps_output(self, tmp_path):
        text = (BASE_CFG.replace("r_start = 0.0\nr_end = 6000.0",
                                 "r_start = 1e6\nr_end = 1000100.0")
                .replace("dr = 50.0", "dr = 1e-11"))
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out.csv"
        old = b"# an earlier run\n1,2,3\n"
        out.write_bytes(old)
        proc = subprocess.run(
            [sys.executable, "-m", "varitrace.cli", "trace", "--config", cfg,
             "--output", str(out)],
            capture_output=True, text=True, timeout=60, env=cli_env())
        assert proc.returncode == 2, proc.stderr
        assert ("varitrace: config error: [trace] base step dr = 1e-11 is below the "
                "range resolution") in proc.stderr
        assert out.read_bytes() == old


class TestFanCommand:
    FAN_CFG = BASE_CFG.replace("z0 = 0.0", "z0 = 500.0") + \
        "\n[fan]\nangles_deg = -20, 0.5, 20\n"

    def test_three_blocks(self, tmp_path):
        cfg = write_cfg(tmp_path, self.FAN_CFG)
        out = tmp_path / "fan.csv"
        assert main(["fan", "--config", cfg, "--output", str(out)]) == 0
        rows = read_rows(out)
        assert {r[0] for r in rows} == {"0", "1", "2"}
        # blocks are contiguous
        ids = [r[0] for r in rows]
        assert ids == sorted(ids, key=int)

    def test_empty_angle_list_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.FAN_CFG.replace("angles_deg = -20, 0.5, 20",
                                                       "angles_deg ="))
        assert main(["fan", "--config", cfg]) == 2
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["theta_min_deg = -5", "theta_max_deg = 5", "count = 50"])
    def test_angles_with_range_keys_is_usage_error(self, tmp_path, capsys, key):
        """angles_deg and the range keys are one or the other: a range key
        beside angles_deg is an error, not silently dropped."""
        cfg = write_cfg(tmp_path, self.FAN_CFG + key + "\n")
        out = tmp_path / "fan.csv"
        assert main(["fan", "--config", cfg, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[fan] angles_deg with " + key.split()[0] in err
        assert "one or the other" in err and not out.exists()

    def test_missing_fan_section(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        assert main(["fan", "--config", cfg]) == 2

    def test_angle_past_cutoff_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.FAN_CFG.replace("angles_deg = -20, 0.5, 20",
                                                       "angles_deg = 95"))
        assert main(["fan", "--config", cfg]) == 2
        assert "cutoff" in capsys.readouterr().err

    def test_source_below_bottom_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG.replace("z0 = 0.0", "z0 = 1500.0"))
        assert main(["trace", "--config", cfg]) == 2
        assert "water column" in capsys.readouterr().err

    def test_symmetric_pair_mirrors(self, tmp_path):
        profile = tmp_path / "profile.txt"
        depths = np.linspace(-40.0, 540.0, 117)
        c = 1500.0 * (1.0 + 2e-4 * ((depths - 250.0) / 250.0) ** 2)
        profile.write_text("\n".join(f"{z} {ci}" for z, ci in zip(depths, c)))
        text = (
            "[environment]\nkind = gridded\nfile = profile.txt\nc0 = 1500.0\n"
            "[bathymetry]\nkind = flat\ndepth = 500.0\n"
            "[trace]\nr_start = 0\nr_end = 8000\nz0 = 250\ntheta0_deg = 12\ndr = 10\n"
            "[fan]\nangles_deg = -12, 12\n")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "fan.csv"
        assert main(["fan", "--config", cfg, "--output", str(out)]) == 0
        rows = read_rows(out)
        p0 = np.array([float(r[3]) for r in rows if r[0] == "0"])
        p1 = np.array([float(r[3]) for r in rows if r[0] == "1"])
        np.testing.assert_allclose(p0, -p1, atol=1e-9)


def bits(values):
    """Exact bit patterns of floats, signed zeros told apart."""
    return [float.hex(float(v)) for v in values]


class TestLinspace:
    """Fan angle ranges are spaced in plain Python to ``np.linspace``'s bits."""

    @staticmethod
    def check(lo, hi, count):
        from varitrace.cli import _linspace

        assert bits(_linspace(lo, hi, count)) == bits(np.linspace(lo, hi, count).tolist()), (
            lo, hi, count)

    def test_seeded_triples(self):
        rng = np.random.default_rng(61)
        for _ in range(3_000):
            scale = 10.0 ** rng.integers(-3, 4)
            lo, hi = (rng.uniform(-90.0, 90.0, 2) * scale).tolist()
            self.check(lo, hi, int(rng.integers(1, 120)))

    @pytest.mark.parametrize("lo,hi,count", [
        (-25.0, 25.0, 1), (7.5, -3.0, 1), (-0.0, 4.0, 1), (-0.0, -0.0, 1),
        (3.5, 3.5, 6), (0.0, 0.0, 2), (-0.0, 0.0, 3), (0.0, -0.0, 3), (-0.0, -0.0, 4),
        (25.0, -25.0, 11), (0.3, -0.1, 7), (-0.0, 12.0, 5), (-0.0, -12.0, 5),
        (0.0, 5e-324, 3), (0.0, 5e-324, 4), (-1e-320, 1e-320, 9),
    ])
    def test_edge_cases(self, lo, hi, count):
        """count = 1, lo == hi, lo > hi, a signed-zero start and steps that
        underflow to zero."""
        self.check(lo, hi, count)


class TestKappaScan:
    SCAN_CFG = """\
[kappa_scan]
alpha_min_deg = 0
alpha_max_deg = 180
alpha_step_deg = 15
curvature = 0.02
n = 1.0
n_z = 0.01
n_r = 0.0
"""

    def test_alpha_90_diagonal_is_minus_one(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SCAN_CFG)
        out = tmp_path / "scan.csv"
        assert main(["kappa-scan", "--config", cfg, "--output", str(out)]) == 0
        rows = read_rows(out)
        at_90 = [r for r in rows if float(r[1]) == 90.0 and r[5] == "1"]
        assert len(at_90) == len(DEFAULT_SCAN_THETAS) - 1  # theta = 0 is a gap
        for r in at_90:
            assert float(r[2]) == pytest.approx(-1.0, abs=1e-12)
            assert float(r[4]) == pytest.approx(-1.0, abs=1e-12)

    def test_flat_scan_reproduces_gradient_formula(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SCAN_CFG.replace("curvature = 0.02",
                                                        "curvature = 0.0"))
        out = tmp_path / "scan.csv"
        assert main(["kappa-scan", "--config", cfg, "--output", str(out)]) == 0
        for r in read_rows(out):
            if float(r[1]) == 90.0 and r[5] == "1":
                tz = math.sin(math.radians(float(r[0])))
                assert float(r[3]) == pytest.approx(2.0 * 0.01 / tz, abs=1e-12)

    def test_empty_theta_list_is_usage_error(self, tmp_path, capsys):
        """An empty list is an error, not the default angles."""
        cfg = write_cfg(tmp_path, self.SCAN_CFG.replace("[kappa_scan]\n",
                                                        "[kappa_scan]\ntheta_deg =\n"))
        assert main(["kappa-scan", "--config", cfg]) == 2
        assert "theta_deg list is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_non_positive_index_is_usage_error(self, tmp_path, capsys, n):
        """n <= 0 is a config error raised before any output, not a scan
        whose rows are all flagged valid."""
        cfg = write_cfg(tmp_path, self.SCAN_CFG.replace("n = 1.0", f"n = {n}"))
        out = tmp_path / "scan.csv"
        assert main(["kappa-scan", "--config", cfg, "--output", str(out)]) == 2
        assert "[kappa_scan] n" in capsys.readouterr().err
        assert not out.exists() or out.read_text() == ""

    def test_backward_reflection_flagged_invalid(self):
        # theta = 0 against a steep wall reflects backward: t1r <= 0
        assert scan_kappa(0.0, 150.0, 0.0, 1.0, 0.01, 0.0) is None
        assert scan_kappa(0.0, 90.0, 0.0, 1.0, 0.01, 0.0) is None  # tangential

    @pytest.mark.parametrize("t1r,valid", [(5e-7, False), (2e-6, True)])
    def test_forward_threshold_is_the_tracers(self, t1r, valid):
        """A reflected ray with t1r at or below SINGULAR_TOL is invalid, as
        it is a backscatter for the tracer; just above it, values return."""
        theta = 30.0
        # t1 points along 2 alpha - theta + 180 degrees, so t1r = -cos(2 alpha - theta)
        alpha = 0.5 * (theta + math.degrees(math.acos(-t1r)))
        tr, tz = math.cos(math.radians(theta)), math.sin(math.radians(theta))
        nr, nz = math.cos(math.radians(alpha)), math.sin(math.radians(alpha))
        assert tr - 2.0 * nr * (tr * nr + tz * nz) == pytest.approx(t1r, rel=1e-6)
        assert (scan_kappa(theta, alpha, 0.02, 1.0, 0.01, 0.0) is not None) is valid

    @staticmethod
    def alphas(tmp_path, lo, hi, step):
        cfg = write_cfg(tmp_path, f"[kappa_scan]\ntheta_deg = 30\nalpha_min_deg = {lo}\n"
                                  f"alpha_max_deg = {hi}\nalpha_step_deg = {step}\n")
        out = tmp_path / "scan.csv"
        assert main(["kappa-scan", "--config", cfg, "--output", str(out)]) == 0
        return [row[1] for row in read_rows(out)]

    def test_grid_stops_at_alpha_max(self, tmp_path):
        """A step that does not divide the span ends the grid below
        alpha_max_deg, never past it."""
        assert self.alphas(tmp_path, 100, 101, 0.35) == [
            format(100.0 + i * 0.35, ".17g") for i in range(3)]

    def test_grid_keeps_a_rounded_endpoint(self, tmp_path):
        """0.3 / 0.1 rounds just below 3: the grid still ends at its
        endpoint, as computed alpha_min + 3 * step."""
        alphas = self.alphas(tmp_path, 0, 0.3, 0.1)
        assert alphas == [format(i * 0.1, ".17g") for i in range(4)]
        assert float(alphas[-1]) == pytest.approx(0.3, abs=1e-15)

    def test_invalid_rows_have_empty_values(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SCAN_CFG)
        out = tmp_path / "scan.csv"
        main(["kappa-scan", "--config", cfg, "--output", str(out)])
        invalid = [r for r in read_rows(out) if r[5] == "0"]
        assert invalid and all(r[2] == r[3] == r[4] == "" for r in invalid)

    def test_scan_values_match_library_formula(self):
        tr, tz = math.cos(math.radians(30.0)), math.sin(math.radians(30.0))
        # alpha = -90: into-water normal points up; the incident ray comes
        # down onto a concave-up (focusing) boundary
        k11, k12, k22 = scan_kappa(30.0, -90.0, 0.02, 1.0, 0.01, 0.0)
        assert k11 == pytest.approx(-1.0, abs=1e-12)
        assert k22 == pytest.approx(-1.0, abs=1e-12)
        assert k12 == pytest.approx(2.0 * (0.02 * tr * tr + 0.01) / tz, abs=1e-12)
        # alpha = +90 describes the mirrored normal, flipping the sign of
        # the curvature contribution
        _, k12_mirror, _ = scan_kappa(30.0, 90.0, 0.02, 1.0, 0.01, 0.0)
        assert k12_mirror == pytest.approx(2.0 * (-0.02 * tr * tr + 0.01) / tz,
                                           abs=1e-12)


class TestVerifyCommand:
    def test_single_preset_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[verify]\npreset = flat-linear\n")
        assert main(["verify", "--config", cfg, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "OVERALL PASS" in out
        assert "convergence order" in out

    def test_corrupted_kappa12_fails(self, tmp_path, capsys, monkeypatch):
        """Mutation check: the gate fails once the tracer's kappa12 has the
        wrong sign."""
        import varitrace.propagation as propagation

        def flipped(t, frame, sample):
            t1, k = kappa_matrix(t, frame, sample)
            return t1, replace(k, k12=-k.k12)

        monkeypatch.setattr(propagation, "kappa_matrix", flipped)
        cfg = write_cfg(tmp_path, "[verify]\npreset = arc-homogeneous\n")
        assert main(["verify", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert "OVERALL FAIL" in out

    @pytest.mark.parametrize("variant", ["dropped", "nr-nz", "scaled-1.01"])
    def test_horizontal_gradient_term_mutants_fail(self, tmp_path, capsys, monkeypatch,
                                                   variant):
        """Mutation check: arc-linear's range gradient makes the gate see
        kappa12's Nr Nz^2 n_r term; dropping it, using Nr Nz, or scaling it
        by 1.01 fails verify with preset = all."""
        import varitrace.propagation as propagation

        def mutant(t, frame, sample):
            t1, k = kappa_matrix(t, frame, sample)
            nr, nz, n_r = frame.nr, frame.nz, sample[1]
            n_t = t[0] * nr + t[1] * nz
            term = nr * nz * nz * n_r * 2.0 / n_t
            wrong = {"dropped": 0.0, "nr-nz": nr * nz * n_r * 2.0 / n_t,
                     "scaled-1.01": 1.01 * term}[variant]
            return t1, replace(k, k12=k.k12 - term + wrong)

        monkeypatch.setattr(propagation, "kappa_matrix", mutant)
        cfg = write_cfg(tmp_path, "[verify]\npreset = all\n")
        assert main(["verify", "--config", cfg, "--seed", "1"]) == 1
        out = capsys.readouterr().out
        failed = [line for line in out.splitlines() if " FAIL" in line]
        assert len(failed) >= 2 and failed[-1] == "OVERALL FAIL"
        assert all(line.startswith("[arc-linear]") for line in failed[:-1])

    def test_identity_gate_scales_with_the_sides(self, tmp_path, capsys):
        """This seed draws a reflected ray near vertical, where the sides of
        the second identity reach about 7e5 and differ by 2 ulps; the gate
        holds the difference to 1e-10 relative to the larger side."""
        cfg = write_cfg(tmp_path, "[verify]\npreset = arc-homogeneous\n")
        assert main(["verify", "--config", cfg, "--seed", "1715831031"]) == 0
        out = capsys.readouterr().out
        assert "OVERALL PASS" in out

    def test_flipped_identity_term_fails(self, tmp_path, capsys, monkeypatch):
        """Mutation check: the identity sweep fails once the 2 Nz Nr tz/tr
        term of the first identity has the wrong sign."""
        import varitrace.cli as cli

        original = cli.identity_checks
        shapes = []

        def flipped(t, n_vec):
            shapes.append(np.shape(t))
            (tr, tz), (nr, nz) = t, n_vec
            (_, rhs1), second = original(t, n_vec)
            return (1.0 - 2.0 * nz * nz - 2.0 * nz * nr * tz / tr, rhs1), second

        monkeypatch.setattr(cli, "identity_checks", flipped)
        cfg = write_cfg(tmp_path, "[verify]\npreset = arc-homogeneous\n")
        assert main(["verify", "--config", cfg]) == 1
        # the sweep passes whole blocks: the wrapper flips every column
        assert shapes and all(len(shape) == 2 and shape[0] == 2 for shape in shapes)
        out = capsys.readouterr().out
        assert [line for line in out.splitlines()
                if line.startswith("identities:") and line.endswith("FAIL")]
        assert "OVERALL FAIL" in out

    def test_corrupt_flag_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "[verify]\npreset = arc-homogeneous\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", cfg, "--corrupt-kappa12"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tolerance", ["0", "-1e-3"])
    def test_non_positive_tolerance_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                   tolerance):
        """A tolerance at or below 0 is a config error raised before any
        trace, not a gate that runs and fails."""
        import varitrace.cli as cli

        def no_trace(*args):
            raise AssertionError("verify traced a ray")

        monkeypatch.setattr(cli, "verify_kappa", no_trace)
        cfg = write_cfg(tmp_path, f"[verify]\npreset = flat-linear\ntolerance = {tolerance}\n")
        assert main(["verify", "--config", cfg]) == 2
        assert "[verify] tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("preset_line", ["preset = flat-linear\n", "preset = all\n", ""])
    def test_r_after_bounce_needs_custom_preset(self, tmp_path, capsys, preset_line):
        """Only preset = custom reads r_after_bounce; any other preset,
        the default one included, rejects it instead of ignoring it."""
        cfg = write_cfg(tmp_path, f"[verify]\n{preset_line}r_after_bounce = 5\n")
        assert main(["verify", "--config", cfg]) == 2
        assert "[verify] r_after_bounce" in capsys.readouterr().err

    def test_unknown_preset_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[verify]\npreset = bogus\n")
        assert main(["verify", "--config", cfg]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_custom_scenario(self, tmp_path, capsys):
        text = (
            "[environment]\nkind = linear-gradient\ngradient = 5e-4\n"
            "[bathymetry]\nkind = flat\ndepth = 300.0\n"
            "[trace]\nr_start = 0\nr_end = 600\nz0 = 80\ntheta0_deg = 30\ndr = 0.5\n"
            "[verify]\npreset = custom\nr_after_bounce = 600\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "[custom]" in out and "OVERALL PASS" in out

    def test_custom_scenario_halves_offsets_outside_a_grid(self, tmp_path, capsys):
        """The order study's h_z = 1 m puts a perturbed launch from 0.5 m
        above the grid's first depth; the offsets are halved, not the run
        ended with a config error."""
        (tmp_path / "ssp.txt").write_text("".join(
            f"{z} {1500.0 + 0.05 * z}\n" for z in range(0, 320, 20)))
        text = (
            "[environment]\nkind = gridded\nfile = ssp.txt\n"
            "[bathymetry]\nkind = flat\ndepth = 200.0\n"
            "[trace]\nr_start = 0\nr_end = 400\nz0 = 0.5\ntheta0_deg = 30\ndr = 0.5\n"
            "[verify]\npreset = custom\nr_after_bounce = 400\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["verify", "--config", cfg]) == 0
        assert "OVERALL PASS" in capsys.readouterr().out

    def test_custom_scenario_needs_r_after_bounce(self, tmp_path, capsys):
        text = (
            "[environment]\nkind = constant\n"
            "[bathymetry]\nkind = flat\ndepth = 300.0\n"
            "[trace]\nr_start = 0\nr_end = 600\nz0 = 80\ntheta0_deg = 30\ndr = 0.5\n"
            "[verify]\npreset = custom\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["verify", "--config", cfg]) == 2
        assert "r_after_bounce" in capsys.readouterr().err

    def test_custom_scenario_with_many_bounces_is_config_error(self, tmp_path, capsys):
        text = (
            "[environment]\nkind = constant\n"
            "[bathymetry]\nkind = flat\ndepth = 100.0\n"
            "[trace]\nr_start = 0\nr_end = 2000\nz0 = 80\ntheta0_deg = 30\ndr = 0.5\n"
            "[verify]\npreset = custom\nr_after_bounce = 2000\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["verify", "--config", cfg]) == 2
        assert "config error: expected exactly one bounce" in capsys.readouterr().err


HOMOGENEOUS = (1.0, 0.0, 0.0, 0.0)


def scalar_identities(rng, out) -> bool:
    """The identity sweep with one generator call per value: the reference
    for cli's block-drawn sweep."""
    worst = 0.0
    checked = 0
    while checked < 10_000:
        theta = rng.uniform(-math.pi, math.pi)
        alpha = rng.uniform(-math.pi, math.pi)
        t = np.array([math.cos(theta), math.sin(theta)])
        n_vec = np.array([math.cos(alpha), math.sin(alpha)])
        try:
            kappa_matrix(t, NormalFrame(*n_vec, 0.0), HOMOGENEOUS)
            pairs = identity_checks(t, n_vec)
        except GeometryError:
            continue
        for lhs, rhs in pairs:
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        checked += 1
    passed = worst <= 1e-10
    print(f"identities: max |lhs - rhs| / max(1, |lhs|, |rhs|) {worst:.3e} over "
          f"{checked} pairs (tol 1e-10) {'PASS' if passed else 'FAIL'}", file=out)
    return passed


def scalar_structure(rng, out) -> bool:
    """The kappa-structure sweep with one generator call per value."""
    worst_det = 0.0
    worst_k21 = 0.0
    checked = 0
    while checked < 2_000:
        theta = rng.uniform(-math.pi, math.pi)
        alpha = rng.uniform(-math.pi, math.pi)
        t = np.array([math.cos(theta), math.sin(theta)])
        frame = NormalFrame(nr=math.cos(alpha), nz=math.sin(alpha),
                            curvature=rng.uniform(-0.05, 0.05))
        sample = (rng.uniform(0.9, 1.1), rng.uniform(-0.01, 0.01),
                  rng.uniform(-0.02, 0.02), 0.0)
        try:
            _, kappa = kappa_matrix(t, frame, sample)
        except GeometryError:
            continue
        a, b, c, d = kappa.apply((1.0, 0.0, 0.0, 1.0))
        worst_det = max(worst_det, abs(a * d - b * c - 1.0))
        worst_k21 = max(worst_k21, abs(c))
        checked += 1
    passed = worst_det < 1e-12 and worst_k21 == 0.0
    print(f"kappa structure: max |det - 1| {worst_det:.3e}, max |kappa21| "
          f"{worst_k21:.3e} over {checked} contexts (tol 1e-12) "
          f"{'PASS' if passed else 'FAIL'}", file=out)
    return passed


SWEEP_SEEDS = [0, 1, 11, 1715831031] + np.random.SeedSequence(8).generate_state(20).tolist()


class TestBlockDrawnSweeps:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_same_lines_and_generator_state_as_scalar_draws(self, seed):
        """Drawing in blocks of the checks still needed takes exactly the
        values, in the order, of one generator call per value: the printed
        lines and the generator's final state are those of the scalar
        reference loops."""
        import varitrace.cli as cli

        lines, states = [], []
        for identities, structure in ((cli._verify_identities, cli._verify_structure),
                                      (scalar_identities, scalar_structure)):
            rng = np.random.default_rng(seed)
            out = io.StringIO()
            assert identities(rng, out) and structure(rng, out)
            lines.append(out.getvalue())
            states.append(rng.bit_generator.state)
        assert lines[0] == lines[1]
        assert states[0] == states[1]


class TestSweepPrefilters:
    """The sweeps drop draws before the reflection code sees them.  Every
    dropped draw is one that code rejects, and the identity sweep passes on
    exactly the pairs it accepts."""

    @staticmethod
    def replay(seed, low, high, reached):
        """Walk the seeded draw stream up to the last draw the sweep passed
        on; yield (draw, whether the sweep passed it on)."""
        draws = np.random.default_rng(seed).uniform(low, high, size=(30_000, len(low)))
        j = 0
        for draw in draws.tolist():
            if j == len(reached):
                return
            theta, alpha = draw[:2]
            key = (math.cos(theta), math.sin(theta), math.cos(alpha), math.sin(alpha))
            passed = key == reached[j]
            j += passed
            yield draw, passed
        raise AssertionError("the sweep passed on draws outside the replayed stream")

    @pytest.mark.parametrize("seed", [0, 1, 653457016])
    def test_identity_mask_drops_exactly_the_rejected_pairs(self, monkeypatch, seed):
        import varitrace.cli as cli

        reached = []

        def recording(t, n_vec):
            reached.extend(zip(*t.tolist(), *n_vec.tolist()))
            return identity_checks(t, n_vec)

        monkeypatch.setattr(cli, "identity_checks", recording)
        assert cli._verify_identities(np.random.default_rng(seed), io.StringIO())
        assert len(reached) == 10_000
        stream = self.replay(seed, (-math.pi, -math.pi), (math.pi, math.pi), reached)
        for (theta, alpha), passed in stream:
            t = np.array([math.cos(theta), math.sin(theta)])
            n_vec = np.array([math.cos(alpha), math.sin(alpha)])
            try:
                kappa_matrix(t, NormalFrame(*n_vec, 0.0), HOMOGENEOUS)
                identity_checks(t, n_vec)
            except GeometryError:
                assert not passed
            else:
                assert passed

    @pytest.mark.parametrize("seed", [0, 1, 653457016])
    def test_structure_prefilter_drops_only_rejected_contexts(self, monkeypatch, seed):
        import varitrace.cli as cli

        reached = []

        def recording(t, frame, sample):
            reached.append((*t, frame.nr, frame.nz))
            return kappa_matrix(t, frame, sample)

        monkeypatch.setattr(cli, "kappa_matrix", recording)
        assert cli._verify_structure(np.random.default_rng(seed), io.StringIO())
        low = (-math.pi, -math.pi, -0.05, 0.9, -0.01, -0.02)
        high = (math.pi, math.pi, 0.05, 1.1, 0.01, 0.02)
        dropped = 0
        for draw, passed in self.replay(seed, low, high, reached):
            if passed:
                continue
            dropped += 1
            theta, alpha, curvature, n, n_r, n_z = draw
            frame = NormalFrame(nr=math.cos(alpha), nz=math.sin(alpha), curvature=curvature)
            with pytest.raises(GeometryError):
                kappa_matrix(np.array([math.cos(theta), math.sin(theta)]), frame,
                             (n, n_r, n_z, 0.0))
        assert dropped > 1000


class TestParserBuiltOnce:
    def test_parser_state_does_not_leak_between_calls(self, tmp_path):
        """main builds its parser once per process; a seeded run and a usage
        error before a seedless run leave no trace in the later output."""
        import varitrace.cli as cli

        cfg = write_cfg(tmp_path, BASE_CFG)
        seeded, reused, fresh = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        assert main(["trace", "--config", cfg, "--output", str(seeded), "--seed", "5"]) == 0
        assert "# seed: 5" in seeded.read_text()
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--output", str(reused)])  # no --config
        assert exc.value.code == 2
        assert main(["trace", "--config", cfg, "--output", str(reused)]) == 0
        assert cli._build_parser() is cli._build_parser()
        subprocess.run([sys.executable, "-m", "varitrace.cli", "trace", "--config", cfg,
                        "--output", str(fresh)], check=True, timeout=60, env=cli_env())
        assert "# seed:" not in reused.read_text()
        assert reused.read_bytes() == fresh.read_bytes()


class TestCarriedIndex:
    """The writer prints theta from the index the integrator evaluated; the
    bytes equal those of a writer that evaluates the field again per row."""

    BOUNCING = BASE_CFG.replace("kind = constant\nc0 = 1500.0", "kind = munk")
    CASES = [
        ("trace", BOUNCING),
        ("trace", BASE_CFG.replace("kind = flat\ndepth = 1000.0",
                                   "kind = linear-slope\ndepth0 = 500.0\nslope = -1.5")),
        ("fan", BOUNCING.replace("z0 = 0.0", "z0 = 500.0")
         + "\n[fan]\nangles_deg = -20, 0.5, 20\n"),
    ]

    @pytest.mark.parametrize("command,text", CASES,
                             ids=["trace", "trace-backscattered", "fan"])
    def test_bytes_match_reevaluating_writer(self, tmp_path, monkeypatch, command, text):
        import varitrace.cli as cli

        cfg = write_cfg(tmp_path, text)
        field = load_config(cfg).build_field()

        def reevaluating_rows(result):
            bounce_at = {b.r: b.boundary for b in result.bounces}
            for row in result.samples:
                r, z, p, q11, q12, q21, q22 = row
                n = field.index_at(r, z)[0]
                theta = math.degrees(math.asin(max(-1.0, min(1.0, p / n))))
                det = q11 * q22 - q12 * q21
                yield ",".join([cli._fmt(v) for v in (r, z, p, theta, q11, q12,
                                                      q21, q22, det)]
                               + [bounce_at.pop(r, "")])

        carried, reevaluated = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([command, "--config", cfg, "--output", str(carried)]) == 0
        monkeypatch.setattr(cli, "_trace_rows", reevaluating_rows)
        assert main([command, "--config", cfg, "--output", str(reevaluated)]) == 0
        assert len(read_rows(carried)) > 2
        assert carried.read_bytes() == reevaluated.read_bytes()

    def test_rows_match_format_reference(self, tmp_path):
        """One %-format per row gives the bytes of per-field
        format(x, ".17g"), bounce flags included."""
        import varitrace.cli as cli
        from varitrace.propagation import trace_ray

        run = load_config(write_cfg(tmp_path, self.BOUNCING))
        result = trace_ray(run.build_field(), run.build_bathymetry(),
                           run.build_trace_config())
        assert result.bounces
        bounce_at = {b.r: b.boundary for b in result.bounces}
        expected = []
        for row, n in zip(result.samples, result.n):
            r, z, p, q11, q12, q21, q22 = row
            theta = math.degrees(math.asin(max(-1.0, min(1.0, p / n))))
            fields = [format(v, ".17g") for v in (r, z, p, theta, q11, q12, q21, q22,
                                                  q11 * q22 - q12 * q21)]
            expected.append(",".join(fields + [bounce_at.pop(r, "")]))
        rows = list(cli._trace_rows(result))
        assert sum(1 for line in rows if not line.endswith(",")) == len(result.bounces)
        assert rows == expected

    def test_theta_clamp_is_min_max_for_every_ratio(self):
        """The writer's comparison clamp of p / n gives ``max(-1.0, min(1.0,
        p / n))``'s theta bit for bit, at and past both ends, on signed
        zeros and on NaN, which min and max carry as 1.0."""
        from array import array

        import varitrace.cli as cli
        from varitrace.propagation import TraceResult, TraceStatus

        ps = [math.nan, math.inf, -math.inf, 2.0, -2.0, 1.0, -1.0, 1.0 + 2**-52,
              -1.0 - 2**-52, 1.0 - 2**-53, -1.0 + 2**-53, 0.0, -0.0, 0.3, -0.3, 5e-324]
        result = TraceResult(
            packed_samples=array("d", [v for p in ps for v in (0.0, 1.0, p, 1.0, 0.0, 0.0, 1.0)]),
            packed_n=array("d", [1.0] * len(ps)), bounces=[], status=TraceStatus.COMPLETED)
        thetas = [line.split(",")[3] for line in cli._trace_rows(result)]
        assert thetas == [format(math.degrees(math.asin(max(-1.0, min(1.0, p)))), ".17g")
                          for p in ps]
