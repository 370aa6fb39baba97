"""CLI tests: config validation, CSV output, exit codes, verify gate."""

import hashlib
import io
import math
import os
import resource
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
from varitrace.reflection import kappa_matrix

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
        """What ``section`` builds in a complete config whose other two
        sections are BASE_CFG's."""
        names = ("environment", "bathymetry", "trace")
        parts = dict(zip(names, BASE_CFG.split("\n\n")))
        parts[section] = f"[{section}]\n{keys}"
        run = load_config(write_cfg(tmp_path, "\n\n".join(parts.values())))
        return run.build()[names.index(section)]

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

    def test_bounce_at_the_launch_range_labels_its_own_row(self, tmp_path):
        """A launch 5e-324 m below the surface lands on it with a zero-length
        step, so the bounce row shares the launch row's range r = 0.  The
        bounce is labelled on its own row (z = 0), not on the launch row; the
        label was keyed by range alone and went to the launch row."""
        text = (BASE_CFG.replace("c0 = 1500.0", "c0 = 1500.0\nc = 1400.0")
                .replace("depth = 1000.0", "depth = 20.0")
                .replace("r_end = 6000.0\nz0 = 0.0\ntheta0_deg = 45.0\ndr = 50.0",
                         "r_end = 10.0\nz0 = 5e-324\ntheta0_deg = -1.0\ndr = 0.5"))
        out = tmp_path / "t.csv"
        assert main(["trace", "--config", write_cfg(tmp_path, text), "--output", str(out)]) == 0
        launch, bounce = read_rows(out)[:2]
        assert (launch[0], launch[1], launch[9]) == ("0", "4.9406564584124654e-324", "")
        assert (bounce[0], bounce[1], bounce[9]) == ("0", "0", "surface")

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
        # One usable core, so the fan traces every ray in this process, where they are counted.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
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

    def test_command_failing_part_way_keeps_the_file(self, tmp_path, capsys, monkeypatch):
        """A verify whose third preset raises after two presets' lines were
        written exits 2 and leaves the file as it was: the output is written
        once the command returns, not line by line."""
        import varitrace.cli as cli

        calls = []

        def third_raises(*args):
            calls.append(args)
            if len(calls) == 3:
                raise GeometryError("third preset fails")
            return (0.0,), (4e-4, 1e-4, 2.5e-5)

        monkeypatch.setattr(cli, "verify_kappa", third_raises)
        cfg = write_cfg(tmp_path, "[verify]\npreset = all\n")
        out = tmp_path / "out.csv"
        old = b"# an earlier run\n1,2,3\n"
        out.write_bytes(old)
        assert main(["verify", "--config", cfg, "--output", str(out)]) == 2
        assert len(calls) == 3
        assert "config error: third preset fails" in capsys.readouterr().err
        assert out.read_bytes() == old

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


class TestTooManyBaseSteps:
    """A ``dr`` the range resolves but tiny against the span (5e11 base
    steps here) used to trace until it was killed; it is a config error
    (exit 2) that writes nothing and keeps ``--output``.  It runs in its
    own process with a timeout and a 1 GiB address-space limit, so a
    regression fails instead of hanging the suite or filling memory."""

    def test_config_error_keeps_output(self, tmp_path):
        text = (BASE_CFG.replace("r_start = 0.0\nr_end = 6000.0",
                                 "r_start = 1e6\nr_end = 1000100.0")
                .replace("dr = 50.0", "dr = 2e-10"))
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out.csv"
        old = b"# an earlier run\n1,2,3\n"
        out.write_bytes(old)
        proc = subprocess.run(
            [sys.executable, "-m", "varitrace.cli", "trace", "--config", cfg,
             "--output", str(out)],
            capture_output=True, text=True, timeout=60, env=cli_env(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
        assert proc.returncode == 2, proc.stderr
        assert ("varitrace: config error: [trace] base step dr = 2e-10 takes over "
                "10,000,000 steps") in proc.stderr
        assert proc.stdout == ""
        assert out.read_bytes() == old


class TestIndexArithmeticErrorsAtLaunch:
    """An index that overflows, divides by zero or is 0 at the launch point
    is a config error (exit 2) with no output.  Each case used to end in a
    traceback and exit 1: Munk with ``scale_depth = 1`` (exp(2600) at the
    surface) or ``c_axis = 1e-245`` (c^2 underflows to 0), Munk with
    ``c_axis = 1.8e308`` (c overflows to inf, so n = 0 and the launch
    divided by it), and a linear gradient whose (1 - g z)^2 overflows at
    z0 = -1e300.  It runs in its own process with a timeout."""

    @pytest.mark.parametrize("environment, z0", [
        ("kind = munk\nscale_depth = 1.0", "0.0"),
        ("kind = munk\nc_axis = 1e-245", "0.0"),
        ("kind = munk\nc_axis = 1.7976931348623157e308", "0.0"),
        ("kind = linear-gradient\ngradient = 1e-30", "-1e300"),
    ], ids=["munk-exp-overflow", "munk-c2-underflow", "munk-c-overflow", "linear-f2-overflow"])
    def test_config_error(self, tmp_path, environment, z0):
        cfg = write_cfg(tmp_path, f"""\
[environment]
{environment}

[bathymetry]
kind = flat
depth = 2000.0

[trace]
r_start = 0.0
r_end = 1000.0
z0 = {z0}
theta0_deg = 5.0
dr = 10.0
""")
        proc = subprocess.run([sys.executable, "-m", "varitrace.cli", "trace", "--config", cfg],
                              capture_output=True, text=True, timeout=60, env=cli_env())
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("varitrace: config error: index at the launch point")
        assert proc.stdout == ""


class TestLaunchOnABottomWhoseFrameOverflows:
    """A launch exactly on a sinusoidal bottom of slope 1e140 (amplitude
    1e-160, wavenumber 1e300), whose normal frame overflows, is a config
    error (exit 2) with no output; it used to end in a traceback and exit
    1.  It runs in its own process with a timeout."""

    def test_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG.replace(
            "kind = flat\ndepth = 1000.0",
            "kind = sinusoidal\nmean_depth = 10\namplitude = 1e-160\nwavenumber = 1e300")
            .replace("z0 = 0.0", "z0 = 10").replace("theta0_deg = 45.0", "theta0_deg = -5"))
        proc = subprocess.run([sys.executable, "-m", "varitrace.cli", "trace", "--config", cfg],
                              capture_output=True, text=True, timeout=60, env=cli_env())
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("varitrace: config error: bottom frame at the launch range")
        assert proc.stdout == ""


class TestScanStepBelowAngleResolution:
    """An ``alpha_step_deg`` that rounds away at the scan's largest angle
    used to pass validation and list alphas without end; it is a config
    error (exit 2) that keeps ``--output``.  It runs in its own process with
    a timeout and a 1 GiB address-space limit, so a regression fails instead
    of hanging the suite or filling memory with alphas."""

    def test_config_error_keeps_output(self, tmp_path):
        cfg = write_cfg(tmp_path, "[kappa_scan]\nalpha_min_deg = 0\nalpha_max_deg = 1\n"
                                  "alpha_step_deg = 1e-300\n")
        out = tmp_path / "out.csv"
        old = b"# an earlier run\n1,2,3\n"
        out.write_bytes(old)
        proc = subprocess.run(
            [sys.executable, "-m", "varitrace.cli", "kappa-scan", "--config", cfg,
             "--output", str(out)],
            capture_output=True, text=True, timeout=60, env=cli_env(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
        assert proc.returncode == 2, proc.stderr
        assert ("varitrace: config error: [kappa_scan] alpha_step_deg = 1e-300 is below the "
                "angle resolution at 1 degrees") in proc.stderr
        assert out.read_bytes() == old


class TestScanAndFanSizes:
    """A kappa scan of more than 10,000,000 rows, or a fan of more than
    10,000,000 rays, is a config error (exit 2) found before any list is
    built, and keeps ``--output``.  A span that overflows to inf ended in
    an OverflowError traceback, and a scan step of 1e-12 or a fan count of
    1e9 in a MemoryError; those two run in their own process with a timeout
    and a 1 GiB address-space limit, so a regression fails instead of
    filling memory."""

    def test_overflowing_span(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[kappa_scan]\nalpha_min_deg = -1e308\n"
                                  "alpha_max_deg = 1e308\nalpha_step_deg = 1e308\n")
        assert main(["kappa-scan", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert ("varitrace: config error: [kappa_scan] alpha_step_deg = 1e+308 takes over "
                "10,000,000 rows") in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, text, message", [
        ("kappa-scan", "[kappa_scan]\nalpha_min_deg = 0\nalpha_max_deg = 1\n"
                       "alpha_step_deg = 1e-12\n",
         "[kappa_scan] alpha_step_deg = 1e-12 takes over 10,000,000 rows"),
        ("fan", BASE_CFG.replace("z0 = 0.0", "z0 = 500.0")
         + "\n[fan]\ntheta_min_deg = -1\ntheta_max_deg = 1\ncount = 1000000000\n",
         "[fan] count = 1000000000 is over 10,000,000 rays"),
    ], ids=["scan-step", "fan-count"])
    def test_config_error_keeps_output(self, tmp_path, command, text, message):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out.csv"
        old = b"# an earlier run\n1,2,3\n"
        out.write_bytes(old)
        proc = subprocess.run(
            [sys.executable, "-m", "varitrace.cli", command, "--config", cfg,
             "--output", str(out)],
            capture_output=True, text=True, timeout=60, env=cli_env(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
        assert proc.returncode == 2, proc.stderr
        assert f"varitrace: config error: {message}" in proc.stderr
        assert out.read_bytes() == old

    @pytest.mark.parametrize("command, text, largest, message", [
        ("kappa-scan", "[kappa_scan]\nalpha_min_deg = 0\nalpha_max_deg = 10\n"
                       "alpha_step_deg = {}\n", ("1", "0.99"), "takes over 170 rows"),
        ("fan", BASE_CFG.replace("z0 = 0.0", "z0 = 500.0") + "\n[fan]\ntheta_min_deg = -5\n"
                "theta_max_deg = 5\ncount = {}\n", ("3", "4"), "count = 4 is over 3 rays"),
    ], ids=["scan", "fan"])
    def test_the_bound_itself_is_allowed(self, tmp_path, capsys, monkeypatch,
                                         command, text, largest, message):
        """With the bound lowered to 170 rows (17 default angles by 10
        alphas) or to 3 rays, a scan or fan of exactly that size runs and
        one a little larger is rejected."""
        import varitrace.cli as cli

        monkeypatch.setattr(cli, "MAX_BASE_STEPS", 170 if command == "kappa-scan" else 3)
        fits, over = (write_cfg(tmp_path, text.format(value), f"{value}.cfg")
                      for value in largest)
        assert main([command, "--config", fits]) == 0
        assert "config error" not in capsys.readouterr().err
        assert main([command, "--config", over]) == 2
        assert message in capsys.readouterr().err


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

    @pytest.mark.parametrize("keys,message", [
        ("theta_min_deg = -5\ntheta_max_deg = 5\n",
         "[fan] needs angles_deg or theta_min_deg/theta_max_deg/count"),
        ("theta_min_deg = -5\ntheta_max_deg = 5\ncount = 0\n", "[fan] count must be at least 1"),
        ("theta_min_deg = -5\ntheta_max_deg = 5\ncount = 2.5\n",
         "[fan] count = '2.5' is not an integer"),
    ], ids=["no-count", "count-0", "count-2.5"])
    def test_bad_angle_range_is_usage_error(self, tmp_path, capsys, keys, message):
        cfg = write_cfg(tmp_path, BASE_CFG.replace("z0 = 0.0", "z0 = 500.0") + "\n[fan]\n" + keys)
        assert main(["fan", "--config", cfg]) == 2
        assert message in capsys.readouterr().err

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


@pytest.fixture
def forks(monkeypatch):
    """A function that sets the number of usable cores and returns the
    list of forks made so far, one entry each."""
    forked, fork = [], os.fork

    def counted_fork():
        forked.append(1)
        return fork()

    def on_cores(cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        return forked

    monkeypatch.setattr(os, "fork", counted_fork)
    return on_cores


class TestForkedFan:
    """A fan traces its rays in this process and in one forked child per
    other usable core.  Its bytes and its stderr do not depend on how many
    cores there are, and no child outlives the command."""

    FAILING_CFG = BASE_CFG.replace("z0 = 0.0", "z0 = 500.0") + \
        "\n[fan]\nangles_deg = 0, 89.7, 89.8, 5\n"

    def run(self, cfg, out, capsys):
        code = main(["fan", "--config", str(cfg), "--output", str(out)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("which", ["readme", "shallow-fan"])
    def test_same_bytes_on_1_2_and_3_cores(self, tmp_path, capsys, forks, which):
        from test_output_digests import DATA, README_CFG

        cfg = (write_cfg(tmp_path, README_CFG) if which == "readme"
               else DATA / "shallow_fan" / "fan.cfg")
        runs, counts = [], []
        for cores in (1, 2, 3):
            forked = forks(cores)
            forked.clear()
            out = tmp_path / f"{cores}.csv"
            code, err = self.run(cfg, out, capsys)
            runs.append((code, err, out.read_bytes()))
            counts.append(len(forked))
        assert counts == [0, 1, 2]
        assert runs[0][0] == 0 and runs[1] == runs[0] and runs[2] == runs[0]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_first_failing_ray_in_a_childs_share(self, tmp_path, capsys, forks):
        """Rays 1 and 2 are past the steep cutoff.  On 2 or 3 cores ray 1
        is a child's and ray 2 the parent's; the error is ray 1's, as in
        one process, and nothing is written."""
        cfg = write_cfg(tmp_path, self.FAILING_CFG)
        runs = []
        for cores in (1, 2, 3):
            forks(cores)
            runs.append(self.run(cfg, tmp_path / "fan.csv", capsys))
        assert runs[0] == (2, f"varitrace: config error: launch angle "
                              f"{math.radians(89.7):g} rad exceeds the steep cutoff\n")
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert not (tmp_path / "fan.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_fork_beside_a_live_thread(self, tmp_path, capsys, forks):
        import threading

        from test_output_digests import README_CFG

        cfg = write_cfg(tmp_path, README_CFG)
        forked = forks(2)
        serial = self.run(cfg, tmp_path / "serial.csv", capsys)
        assert len(forked) == 1
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert self.run(cfg, tmp_path / "threaded.csv", capsys) == serial
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and len(forked) == 1
        assert (tmp_path / "threaded.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_items_are_dealt_in_turn_and_returned_in_order(self, forks):
        from varitrace.propagation import _fork_map

        forks(3)
        results = _fork_map(lambda x: (x, os.getpid()), list(range(7)))
        assert [x for x, _ in results] == list(range(7))
        pids = [pid for _, pid in results]
        assert pids[0] == os.getpid() and len(set(pids)) == 3
        assert all(pids[i] == pids[i % 3] for i in range(7))

    def test_a_child_that_sends_nothing_raises_once_reaped(self, forks):
        from varitrace.propagation import _fork_map

        forks(2)
        with pytest.raises(ChildProcessError, match="worker 1 of 2 ended without a result"):
            _fork_map(lambda x: os._exit(3) if x == 1 else x, [0, 1, 2])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestForkedVerify:
    """The oracle maps its perturbed rays through ``_fork_map`` too, one
    call per round of halvings.  verify's bytes, stderr and exit code, the
    offsets a halving settles on and the error after the last halving do
    not depend on how many cores there are, and no child outlives the
    command."""

    # One bounce off a flat bottom; the order study's offsets halve on the
    # grid (its h_z = 1 m puts a launch above the grid's first depth).
    CUSTOM_CFG = ("[environment]\nkind = gridded\nfile = ssp.txt\n"
                  "[bathymetry]\nkind = flat\ndepth = 200.0\n"
                  "[trace]\nr_start = 0\nr_end = 400\nz0 = 0.5\ntheta0_deg = 30\ndr = 0.5\n"
                  "[verify]\npreset = custom\n")
    # The bounce is near r = 214.222 m: even the study's offsets halved 5
    # times move a perturbed ray's bounce past r_end.
    MISMATCH_CFG = ("[environment]\nkind = constant\n"
                    "[bathymetry]\nkind = flat\ndepth = 200.0\n"
                    "[trace]\nr_start = 0\nr_end = 214.223\nz0 = 50\ntheta0_deg = 35\n"
                    "dr = 0.5\n[verify]\npreset = custom\n")

    def run(self, tmp_path, text, capsys, cores, forks):
        (tmp_path / "ssp.txt").write_text("".join(
            f"{z} {1500.0 + 0.05 * z}\n" for z in range(0, 320, 20)))
        forked = forks(cores)
        forked.clear()
        out = tmp_path / f"{cores}.txt"
        code = main(["verify", "--config", write_cfg(tmp_path, text), "--seed", "3",
                     "--output", str(out)])
        written = out.read_bytes() if out.exists() else None
        return (code, capsys.readouterr().err, written), len(forked)

    @pytest.mark.parametrize("which", ["all", "custom"])
    def test_same_bytes_on_1_2_and_3_cores(self, tmp_path, capsys, forks, which):
        """One round per preset for ``all``; for ``custom`` a second round
        maps the study's rays alone, at halved offsets."""
        text = "[verify]\npreset = all\n" if which == "all" else self.CUSTOM_CFG
        runs, counts = zip(*(self.run(tmp_path, text, capsys, cores, forks)
                             for cores in (1, 2, 3)))
        rounds = 4 if which == "all" else 2
        assert counts == (0, rounds, 2 * rounds)
        assert runs[0][0] == 0 and runs[0][2].endswith(b"OVERALL PASS\n")
        assert runs[1] == runs[0] and runs[2] == runs[0]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_still_differing_message_on_1_and_2_cores(self, tmp_path, capsys, forks):
        runs, counts = zip(*(self.run(tmp_path, self.MISMATCH_CFG, capsys, cores, forks)
                             for cores in (1, 2)))
        assert runs[0] == (2, "varitrace: config error: bounce sequences still differ after "
                              "5 halvings: perturbed ray bounce sequence differs from the "
                              "central ray\n", None)
        assert runs[1] == runs[0]
        assert counts == (0, 6)  # the first round and 5 of halved offsets
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_halving_settles_on_the_same_offsets_on_1_and_2_cores(self, forks):
        """A ray 5e-4 m above a grid's last depth: the h_p = 1e-6 ray sinks
        past the grid, so the offsets halve twice, in three rounds."""
        from varitrace import BeamPerturbation, FlatBottom, GriddedField, fd_jacobian

        depths = np.arange(0.0, 101.0, 20.0)
        field = GriddedField(depths, np.full(depths.shape, 1500.0))
        cfg = TraceConfig(r_start=0.0, r_end=1000.0, z0=99.9995, theta0=0.0, dr=10.0)
        estimates, counts = [], []
        for cores in (1, 2):
            forked = forks(cores)
            forked.clear()
            pert, levels = fd_jacobian(field, FlatBottom(500.0), cfg, BeamPerturbation())
            estimates.append((pert, [[x.hex() for row in level for x in row]
                                     for level in levels]))
            counts.append(len(forked))
        assert estimates[0][0].h_p == 2.5e-7 and len(estimates[0][1]) == 2
        assert estimates[1] == estimates[0]
        assert counts == [0, 3]

    def test_first_failure_in_ray_order_from_a_childs_share(self, monkeypatch, forks):
        """Every round, the p0-minus rays (items 1 and 5, a child's on 2
        cores) and the z0-plus rays (items 2 and 6, this process's) fail.
        The error names item 1 of the last round, as on one core."""
        import varitrace.oracle as oracle
        from varitrace import BeamPerturbation, ConstantField, FlatBottom, fd_jacobian
        from varitrace.errors import PerturbationTooLargeError

        def endpoint(field_, bath, cfg, signature, launch):
            z0, p0 = launch
            if p0 < 0.0 or z0 > cfg.z0:
                return PerturbationTooLargeError(f"launch {launch}")
            return p0, z0

        monkeypatch.setattr(oracle, "_perturbed_endpoint", endpoint)
        cfg = TraceConfig(r_start=0.0, r_end=100.0, z0=50.0, theta0=0.0, dr=1.0)
        messages, counts = [], []
        for cores in (1, 2):
            forked = forks(cores)
            forked.clear()
            with pytest.raises(PerturbationTooLargeError) as exc:
                fd_jacobian(ConstantField(1500.0), FlatBottom(500.0), cfg, BeamPerturbation())
            messages.append(str(exc.value))
            counts.append(len(forked))
        assert messages == ["bounce sequences still differ after 5 halvings: "
                            "launch (50.0, -3.125e-08)"] * 2
        assert counts == [0, 6]


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

    def test_sink_holds_one_piece_per_theta(self, tmp_path):
        """Each theta's rows go into the sink as one piece, not two per row:
        the README scan's sink holds its 5 metadata and header lines, then
        6 pieces of 181 rows, one per theta."""
        from test_output_digests import README_SCAN_CFG
        from varitrace.cli import _Sink, cmd_kappa_scan

        out = _Sink()
        assert cmd_kappa_scan(load_config(write_cfg(tmp_path, README_SCAN_CFG)), out, None) == 0
        head = "".join(out[:-6])
        assert head.count("\n") == 5
        assert head.endswith("\ntheta_deg,alpha_deg,kappa11,kappa12,kappa22,valid_flag\n")
        for piece, theta in zip(out[-6:], ("-80", "-60", "-30", "30", "60", "80")):
            rows = piece.splitlines(keepends=True)
            assert len(rows) == 181
            assert all(row.startswith(f"{theta},") and row.endswith("\n") for row in rows)

    def test_empty_theta_list_is_usage_error(self, tmp_path, capsys):
        """An empty list is an error, not the default angles."""
        cfg = write_cfg(tmp_path, self.SCAN_CFG.replace("[kappa_scan]\n",
                                                        "[kappa_scan]\ntheta_deg =\n"))
        assert main(["kappa-scan", "--config", cfg]) == 2
        assert "theta_deg list is empty" in capsys.readouterr().err

    def test_missing_section_runs_on_defaults(self, tmp_path):
        """kappa-scan reads no other section, so a config without
        [kappa_scan] scans every default theta over alpha 0..180 in 1 deg
        steps."""
        out = tmp_path / "scan.csv"
        assert main(["kappa-scan", "--config", write_cfg(tmp_path, BASE_CFG),
                     "--output", str(out)]) == 0
        assert "# curvature=0.02 n=1 n_z=0.01 n_r=0\n" in out.read_text()
        rows = read_rows(out)
        assert len(rows) == len(DEFAULT_SCAN_THETAS) * 181
        assert [float(r[1]) for r in rows[:3]] == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("keys", ["alpha_min_deg = 10\nalpha_max_deg = 5\n",
                                      "alpha_step_deg = 0\n"], ids=["max-below-min", "step-0"])
    def test_bad_alpha_range_is_usage_error(self, tmp_path, capsys, keys):
        cfg = write_cfg(tmp_path, "[kappa_scan]\n" + keys)
        assert main(["kappa-scan", "--config", cfg]) == 2
        assert ("[kappa_scan] needs alpha_max_deg >= alpha_min_deg and a positive step"
                in capsys.readouterr().err)

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

    # A bottom draw (theta, slope, z_b'', n, n_r, n_z, at) whose reflected ray is
    # 1.5e-6 from vertical: k22 is about -6.0e5.
    NEAR_VERTICAL = (0.37575590128989145, -0.6805013984098305, 0.02, 1.0, 0.005, 0.01, 0.5)

    def test_identity_gate_scales_with_the_sides(self):
        """kappa.apply on the identity is held to the derived map relative to
        max(1, |derived|): near a vertical reflected ray the entries reach
        6e5, where the two differ by 3.5e-10, a few rounding steps, and an
        absolute 1e-10 would fail the tracer's own kappa."""
        import varitrace.cli as cli

        theta, slope, d2, n, n_r, n_z, _ = self.NEAR_VERTICAL
        _, kappa = kappa_matrix((math.cos(theta), math.sin(theta)),
                                cli._bottom_frame(slope, d2), (n, n_r, n_z, 0.0))
        geometry = np.array([[math.cos(theta), math.sin(theta), n, n_r, n_z, slope, d2]]).T
        z_dz = cli._bounce_map(*geometry, 0.0, 1e-30j)[1].imag[0] / 1e-30
        assert abs(kappa.k22) > 5e5 and 1e-10 < abs(kappa.k22 - z_dz) < 1e-14 * abs(z_dz)

        out = io.StringIO()
        assert cli._verify_bounce_map(FirstDraw(self.NEAR_VERTICAL), out)
        assert "over 2000 hits (tol 1e-10) PASS" in out.getvalue()

    def test_curvature_mutant_fails_only_the_bounce_map_line(self, tmp_path, capsys,
                                                            monkeypatch):
        """Mutation check: kappa12's curvature term x 1.01 in the kappa that
        verify checks against the bounce map fails that line alone; the
        tracer's kappa is untouched, so every preset line passes."""
        import varitrace.cli as cli

        def mutant(t, frame, sample):
            t1, k = kappa_matrix(t, frame, sample)
            (tr, tz), n = t, sample[0]
            n_t = tr * frame.nr + tz * frame.nz
            term = -frame.curvature * n * (tr - 2.0 * frame.nr * n_t) * tr * 2.0 / n_t
            return t1, replace(k, k12=k.k12 + 0.01 * term)

        monkeypatch.setattr(cli, "kappa_matrix", mutant)
        cfg = write_cfg(tmp_path, "[verify]\npreset = all\n")
        assert main(["verify", "--config", cfg, "--seed", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if " FAIL" in line] == [lines[-2], "OVERALL FAIL"]
        assert lines[-2].startswith("kappa vs bounce map: ")
        assert len(lines) == 10 and all(" PASS" in line for line in lines[:-2])

    def test_nonzero_kappa21_fails(self, tmp_path, capsys, monkeypatch):
        """Mutation check: a kappa whose apply leaves q21 at 1e-17 q11 fails
        the bounce-map line, which holds kappa21 to exactly 0."""
        import varitrace.cli as cli

        class Leaky:
            def __init__(self, kappa):
                self.kappa = kappa

            def apply(self, q):
                q11, q12, q21, q22 = self.kappa.apply(q)
                return q11, q12, q21 + 1e-17 * q[0], q22

        def mutant(t, frame, sample):
            t1, k = kappa_matrix(t, frame, sample)
            return t1, Leaky(k)

        monkeypatch.setattr(cli, "kappa_matrix", mutant)
        cfg = write_cfg(tmp_path, "[verify]\npreset = flat-linear\n")
        assert main(["verify", "--config", cfg]) == 1
        out = capsys.readouterr().out
        failed = [line for line in out.splitlines() if " FAIL" in line]
        assert len(failed) == 2 and failed[-1] == "OVERALL FAIL"
        assert failed[0].startswith("kappa vs bounce map: ")
        assert failed[0].endswith(", max |kappa21| 1.000e-17 over 2000 hits (tol 1e-10) FAIL")

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

    @pytest.mark.parametrize("preset_line", ["preset = flat-linear\n", "preset = all\n", "",
                                             "preset = custom\n"])
    def test_r_after_bounce_needs_custom_preset(self, tmp_path, capsys, preset_line):
        """No preset reads r_after_bounce, custom included: a scenario
        verifies at its [trace] r_end.  A config that sets the key exits 2
        naming it instead of ignoring it."""
        cfg = write_cfg(tmp_path, f"[verify]\n{preset_line}r_after_bounce = 5\n")
        assert main(["verify", "--config", cfg]) == 2
        assert "unknown key(s) in [verify]: r_after_bounce" in capsys.readouterr().err

    def test_unknown_preset_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[verify]\npreset = bogus\n")
        assert main(["verify", "--config", cfg]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_custom_scenario(self, tmp_path, capsys):
        text = (
            "[environment]\nkind = linear-gradient\ngradient = 5e-4\n"
            "[bathymetry]\nkind = flat\ndepth = 300.0\n"
            "[trace]\nr_start = 0\nr_end = 600\nz0 = 80\ntheta0_deg = 30\ndr = 0.5\n"
            "[verify]\npreset = custom\n")
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
            "[verify]\npreset = custom\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["verify", "--config", cfg]) == 0
        assert "OVERALL PASS" in capsys.readouterr().out

    def test_custom_scenario_ending_before_the_bounce_is_config_error(self, tmp_path, capsys):
        """The ray first bounces near r = 381 m; a custom scenario verifies
        at its own r_end, so r_end = 300 leaves it with no bounce."""
        text = (
            "[environment]\nkind = constant\n"
            "[bathymetry]\nkind = flat\ndepth = 300.0\n"
            "[trace]\nr_start = 0\nr_end = 300\nz0 = 80\ntheta0_deg = 30\ndr = 0.5\n"
            "[verify]\npreset = custom\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["verify", "--config", cfg]) == 2
        assert "config error: expected exactly one bounce" in capsys.readouterr().err

    def test_custom_scenario_stopping_early_is_config_error(self, tmp_path, capsys):
        """With max_bounces = 0 the central ray ends at its first bounce,
        before r_end: a config error, raised before any perturbed trace."""
        text = (
            "[environment]\nkind = constant\n"
            "[bathymetry]\nkind = flat\ndepth = 300.0\n"
            "[trace]\nr_start = 0\nr_end = 600\nz0 = 80\ntheta0_deg = 30\ndr = 0.5\n"
            "max_bounces = 0\n"
            "[verify]\npreset = custom\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["verify", "--config", cfg]) == 2
        assert ("config error: central ray did not reach 600: max_bounces"
                in capsys.readouterr().err)

    def test_custom_scenario_with_many_bounces_is_config_error(self, tmp_path, capsys):
        text = (
            "[environment]\nkind = constant\n"
            "[bathymetry]\nkind = flat\ndepth = 100.0\n"
            "[trace]\nr_start = 0\nr_end = 2000\nz0 = 80\ntheta0_deg = 30\ndr = 0.5\n"
            "[verify]\npreset = custom\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["verify", "--config", cfg]) == 2
        assert "config error: expected exactly one bounce" in capsys.readouterr().err


# The bounce-map sweep's draw ranges: theta, slope, z_b'', n, n_r, n_z and
# where (below 0.25 the surface).
LOW = (-1.3, -1.0, -0.05, 0.9, -0.01, -0.02, 0.0)
HIGH = (1.3, 1.0, 0.05, 1.1, 0.01, 0.02, 1.0)


def hit_of(draw):
    """(t, frame, sample, bounce-map geometry) of one draw, as the sweep reads it."""
    import varitrace.cli as cli

    theta, slope, d2, n, n_r, n_z, at = draw
    if at < 0.25:
        theta, slope, d2, frame = -abs(theta), 0.0, 0.0, NormalFrame(0.0, 1.0, 0.0)
    else:
        frame = cli._bottom_frame(slope, d2)
    t = (math.cos(theta), math.sin(theta))
    return t, frame, (n, n_r, n_z, 0.0), (*t, n, n_r, n_z, slope, d2)


def scalar_bounce_map(rng, out) -> bool:
    """The bounce-map sweep with one generator call per value: the reference
    for cli's block-drawn sweep."""
    import varitrace.cli as cli

    hits, applied = [], []
    while len(hits) < 2_000:
        t, frame, sample, geometry = hit_of([rng.uniform(lo, hi) for lo, hi in zip(LOW, HIGH)])
        try:
            t1, kappa = kappa_matrix(t, frame, sample)
        except GeometryError:
            continue
        if t1 is not None:
            hits.append(geometry)
            applied.append(kappa.apply((1.0, 0.0, 0.0, 1.0)))
    geometry = np.array(hits).T
    (p_dp, z_dp), (p_dz, z_dz) = (cli._bounce_map(*geometry, 1e-30j, 0.0),
                                  cli._bounce_map(*geometry, 0.0, 1e-30j))
    worst = worst_k21 = 0.0
    for j, (k11, k12, k21, k22) in enumerate(applied):
        for got, want in ((k11, p_dp[j].imag), (k12, p_dz[j].imag), (k22, z_dz[j].imag)):
            want /= 1e-30
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        worst_k21 = max(worst_k21, abs(k21), abs(z_dp[j].imag / 1e-30))
    passed = worst <= 1e-10 and worst_k21 == 0.0
    print(f"kappa vs bounce map: max rel err {worst:.3e}, max |kappa21| {worst_k21:.3e} "
          f"over {len(hits)} hits (tol 1e-10) {'PASS' if passed else 'FAIL'}", file=out)
    return passed


class FirstDraw:
    """A generator whose first block of draws starts with ``row``."""

    def __init__(self, row):
        self.rng, self.row = np.random.default_rng(0), row

    def uniform(self, low, high, size):
        draws = self.rng.uniform(low, high, size)
        if self.row is not None:
            draws[0], self.row = self.row, None
        return draws


SWEEP_SEEDS = [0, 1, 11, 1715831031] + np.random.SeedSequence(8).generate_state(20).tolist()


class TestBlockDrawnSweeps:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_same_lines_and_generator_state_as_scalar_draws(self, seed):
        """Drawing in blocks of the hits still needed takes exactly the
        values, in the order, of one generator call per value: the printed
        line and the generator's final state are those of the scalar
        reference loop."""
        import varitrace.cli as cli

        lines, states = [], []
        for sweep in (cli._verify_bounce_map, scalar_bounce_map):
            rng = np.random.default_rng(seed)
            out = io.StringIO()
            assert sweep(rng, out)
            lines.append(out.getvalue())
            states.append(rng.bit_generator.state)
        assert lines[0] == lines[1]
        assert states[0] == states[1]


class TestSweepPrefilters:
    """The sweep has no incidence test of its own: every draw goes to
    kappa_matrix, and the sweep keeps exactly the hits it accepts with a
    reflected ray advancing in range."""

    @pytest.mark.parametrize("seed", [0, 1, 653457016])
    def test_structure_prefilter_drops_only_rejected_contexts(self, monkeypatch, seed):
        import varitrace.cli as cli

        judged, maps = [], []

        def recording(t, frame, sample):
            judged.append((t, frame, sample))
            return kappa_matrix(t, frame, sample)

        def recording_map(*args):
            maps.append(np.array(args[:7]).T)
            return bounce_map(*args)

        bounce_map = cli._bounce_map
        monkeypatch.setattr(cli, "kappa_matrix", recording)
        monkeypatch.setattr(cli, "_bounce_map", recording_map)
        assert cli._verify_bounce_map(np.random.default_rng(seed), io.StringIO())
        draws = np.random.default_rng(seed).uniform(LOW, HIGH, size=(len(judged), 7))
        kept, dropped = [], 0
        for draw, call in zip(draws.tolist(), judged):
            t, frame, sample, geometry = hit_of(draw)
            assert call == (t, frame, sample)
            try:
                t1, _ = kappa_matrix(t, frame, sample)
            except GeometryError:
                t1 = None
            if t1 is None:
                dropped += 1
            else:
                kept.append(list(geometry))
        assert len(kept) == 2000 and dropped > 1000
        assert maps[0].tolist() == maps[1].tolist() == kept

    def test_structure_sweep_skips_a_draw_kappa_matrix_rejects(self):
        """A draw that kappa_matrix rejects, here a vertical incident ray onto
        the bottom, is skipped and not counted: the sweep still checks 2000
        hits."""
        import varitrace.cli as cli

        vertical = (math.pi / 2.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.5)
        with pytest.raises(GeometryError, match="incident ray is vertical"):
            kappa_matrix(*hit_of(vertical)[:3])
        out = io.StringIO()
        assert cli._verify_bounce_map(FirstDraw(vertical), out)
        assert "over 2000 hits" in out.getvalue()


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
        field, _, _ = load_config(cfg).build()

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
        result = trace_ray(*run.build())
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
