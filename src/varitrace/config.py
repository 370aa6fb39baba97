"""Run configuration: a flat, sectioned key-value text file.

Sections name the environment, the bathymetry, the trace parameters and
per-command parameters.  Keys are validated strictly: unknown sections or
keys, missing required keys and malformed numbers are all reported as
:class:`ConfigError` with the offending section and key named.  Angles in
the file are in degrees.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .environment import (
    ArcBottom,
    Bathymetry,
    ConstantField,
    FlatBottom,
    GriddedField,
    LinearGradientField,
    LinearSlopeBottom,
    MunkField,
    PiecewiseBottom,
    SinusoidalBottom,
    SoundSpeedField,
)
from .errors import ConfigError
from .propagation import TraceConfig

__all__ = ["RunConfig", "load_config"]

_KNOWN_SECTIONS = {"environment", "bathymetry", "trace", "fan", "kappa_scan", "verify"}

_FIELD_KEYS = {
    "constant": {"c0", "c"},
    "linear-gradient": {"c0", "c_surface", "gradient"},
    "munk": {"c0", "c_axis", "z_axis", "scale_depth", "epsilon"},
    "gridded": {"c0", "file"},
}

_BATH_KEYS = {
    "flat": {"depth"},
    "linear-slope": {"depth0", "slope"},
    "sinusoidal": {"mean_depth", "amplitude", "wavenumber", "phase"},
    "arc": {"radius", "r_center", "z_center", "bulge"},
    "piecewise": {"file"},
}

_TRACE_KEYS = {"r_start", "r_end", "z0", "theta0_deg", "dr", "bisect_tol",
               "steep_cutoff_deg", "max_bounces"}


class _Section:
    """Typed accessors over one config section with strict key validation."""

    def __init__(self, name: str, raw: dict[str, str]):
        self.name = name
        self.raw = raw

    def check_keys(self, allowed: set[str]) -> None:
        unknown = set(self.raw) - allowed
        if unknown:
            raise ConfigError(
                f"unknown key(s) in [{self.name}]: {', '.join(sorted(unknown))}")

    def _fetch(self, key: str, required: bool):
        if key not in self.raw:
            if required:
                raise ConfigError(f"missing required key '{key}' in [{self.name}]")
            return None
        return self.raw[key]

    def get_str(self, key: str, default: str | None = None, required: bool = False) -> str | None:
        value = self._fetch(key, required)
        return default if value is None else value

    def _number(self, key: str, text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ConfigError(f"[{self.name}] {key} = {text!r} is not a finite number")
        return value

    def get_float(self, key: str, default: float | None = None,
                  required: bool = False) -> float | None:
        value = self._fetch(key, required)
        return default if value is None else self._number(key, value)

    def get_int(self, key: str, default: int | None = None,
                required: bool = False) -> int | None:
        value = self._fetch(key, required)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {value!r} is not an integer")

    def get_float_list(self, key: str) -> list[float] | None:
        if key not in self.raw:
            return None
        return [self._number(key, tok) for tok in self.raw[key].replace(",", " ").split()]


@dataclass
class RunConfig:
    """Parsed configuration file plus its identity hash."""

    path: Path
    sha256: str
    sections: dict[str, _Section]

    def section(self, name: str, required: bool = True) -> _Section:
        if name not in self.sections:
            if required:
                raise ConfigError(f"missing required section [{name}]")
            return _Section(name, {})
        return self.sections[name]

    # -- builders ----------------------------------------------------------

    def build_field(self) -> SoundSpeedField:
        sec = self.section("environment")
        kind = sec.get_str("kind", required=True)
        if kind not in _FIELD_KEYS:
            raise ConfigError(
                f"[environment] kind = {kind!r}; expected one of "
                f"{', '.join(sorted(_FIELD_KEYS))}")
        sec.check_keys(_FIELD_KEYS[kind] | {"kind"})
        try:
            if kind == "constant":
                c0 = sec.get_float("c0", 1500.0)
                return ConstantField(c0=c0, c=sec.get_float("c", c0))
            if kind == "linear-gradient":
                c_surface = sec.get_float("c_surface", 1500.0)
                return LinearGradientField(
                    c_surface=c_surface,
                    gradient=sec.get_float("gradient", required=True),
                    c0=sec.get_float("c0", c_surface))
            if kind == "munk":
                c_axis = sec.get_float("c_axis", 1500.0)
                return MunkField(
                    c_axis=c_axis,
                    z_axis=sec.get_float("z_axis", 1300.0),
                    scale_depth=sec.get_float("scale_depth", 1300.0),
                    epsilon=sec.get_float("epsilon", 0.00737),
                    c0=sec.get_float("c0", c_axis))
            # gridded: two-column (z, c) profile file, range independent
            path = self._resolve(sec.get_str("file", required=True))
            data = np.loadtxt(path, comments="#", ndmin=2)
            if data.shape[1] != 2:
                raise ConfigError(f"gridded profile {path} must have two columns (z, c)")
            return GriddedField(depths=data[:, 0], c_values=data[:, 1],
                                c0=sec.get_float("c0", 1500.0))
        except (ValueError, OSError) as exc:
            # OSError: a referenced file that cannot be read, such as a directory
            raise ConfigError(f"[environment] {exc}")

    def build_bathymetry(self) -> Bathymetry:
        sec = self.section("bathymetry")
        kind = sec.get_str("kind", required=True)
        if kind not in _BATH_KEYS:
            raise ConfigError(
                f"[bathymetry] kind = {kind!r}; expected one of "
                f"{', '.join(sorted(_BATH_KEYS))}")
        sec.check_keys(_BATH_KEYS[kind] | {"kind"})
        try:
            if kind == "flat":
                return FlatBottom(depth=sec.get_float("depth", required=True))
            if kind == "linear-slope":
                return LinearSlopeBottom(
                    depth0=sec.get_float("depth0", required=True),
                    slope=sec.get_float("slope", required=True))
            if kind == "sinusoidal":
                return SinusoidalBottom(
                    mean_depth=sec.get_float("mean_depth", required=True),
                    amplitude=sec.get_float("amplitude", required=True),
                    wavenumber=sec.get_float("wavenumber", required=True),
                    phase=sec.get_float("phase", 0.0))
            if kind == "arc":
                return ArcBottom(
                    radius=sec.get_float("radius", required=True),
                    r_center=sec.get_float("r_center", required=True),
                    z_center=sec.get_float("z_center", required=True),
                    bulge=sec.get_str("bulge", "down"))
            return PiecewiseBottom.from_file(
                self._resolve(sec.get_str("file", required=True)))
        except (ValueError, OSError) as exc:
            raise ConfigError(f"[bathymetry] {exc}")

    def build_trace_config(self) -> TraceConfig:
        sec = self.section("trace")
        sec.check_keys(_TRACE_KEYS)
        try:
            return TraceConfig(
                r_start=sec.get_float("r_start", required=True),
                r_end=sec.get_float("r_end", required=True),
                z0=sec.get_float("z0", required=True),
                theta0=math.radians(sec.get_float("theta0_deg", required=True)),
                dr=sec.get_float("dr", 10.0),
                bisect_tol=sec.get_float("bisect_tol", 1e-9),
                steep_cutoff=math.radians(sec.get_float("steep_cutoff_deg", 89.5)),
                max_bounces=sec.get_int("max_bounces", 10_000),
            )
        except ValueError as exc:
            raise ConfigError(f"[trace] {exc}")

    def _resolve(self, name: str) -> Path:
        path = Path(name)
        if not path.is_absolute():
            path = self.path.parent / path
        if not path.exists():
            raise ConfigError(f"referenced file does not exist: {path}")
        return path


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file does not exist: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None, strict=True)
    try:
        with open(path) as handle:
            parser.read_file(handle)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError as exc:
        # a directory or an unreadable file
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except configparser.Error as exc:
        # configparser reports offending line numbers in its message
        raise ConfigError(f"cannot parse {path}: {exc}")
    unknown = set(parser.sections()) - _KNOWN_SECTIONS
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(sorted(unknown))}")
    sections = {name: _Section(name, dict(parser[name])) for name in parser.sections()}
    return RunConfig(path=path, sha256=digest, sections=sections)
