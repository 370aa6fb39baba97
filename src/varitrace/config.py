"""Run configuration: a flat, sectioned key-value text file.

Sections name the environment, the bathymetry, the trace parameters and
per-command parameters.  ``RunConfig.build`` makes the field, the
bathymetry and the ``TraceConfig`` of the first three, each from one table
of constructors; the commands read their own sections through
``RunConfig.section``.  Keys are validated strictly: unknown sections or
keys, missing required keys and malformed numbers are all reported as
:class:`ConfigError` with the offending section and key named.  Angles in
the file are in degrees.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

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

# One table per section: a kind's constructor, its required keys and its
# optional keys.  Only the keys a file gives are passed, as keyword
# arguments, so an omitted optional key takes the constructor's default.
_FIELDS = {
    "constant": (ConstantField, (), ("c0", "c")),
    "linear-gradient": (LinearGradientField, ("gradient",), ("c_surface", "c0")),
    "munk": (MunkField, (), ("c_axis", "z_axis", "scale_depth", "epsilon", "c0")),
    # two-column (z, c) profile file, range independent
    "gridded": (GriddedField.from_file, ("file",), ("c0",)),
}

_BOTTOMS = {
    "flat": (FlatBottom, ("depth",), ()),
    "linear-slope": (LinearSlopeBottom, ("depth0", "slope"), ()),
    "sinusoidal": (SinusoidalBottom, ("mean_depth", "amplitude", "wavenumber"), ("phase",)),
    "arc": (ArcBottom, ("radius", "r_center", "z_center", "bulge"), ()),
    "piecewise": (PiecewiseBottom.from_file, ("file",), ()),
}

_TRACE = (TraceConfig, ("r_start", "r_end", "z0", "theta0_deg"),
          ("dr", "bisect_tol", "steep_cutoff_deg", "max_bounces"))


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

    def get_str(self, key: str, default: str | None = None) -> str | None:
        return self.raw.get(key, default)

    def _number(self, key: str, text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ConfigError(f"[{self.name}] {key} = {text!r} is not a finite number")
        return value

    def get_float(self, key: str, default: float | None = None) -> float | None:
        return default if key not in self.raw else self._number(key, self.raw[key])

    def get_int(self, key: str, default: int | None = None) -> int | None:
        if key not in self.raw:
            return default
        try:
            return int(self.raw[key])
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {self.raw[key]!r} is not an integer")

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

    def build(self) -> tuple[SoundSpeedField, Bathymetry, TraceConfig]:
        """The field, the bathymetry and the trace parameters, built in that order."""
        return (self._build("environment", _FIELDS), self._build("bathymetry", _BOTTOMS),
                self._build("trace", {None: _TRACE}))

    def _build(self, name: str, kinds: dict):
        """The object section ``name`` describes, from its ``kinds`` table
        (one entry under the key None for a section without ``kind``)."""
        sec = self.section(name)
        kind = None
        if None not in kinds:
            _, kind = self._argument(sec, "kind")
        if kind not in kinds:
            raise ConfigError(
                f"[{name}] kind = {kind!r}; expected one of {', '.join(sorted(kinds))}")
        make, required, optional = kinds[kind]
        sec.check_keys({*required, *optional} | ({"kind"} if kind else set()))
        args = dict(self._argument(sec, key)
                    for key in required + tuple(k for k in optional if k in sec.raw))
        try:
            return make(**args)
        except (ValueError, OSError) as exc:
            # OSError: a referenced file that cannot be read, such as a directory
            raise ConfigError(f"[{name}] {exc}")

    def _argument(self, sec: _Section, key: str):
        """(keyword, value) of one key the section must hold: ``file`` is the
        resolved ``path``, ``kind`` and ``bulge`` are strings, a ``*_deg``
        angle is passed in radians without the suffix, ``max_bounces`` is an
        int, others floats."""
        if key not in sec.raw:
            raise ConfigError(f"missing required key '{key}' in [{sec.name}]")
        if key == "file":
            return "path", self._resolve(sec.raw[key])
        if key in ("kind", "bulge"):
            return key, sec.raw[key]
        if key == "max_bounces":
            return key, sec.get_int(key)
        if key.endswith("_deg"):
            return key.removesuffix("_deg"), math.radians(sec.get_float(key))
        return key, sec.get_float(key)

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
        # One read, so the digest names the bytes that are parsed; newlines
        # are translated as a text-mode open() does.
        data = path.read_bytes()
        parser.read_file(io.StringIO(data.decode(), newline=None), source=str(path))
    except OSError as exc:
        # a directory or an unreadable file
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser reports offending line numbers in its message
        raise ConfigError(f"cannot parse {path}: {exc}")
    unknown = set(parser.sections()) - _KNOWN_SECTIONS
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(sorted(unknown))}")
    sections = {name: _Section(name, dict(parser[name])) for name in parser.sections()}
    return RunConfig(path=path, sha256=hashlib.sha256(data).hexdigest(), sections=sections)
