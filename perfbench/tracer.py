"""Per-layer tracing from outside the program.

The tracer wraps, from the benchmark's own code, the public names through
which the CLI and the propagation and oracle modules call into each layer,
plus the methods of every field and bathymetry class.  ``src/`` is not
edited: wrapping replaces module and class attributes for the length of
the traced pass and restores them afterwards.  A name that does not exist
(renamed or deleted by a later change) is skipped, so its counters read
zero instead of the run crashing.

Each wrapped call records its duration and the part of it covered by
wrapped calls it made; the difference is its self time.  Coarse calls
(commands, config loading, whole traces, oracle calls) are also kept as
spans (id, name, start, end, parent id, operation id) in memory and
written out when the run ends.  The hot leaf calls (``index_at``,
``ray_rhs``, ``k_matrix`` and the like, about 3M per verify) are only
counted and timed: keeping a span each would take gigabytes.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name, extra counter).  `from x import f` copies
# f into the importing module, so each caller's copy is wrapped where it
# is looked up at call time.
_FUNCTIONS = (
    ("varitrace.cli", "main", "cli.main", None),
    ("varitrace.cli", "load_config", "config.load_config", None),
    ("varitrace.cli", "trace_ray", "propagation.trace_ray", None),
    ("varitrace.cli", "trace_fan", "propagation.trace_fan", None),
    ("varitrace.cli", "verify_kappa", "oracle.verify_kappa", None),
    ("varitrace.cli", "identity_checks", "reflection.identity_checks", None),
    ("varitrace.cli", "kappa_matrix", "reflection.kappa_matrix", None),
    ("varitrace.propagation", "trace_ray", "propagation.trace_ray", None),
    ("varitrace.propagation", "trace_from_pulse", "propagation.trace_from_pulse", None),
    ("varitrace.propagation", "ray_rhs", "ray_core.ray_rhs", None),
    ("varitrace.propagation", "k_matrix", "ray_core.k_matrix", None),
    ("varitrace.propagation", "kappa_matrix", "reflection.kappa_matrix", None),
    ("varitrace.propagation", "surface_frame", "environment.surface_frame", None),
    ("varitrace.oracle", "trace_from_pulse", "propagation.trace_from_pulse", "oracle.traces"),
    ("varitrace.oracle", "fd_jacobian", "oracle.fd_jacobian", None),
)

# (module, base class, method, span name): every class of the module
# derived from the base that defines the method itself is wrapped.
_METHODS = (
    ("varitrace.environment", "SoundSpeedField", "index_at", "environment.index_at"),
    ("varitrace.environment", "Bathymetry", "depth_at", "environment.depth_at"),
    ("varitrace.environment", "Bathymetry", "bottom_at", "environment.bottom_at"),
    ("varitrace.config", "RunConfig", "build_field", "config.build"),
    ("varitrace.config", "RunConfig", "build_bathymetry", "config.build"),
    ("varitrace.config", "RunConfig", "build_trace_config", "config.build"),
)

_SPAN_NAMES = frozenset({
    "cli.main", "config.load_config", "config.build", "propagation.trace_fan",
    "propagation.trace_ray", "propagation.trace_from_pulse", "oracle.verify_kappa",
    "oracle.fd_jacobian",
})


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Tracer:
    """Counts, self times and spans of the wrapped calls made while installed."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self.samples = 0
        self.bounces = 0
        self.det_q_max_dev = 0.0
        self.op_id = -1
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._undo: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, also_count: str | None, on_result=None):
        stack, calls, self_s, spans, ids = (self._stack, self.calls, self.self_s,
                                            self.spans, self._ids)
        keep = name in _SPAN_NAMES
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [next(ids), clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                end = clock()
                stack.pop()
                span_id, start, child = frame
                self_s[name] += end - start - child
                calls[name] += 1
                if also_count:
                    calls[also_count] += 1
                if stack:
                    stack[-1][2] += end - start
                if keep:
                    spans.append((span_id, name, start, end, parent, self.op_id))

        return traced

    def _record_trace(self, result) -> None:
        rows = result.samples
        det = rows[:, 3] * rows[:, 6] - rows[:, 4] * rows[:, 5]
        self.samples += len(rows)
        self.bounces += len(result.bounces)
        self.det_q_max_dev = max(self.det_q_max_dev, float(abs(det - 1.0).max()))

    def _replace(self, owner, attr: str, fn, name: str, also_count: str | None = None) -> None:
        hook = self._record_trace if attr == "trace_from_pulse" else None
        setattr(owner, attr, self._wrap(fn, name, also_count, hook))
        self._undo.append((owner, attr, fn))

    def install(self) -> None:
        for module, attr, name, also_count in _FUNCTIONS:
            mod = _module(module)
            fn = getattr(mod, attr, None)
            if callable(fn):
                self._replace(mod, attr, fn, name, also_count)
        for module, base_name, method, name in _METHODS:
            mod = _module(module)
            base = getattr(mod, base_name, None)
            if not isinstance(base, type):
                continue
            for cls in vars(mod).values():
                if isinstance(cls, type) and issubclass(cls, base) and callable(
                        cls.__dict__.get(method)):
                    self._replace(cls, method, cls.__dict__[method], name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer counters and self times (s) of everything traced so far."""
        c, s = self.calls, self.self_s
        return {
            "config.load_config.calls": c["config.load_config"],
            "config.load_config.self_s": s["config.load_config"],
            "environment.index_at.calls": c["environment.index_at"],
            "environment.index_at.self_s": s["environment.index_at"],
            "environment.depth_at.calls": c["environment.depth_at"],
            "environment.depth_at.self_s": s["environment.depth_at"],
            "environment.bottom_at.calls": c["environment.bottom_at"],
            "ray_core.ray_rhs.calls": c["ray_core.ray_rhs"],
            "ray_core.k_matrix.calls": c["ray_core.k_matrix"],
            "ray_core.self_s": s["ray_core.ray_rhs"] + s["ray_core.k_matrix"],
            "propagation.samples": self.samples,
            "propagation.bounces": self.bounces,
            "propagation.rhs_per_sample": (c["ray_core.ray_rhs"] / self.samples
                                           if self.samples else 0.0),
            "propagation.self_s": (s["propagation.trace_fan"] + s["propagation.trace_ray"]
                                   + s["propagation.trace_from_pulse"]),
            "propagation.det_q_max_dev": self.det_q_max_dev,
            "reflection.kappa_matrix.calls": c["reflection.kappa_matrix"],
            "reflection.kappa_matrix.self_s": s["reflection.kappa_matrix"],
            "reflection.identity_checks.calls": c["reflection.identity_checks"],
            "oracle.traces": c["oracle.traces"],
            "oracle.self_s": s["oracle.verify_kappa"] + s["oracle.fd_jacobian"],
            "cli.self_s": s["cli.main"],
        }

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines; times are perf_counter seconds."""
        with open(path, "w") as out:
            for span_id, name, start, end, parent, op_id in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start": start,
                                      "end": end, "parent": parent, "op": op_id}) + "\n")
