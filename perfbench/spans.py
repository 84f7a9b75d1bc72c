"""Spans recorded around hawkfol's public functions, from outside the package.

The modules import each other by name (`from .geodesic import RayFan`), so a
function is reachable through several module attributes.  `Tracer.install`
replaces every binding listed in `TARGETS` with a wrapper that records one
span per call and restores the originals on `uninstall`.  Spans stay in
memory; the run writes them out when it ends.

Each span carries its name (`<module>.<function>` of the defining module),
start and end (`time.perf_counter`), the index of its parent span, the round
and op it belongs to, and a few call facts needed by the layer metrics (rays
and steps of a fan, points given to `ambient_fields`, bytes of the harmonic
tables a transform reads, Newton iterations of a solve).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

# Every binding through which the benchmark or the package itself calls a
# measured function.  (module, attribute) pairs; module is relative to hawkfol.
TARGETS = {
    "reduction": ("RayFan", "el_residual", "graph_surface", "transported_center_frame",
                  "solve_critical", "initial_guess", "hawking_energy", "analyze"),
    "surface": ("RayFan", "transported_center_frame", "ambient_fields",
                "spectral_embedding_derivatives", "geometry_from_embedding",
                "surface_from_positions", "graph_surface", "analyze",
                "analyze_compensated", "synthesize"),
    "el_operator": ("VariationBundle", "ambient_fields", "geometry_from_embedding",
                    "analyze_compensated", "synthesize_derivatives",
                    "transported_center_frame", "el_residual", "rescaled_phi"),
    "geodesic": ("RayFan", "transported_center_frame"),
    "functionals": ("hawking_energy",),
}

_BYTES = 8  # float64 table entries


@dataclass
class Span:
    name: str
    parent: Optional[int]
    round: int
    op: Optional[int]
    start: float = 0.0
    end: float = 0.0
    error: bool = False
    facts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "parent": self.parent, "round": self.round,
                "op": self.op, "start": self.start, "end": self.end,
                "error": self.error, **self.facts}


def _table_mb(name: str, call: inspect.BoundArguments) -> float:
    """Megabytes of dense harmonic tables one transform reads."""
    a = call.arguments
    grid = a["grid"]
    if name in ("harmonics.analyze", "harmonics.analyze_compensated"):
        per_table = grid.n_nodes * grid.n_coeffs
        tables = 1 if name == "harmonics.analyze" else 3
    else:  # synthesis reads only the columns the field carries
        per_table = grid.n_nodes * a["field"].coeffs.size
        tables = 1 if name == "harmonics.synthesize" else 6
    return tables * per_table * _BYTES / 1e6


def _call_facts(name: str, sig: inspect.Signature, args, kwargs) -> dict:
    if name == "geodesic.RayFan":
        call = sig.bind(*args, **kwargs)
        call.apply_defaults()
        return {"rays": len(call.arguments["directions"]),
                "steps": int(call.arguments["n_steps"])}
    if name == "background.ambient_fields":
        call = sig.bind(*args, **kwargs)
        return {"points": int(len(call.arguments["pts"]))}
    if name.startswith("harmonics."):
        return {"table_mb": _table_mb(name, sig.bind(*args, **kwargs))}
    return {}


class Tracer:
    """Records spans while `active`; calls pass straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.round = 0
        self.op: Optional[int] = None
        self.overhead_s = 0.0     # time spent in the wrappers' own bookkeeping
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, package) -> None:
        wrappers = {}
        for mod_name, attrs in TARGETS.items():
            module = getattr(package, mod_name)
            for attr in attrs:
                original = getattr(module, attr)
                if original not in wrappers:
                    wrappers[original] = self._wrap(original)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrappers[original])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn):
        name = f"{fn.__module__.removeprefix('hawkfol.')}.{fn.__name__}"
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn, updated=())  # classes too: copy no __dict__
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            entered = perf_counter()
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, parent, tracer.round, tracer.op,
                        facts=_call_facts(name, sig, args, kwargs))
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            if name == "reduction.solve_critical":
                span.facts["newton_iterations"] = int(result.newton_iterations)
            tracer.overhead_s += (span.start - entered) + (perf_counter() - span.end)
            return result

        return wrapper


# ----------------------------------------------------------------------
# per-layer metrics from the recorded spans
# ----------------------------------------------------------------------

# name -> unit; every traced run reports all of them (0 where a layer is unused)
LAYER_METRICS = {
    "reduction.newton_iterations": "count",
    "reduction.residual_evals_per_solve": "count",
    "reduction.fans_per_solve": "count",
    "reduction.useful_eval_frac": "1",
    "reduction.solve_self_s": "s",
    "reduction.guess_s": "s",
    "geodesic.fans": "count",
    "geodesic.fan_s": "s",
    "geodesic.fan_ray_steps": "count",
    "geodesic.center_frame_s": "s",
    "geodesic.bundles": "count",
    "geodesic.bundle_s": "s",
    "background.ambient_calls": "count",
    "background.ambient_points": "count",
    "background.ambient_s": "s",
    "harmonics.calls": "count",
    "harmonics.time_s": "s",
    "harmonics.table_mb_read": "MB",
    "surface.embedding_derivatives_s": "s",
    "grid.tables_s": "s",
    "grid.tables_mb": "MB",
    "surface.graph_calls": "count",
    "surface.geometry_s": "s",
    "surface.from_positions_self_s": "s",
    "el_operator.residual_calls": "count",
    "el_operator.residual_self_s": "s",
    "el_operator.rescaled_self_s": "s",
    "functionals.energy_s": "s",
    "trace.overhead_frac": "1",
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[Span], round0_ops: int, traced_ops: int,
                  traced_s: float, overhead_s: float, grid_tables: dict) -> dict:
    """Per-layer numbers of one traced run.

    Counts are per op (per solve for the `reduction.*_per_solve` ones) over
    round 0, whose inputs depend only on the seed, so they repeat exactly.
    Times are means per call over every traced round, except
    `harmonics.time_s`, which is the harmonic-transform time per op.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.seconds

    def self_s(i):
        return spans[i].seconds - child_s[i]

    def in_solve(i):
        p = spans[i].parent
        while p is not None:
            if spans[p].name == "reduction.solve_critical":
                return True
            p = spans[p].parent
        return False

    def idx(name, round0=False):
        return [i for i, s in enumerate(spans)
                if s.name == name and (not round0 or s.round == 0)]

    per_op = max(round0_ops, 1)
    solves0 = idx("reduction.solve_critical", round0=True)
    done0 = [i for i in solves0 if not spans[i].error]
    evals0 = [i for i in idx("el_operator.el_residual", round0=True) if in_solve(i)]
    fans_in_solve0 = [i for i in idx("geodesic.RayFan", round0=True) if in_solve(i)]
    iterations = sum(spans[i].facts["newton_iterations"] for i in done0)
    harmonic = [s for s in spans if s.name.startswith("harmonics.")]
    harmonic0 = [s for s in harmonic if s.round == 0]
    fans0 = [spans[i] for i in idx("geodesic.RayFan", round0=True)]
    ambient0 = [spans[i] for i in idx("background.ambient_fields", round0=True)]

    def mean_s(name):
        return _mean(spans[i].seconds for i in idx(name))

    def mean_self_s(name):
        return _mean(self_s(i) for i in idx(name))

    values = {
        "reduction.newton_iterations": iterations / len(done0) if done0 else 0.0,
        "reduction.residual_evals_per_solve": len(evals0) / len(solves0) if solves0 else 0.0,
        "reduction.fans_per_solve": len(fans_in_solve0) / len(solves0) if solves0 else 0.0,
        "reduction.useful_eval_frac": ((iterations + len(done0)) / len(evals0)
                                       if evals0 else 0.0),
        "reduction.solve_self_s": mean_self_s("reduction.solve_critical"),
        "reduction.guess_s": mean_s("reduction.initial_guess"),
        "geodesic.fans": len(fans0) / per_op,
        "geodesic.fan_s": mean_s("geodesic.RayFan"),
        "geodesic.fan_ray_steps": sum(s.facts["rays"] * s.facts["steps"] for s in fans0) / per_op,
        "geodesic.center_frame_s": mean_s("geodesic.transported_center_frame"),
        "geodesic.bundles": len(idx("geodesic.VariationBundle", round0=True)) / per_op,
        "geodesic.bundle_s": mean_s("geodesic.VariationBundle"),
        "background.ambient_calls": len(ambient0) / per_op,
        "background.ambient_points": sum(s.facts["points"] for s in ambient0) / per_op,
        "background.ambient_s": mean_s("background.ambient_fields"),
        "harmonics.calls": len(harmonic0) / per_op,
        "harmonics.time_s": sum(s.seconds for s in harmonic) / max(traced_ops, 1),
        "harmonics.table_mb_read": sum(s.facts["table_mb"] for s in harmonic0) / per_op,
        "surface.embedding_derivatives_s": mean_s("surface.spectral_embedding_derivatives"),
        "grid.tables_s": grid_tables["seconds"],
        "grid.tables_mb": grid_tables["mb"],
        "surface.graph_calls": len(idx("surface.graph_surface", round0=True)) / per_op,
        "surface.geometry_s": mean_s("surface.geometry_from_embedding"),
        "surface.from_positions_self_s": mean_self_s("surface.surface_from_positions"),
        "el_operator.residual_calls": len(idx("el_operator.el_residual", round0=True)) / per_op,
        "el_operator.residual_self_s": mean_self_s("el_operator.el_residual"),
        "el_operator.rescaled_self_s": mean_self_s("el_operator.rescaled_phi"),
        "functionals.energy_s": mean_s("functionals.hawking_energy"),
        "trace.overhead_frac": overhead_s / max(traced_s - overhead_s, 1e-12),
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in LAYER_METRICS.items()}
