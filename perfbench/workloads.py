"""The three benchmark workloads and the oracle that checks each op.

Every workload is closed-loop: the next op starts when the previous one has
ended.  Ops come in rounds whose inputs are drawn from the run's seeded
generator; a run repeats rounds until its measured time reaches the
requested seconds, and always finishes the round it started.  Measured time
covers the ops and any per-round preparation a caller would pay (the fan of
`surface_scan`); oracle checks run outside it, with tracing paused.

hawkfol is reached through module attributes at call time
(`hawkfol.reduction.solve_critical`, not a name imported here), so the
tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

import hawkfol
import hawkfol.el_operator
import hawkfol.functionals
import hawkfol.geodesic
import hawkfol.reduction
import hawkfol.surface
from hawkfol.errors import HawkfolError
from hawkfol.harmonics import HarmonicField, analyze

import pace

ORIGIN = np.zeros(3)
EPS = 0.01
TOL = 1e-7
SOLVER_BAND = 8
# the generic k of the test suite's fixtures (tests/conftest.py)
K_GENERIC = np.array([[0.3, 0.1, 0.0],
                      [0.1, -0.2, 0.05],
                      [0.0, 0.05, 0.4]])


@dataclass
class Timing:
    wall_s: float
    scaled_s: float            # in reference seconds (pace.py)


@dataclass
class OpResult:
    timing: Timing
    ok: bool                   # completed and passed its oracle
    error: Optional[str] = None  # HawkfolError or the oracle that failed
    accuracy: dict = field(default_factory=dict)


class Run:
    """Measured time, op numbering and the tracer switch of one run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.measured_s = 0.0          # wall
        self.scaled_s = 0.0            # reference seconds
        self.ops: list[OpResult] = []

    def timed(self, round_index, op, fn, *args, **kwargs):
        """Call fn inside the measured (and traced) window, between two pace samples.

        Returns (value, Timing, error); a HawkfolError is the op's failure and
        comes back as `error`, any other exception is a benchmark bug and
        propagates.
        """
        before = pace.sample()
        if self.tracer:
            self.tracer.round, self.tracer.op = round_index, op
            self.tracer.active = True
        value = error = None
        start = perf_counter()
        try:
            value = fn(*args, **kwargs)
        except HawkfolError as exc:
            error = exc
        finally:
            wall = perf_counter() - start
            if self.tracer:
                self.tracer.active = False
        timing = Timing(wall, pace.scaled(wall, before, pace.sample()))
        self.measured_s += timing.wall_s
        self.scaled_s += timing.scaled_s
        return value, timing, error


def _graph_field(rng, scale, band_limit):
    """Seeded graph function with coefficients ~ scale * 0.02 / (1 + l)^3, l >= 2."""
    coeffs = np.zeros((band_limit + 1) ** 2)
    for l in range(2, band_limit + 1):
        coeffs[l * l:(l + 1) * (l + 1)] = (rng.normal(size=2 * l + 1)
                                           * scale * 0.02 / (1 + l) ** 3)
    return HarmonicField(coeffs, band_limit)


def _projected_residual(grid, res, band_limit):
    """Norm of (pi1, pi0, Pperp up to band_limit) of a residual, as the solver projects it."""
    coeffs = analyze(grid, res.values, check=False).coeffs
    block = np.concatenate([res.proj_k1, [res.proj_k0], coeffs[4:(band_limit + 1) ** 2]])
    return float(np.linalg.norm(block))


def _failed(timing, exc):
    return OpResult(timing, False, f"{type(exc).__name__}: {exc}")


def _checked(timing, accuracy, failures):
    return OpResult(timing, not failures, "; ".join(failures) or None, accuracy)


class Workload:
    name = ""
    grid_shape = (32, 64)

    def presets(self) -> dict:
        return {}

    def run_round(self, run: Run, index: int, rng, grid, data) -> None:
        raise NotImplementedError


class Solve(Workload):
    """Cold solves from the closed-form guess; a round is two solves per preset,
    alternating (four ~10 s ops, so the median is not one or two samples)."""

    name = "solve"

    def presets(self):
        return {"conformal": hawkfol.preset("conformal_quadratic", eps=EPS),
                "conformal+k": hawkfol.preset("conformal_quadratic", eps=EPS, k=K_GENERIC)}

    def run_round(self, run, index, rng, grid, data):
        for preset_name in ("conformal", "conformal+k") * 2:
            ds = data[preset_name]
            r = float(rng.uniform(0.04, 0.06))
            op = len(run.ops)
            sol, timing, exc = run.timed(index, op, hawkfol.reduction.solve_critical,
                                          ds, ORIGIN, r, grid=grid,
                                          band_limit=SOLVER_BAND, tol=TOL)
            run.ops.append(_failed(timing, exc) if exc
                           else self.check(ds, grid, r, sol, timing))

    @staticmethod
    def check(ds, grid, r, sol, timing):
        phi = HarmonicField(r ** 2 * sol.phi.coeffs, sol.phi.band_limit)
        surf = hawkfol.surface.graph_surface(ds, ORIGIN, sol.tau, r, phi, grid)
        recheck = _projected_residual(
            grid, hawkfol.el_operator.el_residual(ds, surf, sol.lam), SOLVER_BAND)
        lam0, _ = hawkfol.reduction.initial_guess(ds, ORIGIN, band_limit=SOLVER_BAND,
                                                  grid=grid)
        lam0_err = abs(sol.lam - lam0) / abs(lam0)
        accuracy = {"lambda": sol.lam, "tau_norm": float(np.linalg.norm(sol.tau)),
                    "residual_norm": sol.residual_norm, "recheck_residual": recheck,
                    "lambda0_rel_err": lam0_err}
        failures = [msg for bad, msg in (
            (not sol.converged, "not converged"),
            (not recheck < TOL, f"recheck residual {recheck:.2e} >= {TOL:.0e}"),
            (not lam0_err < 1e-3, f"|lambda - lambda0| / |lambda0| = {lam0_err:.2e}"),
        ) if bad]
        return _checked(timing, accuracy, failures)


class SurfaceScan(Workload):
    """One fan per round, reused by every graph surface of the round."""

    name = "surface_scan"
    grid_shape = (64, 128)
    graphs_per_center = 8
    graph_band = 16

    def presets(self):
        return {"conformal+k": hawkfol.preset("conformal_quadratic", eps=EPS, k=K_GENERIC)}

    def run_round(self, run, index, rng, grid, data):
        ds = data["conformal+k"]
        direction = rng.normal(size=3)
        tau = direction / np.linalg.norm(direction) * rng.uniform(0.0, 0.01)
        r = float(rng.uniform(0.03, 0.08))
        band = min(self.graph_band, grid.band_limit)

        def build_fan():
            center, frame = hawkfol.geodesic.transported_center_frame(ds, ORIGIN, tau)
            return hawkfol.geodesic.RayFan(ds, center, frame, grid.nodes,
                                           s_max=1.3 * r, n_steps=64)

        fan, _, exc = run.timed(index, None, build_fan)
        if exc:
            run.ops.extend(_failed(Timing(0.0, 0.0), exc) for _ in range(self.graphs_per_center))
            return
        for _ in range(self.graphs_per_center):
            phi = _graph_field(rng, r * r, band)
            lam = float(rng.uniform(-1.0, 1.0))
            op = len(run.ops)

            def scan():
                surf = hawkfol.surface.graph_surface(ds, ORIGIN, tau, r, phi, grid, fan=fan)
                energy = hawkfol.functionals.hawking_energy(surf)
                return surf, energy, hawkfol.el_operator.el_residual(ds, surf, lam)

            out, timing, exc = run.timed(index, op, scan)
            if exc:
                run.ops.append(_failed(timing, exc))
                continue
            surf, energy, _ = out
            run.ops.append(self.check(surf, energy, timing))

    @staticmethod
    def check(surf, energy, timing):
        """Gauss-Bonnet through the Gauss equation, from public surface fields."""
        amb = surf.ambient
        scalar = np.einsum("nij,nij->n", amb.metric_inv, amb.ricci)
        ric_nn = np.einsum("nij,ni,nj->n", amb.ricci, surf.normal, surf.normal)
        gauss = (0.5 * scalar - ric_nn + 0.25 * surf.mean_curvature ** 2
                 - 0.5 * surf.traceless_second_norm_sq)
        err = abs(surf.integral(gauss) / (4 * np.pi) - 1.0)
        accuracy = {"gauss_bonnet_err": err, "hawking_energy": energy.hawking_energy}
        failures = [] if err < 1e-10 else [f"Gauss-Bonnet error {err:.2e} >= 1e-10"]
        return _checked(timing, accuracy, failures)


class Rescaled(Workload):
    """The rescaled operator against r^3 times the physical one; one op per round."""

    name = "rescaled"

    def presets(self):
        return {"conformal+k": hawkfol.preset("conformal_quadratic", eps=EPS, k=K_GENERIC)}

    def run_round(self, run, index, rng, grid, data):
        ds = data["conformal+k"]
        r = float(rng.uniform(0.02, 0.1))
        lam = float(rng.uniform(-1.0, 1.0))
        tau = rng.normal(size=3) * 0.01
        phi = _graph_field(rng, 1.0, SOLVER_BAND)
        op = len(run.ops)

        def evaluate():
            resc = hawkfol.el_operator.rescaled_phi(ds, ORIGIN, tau, r, phi, lam, grid,
                                                    n_steps=12)
            surf = hawkfol.surface.graph_surface(ds, ORIGIN, tau, r, phi, grid, n_steps=64)
            return resc, hawkfol.el_operator.el_residual(ds, surf, lam)

        out, timing, exc = run.timed(index, op, evaluate)
        if exc:
            run.ops.append(_failed(timing, exc))
            return
        resc, phys = out
        diff = np.sqrt(np.sum(grid.weights * (resc.values - r ** 3 * phys.values) ** 2))
        err = float(diff / resc.l2_norm)
        failures = [] if err < 1e-9 else [f"r^3 identity rel err {err:.2e} >= 1e-9"]
        run.ops.append(_checked(timing, {"identity_rel_err": err}, failures))


WORKLOADS = {w.name: w for w in (Solve(), SurfaceScan(), Rescaled())}
