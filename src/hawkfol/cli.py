"""Batch command-line front end: config in, JSON/CSV out.

Subcommands: energy | solve | foliate | smallsphere | check.
Exit codes: 0 ok, 2 config error (InvalidParams, whether the CLI or the
library rejected the input), 3 numerical failure (any other HawkfolError).
The CLI checks only what is particular to JSON configs: sections, keys,
number types, required keys, phi_band_limit and resume files; the library
checks every other range.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import json
import math
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np

from . import __version__
from .background import preset
from .errors import ContinuationBroken, HawkfolError, InvalidParams
from .el_operator import el_residual
from .functionals import hawking_energy, willmore
from .grid import SphereGrid
from .harmonics import (HarmonicField, analyze, biharmonic_apply, moment_value,
                        synthesize)
from .reduction import (CriticalSurfaceSolution, FoliationTrace, foliate,
                        solve_critical)
from .smallsphere import SpacetimeCurvatureAtPoint, comparison_report
from .surface import geodesic_sphere, graph_surface


_SECTIONS = {
    "preset": {"name", "params"},
    "grid": {"n_theta", "n_phi", "band_limit"},
    "surface": {"center", "tau", "radius", "phi_coeffs", "phi_band_limit"},
    "solve": {"center", "radius", "band_limit", "tol", "max_iter"},
    "foliate": {"center", "r_min", "r_max", "n_steps", "band_limit", "tol",
                "max_iter", "resume"},
    "smallsphere": {"rm4", "ric4", "sc4", "k", "l_values", "sample_direction"},
}


def _validate(config: dict) -> None:
    if not isinstance(config, dict):
        raise InvalidParams("config root must be a JSON object")
    for key, value in config.items():
        if key not in _SECTIONS:
            raise InvalidParams(f"unknown config section {key!r}")
        if not isinstance(value, dict):
            raise InvalidParams(f"config section {key!r} must be an object")
        unknown = set(value) - _SECTIONS[key]
        if unknown:
            raise InvalidParams(f"unknown keys in section {key!r}: {sorted(unknown)}")


def _number(section: dict, key: str, default=None, integer: bool = False):
    """section[key] as a finite float, or an int when `integer`; `default`
    when the key is absent; InvalidParams for any other value."""
    if key not in section:
        return default
    value = section[key]
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (integer and value != int(value))):
        kind = "an integer" if integer else "a finite number"
        raise InvalidParams(f"{key} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _numbers(section: dict, key: str, default=None, *, shape):
    """section[key] as a float array of finite numbers, nested as lists to
    the given shape (a None length is any nonzero length); `default` when the
    key is absent; InvalidParams for any other value."""
    if key not in section:
        return default
    entries = np.array(section[key], dtype=object)
    if entries.ndim != len(shape) or not all(
            g > 0 if n is None else g == n for n, g in zip(shape, entries.shape)):
        raise InvalidParams(f"{key} must be finite numbers of shape {shape}, "
                            f"got {section[key]!r}")
    return np.array([_number({key: e}, key) for e in entries.ravel()]).reshape(entries.shape)


def _solver_options(section: dict) -> dict:
    """The band_limit, tol and max_iter the section sets; the solver's own
    defaults hold for the rest."""
    return {key: _number(section, key, integer=key != "tol")
            for key in ("band_limit", "tol", "max_iter") if key in section}


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidParams(f"cannot read config {path}: {exc}")
    _validate(config)
    return config


def _dataset(config):
    section = config.get("preset")
    if not section or "name" not in section:
        raise InvalidParams("config needs a preset section with a name")
    params = section.get("params", {})
    if not isinstance(params, dict):
        raise InvalidParams(f"params must be an object, got {params!r}")
    return preset(section["name"], **params)


def _grid(config, override=None):
    section = config.get("grid", {})
    sizes = {key: _number(section, key, integer=True) for key in section}
    if override:
        sizes["n_theta"], sizes["n_phi"] = override
    return SphereGrid(**sizes)


def _emit(out_dir: Path, fmt: str, config: dict, name: str, payload: dict, header,
          rows) -> None:
    """Write name.json (the payload after the tool version and config hash)
    and name.csv (a provenance comment, the header, the rows), as `fmt` asks."""
    config_sha256 = _config_hash(config)
    if fmt in ("json", "both"):
        with open(out_dir / f"{name}.json", "w") as fh:
            json.dump({"tool_version": __version__, "config_sha256": config_sha256,
                       **payload}, fh, indent=1)
    if fmt in ("csv", "both"):
        with open(out_dir / f"{name}.csv", "w", newline="") as fh:
            fh.write(f"# hawkfol {__version__} config_sha256={config_sha256}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_energy(config, grid, out_dir, fmt):
    ds = _dataset(config)
    section = config.get("surface")
    if not section or "radius" not in section:
        raise InvalidParams("energy needs a surface section with a radius")
    center = _numbers(section, "center", np.zeros(3), shape=(3,))
    tau = _numbers(section, "tau", np.zeros(3), shape=(3,))
    radius = _number(section, "radius")
    phi = None
    if "phi_coeffs" in section:
        if "phi_band_limit" not in section:
            raise InvalidParams("phi_coeffs requires phi_band_limit")
        band_limit = _number(section, "phi_band_limit", integer=True)
        if not 0 <= band_limit <= grid.band_limit:
            raise InvalidParams(f"phi_band_limit must be in [0, {grid.band_limit}], "
                                f"got {band_limit}")
        phi = HarmonicField(_numbers(section, "phi_coeffs", shape=((band_limit + 1) ** 2,)),
                            band_limit)
    surf = graph_surface(ds, center, tau, radius, phi, grid)
    report = hawking_energy(surf)
    d = report.to_dict()
    _emit(out_dir, fmt, config, "energy_result", {"energy": d}, list(d), [list(d.values())])
    print(f"hawking energy: {report.hawking_energy:.12g}  "
          f"(area {report.area:.12g}, willmore {report.willmore_value:.12g})")
    return 0


def cmd_solve(config, grid, out_dir, fmt):
    ds = _dataset(config)
    section = config.get("solve")
    if not section or "radius" not in section:
        raise InvalidParams("solve needs a solve section with a radius")
    center = _numbers(section, "center", np.zeros(3), shape=(3,))
    sol = solve_critical(ds, center, _number(section, "radius"), grid=grid,
                         **_solver_options(section))
    _emit(out_dir, fmt, config, "solve_result", {"solution": sol.to_dict()},
          ["r", "tau1", "tau2", "tau3", "lambda", "residual_norm", "newton_iterations"],
          [[sol.r, *sol.tau, sol.lam, sol.residual_norm, sol.newton_iterations]])
    print(f"solved r={sol.r:g}: lambda={sol.lam:.10g}, |tau|={np.linalg.norm(sol.tau):.3e}, "
          f"residual={sol.residual_norm:.3e} ({sol.newton_iterations} iterations)")
    return 0


def _trace_rows(trace: FoliationTrace):
    rows = []
    for i in range(trace.r.size):
        rows.append([trace.r[i], *trace.tau[i], trace.lam[i], trace.lapse_min[i],
                     trace.hawking_functional[i], trace.hawking_energy[i],
                     trace.area[i]])
    return rows


_TRACE_HEADER = ["r", "tau1", "tau2", "tau3", "lambda", "lapse_min",
                 "hawking_functional", "hawking_energy", "area"]


def _emit_trace(trace, out_dir, fmt, config, leaf_key, name="foliate_result"):
    _emit(out_dir, fmt, config, name, {"leaf_sha256": leaf_key, "trace": trace.to_dict()},
          _TRACE_HEADER, _trace_rows(trace))


def _leaf_key(config, grid, center, options) -> str:
    """Hash of what determines a foliate leaf: the preset, the grid, the
    center and the solver options, with foliate's defaults filled in."""
    defaults = inspect.signature(foliate).parameters
    section = config["preset"]
    return _config_hash({
        "preset": {"name": section["name"], "params": section.get("params", {})},
        "grid": [grid.n_theta, grid.n_phi, grid.band_limit], "center": center.tolist(),
        **{key: options.get(key, defaults[key].default)
           for key in ("band_limit", "tol", "max_iter")}})


def _load_resume(path, leaf_key) -> list:
    """Solutions of a previous foliate_result.json; InvalidParams if unreadable
    or if its leaves were solved under another `_leaf_key`."""
    if not isinstance(path, str):   # open() would take an integer as a file descriptor
        raise InvalidParams(f"cannot resume from {path!r}: resume must be a path string")
    try:
        with open(path) as fh:
            previous = json.load(fh)
        recorded = previous.get("leaf_sha256")
        solutions = [CriticalSurfaceSolution.from_dict(s)
                     for s in previous["trace"]["solutions"]]
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InvalidParams(f"cannot resume from {path}: {type(exc).__name__}: {exc}") from exc
    if recorded != leaf_key:
        raise InvalidParams(
            f"cannot resume from {path}: its leaves were solved for another preset, grid, "
            "center, band_limit, tol or max_iter" if recorded else
            f"cannot resume from {path}: it records no leaf_sha256")
    return solutions


def cmd_foliate(config, grid, out_dir, fmt):
    ds = _dataset(config)
    section = config.get("foliate")
    if not section or "r_min" not in section or "r_max" not in section:
        raise InvalidParams("foliate needs a foliate section with r_min and r_max")
    center = _numbers(section, "center", np.zeros(3), shape=(3,))
    r_range = (_number(section, "r_min"), _number(section, "r_max"))
    n_steps = _number(section, "n_steps", 6, integer=True)
    options = _solver_options(section)
    leaf_key = _leaf_key(config, grid, center, options)
    warm = _load_resume(section["resume"], leaf_key) if section.get("resume") else None
    try:
        trace = foliate(ds, center, r_range, n_steps, grid=grid, warm_start=warm,
                        **options)
    except ContinuationBroken as exc:
        if exc.trace is not None:
            _emit_trace(exc.trace, out_dir, fmt, config, leaf_key, name="foliate_partial")
            print(f"continuation broken: {exc}; partial trace flushed", file=sys.stderr)
        raise
    _emit_trace(trace, out_dir, fmt, config, leaf_key)
    print(f"foliation: {trace.r.size} leaves, lambda(0) ~ {trace.lambda0_extrapolated:.10g}, "
          f"lapse_min {trace.lapse_min.min():.6f}, valid={trace.foliation_valid}")
    return 0


def cmd_smallsphere(config, grid, out_dir, fmt):
    section = config.get("smallsphere")
    if not section or "l_values" not in section:
        raise InvalidParams("smallsphere needs a smallsphere section with l_values")
    components = {"rm4": _numbers(section, "rm4", shape=(4, 4, 4, 4)),
                  "ric4": _numbers(section, "ric4", shape=(4, 4)),
                  "sc4": _number(section, "sc4"), "k": _numbers(section, "k", shape=(3, 3))}
    stc = SpacetimeCurvatureAtPoint.from_components(**components)
    direction = _numbers(section, "sample_direction", np.array([1.0, 0.0, 0.0]), shape=(3,))
    report = comparison_report(stc, _numbers(section, "l_values", shape=(None,)),
                               sample_direction=direction)
    failed = sum(row["no_root"] for row in report.rows)
    if failed:
        print(f"warning: area matching failed for {failed} parameter value(s); "
              "rows flagged no_root", file=sys.stderr)
    keys = ("l", "r", "no_root", "energy_geodesic", "energy_lightcut", "excess",
            "h_difference", "sc_difference")
    _emit(out_dir, fmt, config, "smallsphere_result", {"report": report.to_dict()},
          ["l", "r", "no_root", "E_geo", "E_lc", "excess", "H_G_minus_H_lc",
           "Sc_G_minus_Sc_lc"], [[row[key] for key in keys] for row in report.rows])
    print(f"excess l^3 coefficient: fitted {report.excess_coefficient_fit:.10g}; "
          f"candidates {report.excess_candidate_quoted:.10g} (quoted) / "
          f"{report.excess_candidate_derived:.10g} (derived)")
    return 0


def cmd_check(config, grid, out_dir, fmt, seed=0):
    """Fast invariant suite: quadrature, transforms, moments, baseline energies."""
    rng = np.random.default_rng(seed)
    checks = []

    checks.append(("quadrature weights sum to 4 pi",
                   abs(grid.weights.sum() - 4 * np.pi) < 1e-12))

    ok = True
    for deg in range(0, 7):
        for combo in combinations_with_replacement(range(3), deg):
            mono = np.prod(grid.nodes[:, combo], axis=1) if deg else np.ones(grid.n_nodes)
            quad = float(np.sum(grid.weights * mono))
            ok &= abs(quad - moment_value(combo)) < 1e-12
    checks.append(("moment integrals match quadrature to 1e-12", ok))

    coeffs = rng.normal(size=grid.n_coeffs)
    field = HarmonicField(coeffs, grid.band_limit)
    round_trip = analyze(grid, synthesize(field, grid))
    checks.append(("analysis/synthesis roundtrip at 1e-12",
                   np.abs(round_trip.coeffs - coeffs).max() < 1e-12))

    y1 = HarmonicField.from_coeff_dict(grid.band_limit, {(1, 0): 1.0, (1, 1): 0.5})
    checks.append(("biharmonic operator annihilates the kernel",
                   biharmonic_apply(y1).l2_norm() == 0.0))

    flat = preset("flat")
    ok = True
    for r in (0.1, 1.0, 10.0):
        surf = geodesic_sphere(flat, [0, 0, 0], [0, 0, 0], r, grid)
        ok &= abs(willmore(surf) - 4 * np.pi) < 1e-10
    checks.append(("flat round spheres have Willmore energy 4 pi", ok))

    surf = geodesic_sphere(flat, [0, 0, 0], [0, 0, 0], 1.0, grid)
    res = el_residual(flat, surf, 0.0)
    checks.append(("flat-sphere residual vanishes to 1e-9", res.l2_norm < 1e-9))

    failed = [name for name, good in checks if not good]
    for name, good in checks:
        print(f"{'PASS' if good else 'FAIL'}  {name}")
    _emit(out_dir, fmt, config, "check_result",
          {"checks": [{"name": n, "passed": bool(g)} for n, g in checks]},
          ["name", "passed"], [[n, bool(g)] for n, g in checks])
    return 0 if not failed else 3


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def _parse_grid_flag(text):
    try:
        n_theta, n_phi = text.lower().split("x")
        return int(n_theta), int(n_phi)
    except ValueError:
        raise InvalidParams(f"--grid expects NTHETAxNPHI, got {text!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hawkfol",
        description="Critical spheres of the Hawking energy: energies, "
                    "foliations and small-sphere comparisons.")
    parser.add_argument("command",
                        choices=["energy", "solve", "foliate", "smallsphere", "check"])
    parser.add_argument("--config", default=None, help="JSON configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=["json", "csv", "both"], default="both")
    parser.add_argument("--grid", default=None, help="override grid as NTHETAxNPHI")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized invariant checks")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config) if args.config else {}
        grid_override = _parse_grid_flag(args.grid) if args.grid else None
        grid = _grid(config, grid_override)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "energy":
            return cmd_energy(config, grid, out_dir, args.format)
        if args.command == "solve":
            return cmd_solve(config, grid, out_dir, args.format)
        if args.command == "foliate":
            return cmd_foliate(config, grid, out_dir, args.format)
        if args.command == "smallsphere":
            return cmd_smallsphere(config, grid, out_dir, args.format)
        return cmd_check(config, grid, out_dir, args.format, seed=args.seed)
    except InvalidParams as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (HawkfolError, ValueError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
