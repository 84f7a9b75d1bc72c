"""Command-line interface: configs, outputs, exit codes, determinism."""

import json

import numpy as np
import pytest

from hawkfol import EnergyReport, HarmonicField
from hawkfol.cli import _grid, _leaf_key, main
from hawkfol.reduction import CriticalSurfaceSolution


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def test_energy_flat_sphere(tmp_path, capsys):
    cfg = write_config(tmp_path, {"preset": {"name": "flat"},
                                  "surface": {"radius": 1.0}})
    rc = main(["energy", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    out = json.loads((tmp_path / "energy_result.json").read_text())
    assert abs(out["energy"]["hawking_energy"]) < 1e-10
    assert out["tool_version"]
    assert len(out["config_sha256"]) == 64


def test_energy_constant_k_p2_column(tmp_path):
    k = [[0.5, 0.0, 0.0], [0.0, -0.2, 0.0], [0.0, 0.0, 1.0]]
    cfg = write_config(tmp_path, {
        "preset": {"name": "constant_k", "params": {"k": k}},
        "surface": {"radius": 1.0}})
    rc = main(["energy", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    out = json.loads((tmp_path / "energy_result.json").read_text())
    karr = np.array(k)
    expected = (8 * np.pi / 5) * np.trace(karr) ** 2 + (8 * np.pi / 15) * np.sum(karr * karr)
    assert abs(out["energy"]["int_P2"] - expected) < 1e-9
    csv_text = (tmp_path / "energy_result.csv").read_text()
    assert csv_text.startswith("# hawkfol")
    assert "int_P2" in csv_text


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"preset": {"name": "flat"}, "bogus": {}})
    assert main(["energy", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown config section" in capsys.readouterr().err

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["energy", "--config", str(bad)]) == 2

    cfg = write_config(tmp_path, {"preset": {"name": "flat"},
                                  "surface": {"radius": 1.0, "typo": 2}}, "c2.json")
    assert main(["energy", "--config", cfg]) == 2


def _null_energy_resume(config):
    """A resume file keyed to `config` whose one leaf records no energy."""
    leaf = CriticalSurfaceSolution(
        r=0.03, tau=np.zeros(3), lam=0.04, phi=HarmonicField.zero(8), residual_norm=0.0,
        residual_norm_full=0.0, newton_iterations=1, converged=True,
        energy=EnergyReport(*[1.0] * 6)).to_dict()
    leaf["energy"] = None
    key = _leaf_key(config, _grid(config), np.zeros(3), {})
    return json.dumps({"leaf_sha256": key, "trace": {"solutions": [leaf]}})


@pytest.mark.parametrize("content", [None, "{not json", '{"trace": {"r": [0.03]}}',
                                     "null_energy"],
                         ids=["missing", "bad_json", "no_solutions", "null_energy"])
def test_unreadable_resume_exits_2(tmp_path, capsys, content):
    resume = tmp_path / "previous.json"
    config = {
        "preset": {"name": "conformal_quadratic", "params": {"eps": 0.01}},
        "grid": {"n_theta": 8, "n_phi": 16},
        "foliate": {"r_min": 0.03, "r_max": 0.08, "resume": str(resume)}}
    if content == "null_energy":
        content = _null_energy_resume(config)
    if content is not None:
        resume.write_text(content)
    cfg = write_config(tmp_path, config)
    assert main(["foliate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "cannot resume from" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, values, bad", [
    ("solve", "solve", {"radius": "big"}, "radius"),
    ("solve", "solve", {"radius": 0.05, "tol": "abc"}, "tol"),
    ("solve", "solve", {"radius": 0.05, "tol": float("nan")}, "tol"),
    ("solve", "solve", {"radius": 0.05, "max_iter": 2.5}, "max_iter"),
    ("solve", "solve", {"radius": 0.05, "band_limit": True}, "band_limit"),
    ("foliate", "foliate", {"r_min": 0.02, "r_max": "0.1"}, "r_max"),
    ("foliate", "foliate", {"r_min": 0.02, "r_max": 0.1, "n_steps": "5"}, "n_steps"),
    ("energy", "grid", {"n_theta": "x"}, "n_theta"),
    ("energy", "grid", {"n_theta": 16, "n_phi": 32, "band_limit": [8]}, "band_limit"),
    ("energy", "surface", {"radius": 1.0, "phi_coeffs": [0.0], "phi_band_limit": "0"},
     "phi_band_limit"),
    ("energy", "preset", {"name": "flat", "params": [1]}, "params"),
    ("solve", "solve", {"radius": 0.05, "center": [0.0, 0.0]}, "center"),
    ("energy", "surface", {"radius": 1.0, "tau": [0.0, 0.0, "x"]}, "tau"),
    ("foliate", "foliate", {"r_min": 0.02, "r_max": 0.1, "center": 0.0}, "center"),
    ("smallsphere", "smallsphere", {"l_values": "abc"}, "l_values"),
    ("smallsphere", "smallsphere", {"l_values": [0.02, float("inf")]}, "l_values"),
    ("smallsphere", "smallsphere", {"l_values": [0.02], "sample_direction": [1.0, 0.0]},
     "sample_direction"),
    ("smallsphere", "smallsphere", {"l_values": [0.02], "sc4": "x"}, "sc4"),
    ("smallsphere", "smallsphere", {"l_values": [0.02], "k": "abc"}, "k"),
    ("smallsphere", "smallsphere", {"l_values": [0.02], "k": [[1.0, 0.0], [0.0, 1.0]]}, "k"),
    ("smallsphere", "smallsphere", {"l_values": [0.02], "ric4": [[True] * 4] * 4}, "ric4"),
    ("smallsphere", "smallsphere", {"l_values": [0.02], "rm4": [[0.0] * 4] * 4}, "rm4"),
    ("smallsphere", "smallsphere", {"l_values": []}, "l_values"),
    ("smallsphere", "smallsphere", {"l_values": [0.02], "sample_direction": [0.0, 0.0, 0.0]},
     "sample_direction"),
    ("energy", "surface", {"radius": 1.0, "phi_coeffs": "abc", "phi_band_limit": 0},
     "phi_coeffs"),
    ("energy", "surface", {"radius": 1.0, "phi_coeffs": [0.0, 0.1], "phi_band_limit": 2},
     "phi_coeffs"),
    ("smallsphere", "smallsphere", {"l_values": [0.02], "k": [[1, 1, 0], [0, 0, 0], [0, 0, 0]]},
     "k"),
    ("smallsphere", "smallsphere",
     {"l_values": [0.02], "rm4": np.eye(16).reshape(4, 4, 4, 4).tolist()}, "rm4"),
    ("energy", "surface", {"radius": 1.0, "phi_coeffs": [], "phi_band_limit": -1},
     "phi_band_limit"),
    ("energy", "surface", {"radius": 1.0, "phi_coeffs": [0.0] * 10000, "phi_band_limit": 99},
     "phi_band_limit"),
], ids=["radius-str", "tol-str", "tol-nan", "max_iter-float", "band_limit-bool",
        "r_max-str", "n_steps-str", "n_theta-str", "grid_band_limit-list",
        "phi_band_limit-str", "params-list", "center-2", "tau-str", "center-scalar",
        "l_values-str", "l_values-inf", "sample_direction-2", "sc4-str", "k-str", "k-2x2",
        "ric4-bool", "rm4-2d", "l_values-empty", "sample_direction-zero",
        "phi_coeffs-str", "phi_coeffs-length", "k-nonsymmetric", "rm4-nonsymmetric",
        "phi_band_limit-negative", "phi_band_limit-above-grid"])
def test_malformed_number_exits_2(tmp_path, capsys, command, section, values, bad):
    config = {"preset": {"name": "conformal_quadratic", "params": {"eps": 0.01}},
              "grid": {"n_theta": 16, "n_phi": 32},
              "surface": {"radius": 1.0}, section: values}
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"config error: {bad} must be" in capsys.readouterr().err


@pytest.mark.parametrize("name, params, finite", [
    ("conformal_quadratic", {"epsilon": 0.01}, False),
    ("conformal_quadratic", {"eps": 0.01, "k": [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
     False),
    ("schwarzschild_slice", {"mass": -1}, False),
    ("conformal_quadratic", {"eps": "abc"}, False),
    ("constant_k", {"k": [[1.0, "x", 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}, False),
    ("conformal_quadratic", {"eps": float("nan")}, True),
    ("schwarzschild_slice", {"mass": float("inf")}, True),
    ("conformal_quadratic", {"eps": -0.25, "chart_radius": float("nan")}, True),
    ("constant_k", {"k": [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]]}, True),
], ids=["unknown-keyword", "k-nonsymmetric", "mass-negative", "eps-string", "k-string-entry",
        "eps-nan", "mass-inf", "chart_radius-nan", "k-nan-entry"])
def test_invalid_preset_params_exit_2(tmp_path, capsys, name, params, finite):
    cfg = write_config(tmp_path, {"preset": {"name": name, "params": params},
                                  "surface": {"radius": 1.0}})
    assert main(["energy", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert not finite or "finite" in err


def test_unknown_preset_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {"preset": {"name": "wat"},
                                  "surface": {"radius": 1.0}})
    assert main(["energy", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_flat_foliate_degenerate_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "preset": {"name": "flat"},
        "grid": {"n_theta": 16, "n_phi": 32},
        "foliate": {"r_min": 0.02, "r_max": 0.1, "n_steps": 3}})
    assert main(["foliate", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "DegenerateHessian" in capsys.readouterr().err


def test_smallsphere_flat_excess_and_no_root(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "smallsphere": {"l_values": [0.02, 0.04, 0.06]}})
    assert main(["smallsphere", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "smallsphere_result.json").read_text())
    assert all(abs(row["excess"]) < 1e-12 for row in out["report"]["rows"])

    cfg = write_config(tmp_path, {
        "smallsphere": {"sc4": 1.0e4, "l_values": [0.001, 0.05]}}, "c2.json")
    assert main(["smallsphere", "--config", cfg, "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert "no_root" in err
    out = json.loads((tmp_path / "smallsphere_result.json").read_text())
    assert out["report"]["rows"][1]["no_root"] is True


def test_check_command(tmp_path):
    assert main(["check", "--out", str(tmp_path), "--seed", "3"]) == 0
    out = json.loads((tmp_path / "check_result.json").read_text())
    assert all(c["passed"] for c in out["checks"])
    assert "light-cut quartic area identity holds exactly" in [c["name"] for c in out["checks"]]


def test_check_csv(tmp_path):
    assert main(["check", "--out", str(tmp_path), "--format", "csv"]) == 0
    assert not (tmp_path / "check_result.json").exists()
    lines = (tmp_path / "check_result.csv").read_text().splitlines()
    assert lines[0].startswith("# hawkfol") and lines[1] == "name,passed"
    assert len(lines) == 9 and all(line.endswith(",True") for line in lines[2:])
    assert "light-cut quartic area identity holds exactly,True" in lines


@pytest.mark.parametrize("command, section", [
    ("solve", {"radius": 0.05}),
    ("foliate", {"r_min": 0.03, "r_max": 0.04, "n_steps": 2}),
    ("solve", {"radius": 0.05, "band_limit": 9}),
], ids=["solve", "foliate", "solve-above"])
def test_unresolved_solver_band_limit_exits_2(tmp_path, capsys, command, section):
    # the solver's default band limit is 8; the embedding has degree 9
    cfg = write_config(tmp_path, {
        "preset": {"name": "conformal_quadratic", "params": {"eps": 0.01}},
        "grid": {"n_theta": 16, "n_phi": 32, "band_limit": 8}, command: section})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "must be below the grid band limit 8" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_result.*"))


def test_grid_flag_parse_error():
    assert main(["check", "--grid", "banana"]) == 2


@pytest.mark.slow
def test_solve_and_deterministic_rerun(tmp_path):
    cfg = write_config(tmp_path, {
        "preset": {"name": "conformal_quadratic", "params": {"eps": 0.01}},
        "grid": {"n_theta": 16, "n_phi": 32},
        "solve": {"radius": 0.05, "tol": 1e-6}})
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "solve_result.json").read_bytes() == \
        (out2 / "solve_result.json").read_bytes()
    assert (out1 / "solve_result.csv").read_bytes() == \
        (out2 / "solve_result.csv").read_bytes()


@pytest.mark.slow
def test_foliate_resume_matches_full_run(tmp_path):
    base = {
        "preset": {"name": "conformal_quadratic", "params": {"eps": 0.01}},
        "grid": {"n_theta": 16, "n_phi": 32},
        "foliate": {"r_min": 0.03, "r_max": 0.08, "n_steps": 4, "tol": 1e-6}}
    cfg_full = write_config(tmp_path, base, "full.json")
    out_full = tmp_path / "full"
    assert main(["foliate", "--config", cfg_full, "--out", str(out_full)]) == 0

    # first two radii of geomspace(0.03, 0.08, 4) form geomspace(0.03, r2, 2)
    r2 = float(np.geomspace(0.03, 0.08, 4)[1])
    short = json.loads(json.dumps(base))
    short["foliate"]["n_steps"] = 2
    short["foliate"]["r_max"] = r2
    cfg_short = write_config(tmp_path, short, "short.json")
    out_short = tmp_path / "short"
    assert main(["foliate", "--config", cfg_short, "--out", str(out_short)]) == 0

    resumed = json.loads(json.dumps(base))
    resumed["foliate"]["resume"] = str(out_short / "foliate_result.json")
    cfg_resume = write_config(tmp_path, resumed, "resume.json")
    out_resume = tmp_path / "resume"
    assert main(["foliate", "--config", cfg_resume, "--out", str(out_resume)]) == 0

    full = json.loads((out_full / "foliate_result.json").read_text())["trace"]
    res = json.loads((out_resume / "foliate_result.json").read_text())["trace"]
    assert np.abs(np.array(full["lambda"]) - np.array(res["lambda"])).max() < 1e-10
    assert np.abs(np.array(full["r"]) - np.array(res["r"])).max() < 1e-14
    for s_full, s_res in zip(full["solutions"], res["solutions"]):
        assert np.abs(np.array(s_full["phi_coeffs"])
                      - np.array(s_res["phi_coeffs"])).max() < 1e-10
    # resumed leaves keep the energies the short run recorded
    prev = json.loads((out_short / "foliate_result.json").read_text())["trace"]
    assert [s["energy"] for s in res["solutions"][:2]] == \
        [s["energy"] for s in prev["solutions"]]
    assert res["hawking_energy"][:2] == prev["hawking_energy"]


def test_resume_into_another_config_exits_2(tmp_path, capsys):
    base = {
        "preset": {"name": "conformal_quadratic", "params": {"eps": 0.01}},
        "grid": {"n_theta": 16, "n_phi": 32},
        "foliate": {"r_min": 0.03, "r_max": 0.04, "n_steps": 2, "tol": 1e-6}}
    out_first = tmp_path / "first"
    assert main(["foliate", "--config", write_config(tmp_path, base, "first.json"),
                 "--out", str(out_first)]) == 0
    previous = out_first / "foliate_result.json"
    assert len(json.loads(previous.read_text())["leaf_sha256"]) == 64

    other = json.loads(json.dumps(base))
    other["preset"]["params"]["eps"] = 0.03
    other["foliate"].update(r_max=0.06, n_steps=3, resume=str(previous))
    capsys.readouterr()
    assert main(["foliate", "--config", write_config(tmp_path, other, "other.json"),
                 "--out", str(tmp_path / "other")]) == 2
    assert "solved for another preset" in capsys.readouterr().err
    assert not (tmp_path / "other" / "foliate_result.json").exists()

    unkeyed = json.loads(previous.read_text())
    del unkeyed["leaf_sha256"]
    (tmp_path / "unkeyed.json").write_text(json.dumps(unkeyed))
    same = json.loads(json.dumps(base))
    same["foliate"].update(r_max=0.06, n_steps=3, resume=str(tmp_path / "unkeyed.json"))
    assert main(["foliate", "--config", write_config(tmp_path, same, "same.json"),
                 "--out", str(tmp_path / "same")]) == 2
    assert "records no leaf_sha256" in capsys.readouterr().err
