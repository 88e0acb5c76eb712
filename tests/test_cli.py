import csv
import dataclasses
import dis
import errno
import inspect
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qedvqe import analysis, builders, cli, estimate, noise, postselect, qcore, sim


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_budget_experiment(tmp_path):
    rc = cli.main(["budget", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_rows(tmp_path / "budget.csv")
    assert rows[0]["shots"] == "188000"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["shots"] == 188000
    assert manifest["experiment"] == "budget"


def test_budget_custom_target(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variance": 0.04, "target_sem": 0.001, "seed": 3.0}))
    cli.main(["budget", "--config", str(cfg), "--out", str(tmp_path)])
    assert read_rows(tmp_path / "budget.csv")[0]["shots"] == "40000"
    # the manifest records the converted seed, and the config as given
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 3 and isinstance(manifest["seed"], int)
    assert repr(manifest["config"]["seed"]) == "3.0"


INTEGRALS = {
    "h00": -1.0, "h11": 0.0, "h22": 0.0, "h33": -1.0,
    "h2002": 0.0, "h3113": 0.0, "h2112": 0.0, "h0330": 0.0,
    "h2103": 0.0, "h2013": 0.0,
}
H2_COEFFS = {"g0": -0.349833, "g1": -0.388748, "g2": -0.388748, "g3": 0.0111772, "g4": 0.181771}


def test_coeffs_experiment(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"integrals": INTEGRALS}))
    rc = cli.main(["coeffs", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    row = read_rows(tmp_path / "coeffs.csv")[0]
    assert float(row["g0"]) == -1.0 and float(row["g1"]) == -0.5


def test_coeffs_missing_integrals_is_config_error(tmp_path):
    assert cli.main(["coeffs", "--out", str(tmp_path)]) == cli.EXIT_BAD_CONFIG


def test_invalid_noise_kind_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": {"kind": "banana"}}))
    assert cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path)]) == cli.EXIT_BAD_CONFIG


@pytest.mark.parametrize(
    "experiment, cfg, key",
    [
        ("table2", {"shots": 0}, "shots"),
        ("sweep-depol", {"shots": 2.5}, "shots"),
        ("scan", {"noise": {"kind": "depolarizing", "p2": "lots"}}, "noise"),
        ("table2", {"shots": 10, "strategies": ["PSA", "PSQ"]}, "strategies"),
        ("table2", {"shots": 10, "theta": "nan"}, "theta"),
        ("scan", {"points": 2, "encoded": "false"}, "encoded"),
        ("budget", {"variance": "inf"}, "variance"),
        ("budget", {"target_sem": 1e-300}, "target_sem"),
        ("scan", {"points": 2, "seed": 2.5}, "seed"),
        ("red-pipeline", {"shots": 10, "noise": {"kind": "depolarizing", "p2": 0.01}}, "noise"),
        ("scan", {"points": 2, "hamiltonian": dict(H2_COEFFS, g0=math.inf)}, "hamiltonian"),
        ("scan", {"points": 2, "encoded": True, "hamiltonian": dict(H2_COEFFS, g0=math.nan)}, "hamiltonian"),
        ("sweep-depol", {"shots": 10, "hamiltonian": dict(H2_COEFFS, g1=math.nan)}, "hamiltonian"),
        ("coeffs", {"integrals": dict(INTEGRALS, h00=math.inf)}, "integrals"),
        ("coeffs", {"integrals": dict(INTEGRALS, h2103=math.nan, h2013=math.nan)}, "integrals"),
        # a JSON boolean is not a number, where a count or a float is read
        ("hqc", {"shots": True}, "shots"),
        ("budget", {"variance": True}, "variance"),
        ("sweep-depol", {"shots": 10, "p2_grid": [0.01, True]}, "p2_grid"),
        ("scan", {"points": 2, "noise": {"p2": True}}, "noise"),
        ("scan", {"points": 2, "noise": {"kind": "device", "Two-qubit Fault Probability (p2)": True}}, "noise"),
        ("scan", {"points": 2, "hamiltonian": dict(H2_COEFFS, g1=False)}, "hamiltonian"),
        # nor is a string that parses as one
        ("hqc", {"shots": "5"}, "shots"),
        ("budget", {"variance": "0.04"}, "variance"),
        ("scan", {"points": 2, "noise": {"kind": "device", "Two-qubit Fault Probability (p2)": "0.01"}}, "noise"),
    ],
)
def test_unusable_config_value_names_its_key(tmp_path, capsys, experiment, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([experiment, "--config", str(path), "--out", str(tmp_path)]) == cli.EXIT_BAD_CONFIG
    assert f"config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("p2", [20, -0.01])
def test_a_bad_p2_is_named_as_p2_not_as_the_p1_derived_from_it(tmp_path, capsys, p2):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"points": 2, "noise": {"p2": p2}}))
    assert cli.main(["scan", "--config", str(path), "--out", str(tmp_path)]) == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert f"(p2 must be in [0, 1], got {float(p2)})" in err and "p1" not in err


@pytest.mark.parametrize("experiment", [["scan"], {"name": "scan"}, None, "sacn"])
def test_unknown_experiment_is_config_error(tmp_path, capsys, experiment):
    assert cli.run({"experiment": experiment}, tmp_path) == cli.EXIT_BAD_CONFIG
    assert f"unknown or missing experiment {experiment!r}" in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_an_out_path_that_cannot_be_a_directory_is_a_config_error(tmp_path, capsys, monkeypatch, under):
    # --out naming a file (FileExistsError) or a path under one (NotADirectoryError)
    # exits 2 before any work, with one error line naming --out and the path
    blocker = tmp_path / "some_file"
    blocker.write_text("kept")
    out = blocker / "sub" if under else blocker
    _, reads = cli.EXPERIMENTS["hqc"]
    monkeypatch.setitem(cli.EXPERIMENTS, "hqc", (lambda **kw: pytest.fail("the run started"), reads))
    assert cli.main(["hqc", "--out", str(out)]) == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {str(out)!r}") and "Traceback" not in err
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("name", ["budget.csv", "manifest.json", "empty_selection.csv"])
def test_an_output_file_that_cannot_be_written_is_a_config_error(tmp_path, capsys, monkeypatch, name):
    # a CSV, the manifest or the empty-selection record that cannot be written (a directory
    # holds its name) exits 2 with one error line naming --out, the file and the OS message
    (tmp_path / name).mkdir()
    if name == "empty_selection.csv":
        def empty(**kw):
            raise postselect.EmptySelectionError("no surviving samples")

        _, reads = cli.EXPERIMENTS["budget"]
        monkeypatch.setitem(cli.EXPERIMENTS, "budget", (empty, reads))
    assert cli.main(["budget", "--out", str(tmp_path)]) == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    line = err.splitlines()[-1]
    assert line.startswith(f"error: --out {str(tmp_path)!r}") and repr(name) in line
    assert os.strerror(errno.EISDIR) in line and "Traceback" not in err
    assert (tmp_path / name).is_dir() and not (tmp_path / "manifest.json").is_file()


def test_unknown_config_keys_warn_before_the_run(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"varience": 1.0, "shot": 5}))
    assert cli.main(["budget", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert read_rows(tmp_path / "budget.csv")[0]["shots"] == "188000"
    err = capsys.readouterr().err
    assert "'varience'" in err and "'shot'" in err
    # the warning comes before the run, so a run that then fails still names the keys
    path.write_text(json.dumps({"varience": 1.0, "shot": 5, "target_sem": -1.0, "theta": 0.1}))
    assert cli.main(["budget", "--config", str(path), "--out", str(tmp_path)]) == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "'varience'" in err and "'shot'" in err and "'theta'" not in err.split("error:")[0]



@pytest.mark.parametrize(
    "cfg, path",
    [
        ({"noise": {"kind": "depolarizing", "p_2": 0.05}, "points": 5}, "noise.p_2"),
        ({"hamiltonian": dict(H2_COEFFS, g5=1.0), "points": 5}, "hamiltonian.g5"),
    ],
)
def test_unknown_nested_config_keys_warn_before_the_run(tmp_path, monkeypatch, capsys, cfg, path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    warning = f"warning: config key {path!r} is not read by 'scan'; ignored"
    assert cli.main(["scan", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert warning in capsys.readouterr().err

    def broken(*args, **kwargs):
        raise RuntimeError("simulation started")

    # the warning comes before any simulation work
    monkeypatch.setattr(cli.sim, "evolve_density", broken)
    monkeypatch.setattr(cli.sim, "evolve_densities", broken)
    assert cli.main(["scan", "--config", str(config), "--out", str(tmp_path)]) == cli.EXIT_INTERNAL
    assert warning in capsys.readouterr().err.split("Traceback")[0]


def test_device_noise_spec_keeps_its_data_sheet_warning(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"noise": {"kind": "device", "p_2": 0.05}, "points": 2}))
    with pytest.warns(UserWarning, match="'p_2'"):
        assert cli.main(["scan", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert "noise.p_2" not in capsys.readouterr().err


def _loaded_names(code):
    """Every local, cell or global name the code (nested functions included) loads."""
    for ins in dis.get_instructions(code):
        if ins.opname.startswith("LOAD") and ins.opname != "LOAD_CONST":
            yield from ins.argval if isinstance(ins.argval, tuple) else (ins.argval,)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _loaded_names(const)


def test_declared_config_keys_are_the_keys_read():
    """Each runner takes and reads exactly the keys its EXPERIMENTS entry
    declares, and each converter of a nested object reads exactly the nested
    keys declared beside it."""
    for experiment, (runner, keys) in cli.EXPERIMENTS.items():
        params = inspect.signature(runner).parameters
        assert set(params) == set(keys), experiment
        assert all(p.default is inspect.Parameter.empty for p in params.values()), experiment
        assert set(params) <= set(_loaded_names(runner.__code__)), experiment
        # the keys every run accepts are declared once
        assert keys.get("seed", cli.SEED) is cli.SEED and keys.get("theta", cli.THETA) is cli.THETA

    class Recorder(dict):
        def __init__(self, *args):
            super().__init__(*args)
            self.read = set()

        def get(self, key, default=None):
            self.read.add(key)
            return super().get(key, default)

        def __getitem__(self, key):
            self.read.add(key)
            return super().__getitem__(key)

        def __contains__(self, key):
            self.read.add(key)
            return super().__contains__(key)

    depolarizing = {"kind": "depolarizing", "p2": 0.01, "p1": 0.001}
    for convert, spec in ((cli._noise_model, depolarizing), (cli._hamiltonian, H2_COEFFS)):
        nested = Recorder(spec)
        convert(nested)
        assert nested.read == set(convert.nested), convert.__name__


@pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"])
def test_unreadable_config_file_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["budget", "--config", str(path), "--out", str(tmp_path)]) == cli.EXIT_BAD_CONFIG
    assert "cfg.json" in capsys.readouterr().err


def test_internal_error_is_not_reported_as_config_error(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("sampler bug")

    monkeypatch.setattr(cli.sim, "sample_shots", broken)
    assert cli.main(["table2", "--shots", "10", "--out", str(tmp_path)]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and "sampler bug" in err
    assert "invalid config" not in err


def test_hqc_experiment_counts(tmp_path):
    cli.main(["hqc", "--out", str(tmp_path), "--shots", "125400"])
    rows = {r["circuit"]: r for r in read_rows(tmp_path / "hqc.csv")}
    enc = rows["encoded/Z"]
    assert (enc["n_1q"], enc["n_2q"], enc["n_meas"]) == ("3", "7", "6")
    want = estimate.hqc_cost(estimate.ResourceCount(3, 7, 6, 125400))
    assert float(enc["hqc_credits"]) == pytest.approx(want)


def test_scan_matches_closed_form_and_reports_argmin(tmp_path):
    rc = cli.main(["scan", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_rows(tmp_path / "scan.csv")
    assert len(rows) == 150
    ham = estimate.default_h2()
    for row in rows:
        assert float(row["mean_Ha"]) == pytest.approx(
            ham.closed_form_energy(float(row["theta_rad"])), abs=1e-9
        )
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    grid = np.linspace(-math.pi, math.pi, 150)
    assert manifest["theta_min"] == pytest.approx(
        grid[np.argmin(np.abs(grid - estimate.THETA_STAR))], abs=1e-12
    )


def density_at(basis, theta):
    """rho(theta) from the scan's three basis matrices and their weights at theta."""
    return qcore.DensityMatrix(basis[0].n_qubits, sum(w * rho.mat for w, rho in zip(cli._theta_weights(theta), basis)))


@settings(max_examples=30, deadline=None)
@given(
    theta=st.floats(-4 * math.pi, 4 * math.pi),
    encoded=st.booleans(),
    model=st.one_of(
        st.floats(0.0, 0.2).map(lambda p2: noise.DepolarizingParams(p2=p2)),
        st.just(noise.default_device_model()),
    ),
)
def test_scan_state_from_three_evolutions_equals_the_evolved_state(theta, encoded, model):
    # theta enters through one RY or RZ, so rho(theta) is trigonometric in theta/2
    build = builders.build_encoded_ansatz if encoded else builders.build_unencoded_ansatz
    want = sim.evolve_density(noise.attach_noise(build(theta, "Z"), model)).mat
    assert np.max(np.abs(density_at(cli._theta_basis(build, model), theta).mat - want)) <= 1e-12


@pytest.mark.parametrize("encoded", [False, True], ids=["unencoded", "encoded"])
@pytest.mark.parametrize(
    "model", [noise.DepolarizingParams(p2=0.03), noise.default_device_model()], ids=["depolarizing", "device"]
)
def test_closed_form_scan_rows_equal_the_per_theta_oracle(encoded, model):
    # the oracle builds each theta's state, projects it to a2 = 0 (encoded) and takes its traces
    ham = estimate.default_h2()
    mode = estimate.MODE_ENCODED if encoded else estimate.MODE_UNENCODED
    build = builders.build_encoded_ansatz if encoded else builders.build_unencoded_ansatz
    basis = cli._theta_basis(build, model)
    files, extra, _ = cli.exp_scan(ham, model, 25, encoded, 4)
    rows = files["scan.csv"][1]
    assert len(rows) == 25
    for theta, mean, sem, var, eta_z, eta_x, seed in rows:
        rho = density_at(basis, theta)
        if encoded:
            rho = analysis.project_qubit(rho, 5, 0)
        want_var = sum(
            g * g * max(0.0, 1.0 - qcore.expectation(rho, qcore.pauli_word(w)) ** 2)
            for g, w in zip(ham.coeffs[1:], estimate.WORDS[mode][1:])
        )
        assert abs(mean - qcore.expectation(rho, ham.observable(mode))) <= 1e-12
        assert abs(var - want_var) <= 1e-12
        assert (sem, eta_z, eta_x, seed) == (0.0, 1.0, 1.0, 4)
    assert extra["theta_min"] == min(rows, key=lambda r: (r[1], abs(r[0])))[0]


def test_closed_form_scan_rejects_a_theta_with_no_a2_branch(monkeypatch):
    # each theta checks its own a2 = 0 weight, as project_qubit would
    monkeypatch.setattr(cli, "_theta_basis", lambda build, model: [qcore.DensityMatrix(6, np.zeros((64, 64)))] * 3)
    with pytest.raises(ValueError, match="vanishing support"):
        cli.exp_scan(estimate.default_h2(), noise.DepolarizingParams(p2=0.01), 5, True, 0)


def test_analysis_and_stateprep_grid_rows_equal_one_point_runs():
    # 6 points cross the 6-qubit stack of two, and a p2 of 0 attaches no channel,
    # so the grid is evolved as runs of one layout
    grid = [0.001, 0.0, 0.02, 0.05, 0.0, 0.1]
    theta = estimate.THETA_STAR
    rows = list(cli._analysis_rows(grid, theta, 3))
    prep = cli.exp_stateprep(grid, 3)[0]["stateprep.csv"][1]
    for p2, row, prep_row in zip(grid, rows, prep, strict=True):
        assert [v.hex() if isinstance(v, float) else v for v in row] == [
            v.hex() if isinstance(v, float) else v for v in next(cli._analysis_rows([p2], theta, 3))
        ]
        (want,) = cli.exp_stateprep([p2], 3)[0]["stateprep.csv"][1]
        assert [float(v).hex() for v in prep_row] == [float(v).hex() for v in want]


def test_an_empty_grid_writes_its_header_alone(tmp_path):
    # nothing is attached or evolved, and each grid experiment still exits 0 with its CSV
    assert list(cli._evolve_grid(builders.build_encoded_ansatz(0.3, "Z"), [])) == []
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"p2_grid": []}))
    for exp, name in (("fidelity-sweep", "fidelity_sweep"), ("logical-error", "logical_error"), ("stateprep", "stateprep")):
        assert cli.main([exp, "--config", str(cfg), "--out", str(tmp_path / exp)]) == cli.EXIT_OK
        assert len((tmp_path / exp / f"{name}.csv").read_text().splitlines()) == 1


def _ansatz_with(*gates):
    """An ansatz whose Z-basis circuit is the gates theta -> ops, then a read of both qubits."""
    def build(theta, basis):
        ops = [op for gate in gates for op in gate(theta)] + [qcore.measure(0), qcore.measure(1)]
        return qcore.Circuit(2, ops, (qcore.ROLE_DATA,) * 2)

    return build


@pytest.mark.parametrize("build", [
    _ansatz_with(lambda t: [qcore.ry(t, 0)], lambda t: [qcore.rz(t, 1)]),  # two ops move
    _ansatz_with(lambda t: [qcore.h(0) if t == 0.0 else qcore.x(0)]),  # the moved op is not RY/RZ
    _ansatz_with(lambda t: [qcore.ry(t, 0) if t == 0.0 else qcore.rz(t, 0)]),  # its kind changes
    _ansatz_with(lambda t: [qcore.ry(2 * t, 0)]),  # its angle is 2 theta
    _ansatz_with(lambda t: [qcore.h(0)] * (1 + (t > 0))),  # an op is added
    _ansatz_with(lambda t: [qcore.h(0)]),  # no op moves
])
def test_scan_checks_that_theta_is_one_rotation_angle(build, tmp_path, monkeypatch, capsys):
    with pytest.raises(ValueError, match="exactly one RY or RZ"):
        cli._theta_basis(build, noise.DepolarizingParams(p2=0.01))
    # an ansatz that breaks the premise is a fault of the program, not of the config
    monkeypatch.setattr(cli.builders, "build_unencoded_ansatz", build)
    assert cli.main(["scan", "--out", str(tmp_path)]) == cli.EXIT_INTERNAL
    assert "invalid config" not in capsys.readouterr().err


def test_table2_evolves_each_circuit_once(monkeypatch):
    # the encoded Z-basis state is evolved once and projected by every strategy,
    # so a run evolves two circuits, not one per density row
    evolve, calls = sim.evolve_density, []
    monkeypatch.setattr(sim, "evolve_density", lambda noisy: calls.append(noisy) or evolve(noisy))
    ham, model, theta = estimate.default_h2(), noise.DepolarizingParams(p2=0.0009), estimate.THETA_STAR
    strategies = ("NONE", "PSA", "PSP", "PSAP")
    files, _, _ = cli.exp_table2(ham, model, 100, strategies, 0, theta)
    assert len(calls) == 2
    monkeypatch.setattr(sim, "evolve_density", evolve)
    density = {label: value for label, value, _ in files["table2_density.csv"][1]}
    rho = cli._evolve(builders.build_encoded_ansatz(theta, "Z"), model)
    for kind in strategies:
        want = 1e3 * cli._projected_energy(ham, rho, kind)
        assert density[f"density/{kind}"].hex() == want.hex()


def test_table2_determinism_and_manifest_rerun(tmp_path):
    cfg = {"shots": 2000, "seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    assert cli.main(["table2", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["table2", "--config", str(cfg_path), "--out", str(out2)]) == 0
    for name in ("table2.csv", "table2_density.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # a manifest is a valid --config carrier and reproduces the same bytes
    assert cli.main(["table2", "--config", str(out1 / "manifest.json"), "--out", str(out3)]) == 0
    assert (out1 / "table2.csv").read_bytes() == (out3 / "table2.csv").read_bytes()


def test_table2_rows_and_eta_columns(tmp_path):
    cli.main(["table2", "--out", str(tmp_path), "--shots", "3000", "--seed", "1"])
    rows = read_rows(tmp_path / "table2.csv")
    assert [r["label"] for r in rows] == [
        "unencoded", "encoded/NONE", "encoded/PSA", "encoded/PSP", "encoded/PSAP"
    ]
    for r in rows:
        assert 0.0 <= float(r["eta_Z"]) <= 1.0
        assert r["seed"] == "1"
    density = read_rows(tmp_path / "table2_density.csv")
    assert [r["label"] for r in density] == [
        "density/unencoded", "density/NONE", "density/PSA", "density/PSP", "density/PSAP"
    ]


def test_empty_selection_exit_code(tmp_path):
    # with a single shot, some seed leaves the a2=0 branch empty
    for seed in range(60):
        out = tmp_path / f"s{seed}"
        rc = cli.main(["table2", "--out", str(out), "--shots", "1", "--seed", str(seed)])
        if rc == cli.EXIT_EMPTY_SELECTION:
            rows = read_rows(out / "empty_selection.csv")
            assert rows[0]["eta"] == "0.0"
            return
    pytest.fail("no seed produced an empty post-selection")


def test_sweep_depol_rows(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p2_grid": [0.001, 0.01], "shots": 1500, "seed": 3}))
    assert cli.main(["sweep-depol", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "sweep_depol.csv")
    assert len(rows) == 2 * 5
    assert [r["p2"] for r in rows] == ["0.001"] * 5 + ["0.01"] * 5


def test_stateprep_schema_and_ordering_across_grid(tmp_path):
    cli.main(["stateprep", "--out", str(tmp_path)])
    rows = read_rows(tmp_path / "stateprep.csv")
    assert set(rows[0]) == {"p2", "F_prep", "F_S_A", "F_S_P", "F_S_AP", "seed"}
    for row in rows:  # default grid spans 0.1% .. 10%
        assert float(row["F_S_AP"]) >= float(row["F_S_P"]) >= float(row["F_S_A"])


def test_parity_projection_crossover_endpoints(tmp_path):
    # F_P beats the unencoded fidelity at low noise and loses well above the
    # few-percent crossover
    cli.main(["fidelity-sweep", "--out", str(tmp_path)])
    rows = {float(r["p2"]): r for r in read_rows(tmp_path / "fidelity_sweep.csv")}
    for p2 in (0.001, 0.005, 0.01):
        assert float(rows[p2]["F_P"]) >= float(rows[p2]["F_unenc"])
    assert any(
        float(rows[p2]["F_P"]) < float(rows[p2]["F_unenc"]) for p2 in (0.05, 0.10)
    )


def test_fidelity_and_logical_share_schema(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p2_grid": [0.005]}))
    cli.main(["fidelity-sweep", "--config", str(cfg), "--out", str(tmp_path)])
    cli.main(["logical-error", "--config", str(cfg), "--out", str(tmp_path)])
    frow = read_rows(tmp_path / "fidelity_sweep.csv")[0]
    lrow = read_rows(tmp_path / "logical_error.csv")[0]
    assert set(frow) == set(lrow) == set(cli.ANALYSIS_HEADER)
    assert frow == lrow


def test_red_pipeline_rows(tmp_path):
    cli.main(["red-pipeline", "--out", str(tmp_path), "--shots", "800", "--seed", "2"])
    rows = read_rows(tmp_path / "red_pipeline.csv")
    assert [r["label"] for r in rows] == [
        "unencoded", "encoded/PSAP", "unencoded+red", "encoded+red/PSAP"
    ]
    for r in rows:
        # kept Z shots over the 800 raw Z shots, through every filter
        assert float(r["eta_overall_Z"]) * 800 == pytest.approx(int(r["n_Z"]), abs=1e-9)


def test_manifest_records_gate_counts(tmp_path, monkeypatch):
    cli.main(["budget", "--out", str(tmp_path)])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["gate_counts"]["encoded/Z"] == {"n_1q": 3, "n_2q": 7, "n_meas": 6}
    assert manifest["gate_counts"]["encoded+red/Z"]["n_2q"] == 19
    assert manifest["version"] == "0.1.0"
    # the counts are built once per theta and do not depend on it
    for theta in (0.0, 1.0, math.pi, -2.0):
        assert cli._gate_counts(theta) == manifest["gate_counts"]
    # a manifest changed by whoever it is handed to leaves the next run's manifest as it was
    dump = json.dump

    def dump_then_mutate(obj, fh, **kwargs):
        dump(obj, fh, **kwargs)
        obj["gate_counts"]["encoded/Z"]["n_1q"] = -1
        obj["gate_counts"].clear()

    monkeypatch.setattr(cli.json, "dump", dump_then_mutate)
    for out in ("a", "b"):
        cli.main(["budget", "--out", str(tmp_path / out)])
        assert json.loads((tmp_path / out / "manifest.json").read_text())["gate_counts"] == manifest["gate_counts"]


def test_module_entry_point_runs_without_runpy_warning(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qedvqe.cli", "budget", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_sampled_run_never_imports_numpy_random(tmp_path):
    # the sampler owns its random words (sim._stream): a sampled run in a fresh
    # process leaves numpy.random, about 6 MB and 12 ms of import, unloaded
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    script = (
        "import sys\n"
        "from qedvqe import cli\n"
        "assert cli.run({'experiment': 'table2', 'shots': 200, 'seed': 1}, sys.argv[1]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"  # after the table cli.run prints
    assert (tmp_path / "table2.csv").exists()


def test_fresh_import_leaves_parser_logging_and_traceback_unloaded(tmp_path):
    # argparse loads in main, traceback on the error path, and logging never: a run
    # in a fresh process (pytest itself has all three loaded) imports none of them,
    # even when a crosstalk note is due, and still prints a traceback on a bug
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    script = (
        "import sys\n"
        "from qedvqe import builders, cli, estimate, noise\n"
        "noise.attach_noise(builders.build_encoded_ansatz(estimate.THETA_STAR, 'Z'), noise.default_device_model())\n"
        "loaded = {'argparse', 'logging', 'traceback'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
        "def broken(*args, **kwargs):\n"
        "    raise ValueError('sampler bug')\n"
        "cli.sim.sample_shots = broken\n"
        "assert cli.run({'experiment': 'table2', 'shots': 10}, sys.argv[1]) == cli.EXIT_INTERNAL\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" in proc.stderr and "sampler bug" in proc.stderr


def red_pipeline_limits(theta=estimate.THETA_STAR):
    """Exact limits of the red-pipeline rows, from the chain of acceptance
    criterion 10: evolve_density -> the vote kernel (or, without readout
    encoding, the readout flips) -> a2 = 0 -> PSAP -> energy_from_distributions.
    Returns {label: (energy in mHa, eta_overall_Z)}."""
    model = noise.default_device_model()
    kernel = sim.red_vote_kernel_for(model)
    out = {}
    for mode, build in (("unencoded", builders.build_unencoded_ansatz), ("encoded", builders.build_encoded_ansatz)):
        layout = sim.MeasurementLayout.of(build(theta, "Z"))
        for red in (False, True):
            dists, etas = {}, {}
            for basis in "ZX":
                rho = sim.evolve_density(noise.attach_noise(build(theta, basis), model))
                if red:
                    probs, etas[basis] = sim.red_vote_distribution(sim.born_distribution(rho), kernel)
                else:
                    probs, etas[basis] = sim.born_distribution(rho, model.readout), 1.0
                if mode == "encoded":
                    probs, w_a2 = postselect.select_a2_probs(probs, layout, 0)
                    probs, eta_ps = postselect.apply_strategy_probs(probs, layout, postselect.Strategy("PSAP"))
                    etas[basis] *= w_a2 * eta_ps
                dists[basis] = probs
            est = estimate.energy_from_distributions(dists["Z"], dists["X"], layout, estimate.default_h2(), mode)
            label = mode + ("+red" if red else "") + ("/PSAP" if mode == "encoded" else "")
            out[label] = (1e3 * est.mean, etas["Z"])
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_red_pipeline_agrees_with_the_exact_chain(tmp_path, seed):
    shots = 20000
    assert cli.main(["red-pipeline", "--out", str(tmp_path), "--shots", str(shots), "--seed", str(seed)]) == 0
    limits = red_pipeline_limits()
    rows = read_rows(tmp_path / "red_pipeline.csv")
    assert sorted(r["label"] for r in rows) == sorted(limits)
    for r in rows:
        energy, eta = limits[r["label"]]
        assert abs(float(r["energy_mHa"]) - energy) <= 5 * float(r["sem_mHa"]), r["label"]
        sigma = math.sqrt(eta * (1 - eta) / shots)
        assert abs(float(r["eta_overall_Z"]) - eta) <= 4 * sigma + 1e-12, r["label"]


@pytest.mark.parametrize("red", [False, True])
def test_exact_rows_match_the_hand_written_chain(red):
    """The exact side of the study-row pipeline against red_pipeline_limits."""
    model, ham, theta = noise.default_device_model(), estimate.default_h2(), estimate.THETA_STAR
    limits = red_pipeline_limits()
    rows = cli._study_rows(ham, model, theta, ["PSAP"], red)
    assert len(rows) == 2
    for label, est, _, eta_overall in rows:
        energy, eta = limits[label]
        assert abs(est.mean - energy / 1e3) <= 1e-12, label  # energy is in mHa
        assert abs(eta_overall - eta) <= 1e-12, label


def test_exact_rows_report_no_sampling_error():
    """Exact rows hold probabilities, not shots, so the estimator itself
    gives them SEM 0 and n_used 0."""
    ham, model, theta = estimate.default_h2(), noise.DepolarizingParams(p2=9e-4), estimate.THETA_STAR
    for red in (False, True):
        rows = cli._study_rows(ham, model, theta, ("NONE", "PSA", "PSP", "PSAP"), red)
        for label, est, _, _ in rows:
            assert est.sem == 0.0 and est.n_used == {"Z": 0, "X": 0}, label
    # a distribution whose weights are whole numbers is still one of probabilities
    layout = sim.MeasurementLayout((0, 1), (qcore.ROLE_DATA,) * 2)
    est = estimate.energy_from_distributions({"00": 1}, {"00": 1}, layout, ham)
    assert est.sem == 0.0 and est.n_used == {"Z": 0, "X": 0}


def test_study_rows_carry_outcomes_as_weight_vectors(monkeypatch):
    """From the read to the estimate, no row builds or parses a bitstring map."""

    def refuse(*args):
        pytest.fail("the study pipeline went through a bitstring map")

    monkeypatch.setattr(sim, "_outcomes", refuse)
    monkeypatch.setattr(sim, "_vector", refuse)
    ham, model, theta = estimate.default_h2(), noise.default_device_model(), estimate.THETA_STAR
    for shots in (None, 500):
        for red in (False, True):
            cli._study_rows(ham, model, theta, ("NONE", "PSA", "PSP", "PSAP"), red, shots)


def test_a_red_study_builds_its_vote_kernel_once(monkeypatch):
    """One vote kernel serves both ansatze of a readout-encoded study."""
    kernel_for, calls = sim.red_vote_kernel_for, []
    monkeypatch.setattr(sim, "red_vote_kernel_for", lambda model: calls.append(model) or kernel_for(model))
    ham, model, theta = estimate.default_h2(), noise.default_device_model(), estimate.THETA_STAR
    cli.exp_red_pipeline(ham, model, 200, 0, theta)
    assert len(calls) == 1  # the red=False study builds none
    calls.clear()
    cli._study_rows(ham, model, theta, ("NONE", "PSA", "PSP", "PSAP"), red=True, shots=None)
    assert len(calls) == 1


@pytest.mark.parametrize("config, tags", [
    ({"experiment": "table2"}, ["unencoded/Z", "unencoded/X", "encoded/Z", "encoded/X"]),
    ({"experiment": "sweep-depol", "p2_grid": [0.01, 0.05]}, [
        "p2=0.01/unenc/Z", "p2=0.01/unenc/X", "p2=0.01/enc/Z", "p2=0.01/enc/X",
        "p2=0.05/unenc/Z", "p2=0.05/unenc/X", "p2=0.05/enc/Z", "p2=0.05/enc/X",
    ]),
    ({"experiment": "red-pipeline"}, [
        "unenc/red=False/Z", "unenc/red=False/X", "encoded/Z", "encoded/X",
        "unenc/red=True/Z", "unenc/red=True/X", "encoded+red/Z", "encoded+red/X",
    ]),
], ids=["table2", "sweep-depol", "red-pipeline"])
def test_each_sampled_circuit_keeps_its_sub_seed(tmp_path, monkeypatch, config, tags):
    """Every sampled CSV's bytes hang on these tags: a renamed one moves them."""
    sample, seeds = sim.sample_shots_batched, []
    monkeypatch.setattr(sim, "sample_shots_batched", lambda noisy, cfg: seeds.append(cfg.seed) or sample(noisy, cfg))
    assert cli.run(dict(config, seed=0, shots=100), tmp_path) == cli.EXIT_OK
    assert seeds == [cli._sub_seed(0, tag) for tag in tags]


@pytest.mark.parametrize("encoded", [False, True])
def test_lossy_read_keeps_the_vote_survival(encoded):
    """Reading the Born vector through the vote kernel keeps the weight that
    red_vote_distribution reports as the vote's survival."""
    model = noise.default_device_model()
    kernel = sim.red_vote_kernel_for(model)
    build = builders.build_encoded_ansatz if encoded else builders.build_unencoded_ansatz
    for basis in "ZX":
        nc = noise.attach_noise(build(estimate.THETA_STAR, basis), model)
        table, raw = sim.shot_limit_table(dataclasses.replace(nc, readout=kernel))
        _, eta = sim.red_vote_distribution(sim.born_distribution(sim.evolve_density(nc)), kernel)
        assert eta < 0.999  # the kernel is lossy
        assert abs(table.n_shots - eta) <= 1e-15
        assert abs(raw - 1.0) <= 1e-10
