import csv
import io
import json
import math
import shutil
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eulerlab import acceptance, cli, conditions, relentropy, solver
from eulerlab.cli import main
from eulerlab.grid import (
    PeriodicGrid,
    ScalarField,
    save_scalar_field,
    weierstrass_field,
    write_columns_csv,
)
from eulerlab.thermo import GasParams


def _read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert "eulerlab=" in lines[0]
    return lines


class TestDispatch:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--does-not-exist"])
        assert exc.value.code == 2

    def test_missing_required_input_exits_2(self, tmp_path, capsys):
        code = main(["besov-fit", "--out", str(tmp_path)])
        assert code == 2
        assert "field" in capsys.readouterr().err

    def test_seed_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify-thermo", "--seed", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,flag", [
        (command, flag)
        for command, flags in {
            "besov-fit": ("--config", "--grid-n", "--gamma"),
            "commutator-rate": ("--grid-n",),
            "relentropy": ("--config", "--grid-n", "--gamma"),
            "oslip-check": ("--config", "--grid-n", "--gamma"),
            "verify-thermo": ("--config", "--grid-n"),
            "accept": ("--config", "--grid-n", "--gamma"),
        }.items()
        for flag in flags
    ])
    def test_flag_the_subcommand_does_not_read_exits_2(self, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("gamma", ["0", "-1", "1", "nan"])
    def test_rejected_gamma_exits_2_on_every_subcommand(self, tmp_path, capsys, gamma):
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"grid_n": 16, "t_end": 0.02}))
        probe = tmp_path / "probe.json"
        probe.write_text(json.dumps({
            "fields": [{"weierstrass": {"alpha": 0.6, "levels": 8, "grid_n": 256}}],
            "G": "pressure_tilde", "eps": [0.5, 0.25, 0.125, 0.0625]}))
        for argv in (["simulate", "--config", str(sim)],
                     ["commutator-rate", "--config", str(probe)], ["verify-thermo"]):
            out = tmp_path / argv[0]
            assert main(argv + ["--gamma", gamma, "--out", str(out)]) == 2
            assert "adiabatic index must be > 1" in capsys.readouterr().err
            assert not out.exists() or not any(out.iterdir())

    def test_malformed_config_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_end": "soon"}))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "t_end" in capsys.readouterr().err

    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    @pytest.mark.parametrize("command", ["simulate", "besov-fit", "commutator-rate",
                                         "relentropy", "oslip-check", "verify-thermo",
                                         "accept"])
    def test_out_that_is_or_lies_under_a_file_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, under):
        traj = _simulate(tmp_path, "traj", grid_n=16, t_end=0.1, snapshot_stride=0.05)
        field = tmp_path / "field.csv"
        save_scalar_field(field, weierstrass_field(0.6, 8, PeriodicGrid(1, 256)))
        probe = tmp_path / "probe.json"
        probe.write_text(json.dumps({**_VALID_PROBE, "eps": [0.25, 0.125]}))
        inputs = {"simulate": ["--config", str(tmp_path / "traj.json")],
                  "besov-fit": ["--field", str(field)],
                  "commutator-rate": ["--config", str(probe)],
                  "relentropy": ["--traj-a", str(traj), "--traj-b", str(traj)],
                  "oslip-check": ["--traj", str(traj)]}.get(command, [])

        def worked(*args, **kwargs):
            raise AssertionError("the subcommand ran before its --out was checked")

        monkeypatch.setattr(cli, "run", worked)
        monkeypatch.setattr(acceptance, "run_all", worked)
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        before = sorted(tmp_path.rglob("*"))
        out = blocker / "sub" / "dir" if under else blocker
        assert main([command, *inputs, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--out {out}: {blocker} is not a directory" in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before and blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("command,taken", [
        ("simulate", "t_0000.csv"), ("simulate", "t_0001.npy"), ("simulate", "meta.json"),
        ("verify-thermo", "thermo_report.csv"), ("accept", "acceptance_metrics.json"),
    ])
    def test_output_that_cannot_be_written_exits_2(self, tmp_path, capsys, monkeypatch,
                                                   command, taken):
        # a directory in the way of an output file makes its write fail
        monkeypatch.setattr(acceptance, "GATES", [acceptance.gate_thermo_identities])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_n": 16, "t_end": 0.1, "snapshot_stride": 0.05}))
        out = tmp_path / "out"
        (out / taken).mkdir(parents=True)
        argv = ["--config", str(cfg)] if command == "simulate" else []
        assert main([command, *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot write to --out {out}" in err and taken in err
        assert "Traceback" not in err

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # a grid too large for the host fails where numpy allocates it
        def run(config):
            raise MemoryError("Unable to allocate 2.98 GiB for an array with shape "
                              "(20000, 20000) and data type float64")

        monkeypatch.setattr(cli, "run", run)
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"dims": 2, "init": {"name": "sod"}, "t_end": 0.1}))
        argv = ["simulate", "--config", str(cfg), "--grid-n", "20000", "--out",
                str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == ("error: not enough memory for this input: Unable to allocate 2.98 GiB "
                       "for an array with shape (20000, 20000) and data type float64\n")
        assert "Traceback" not in err


class TestSimulate:
    def test_writes_trajectory(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"grid_n": 64, "t_end": 0.05, "init": {"name": "sod"},
             "snapshot_stride": 0.025}
        ))
        out = tmp_path / "traj"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "meta.json").exists()
        assert (out / "t_0000.csv").exists()
        first = (out / "t_0000.csv").read_text().splitlines()[0]
        assert first.startswith("# config_hash=")

    def test_grid_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_end": 0.02, "init": {"name": "smooth"}}))
        out = tmp_path / "traj"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--grid-n", "32"]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["grid"]["cells_per_dim"] == 32

    def test_grid_n_zero_is_rejected_not_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_n": 16, "t_end": 0.02}))
        assert main(["simulate", "--config", str(cfg), "--grid-n", "0",
                     "--out", str(tmp_path / "o")]) == 2
        assert "cells per dimension, got 0" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"grid_n": 64, "t_end": 0.05, "init": {"name": "sod"},
             "snapshot_stride": 0.05}
        ))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "t_0001.csv").read_bytes() == (out2 / "t_0001.csv").read_bytes()

    def test_a_coarser_rerun_into_one_directory_leaves_no_stale_snapshot(self, tmp_path):
        out = tmp_path / "traj"
        for name, stride in (("fine", 0.01), ("coarse", 0.05)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"grid_n": 16, "t_end": 0.1, "init": {"name": "sod"},
                                       "snapshot_stride": stride}))
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(f.name for f in out.glob("t_*")) == [
            f"t_{i:04d}.{ext}" for i in range(3) for ext in ("csv", "npy")]
        assert main(["oslip-check", "--traj", str(out), "--out", str(tmp_path / "rep")]) == 0


class TestReports:
    def test_besov_fit_report(self, tmp_path):
        grid = PeriodicGrid(1, 512)
        field = weierstrass_field(0.6, 9, grid)
        fpath = tmp_path / "field.csv"
        save_scalar_field(fpath, field)
        out = tmp_path / "rep"
        assert main(["besov-fit", "--field", str(fpath), "--out", str(out)]) == 0
        lines = _read_rows(out / "besov_report.csv")
        assert lines[1] == "quantity,beta_or_eps,value,slope,residual"
        assert any(line.startswith("fitted_alpha") for line in lines)

    def test_commutator_rate_report(self, tmp_path):
        cfg = tmp_path / "probe.json"
        cfg.write_text(json.dumps({
            "fields": [{"weierstrass": {"alpha": 0.6, "levels": 11, "grid_n": 2048}}],
            "G": "square",
            "p": 4.0,
            "eps": [2.0 ** (-k) for k in range(4, 10)],
        }))
        out = tmp_path / "rep"
        code = main(["commutator-rate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = _read_rows(out / "commutator_rate.csv")
        assert lines[1] == "eps,norm,bound,pass"

    def test_accept_writes_report(self, tmp_path, capsys, monkeypatch):
        from eulerlab import acceptance

        monkeypatch.setattr(acceptance, "GATES",
                            [acceptance.gate_thermo_identities])
        assert main(["accept", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[PASS] thermo-identities" in out
        lines = _read_rows(tmp_path / "acceptance.csv")
        assert lines[1] == "gate,passed,details"
        text = (tmp_path / "acceptance_metrics.json").read_text()
        gates = json.loads(text)
        assert text == json.dumps(gates, indent=1, sort_keys=True) + "\n"
        entry = gates["thermo-identities"]
        assert sorted(entry) == ["elapsed", "metrics"] and entry["elapsed"] > 0.0
        # the timing is kept out of the metrics, which reruns reproduce bit for bit
        assert entry["metrics"] == acceptance.gate_thermo_identities().metrics
        assert "elapsed" not in entry["metrics"]

    def test_acceptance_csv_reads_back_each_gates_details(self, tmp_path, monkeypatch):
        # the fields were joined with bare commas: a details clause with a
        # comma split into more fields than the header's three
        ran, real = [], acceptance.run_all
        monkeypatch.setattr(acceptance, "run_all", lambda echo: ran.extend(real(echo)) or ran)
        assert main(["accept", "--out", str(tmp_path)]) == 0
        assert any("," in r.details for r in ran)
        with open(tmp_path / "acceptance.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [["gate", "passed", "details"], *([r.name, "true", r.details]
                                                          for r in ran)]

    def test_relentropy_trace_holds_the_budget_that_decides_pass(self, tmp_path):
        base = {"dims": 2, "t_end": 0.1, "snapshot_stride": 0.025, "init": {"name": "sod"}}
        pair = [_simulate(tmp_path, name, grid_n=cells, **base)
                for name, cells in (("a", 32), ("b", 128))]
        out = tmp_path / "rep"
        assert main(["relentropy", "--traj-a", str(pair[0]), "--traj-b", str(pair[1]),
                     "--sigma", "0.025", "--out", str(out)]) in (0, 1)
        with open(out / "relentropy_trace.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert len(rows) == 4
        fitted = 0
        for row in rows:
            oslip, k_thermo, budget, rate = (float(row[name]) for name in
                                             ("oslip_C", "k_thermo", "budget", "fitted_K"))
            assert budget.hex() == (max(oslip, 0.0) + k_thermo).hex()
            if not math.isnan(rate):   # NaN: the first row, or a skipped interval
                fitted += 1
                assert row["pass"] == str(rate <= budget).lower()
        assert fitted == 3

    def test_accept_fails_when_a_gate_fails(self, tmp_path, monkeypatch):
        from eulerlab import acceptance

        def broken():
            return acceptance.GateResult("broken", False, "synthetic failure")

        monkeypatch.setattr(acceptance, "GATES", [broken])
        assert main(["accept"]) == 1

    def test_verify_thermo_passes(self, tmp_path, capsys):
        assert main(["verify-thermo", "--gamma", "2.0", "--out", str(tmp_path)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert (tmp_path / "thermo_report.csv").exists()

    @pytest.mark.parametrize("gamma,code", [("89", 0), ("90", 2), ("500", 2)])
    def test_verify_thermo_overflow_is_a_usage_error(self, tmp_path, capsys, gamma, code):
        # at gamma 90 exp((gamma - 1) S / rho) overflows at S / rho = 8: the
        # Hessian held inf and nan, and the gate reported non-convexity
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify-thermo", "--gamma", gamma, "--out", str(tmp_path)]) == code
        out, err = capsys.readouterr()
        assert "FAIL" not in out and "Traceback" not in err
        assert ("pressure derivatives overflow" in err) == (code == 2)

    @pytest.mark.parametrize("gamma,code", [("1.0000000001", 2), ("1.00001", 0)])
    def test_verify_thermo_refuses_gamma_within_1e_5_of_1(self, tmp_path, capsys, gamma,
                                                          code):
        # at c_V = 1e10 the closed-form residual is rounding of terms of size
        # c_V, 7.63e-6 against 1e-10: the identities gate FAILed (exit 1)
        assert main(["verify-thermo", "--gamma", gamma, "--out", str(tmp_path)]) == code
        out, err = capsys.readouterr()
        if code:
            assert "needs gamma - 1 >= 1e-5, got gamma = 1.0000000001" in err and not out
        else:
            assert out.count("[PASS]") == 2 and not err

    def test_verify_thermo_rows_are_the_gate_metrics(self, tmp_path):
        from eulerlab.thermo import GasParams

        assert main(["verify-thermo", "--gamma", "5.0", "--out", str(tmp_path)]) == 0
        rows = dict(line.split(",") for line in _read_rows(tmp_path / "thermo_report.csv")[2:])
        params = GasParams(5.0)
        metrics = acceptance.gate_thermo_identities(params).metrics
        for name in acceptance.THERMO_IDENTITIES:
            assert float(rows[name]) == metrics[name]
        min_eig = acceptance.gate_tilde_pressure_convexity(params).metrics["min_eigenvalue"]
        assert float(rows["tilde_pressure_min_eigenvalue"]) == min_eig

    def test_oslip_check_on_field(self, tmp_path):
        grid = PeriodicGrid(1, 1024)
        from eulerlab.grid import ScalarField

        x = grid.axis_centers()
        vel = ScalarField(grid, np.clip(x / 0.5, -1.0, 1.0))
        fpath = tmp_path / "vel.csv"
        save_scalar_field(fpath, vel)
        out = tmp_path / "rep"
        assert main(["oslip-check", "--field", str(fpath), "--out", str(out)]) == 0
        lines = _read_rows(out / "oslip_report.csv")
        assert lines[1] == "tau,min_C,discrete_C,l1_partial,flags"
        min_c = float(lines[2].split(",")[1])
        assert min_c == pytest.approx(2.0, rel=0.1)

    def test_oslip_check_on_trajectory(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"grid_n": 256, "t_end": 0.3, "init": {"name": "double_rarefaction"},
             "snapshot_stride": 0.05}
        ))
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "traj")])
        out = tmp_path / "rep"
        code = main(["oslip-check", "--traj", str(tmp_path / "traj"),
                     "--out", str(out), "--delta", "0.1"])
        assert code == 0
        lines = _read_rows(out / "oslip_report.csv")
        rows = [line.split(",") for line in lines[2:]]
        assert all(r[-1] == "unmasked" for r in rows)
        # the running integral of the positive part is nondecreasing
        partials = [float(r[3]) for r in rows]
        assert partials == sorted(partials)

    @pytest.mark.parametrize("base,cells,summary", [
        ({"t_end": 0.5, "init": {"name": "double_rarefaction"}, "snapshot_stride": 0.05},
         512, "PASS (utilization "),
        # a 1000 : 0.01 pressure jump: the budget integral passes 709.78, where
        # math.exp overflows; the envelope is inf and the ratio 0
        ({"t_end": 0.01, "snapshot_stride": 0.001, "init": {
            "name": "riemann", "left": [1.0, 0.0, 1000.0], "right": [1.0, 0.0, 0.01]}},
         256, "PASS (utilization 0.000"),
    ], ids=["rarefaction", "budget-past-the-float-range"])
    def test_relentropy_trace(self, tmp_path, capsys, base, cells, summary):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**base, "grid_n": cells}))
        cfg2 = tmp_path / "cfg2.json"
        cfg2.write_text(json.dumps({**base, "grid_n": 2 * cells}))
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(cfg2), "--out", str(tmp_path / "b")])
        capsys.readouterr()
        out = tmp_path / "rep"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["relentropy", "--traj-a", str(tmp_path / "a"),
                         "--traj-b", str(tmp_path / "b"), "--out", str(out),
                         "--sigma", str(2 * base["snapshot_stride"])])
        assert code == 0
        captured = capsys.readouterr()
        assert summary in captured.out and "Traceback" not in captured.err
        lines = _read_rows(out / "relentropy_trace.csv")
        assert lines[1] == "t,integral_E,oslip_C,k_thermo,budget,fitted_K,pass"
        assert len(lines) > 4

    def test_relentropy_fail_names_when_the_envelope_broke(self, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.setattr(relentropy, "KAPPA_STRUCT", 0.5)
        base = {"t_end": 0.5, "init": {"name": "double_rarefaction"}, "snapshot_stride": 0.05}
        for name, cells in (("a", 64), ("b", 128)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({**base, "grid_n": cells}))
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        assert main(["relentropy", "--traj-a", str(tmp_path / "a"), "--traj-b",
                     str(tmp_path / "b"), "--out", str(tmp_path / "rep"),
                     "--sigma", "0.1"]) == 1
        # the oracle: the envelope built by a plain loop, and its first excess
        traj_a, traj_b = (solver.Trajectory.load(tmp_path / name) for name in "ab")
        traj_b = solver.project_trajectory(traj_b, traj_a.grid)
        trace = relentropy.gronwall_monitor(traj_a, traj_b, traj_a.params, sigma=0.1)
        exponent = 0.0
        for j in range(1, len(trace.times)):
            exponent += 0.5 * (trace.budget[j] + trace.budget[j - 1]) * (
                trace.times[j] - trace.times[j - 1])
            ratio = trace.integral[j] / (trace.integral[0] * math.exp(exponent))
            if ratio > 1.0:
                break
        assert ratio > 1.0
        line = capsys.readouterr().out
        assert line.startswith("Gronwall envelope on [0.1, 0.5]: FAIL (utilization ")
        assert line.endswith(f"k_thermo heuristic), first broken at t = {trace.times[j]:.3g} "
                             f"with E/envelope {ratio:.3g}\n")

    def test_relentropy_names_where_the_envelope_turns_infinite(self, tmp_path, capsys):
        # the 1000 : 0.01 pressure jump on 256 / 512 cells: PASS at utilization
        # 0 against an infinite envelope is vacuous, and the summary says from when
        base = {"t_end": 0.01, "snapshot_stride": 0.001, "init": {
            "name": "riemann", "left": [1.0, 0.0, 1000.0], "right": [1.0, 0.0, 0.01]}}
        for name, cells in (("a", 256), ("b", 512)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({**base, "grid_n": cells}))
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["relentropy", "--traj-a", str(tmp_path / "a"), "--traj-b",
                         str(tmp_path / "b"), "--out", str(tmp_path / "rep"),
                         "--sigma", "0.002"])
        assert code == 0
        # the oracle: the first window time at which E(sigma) * exp(integral of
        # the budget) leaves the float range
        traj_a, traj_b = (solver.Trajectory.load(tmp_path / name) for name in "ab")
        traj_b = solver.project_trajectory(traj_b, traj_a.grid)
        trace = relentropy.gronwall_monitor(traj_a, traj_b, traj_a.params, sigma=0.002)
        room = math.log(sys.float_info.max) - math.log(trace.integral[0])
        exponent, first = 0.0, None
        for j in range(1, len(trace.times)):
            dt = trace.times[j] - trace.times[j - 1]
            exponent += 0.5 * dt * (trace.budget[j] + trace.budget[j - 1])
            if first is None and exponent > room:
                first = float(trace.times[j])
        assert first is not None and first < trace.times[-1]
        assert capsys.readouterr().out == (
            "Gronwall envelope on [0.002, 0.01]: PASS (utilization 0.000, k_thermo "
            f"heuristic), vacuous from t = {first:.3g}, where the envelope is infinite\n")

    def test_oslip_check_default_delta_on_trajectory(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"grid_n": 64, "t_end": 0.2, "init": {"name": "double_rarefaction"},
             "snapshot_stride": 0.05}
        ))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "traj")]) == 0
        out = tmp_path / "rep"
        assert main(["oslip-check", "--traj", str(tmp_path / "traj"), "--out", str(out)]) == 0
        rows = _read_rows(out / "oslip_report.csv")[2:]
        assert float(rows[0].split(",")[0]) == 0.0
        assert float(rows[0].split(",")[1]) > 0.0   # min_C at tau = 0 is positive


def _trajectory_argv(flag, traj, good):
    """The command that reads ``traj`` through ``flag``, with ``good`` as the other run."""
    return {"--traj": ["oslip-check", "--traj", str(traj)],
            "--traj-a": ["relentropy", "--traj-a", str(traj), "--traj-b", str(good)],
            "--traj-b": ["relentropy", "--traj-a", str(good), "--traj-b", str(traj)]}[flag]


def _simulate(tmp_path, name, **cfg):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"t_end": 0.02, "init": {"name": "sod"}, **cfg}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / name)]) == 0
    return tmp_path / name


class TestInputBoundary:
    def test_besov_fit_missing_field(self, tmp_path, capsys):
        assert main(["besov-fit", "--field", str(tmp_path / "nope.csv")]) == 2
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["nan", "0.5"])
    def test_besov_fit_rejects_exponent_below_one_or_nan(self, tmp_path, capsys, p):
        fpath = tmp_path / "field.csv"
        save_scalar_field(fpath, weierstrass_field(0.6, 7, PeriodicGrid(1, 128)))
        out = tmp_path / "rep"
        assert main(["besov-fit", "--field", str(fpath), "--p", p, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"must be >= 1, got {float(p)}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scale,p", [(1.0, "1000"), (1e153, "2")])
    def test_besov_fit_sum_past_the_float_range_is_a_usage_error(self, tmp_path, capsys,
                                                                scale, p):
        # |f(.+h) - f|**1000 overflowed or underflowed to 0: numpy warned and
        # the fit reported seminorms and an exponent of inf, exit 0.  At
        # 1e153 the squares are finite but their sum overflowed in fsum, a
        # traceback
        fpath = tmp_path / "field.csv"
        f = weierstrass_field(0.6, 9, PeriodicGrid(1, 512))
        save_scalar_field(fpath, ScalarField(f.grid, scale * f.values))
        out = tmp_path / "rep"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["besov-fit", "--field", str(fpath), "--p", p, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"the sum of |v|**{p} over 512 cells is " in err
        assert "outside the float range" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e308, -1e308])
    def test_besov_fit_difference_past_the_float_range_is_a_usage_error(self, tmp_path, capsys,
                                                                       scale):
        # v(. + h) - v of an alternating field overflowed: numpy warned
        # "overflow in subtract" before the sum's refusal
        fpath = tmp_path / "field.csv"
        save_scalar_field(fpath, ScalarField(PeriodicGrid(1, 512),
                                             scale * (-1.0) ** np.arange(512)))
        out = tmp_path / "rep"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["besov-fit", "--field", str(fpath), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "the sum of |v|**3 over 512 cells is inf, outside the float range" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("cells", [8, 15, 64, 127, 128])
    def test_besov_fit_needs_128_cells_per_dimension(self, tmp_path, capsys, cells, dims):
        # the fit's rungs, 2**k cells up to a sixteenth of the period, reach
        # 8 cells (3 octaves) from 128 cells on, whatever the values
        fpath = tmp_path / "field.csv"
        x = PeriodicGrid(dims, cells).axis_centers()
        values = np.cos(np.pi * x) if dims == 1 else np.outer(np.cos(np.pi * x), np.sin(np.pi * x))
        save_scalar_field(fpath, ScalarField(PeriodicGrid(dims, cells), values))
        code = main(["besov-fit", "--field", str(fpath), "--out", str(tmp_path / "rep")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if cells == 128:
            assert code == 0 and (tmp_path / "rep" / "besov_report.csv").is_file()
        else:
            assert code == 2
            assert (f"a regularity fit needs at least 128 cells per dimension, got {cells}: "
                    f"its shifts, 2**k cells up to a sixteenth of the period, must span 3 "
                    f"octaves") in err

    @pytest.mark.parametrize("init,field", [
        ({"name": "constant", "rho": float("nan")}, "rho"),
        ({"name": "smooth", "u_amp": float("inf")}, "velocity"),
        ({"name": "sod", "transverse": float("nan")}, "rho"),
    ])
    def test_non_finite_initial_data_exits_1_at_t_0(self, tmp_path, capsys, init, field):
        # NaN passes `min(rho) <= 0`; it must not reach the time loop
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_n": 16, "dims": 2, "t_end": 0.01, "init": init}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"initial {field} is not finite at t = 0" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec,message", [
        ({"weierstrass": {"alpha": 0.6, "levels": 1024, "grid_n": 64}},
         "'levels' must be an integer in [6, 1022] for 64 cells, got 1024"),
        ({"weierstrass": {"alpha": 0.6, "levels": 10**9, "grid_n": 64}}, "got 1000000000"),
        ({"weierstrass": {"alpha": 0.6, "levels": 5, "grid_n": 64}}, "got 5"),
        ({"weierstrass": {"alpha": 0.6, "levels": 7.0, "grid_n": 64}}, "got 7.0"),
        ({"weierstrass": {"alpha": 0.6, "levels": True, "grid_n": 64}}, "got True"),
        ({"file": 3}, "probe field 'file' must be a string, got 3"),
    ])
    def test_commutator_rate_rejects_levels_and_file_where_they_enter(self, tmp_path, capsys,
                                                                      spec, message):
        # levels >= 1024 overflowed 2.0**k after building 2**levels, and open(3)
        # read file descriptor 3
        cfg = tmp_path / "probe.json"
        cfg.write_text(json.dumps({"fields": [spec], "G": "square"}))
        out = tmp_path / "rep"
        assert main(["commutator-rate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("levels,code", [(1022, 0), (1023, 2)])
    def test_commutator_rate_levels_stop_at_the_last_finite_phase(self, tmp_path, capsys,
                                                                  levels, code):
        # 2.0**1023 * pi is inf: level 1023 made numpy warn and the field
        # check fail without naming levels
        cfg = tmp_path / "probe.json"
        cfg.write_text(json.dumps({
            "fields": [{"weierstrass": {"alpha": 0.3, "levels": levels, "grid_n": 64}}],
            "G": "square", "eps": [0.5, 0.25, 0.125, 0.0625]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["commutator-rate", "--config", str(cfg),
                         "--out", str(tmp_path / "rep")]) == code
        err = capsys.readouterr().err
        assert ("'levels' must be an integer in [6, 1022]" in err) == (code == 2)
        assert "Traceback" not in err

    @pytest.mark.parametrize("cells", [2**40, 2**16 + 1, 3, 64.0, True, "64"])
    def test_commutator_rate_bounds_grid_n_before_building_a_grid(self, tmp_path, capsys,
                                                                 cells):
        # int(grid_n) took floats and any size, so 2**40 allocated without limit
        if type(cells) is int:
            message = f"weierstrass 'grid_n' must be an integer in [4, 65536], got {cells!r}"
        else:
            message = f"weierstrass field 'grid_n' must be an integer, got {cells!r}"
        cfg = tmp_path / "probe.json"
        cfg.write_text(json.dumps({
            "fields": [{"weierstrass": {"alpha": 0.6, "levels": 20, "grid_n": cells}}],
            "G": "square"}))
        out = tmp_path / "rep"
        assert main(["commutator-rate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("p", [float("nan"), 1.5])
    def test_commutator_rate_rejects_exponent_below_two_or_nan(self, tmp_path, capsys, p):
        cfg = tmp_path / "probe.json"
        cfg.write_text(json.dumps({
            "fields": [{"weierstrass": {"alpha": 0.6, "levels": 9, "grid_n": 512}}],
            "G": "square", "p": p, "eps": [0.25, 0.125, 0.0625, 0.03125]}))
        out = tmp_path / "rep"
        assert main(["commutator-rate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"p must be >= 2, got {p}" in err and "Traceback" not in err
        assert not out.exists()

    def test_commutator_rate_exponent_past_the_float_range_is_a_usage_error(self, tmp_path,
                                                                            capsys):
        # |comm|**(p / 2) overflowed: numpy warned and every row held inf
        # norms and bounds marked pass, then a slope of nan
        cfg = tmp_path / "probe.json"
        cfg.write_text(json.dumps({
            "fields": [{"weierstrass": {"alpha": 0.6, "levels": 9, "grid_n": 512}}],
            "G": "square", "p": 1e308, "eps": [0.25, 0.125, 0.0625, 0.03125]}))
        out = tmp_path / "rep"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["commutator-rate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "over 512 cells is inf, outside the float range" in err
        assert "Traceback" not in err and not out.exists()

    def test_commutator_rate_bounds_the_mollifier_radius(self, tmp_path, capsys):
        # eps = 50 on a 64-cell probe built 3,199 taps that wrapped the axis
        # 50 times, and wrote a row
        cfg = tmp_path / "probe.json"
        cfg.write_text(json.dumps({**_VALID_PROBE, "eps": [50.0, 0.25, 0.125, 0.0625]}))
        out = tmp_path / "rep"
        assert main(["commutator-rate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "radius 50 exceeds half the period" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("cfg,dt", [({"t_end": 1e300}, "0.04226"),
                                        ({"t_end": 0.1, "gamma": 1e300}, "5e-152")],
                             ids=["t_end", "gamma"])
    def test_a_run_the_step_budget_cannot_finish_exits_2_at_once(self, tmp_path, capsys,
                                                                  cfg, dt):
        # each ran on until killed: t stopped growing, or dt was 1e-151
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid_n": 16, **cfg}))
        started = time.perf_counter()
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert time.perf_counter() - started < 1.0 and code == 2
        assert capsys.readouterr().err == (
            f"error: t_end = {cfg['t_end']:.6g} lies past the 1000000 steps a run may take: "
            f"at t = 0 the Courant step is dt = {dt} with 1000000 steps left\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["constant-csv", "phase-1e300"])
    def test_commutator_rate_of_a_zero_commutator_passes_at_slope_inf(self, tmp_path, capsys,
                                                                      source):
        # log(0) warned, and the slope of nan FAILed an exactly 0 commutator
        field = tmp_path / "field.csv"
        save_scalar_field(field, ScalarField(PeriodicGrid(1, 64), np.full(64, 3.0)))
        spec = ({"file": str(field), "alpha": 0.6} if source == "constant-csv" else
                {"weierstrass": {**_VALID_WEIER, "phase": 1e300}})
        cfg = tmp_path / "probe.json"
        cfg.write_text(json.dumps({**_VALID_PROBE, "fields": [spec]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["commutator-rate", "--config", str(cfg),
                         "--out", str(tmp_path / "rep")]) == 0
        assert capsys.readouterr().out == "decay slope inf vs predicted 0.2000: PASS\n"
        rows = _read_rows(tmp_path / "rep" / "commutator_rate.csv")[2:]
        assert rows[-1] == "slope,nan,inf,true"
        assert all(row.split(",")[1:] == ["0", "0", "true"] for row in rows[:-1])

    def test_a_value_error_where_no_subcommand_catches_it_exits_2(self, tmp_path, capsys,
                                                                  monkeypatch):
        def refused(grid):
            raise ValueError("planted refusal")

        monkeypatch.setattr(conditions, "make_bump_basis", refused)
        traj = _simulate(tmp_path, "traj", grid_n=16, t_end=0.1, snapshot_stride=0.05)
        capsys.readouterr()
        out = tmp_path / "rep"
        assert main(["oslip-check", "--traj", str(traj), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: planted refusal\n"
        assert not (out / "oslip_report.csv").exists()

    @pytest.mark.parametrize("spec,eps,message", [
        ({"alpha": 0.6, "levels": 6, "grid_n": 64}, [],
         "eps range must span at least 3 octaves\n"),
        ({"alpha": 0.6, "grid_n": 64}, None, "weierstrass field 'levels' is required\n"),
        ({"levels": 6, "grid_n": 64}, None, "weierstrass field 'alpha' is required\n"),
        (None, None, "cannot load {}: FileNotFoundError(2, 'No such file or directory')\n"),
    ], ids=["eps-range", "levels", "alpha", "file"])
    def test_commutator_rate_refusal_reads_as_the_library_says_it(self, tmp_path, capsys,
                                                                  spec, eps, message):
        # these read "ValueError('eps range ...')", "KeyError('levels')" and
        # "FileNotFoundError(...)"
        missing = tmp_path / "missing.csv"
        cfg = tmp_path / "probe.json"
        cfg.write_text(json.dumps({
            **_VALID_PROBE, **({} if eps is None else {"eps": eps}),
            "fields": [{"file": str(missing)} if spec is None else {"weierstrass": spec}]}))
        assert main(["commutator-rate", "--config", str(cfg),
                     "--out", str(tmp_path / "rep")]) == 2
        assert capsys.readouterr().err == "error: " + message.format(missing)

    def test_relentropy_missing_directories(self, tmp_path):
        assert main(["relentropy", "--traj-a", str(tmp_path / "a"),
                     "--traj-b", str(tmp_path / "b"), "--out", str(tmp_path)]) == 2

    def test_relentropy_grids_that_do_not_nest(self, tmp_path, capsys):
        a = _simulate(tmp_path, "a", grid_n=96)
        b = _simulate(tmp_path, "b", grid_n=64)
        assert main(["relentropy", "--traj-a", str(a), "--traj-b", str(b),
                     "--out", str(tmp_path / "rep")]) == 2
        assert "divide" in capsys.readouterr().err

    def test_relentropy_rejects_two_gases(self, tmp_path, capsys):
        # the gamma = 5/3 run used to be read with the gamma = 1.4 closure, and passed
        pair = [_simulate(tmp_path, name, grid_n=32, t_end=0.2, snapshot_stride=0.05,
                          gamma=gamma) for name, gamma in (("a", 1.4), ("b", 5.0 / 3.0))]
        out = tmp_path / "rep"
        assert main(["relentropy", "--traj-a", str(pair[0]), "--traj-b", str(pair[1]),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "trajectories of different gases" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("sigma,message", [
        ("0.5", "need at least two snapshots past sigma=0.5"),   # past the last
        ("0.1", "need at least two snapshots past sigma=0.1"),   # at the last
    ])
    def test_relentropy_window_of_fewer_than_two_snapshots(self, tmp_path, capsys,
                                                           sigma, message):
        # snapshots at t = 0, 0.05 and 0.1
        pair = [_simulate(tmp_path, name, grid_n=n, t_end=0.1, snapshot_stride=0.05,
                          init={"name": "double_rarefaction"})
                for name, n in (("a", 32), ("b", 64))]
        out = tmp_path / "rep"
        assert main(["relentropy", "--traj-a", str(pair[0]), "--traj-b", str(pair[1]),
                     "--sigma", sigma, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,flag", [("relentropy", "--sigma"),
                                              ("oslip-check", "--delta")])
    def test_non_finite_window_start_exits_2_before_any_scan(self, tmp_path, capsys,
                                                             monkeypatch, command, flag, value):
        traj = _simulate(tmp_path, "a", grid_n=32, t_end=0.1, snapshot_stride=0.05,
                         init={"name": "double_rarefaction"})

        def scanned(*args, **kwargs):
            raise AssertionError("a snapshot was scanned")

        monkeypatch.setattr(conditions, "oslip_weak_min_c", scanned)
        monkeypatch.setattr("eulerlab.relentropy.snapshot_primitive", scanned)
        inputs = {"relentropy": ["--traj-a", str(traj), "--traj-b", str(traj)],
                  "oslip-check": ["--traj", str(traj)]}[command]
        out = tmp_path / "rep"
        assert main([command, *inputs, f"{flag}={value}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{flag.lstrip('-')} must be finite, got {value}" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("scale", [1e308, -1e308])
    @pytest.mark.parametrize("shape", ["alternating", "ramp"])
    def test_oslip_check_field_past_the_float_range_exits_2(self, tmp_path, capsys, scale,
                                                           shape):
        # numpy warned "overflow in multiply", then an OverflowError from the
        # moments' exact sum escaped main as a traceback.  The alternating
        # field's moments are 0, its one-cell quotients overflow
        k = np.arange(64)
        values, what = {"alternating": ((-1.0) ** k, "a difference quotient"),
                        "ramp": (k / 63.0, "a moment")}[shape]
        fpath = tmp_path / "field.csv"
        save_scalar_field(fpath, ScalarField(PeriodicGrid(1, 64), scale * values))
        out = tmp_path / "rep"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["oslip-check", "--field", str(fpath), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{what} of the velocity over 64 cells is outside the float range" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("scale", [1e308, -1e308])
    def test_oslip_check_of_a_constant_field_at_the_float_range_is_0(self, tmp_path, capsys,
                                                                     scale):
        fpath = tmp_path / "field.csv"
        save_scalar_field(fpath, ScalarField(PeriodicGrid(1, 64), np.full(64, scale)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["oslip-check", "--field", str(fpath),
                         "--out", str(tmp_path / "rep")]) == 0
        assert "min_C = 0, discrete_C = 0" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "0", "0.5"])
    def test_oslip_check_field_rejects_delta(self, tmp_path, capsys, monkeypatch, value):
        fpath = tmp_path / "vel.csv"
        save_scalar_field(fpath, weierstrass_field(0.6, 8, PeriodicGrid(1, 256)))

        def scanned(*args, **kwargs):
            raise AssertionError("the field was scanned")

        monkeypatch.setattr(conditions, "oslip_weak_min_c", scanned)
        out = tmp_path / "rep"
        assert main(["oslip-check", "--field", str(fpath), "--delta", value,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--delta" in err and "Traceback" not in err
        assert not out.exists()

    def test_oslip_check_takes_one_source(self, tmp_path, capsys):
        traj = _simulate(tmp_path, "a", grid_n=32, t_end=0.1, snapshot_stride=0.05,
                         init={"name": "double_rarefaction"})
        fpath = tmp_path / "vel.csv"
        save_scalar_field(fpath, weierstrass_field(0.6, 8, PeriodicGrid(1, 256)))
        out = tmp_path / "rep"
        with pytest.raises(SystemExit) as exc:
            main(["oslip-check", "--traj", str(traj), "--field", str(fpath),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_oslip_check_trajectory_delta_defaults_to_zero(self, tmp_path):
        traj = _simulate(tmp_path, "a", grid_n=32, t_end=0.1, snapshot_stride=0.05,
                         init={"name": "double_rarefaction"})
        assert main(["oslip-check", "--traj", str(traj), "--out", str(tmp_path / "unset")]) == 0
        assert main(["oslip-check", "--traj", str(traj), "--delta", "0",
                     "--out", str(tmp_path / "zero")]) == 0
        report = "oslip_report.csv"
        assert ((tmp_path / "unset" / report).read_bytes()
                == (tmp_path / "zero" / report).read_bytes())

    def test_sigma_and_delta_share_one_window(self, tmp_path):
        # snapshots at 0, 0.3, 0.6, 3 * 0.3 = 0.8999999999999999 and 1.2: the
        # fourth is inside the window of --sigma 0.9 and of --delta 0.9
        traj = _simulate(tmp_path, "a", grid_n=64, t_end=1.2, snapshot_stride=0.3,
                         init={"name": "double_rarefaction"})
        assert main(["relentropy", "--traj-a", str(traj), "--traj-b", str(traj),
                     "--sigma", "0.9", "--out", str(tmp_path / "re")]) == 0
        assert main(["oslip-check", "--traj", str(traj), "--delta", "0.9",
                     "--out", str(tmp_path / "os")]) == 0

        def first_column(path):
            return [line.split(",")[0] for line in _read_rows(path)[2:]]

        taus = first_column(tmp_path / "os" / "oslip_report.csv")
        assert taus == first_column(tmp_path / "re" / "relentropy_trace.csv")
        assert taus == ["0.89999999999999991", "1.2"]

    def test_oslip_check_builds_the_basis_once(self, tmp_path, monkeypatch):
        traj = _simulate(tmp_path, "a", grid_n=32, snapshot_stride=0.01)
        built = []
        real = conditions.make_bump_basis
        monkeypatch.setattr(conditions, "make_bump_basis",
                            lambda *a, **k: built.append(a) or real(*a, **k))
        assert main(["oslip-check", "--traj", str(traj), "--out", str(tmp_path / "r")]) == 0
        assert len(built) == 1
        assert len(_read_rows(tmp_path / "r" / "oslip_report.csv")[2:]) == 3

    def test_oslip_check_missing_trajectory(self, tmp_path):
        assert main(["oslip-check", "--traj", str(tmp_path / "nope"),
                     "--out", str(tmp_path)]) == 2

    def test_malformed_snapshot_is_a_usage_error(self, tmp_path, capsys):
        traj = _simulate(tmp_path, "a", grid_n=32)
        (traj / "t_0001.npy").write_text("x,rho\n0.5,1.0\n")
        assert main(["oslip-check", "--traj", str(traj), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cannot read t_0001.npy: the magic string is not correct" in err

    @pytest.mark.parametrize("rho", [0.0, -1.0, 1e-320])
    @pytest.mark.parametrize("snapshot", [1, 2])
    @pytest.mark.parametrize("flag", ["--traj", "--traj-a", "--traj-b"])
    def test_snapshot_density_without_a_velocity_is_a_usage_error(self, tmp_path, capsys, rho,
                                                                  snapshot, flag):
        # rho <= 0 is not a density, and m / 1e-320 overflows.  relentropy's
        # window starts at snapshot 2: snapshot 1 lies outside it
        good = _simulate(tmp_path, "good", grid_n=32)
        traj = shutil.copytree(good, tmp_path / "bad")
        npy = traj / f"t_{snapshot:04d}.npy"
        stack = np.load(npy)
        stack[:2, 5] = rho, 1.0
        np.save(npy, stack)
        t = json.loads((traj / "meta.json").read_text())["times"][snapshot]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*_trajectory_argv(flag, traj, good), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert f"cannot load {traj}: " in err and "Traceback" not in err
        assert f"at t = {t:.6g}, cell (5,): rho = {rho:.6g}, p = " in err

    @pytest.mark.parametrize("state,what", [
        ((-1.0, 1.0, 1.0), "non-positive pressure or non-finite state"),
        ((1.0, 1.0, 0.01), "non-positive pressure or non-finite state"),
        ((1.0, np.inf, 1.0), "non-positive pressure or non-finite state"),
        ((5e-324, 1e-10, 1e304), "velocity m / rho overflows"),
    ], ids=["density", "pressure", "non_finite", "velocity"])
    @pytest.mark.parametrize("good_csv", [False, True], ids=["csv_agrees", "csv_good"])
    @pytest.mark.parametrize("snapshot", [1, 2])
    @pytest.mark.parametrize("flag", ["--traj", "--traj-a", "--traj-b"])
    def test_a_state_the_solver_would_refuse_is_a_usage_error(self, tmp_path, capsys, flag,
                                                              snapshot, good_csv, state, what):
        # p = -0.196 at (rho, m, E) = (1, 1, 0.01): oslip-check reported on it,
        # and relentropy named no directory, time or cell.  The velocity state
        # has positive density and pressure, but m / rho overflows.  With
        # good_csv the export beside the bad .npy still holds the good state:
        # the .npy is what is read and refused
        good = _simulate(tmp_path, "good", grid_n=32)
        traj = solver.Trajectory.load(good)
        snap = traj.snapshots[snapshot]
        snap.rho[5], snap.mom[0, 5], snap.energy[5] = state
        bad = tmp_path / "bad"
        traj.save(bad)
        if good_csv:
            name = f"t_{snapshot:04d}.csv"
            shutil.copyfile(good / name, bad / name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*_trajectory_argv(flag, bad, good), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert f"cannot load {bad}: " in err and "Traceback" not in err
        assert f"{what} at t = {snap.t:.6g}, cell (5,)" in err

    def test_overflowing_initial_data_exits_1_at_t_0(self, tmp_path, capsys):
        # finite primitives whose conserved state overflows: E = inf
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_n": 32, "t_end": 0.2,
                                   "init": {"name": "constant", "u": 1e200}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "at t = 0, cell (0,): rho = 1, p = nan, m1 = 1e+200, E = inf" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_failure_inside_the_run_exits_1_with_location(self, tmp_path, capsys,
                                                          monkeypatch):
        # the third RHS call (the second step's stage) is blown up a millionfold
        real_rhs, calls = solver._rhs, []

        def spoiled_rhs(*args):
            k, speed = real_rhs(*args)
            calls.append(speed)
            return (k * 1e6 if len(calls) == 3 else k), speed

        monkeypatch.setattr(solver, "_rhs", spoiled_rhs)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_n": 32, "t_end": 0.2, "init": {"name": "sod"}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        # the second step ends at t = 2 dt
        assert "at t = 0.0361607, cell (0,): rho = -108516, p = -102925, m1 = " in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_courant_violation_exits_1_with_step_data(self, tmp_path, capsys, monkeypatch):
        # no config reaches the check, so every second-stage speed is inflated
        real_rhs, calls = solver._rhs, []

        def fast_stage_rhs(*args):
            k, speed = real_rhs(*args)
            calls.append(speed)
            return k, speed * (100.0 if len(calls) % 2 == 0 else 1.0)

        monkeypatch.setattr(solver, "_rhs", fast_stage_rhs)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_n": 32, "t_end": 0.05, "init": {"name": "sod"}}))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "Courant violation mid-step at t = 0:" in err and "Traceback" not in err
        for part in ("speed ", "dt ", "exceeds dx 0.0625"):
            assert part in err
        assert not (tmp_path / "o").exists()


def _hash_line(path):
    return path.read_text().splitlines()[0]


def _data_lines(path):
    return path.read_text().splitlines()[1:]


def _perturb_snapshot(traj, index, row=0):
    """Scale cell 3 of row ``row`` (rho, m1[, m2], E) of snapshot ``index`` by 1 + 2**-40."""
    npy = traj / f"t_{index:04d}.npy"
    stack = np.load(npy)
    stack[row, 3] *= 1.0 + 2.0**-40
    np.save(npy, stack)


class TestReportsHashWhatTheyRead:
    """The ``# config_hash=`` line of a report names the data, not its path."""

    def test_besov_fit_and_oslip_field(self, tmp_path):
        field = weierstrass_field(0.6, 7, PeriodicGrid(1, 128))
        a, b = tmp_path / "a.csv", tmp_path / "sub" / "b.csv"
        b.parent.mkdir()
        save_scalar_field(a, field)
        save_scalar_field(b, field)
        for cmd, report in (("besov-fit", "besov_report.csv"),
                            ("oslip-check", "oslip_report.csv")):
            reps = []
            for name, path in (("ra", a), ("rb", b)):
                assert main([cmd, "--field", str(path), "--out", str(tmp_path / name)]) == 0
                reps.append(tmp_path / name / report)
            assert _hash_line(reps[0]) == _hash_line(reps[1])
            assert _data_lines(reps[0]) == _data_lines(reps[1])
            changed = field.values.copy()
            changed[7] += 1e-3
            save_scalar_field(b, ScalarField(field.grid, changed))
            assert main([cmd, "--field", str(b), "--out", str(tmp_path / "rc")]) == 0
            assert _hash_line(tmp_path / "rc" / report) != _hash_line(reps[0])
            save_scalar_field(b, field)

    def test_commutator_rate_files(self, tmp_path):
        field = weierstrass_field(0.6, 9, PeriodicGrid(1, 512))
        lines = []
        for name, scale in (("a", 1.0), ("b", 1.0), ("c", 1.0 + 2.0**-30)):
            path = tmp_path / name / "field.csv"
            path.parent.mkdir()
            save_scalar_field(path, ScalarField(field.grid, field.values * scale))
            cfg = tmp_path / name / "probe.json"
            cfg.write_text(json.dumps({"fields": [{"file": str(path), "alpha": 0.6}],
                                       "G": "square", "eps": [0.25, 0.125, 0.0625, 0.03125]}))
            main(["commutator-rate", "--config", str(cfg), "--out", str(tmp_path / name)])
            lines.append(_hash_line(tmp_path / name / "commutator_rate.csv"))
        assert lines[0] == lines[1] != lines[2]

    def test_relentropy_and_oslip_trajectories(self, tmp_path):
        import shutil

        pair = [_simulate(tmp_path, name, grid_n=n, t_end=0.1, snapshot_stride=0.05,
                          init={"name": "double_rarefaction"})
                for name, n in (("a", 32), ("b", 64))]
        copies = [shutil.copytree(t, tmp_path / "elsewhere" / t.name) for t in pair]

        def reports(a, b, out):
            # a verdict is not the point here: the report is written either way
            assert main(["relentropy", "--traj-a", str(a), "--traj-b", str(b),
                         "--sigma", "0", "--out", str(out)]) in (0, 1)
            assert main(["oslip-check", "--traj", str(a), "--out", str(out)]) == 0
            return [out / "relentropy_trace.csv", out / "oslip_report.csv"]

        first = reports(*pair, tmp_path / "r1")
        moved = reports(*copies, tmp_path / "r2")
        for x, y in zip(first, moved):
            assert _hash_line(x) == _hash_line(y)
            assert _data_lines(x) == _data_lines(y)
        _perturb_snapshot(copies[0], 1)
        changed = reports(*copies, tmp_path / "r3")
        for x, y in zip(first, changed):
            assert _hash_line(x) != _hash_line(y)
        # the run's own config_hash enters too
        meta = json.loads((pair[0] / "meta.json").read_text())
        meta["config_hash"] = "0" * 12
        (pair[0] / "meta.json").write_text(json.dumps(meta))
        renamed = reports(*pair, tmp_path / "r4")
        for x, y in zip(first, renamed):
            assert _hash_line(x) != _hash_line(y)


class TestGronwallOnAnEqualPair:
    def test_a_constant_run_against_itself_passes_at_utilization_0(self, tmp_path, capsys):
        # E(a | a) = 0 at sigma, so the envelope is 0 and E(t) = 0 must hold after
        traj = _simulate(tmp_path, "a", grid_n=32, t_end=0.1, snapshot_stride=0.025,
                         init={"name": "constant", "u": 0.3})
        for sigma in ("0", "0.025"):
            out = tmp_path / f"rep{sigma}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["relentropy", "--traj-a", str(traj), "--traj-b", str(traj),
                             "--sigma", sigma, "--out", str(out)])
            assert code == 0
            assert "PASS (utilization 0.000" in capsys.readouterr().out
            rows = _read_rows(out / "relentropy_trace.csv")[2:]
            assert rows and all(r.split(",")[1] == "0" for r in rows)

    def test_a_rarefaction_run_against_itself_is_exactly_0(self, tmp_path, capsys):
        # E takes both states as (rho, vel, theta): a temperature round trip
        # through (rho, rho s) and a slip m - rho (m / rho) left round-off of
        # 1e-33 that failed the envelope
        traj = _simulate(tmp_path, "a", grid_n=32, t_end=0.5,
                         init={"name": "double_rarefaction"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["relentropy", "--traj-a", str(traj), "--traj-b", str(traj),
                         "--out", str(tmp_path / "rep")])
        assert code == 0
        assert "PASS (utilization 0.000" in capsys.readouterr().out
        rows = _read_rows(tmp_path / "rep" / "relentropy_trace.csv")[2:]
        assert len(rows) == 9 and all(float(r.split(",")[1]) == 0.0 for r in rows)


def _meta_edit(key, value):
    def edit(traj):
        meta = json.loads((traj / "meta.json").read_text())
        meta[key] = value
        (traj / "meta.json").write_text(json.dumps(meta))
    return edit


def _remove(name):
    return lambda traj: (traj / name).unlink()


def _add(name):
    return lambda traj: (traj / name).write_bytes((traj / "t_0000.npy").read_bytes())


class TestTrajectoryMetaAtLoad:
    """Each broken directory exits 2 with a plain message, on both readers."""

    @pytest.mark.parametrize("edit,message", [
        pytest.param(_meta_edit("times", [0.05, 0.0, 0.1]), "strictly increasing",
                     id="times_unsorted"),
        pytest.param(_meta_edit("times", [0.0, 0.05, 0.05]), "strictly increasing",
                     id="times_repeated"),
        pytest.param(_meta_edit("times", [0.0, 0.05, float("nan")]), "finite", id="times_nan"),
        pytest.param(_meta_edit("times", ["0", "0.05", "0.1"]), "list of finite",
                     id="times_strings"),
        pytest.param(_meta_edit("times", [0.0, True, 0.1]), "list of finite", id="times_bool"),
        pytest.param(_meta_edit("times", []), "non-empty list", id="times_empty"),
        pytest.param(_meta_edit("times", 0.1), "list of finite", id="times_scalar"),
        pytest.param(_meta_edit("times", [0.0, 0.05]), "one snapshot file t_NNNN.npy (numpy's "
                     ".npy format) per time", id="times_fewer_than_files"),
        pytest.param(_remove("t_0002.npy"), "one snapshot file t_NNNN.npy", id="file_missing"),
        pytest.param(_add("t_0003.npy"), "one snapshot file t_NNNN.npy", id="file_extra"),
        pytest.param(_add("t_old.npy"), "one snapshot file t_NNNN.npy", id="file_stray"),
        pytest.param(_meta_edit("gamma", "x"), "gamma must be a finite number > 1, got 'x'",
                     id="gamma_string"),
        pytest.param(_meta_edit("gamma", 1.0), "gamma must be a finite number > 1, got 1.0",
                     id="gamma_one"),
        pytest.param(_meta_edit("gamma", None), "gamma must be a finite number > 1",
                     id="gamma_null"),
        pytest.param(_meta_edit("gamma", 10**400), "gamma must be a finite number > 1",
                     id="gamma_past_the_float_range"),
        pytest.param(_meta_edit("times", [0.0, 0.05, 10**400]), "list of finite",
                     id="times_past_the_float_range"),
        pytest.param(_meta_edit("system", "other"),
                     "meta.json system must be 'complete', got 'other'", id="system_unknown"),
        pytest.param(_meta_edit("system", "isentropic"),
                     "meta.json system must be 'complete', got 'isentropic'",
                     id="system_mislabelled"),
        pytest.param(_meta_edit("grid", {"dims": 1, "cells_per_dim": 32.0}),
                     "integer of at least 4 cells per dimension, got 32.0", id="cells_float"),
        pytest.param(_meta_edit("grid", {"dims": 1, "cells_per_dim": "32"}),
                     "integer of at least 4 cells per dimension, got '32'", id="cells_string"),
        pytest.param(_meta_edit("grid", {"dims": True, "cells_per_dim": 16}),
                     "dims must be the integer 1 or 2, got True", id="dims_bool"),
    ])
    def test_rejected(self, tmp_path, capsys, edit, message):
        traj = _simulate(tmp_path, "a", grid_n=16, t_end=0.1, snapshot_stride=0.05)
        ref = _simulate(tmp_path, "b", grid_n=16, t_end=0.1, snapshot_stride=0.05)
        edit(traj)
        for argv in (["relentropy", "--traj-a", str(traj), "--traj-b", str(ref)],
                     ["relentropy", "--traj-a", str(ref), "--traj-b", str(traj)],
                     ["oslip-check", "--traj", str(traj)]):
            out = tmp_path / "rep"
            assert main(argv + ["--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
            assert not out.exists()

    def test_a_complete_snapshot_without_energy_is_rejected(self, tmp_path, capsys):
        traj = _simulate(tmp_path, "a", grid_n=16, t_end=0.1, snapshot_stride=0.05)
        np.save(traj / "t_0001.npy", np.load(traj / "t_0001.npy")[:2])
        assert main(["oslip-check", "--traj", str(traj), "--out", str(tmp_path / "r")]) == 2
        assert ("t_0001.npy holds float64 (2, 16), not float64 (3, 16)"
                in capsys.readouterr().err)


# Fuzz trajectory directories through cli.main: a valid 16-cell run has some
# meta.json keys replaced by values from short lists, valid and broken, and
# at most one snapshot .npy dropped, added, truncated or swapped for one on
# another grid.
_META_VARIANTS = {
    "times": [[0.0, 0.05, 0.1], [0.05, 0.0, 0.1], [0.0, 0.05], [0.0, 0.05, 0.1, 0.15],
              ["0", 0.05, 0.1], [0.0, 0.05, float("inf")], [], 0.1, None],
    "gamma": [5.0 / 3.0, 1.0, 0.5, "x", None, float("nan"), 1e308],
    "system": ["isentropic", "other", None, 3],
    "grid": [{"dims": 1, "cells_per_dim": 32}, {"dims": 2, "cells_per_dim": 4},
             {"dims": 3, "cells_per_dim": 16}, {"dims": 1}, {"dims": 1, "cells_per_dim": "16"},
             {"dims": 1, "cells_per_dim": 16.0}, {"dims": True, "cells_per_dim": 16},
             None, [], "x"],
    "config_hash": ["0" * 12, None, 3],
    "snapshot_sha256": [[["0" * 64] * 2] * 3, [["0" * 64] * 2] * 2, [], "x", None],
}
_FILE_EDITS = ["none", "drop_last", "extra", "stray", "truncate", "header_only",
               "perturb", "other_grid", "no_meta", "meta_not_json", "meta_list"]
_FUZZ_BASE = {}


def _fuzz_base(tmp: Path) -> Path:
    """A valid trajectory at ``tmp / "base"``; the run itself is made once."""
    if "traj" not in _FUZZ_BASE:
        cfg = solver.SolverConfig(grid=PeriodicGrid(1, 16), params=GasParams(1.4),
                                  t_end=0.1, init={"name": "sod"}, snapshot_stride=0.05)
        _FUZZ_BASE["traj"] = solver.run(cfg)
    _FUZZ_BASE["traj"].save(tmp / "base")
    return tmp / "base"


def _file_edit(traj: Path, how: str) -> None:
    first = traj / "t_0000.npy"
    if how == "drop_last":
        (traj / "t_0002.npy").unlink()
    elif how in ("extra", "stray"):
        (traj / ("t_0003.npy" if how == "extra" else "t_x.npy")).write_bytes(first.read_bytes())
    elif how == "truncate":
        first.write_bytes(first.read_bytes()[:-24])
    elif how == "header_only":
        first.write_bytes(first.read_bytes()[:128])
    elif how == "perturb":
        _perturb_snapshot(traj, 1, -1)
    elif how == "other_grid":
        np.save(traj / "t_0001.npy", np.array([1.0, 0.0, 2.5])[:, None] * np.ones(32))
    elif how == "no_meta":
        (traj / "meta.json").unlink()
    elif how == "meta_not_json":
        (traj / "meta.json").write_text("{not json")
    elif how == "meta_list":
        (traj / "meta.json").write_text("[1, 2]")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    edits=st.lists(st.sampled_from(sorted(_META_VARIANTS)), max_size=2, unique=True)
    .flatmap(lambda keys: st.tuples(*(st.tuples(st.just(k), st.sampled_from(_META_VARIANTS[k]))
                                      for k in keys))),
    dropped=st.lists(st.sampled_from(["times", "gamma", "system", "grid"]), max_size=1),
    how=st.sampled_from(_FILE_EDITS),
)
def test_fuzz_trajectory_directory(edits, dropped, how):
    with tempfile.TemporaryDirectory() as tmp:
        ref = _fuzz_base(Path(tmp))
        traj = Path(tmp) / "traj"
        _fuzz_base(Path(tmp) / "copy").rename(traj)
        meta = json.loads((traj / "meta.json").read_text())
        meta.update(dict(edits))
        for key in dropped:
            del meta[key]
        (traj / "meta.json").write_text(json.dumps(meta))
        _file_edit(traj, how)
        out = Path(tmp) / "rep"
        _run_cli(["relentropy", "--traj-a", traj, "--traj-b", ref, "--sigma", "0",
                  "--out", out])
        _run_cli(["relentropy", "--traj-a", ref, "--traj-b", traj, "--out", out])
        _run_cli(["oslip-check", "--traj", traj, "--out", out])


# Fuzz the two outside inputs, configs and field CSVs, through cli.main.  A
# valid config has a few keys replaced by values drawn from short lists, valid
# and broken, rather than from the whole float line, so grids stay at 64 cells
# per dimension or fewer and runs stay short.
_VALID_CONFIG = {"grid_n": 16, "dims": 1, "gamma": 1.4, "t_end": 0.02, "cfl": 0.4,
                 "system": "complete", "snapshot_stride": 0.01, "init": {"name": "sod"}}
#: Values of another JSON type than their key takes: each exits 2 naming the key.
_WRONG_TYPES = {
    "grid_n": [2.5, 32.9, 16.0, float("inf"), "32", True, None],
    "dims": [1.0, "2", True, None],
    "gamma": ["x", True],
    "t_end": ["soon", True],
    "cfl": ["x", True],
    "system": [3, True],
    "snapshot_stride": [None, "x", False],
    "init": [None, 5, "sod", [], [["name", "sod"]]],
}
_VARIANTS = {key: values + _WRONG_TYPES[key] for key, values in {
    "grid_n": [4, 64, 3, 0, -8],
    "dims": [2, 3],
    "gamma": [2.0, 1.0, 0.5, float("nan")],
    "t_end": [0.05, 0.0, -1.0, float("nan"), float("inf")],
    "cfl": [0.5, 0.0, 0.9, float("nan")],
    "system": ["isentropic", "other"],
    "snapshot_stride": [0.05, 0.0, -0.1, 1e-12, float("nan"), float("inf")],
    "init": [
        {"name": "double_rarefaction", "transverse": 0.1}, {}, {"name": "smooth"},
        {"name": "riemann", "left": [1, 0, 1], "right": [0.125, 0, 0.1]},
        {"name": "riemann"}, {"name": "riemann", "left": [1, 0], "right": [1, 0, 1]},
        {"name": "riemann", "left": ["a", 0, 1], "right": [1, 0, 1]},
        {"name": "riemann", "left": [-1, 0, 1], "right": [1, 0, 1]},
        {"name": "single_rarefaction", "rho_right": 2.0}, {"name": "advection", "amp": 1.5},
        {"name": "constant", "u": 1e200}, {"name": "constant", "rho": "x"},
        {"name": "smooth", "transverse": "x"}, {"name": "nope"}, {"name": 5},
    ],
}.items()}


@st.composite
def _configs(draw):
    cfg = dict(_VALID_CONFIG)
    for key in draw(st.lists(st.sampled_from(sorted(_VARIANTS)), max_size=3, unique=True)):
        cfg[key] = draw(st.sampled_from(_VARIANTS[key]))
    # a missing grid_n means 256 cells, so it is never dropped
    for key in draw(st.lists(st.sampled_from(["t_end", "snapshot_stride", "init"]),
                             max_size=2, unique=True)):
        del cfg[key]
    return cfg


def _run_cli(argv):
    with np.errstate(all="ignore"):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(cfg=st.one_of(_configs(), st.sampled_from([[], 3, "x", None])))
def test_fuzz_simulate_config(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        _run_cli(["simulate", "--config", path, "--out", Path(tmp) / "traj"])


def _assert_config_refused(tmp_path, capsys, command, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [(k, v) for k, vs in _WRONG_TYPES.items() for v in vs])
def test_simulate_config_value_of_another_json_type_exits_2(tmp_path, capsys, key, value):
    _assert_config_refused(tmp_path, capsys, "simulate", {**_VALID_CONFIG, key: value},
                           f"config field {key!r} must be")


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("init,message", [
    ({"name": "double_rarefaction", "u_out": True}, "init key 'u_out' must be a number"),
    ({"name": "smooth", "amp": [1]}, "init key 'amp' must be a number"),
    ({"name": "constant", "rho": "x"}, "init key 'rho' must be a number"),
    ({"name": "sod", "transverse": "x"}, "init key 'transverse' must be a number"),
    ({"name": "smooth", "amp": 10**400}, "init key 'amp' must be a number"),
    ({"name": "riemann", "left": [1, 0, 1]}, "needs init key 'right'"),
    ({"name": "riemann", "right": [1, 0, 1]}, "needs init key 'left'"),
    ({"name": "riemann", "left": [1, 0], "right": [1, 0, 1]},
     "init key 'left' must be a list of three numbers"),
    ({"name": "riemann", "left": [1, 0, 1], "right": [1, False, 1]},
     "init key 'right' must be a list of three numbers"),
    ({"name": "riemann", "left": 1.0, "right": [1, 0, 1]},
     "init key 'left' must be a list of three numbers"),
    ({"name": [1]}, "unknown scenario [1]"),
])
def test_simulate_init_value_of_a_wrong_type_exits_2(tmp_path, capsys, dims, init, message):
    _assert_config_refused(tmp_path, capsys, "simulate",
                           {**_VALID_CONFIG, "dims": dims, "init": init}, message)


def _mutate(lines, how, token):
    if how == "reverse":
        return lines[:1] + lines[:0:-1]
    if how == "drop_row":
        return lines[:-1]
    if how == "short_row":
        return lines[:2] + [lines[2].split(",")[0]] + lines[3:]
    if how == "token":
        return lines[:2] + [lines[2].rsplit(",", 1)[0] + "," + token] + lines[3:]
    if how == "header":
        return [token] + lines[1:]
    if how == "header_only":
        return lines[:1]
    return lines


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    dims=st.sampled_from([1, 2]),
    cells=st.sampled_from([4, 8, 16, 64]),
    how=st.sampled_from(["none", "reverse", "drop_row", "short_row", "token", "header",
                         "header_only", "empty"]),
    token=st.sampled_from(["abc", "nan", "inf", "1e308", "", "value", "y,value", "x,y"]),
    seed=st.integers(0, 3),
)
def test_fuzz_field_csv(dims, cells, how, token, seed):
    grid = PeriodicGrid(dims, min(cells, 8) if dims == 2 else cells)
    values = np.random.default_rng(seed).standard_normal(grid.shape)
    buf = io.StringIO()
    write_columns_csv(buf, grid, {"value": values})
    lines = [] if how == "empty" else _mutate(buf.getvalue().splitlines(), how, token)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.csv"
        path.write_text("\n".join(lines) + "\n")
        _run_cli(["besov-fit", "--field", path, "--out", tmp])
        _run_cli(["oslip-check", "--field", path, "--out", tmp])



# Commutator-probe configs: a valid probe on a 64-cell grid with a few keys,
# or one probe field, replaced by values from short lists, valid and broken.
_VALID_WEIER = {"alpha": 0.6, "levels": 6, "grid_n": 64}
_VALID_PROBE = {"fields": [{"weierstrass": _VALID_WEIER}],
                "G": "square", "p": 4.0, "eps": [0.5, 0.25, 0.125, 0.0625]}
_PROBE_WRONG_TYPES = {
    "fields": [{"file": "field.csv"}, "x", None],
    "G": [3, None, True, ["square"]],
    "p": ["x", None, True],
    "eps": ["x", None, 0.5, {"0": 0.5}],
    "gamma": ["x", False],
}
_PROBE_VARIANTS = {key: values + _PROBE_WRONG_TYPES[key] for key, values in {
    "G": ["product", "pressure_tilde", "cube"],
    "p": [2.0, 1.5, float("nan"), float("inf")],
    "eps": [[0.5, 0.25, 0.125, 0.0625, 0.03125], [0.25, 0.125], [], [0.5, -1.0, 0.0625],
            [float("nan")] * 4, ["x"], [50.0, 0.25, 0.125, 0.0625], [0.5, 0.25, 0.125, True]],
    "gamma": [5.0 / 3.0, 1.0],
}.items()}
_WEIER_VARIANTS = {
    "levels": [7, 5, 1023, 1024, 10**6, 6.0, "6", True, None, -1],
    "grid_n": [32, 16, 3, 0, float("inf"), "x"],
    "alpha": [0.3, 1.0, 1.5, 0.0, float("nan"), "x", "0.6"],
    "phase": [1.0, float("inf"), "x"],
    "phse": [1.0],
}
_PROBE_FIELDS = [
    {"file": "field.csv", "alpha": 0.6}, {"file": "field.csv", "alpha": "x"},
    {"file": "missing.csv"}, {"file": 3}, {"file": None}, {"file": ["field.csv"]},
    {"weierstrass": [1]}, {"weierstrass": {"alpha": 0.6}}, {}, 3, "file", None,
    {"weierstrass": _VALID_WEIER, "alpha": True}, {"weierstrass": _VALID_WEIER, "alpah": 0.6},
    {"file": "field.csv", "weierstrass": _VALID_WEIER},
]


@st.composite
def _probe_configs(draw):
    cfg = dict(_VALID_PROBE)
    for key in draw(st.lists(st.sampled_from(sorted(_PROBE_VARIANTS)), max_size=1)):
        cfg[key] = draw(st.sampled_from(_PROBE_VARIANTS[key]))
    weier = dict(_VALID_WEIER)
    for key in draw(st.lists(st.sampled_from(sorted(_WEIER_VARIANTS)), max_size=1)):
        weier[key] = draw(st.sampled_from(_WEIER_VARIANTS[key]))
    # mostly one field; two must share a grid, and the valid file does
    second = draw(st.sampled_from([None] * 6 + [{"weierstrass": weier}] + _PROBE_FIELDS))
    cfg["fields"] = [{"weierstrass": weier}] + ([] if second is None else [second])
    if draw(st.integers(0, 3)) == 0:
        del cfg["fields"][0]
    return cfg


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cfg=st.one_of(_probe_configs(), st.sampled_from([[], 3, {}, {"G": "square"}])))
def test_fuzz_commutator_config(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        field = Path(tmp) / "field.csv"
        save_scalar_field(field, weierstrass_field(0.6, 6, PeriodicGrid(1, 64)))
        path = Path(tmp) / "probe.json"
        path.write_text(json.dumps(cfg).replace('"field.csv"', json.dumps(str(field))))
        _run_cli(["commutator-rate", "--config", path, "--out", Path(tmp) / "rep"])


@pytest.mark.parametrize("key,value",
                         [(k, v) for k, vs in _PROBE_WRONG_TYPES.items() for v in vs])
def test_probe_config_value_of_another_json_type_exits_2(tmp_path, capsys, key, value):
    _assert_config_refused(tmp_path, capsys, "commutator-rate", {**_VALID_PROBE, key: value},
                           f"config field {key!r} must be")


def _probe_with(spec: dict) -> dict:
    return {**_VALID_PROBE, "fields": [spec]}


#: Misses inside a probe config, with the message that names the key.
_NESTED_PROBE_MISSES = {
    "eps_entry_bool": ({**_VALID_PROBE, "eps": [0.5, 0.25, 0.125, True]},
                       "config field 'eps' entry must be a number, got True"),
    "eps_entry_nan": ({**_VALID_PROBE, "eps": [math.nan, 0.25, 0.125, 0.0625]},
                      "config field 'eps' entry must be finite and positive, got nan"),
    "eps_entry_inf": ({**_VALID_PROBE, "eps": [0.5, 0.25, math.inf, 0.0625]},
                      "config field 'eps' entry must be finite and positive, got inf"),
    "eps_entry_zero": ({**_VALID_PROBE, "eps": [0.5, 0.25, 0.125, 0]},
                       "config field 'eps' entry must be finite and positive, got 0.0"),
    "eps_entry_negative": ({**_VALID_PROBE, "eps": [0.5, 0.25, -0.125, 0.0625]},
                           "config field 'eps' entry must be finite and positive, got -0.125"),
    "eps_entry_minus_inf": ({**_VALID_PROBE, "eps": [-math.inf, 0.25, 0.125, 0.0625]},
                            "config field 'eps' entry must be finite and positive, got -inf"),
    "eps_empty": ({**_VALID_PROBE, "eps": []}, "eps range must span at least 3 octaves"),
    "fields_empty": ({**_VALID_PROBE, "fields": []},
                     "config field 'fields' must name at least one field"),
    "weier_alpha_string": (_probe_with({"weierstrass": {**_VALID_WEIER, "alpha": "0.6"}}),
                           "weierstrass field 'alpha' must be a number, got '0.6'"),
    "field_alpha_bool": (_probe_with({"weierstrass": _VALID_WEIER, "alpha": True}),
                         "probe field 'alpha' must be a number, got True"),
    "weier_typo": (_probe_with({"weierstrass": {**_VALID_WEIER, "phse": 1.0}}),
                   "weierstrass has keys this subcommand does not read: ['phse']"),
    "field_typo": (_probe_with({"weierstrass": _VALID_WEIER, "alpah": 0.6}),
                   "probe has keys this subcommand does not read: ['alpah']"),
    "file_and_weierstrass": (_probe_with({"file": "field.csv", "weierstrass": _VALID_WEIER}),
                             "needs one of 'file' and 'weierstrass', "
                             "got keys ['file', 'weierstrass']"),
}


@pytest.mark.parametrize("case", sorted(_NESTED_PROBE_MISSES))
def test_probe_config_miss_inside_a_field_or_eps_exits_2(tmp_path, capsys, case):
    # each ran before: the value was coerced, the key ignored or 'file' preferred,
    # or the run ended in a traceback (an empty eps list)
    cfg, message = _NESTED_PROBE_MISSES[case]
    field = tmp_path / "field.csv"
    save_scalar_field(field, weierstrass_field(0.6, 6, PeriodicGrid(1, 64)))
    cfg = json.loads(json.dumps(cfg).replace('"field.csv"', json.dumps(str(field))))
    _assert_config_refused(tmp_path, capsys, "commutator-rate", cfg, message)


@pytest.mark.parametrize("command,cfg,key", [
    ("simulate", {**_VALID_CONFIG, "snapshot_strid": 0.05}, "snapshot_strid"),
    ("simulate", {**_VALID_CONFIG, "G": "square"}, "G"),
    ("commutator-rate", {**_VALID_PROBE, "grid_n": 64}, "grid_n"),
    ("commutator-rate", {**_VALID_PROBE, "init": {"name": "sod"}}, "init"),
])
def test_config_key_the_subcommand_does_not_read_exits_2(tmp_path, capsys, command, cfg, key):
    _assert_config_refused(tmp_path, capsys, command, cfg,
                           f"keys this subcommand does not read: [{key!r}]")


#: Per scenario, an init key it does not read: a misspelling, or another
#: scenario's key.
_STRAY_INIT_KEYS = {
    "constant": {"thetta": 1.0},
    "advection": {"rho": 1.0},
    "smooth": {"u_ampl": 0.1},
    "isentropic_smooth": {"theta": 1.0},
    "sod": {"transvers": 0.1},
    "riemann": {"left": [1, 0, 1], "right": [0.125, 0, 0.1], "u": 3},
    "double_rarefaction": {"u_outt": 0.5},
    "single_rarefaction": {"rho_rigth": 0.4},
}


@pytest.mark.parametrize("name", list(solver._SCENARIO_KEYS))
def test_init_key_the_scenario_does_not_read_exits_2(tmp_path, capsys, name):
    init = {"name": name, **_STRAY_INIT_KEYS[name]}
    key = list(init)[-1]
    _assert_config_refused(tmp_path, capsys, "simulate", {**_VALID_CONFIG, "init": init},
                           f"scenario {name!r} reads no init key {key!r}; its keys are "
                           f"{list(solver._SCENARIO_KEYS[name])}")

def _readme_json(after: str) -> dict:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split(after, 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    return json.loads(block)


@pytest.mark.parametrize("after,keys", [
    ("Example `run.json`:", cli._SIMULATE_KEYS),
    ("Example commutator probe config:", cli._PROBE_KEYS),
])
def test_readme_configs_pass_the_key_and_type_checks(tmp_path, after, keys):
    cfg = _readme_json(after)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli._load_config(str(path), keys) == cfg


#: The CLI's input contract as one table: argv (a dict is written as the
#: ``--config`` file, an array as a 1D ``--field`` CSV, "TRAJ" names a short
#: sod run and "TRAJ:<how>" a copy of it broken by ``_BROKEN_TRAJ[how]``), the
#: exit code the README states, None where it states none, and optionally
#: text the error must hold.
_RAMP = np.arange(64) / 63.0
_ADVERSARIAL = {
    "riemann-rho-5e-324": (["simulate", {**_VALID_CONFIG, "init": {
        "name": "riemann", "left": [5e-324, 0, 1], "right": [1, 0, 1]}}], 1),
    "advection-rho-5e-324": (["simulate", {**_VALID_CONFIG, "init": {
        "name": "advection", "rho0": 5e-324, "amp": 0.0}}], 1),
    "advection-rho-0": (["simulate", {**_VALID_CONFIG, "init": {
        "name": "advection", "rho0": 0.0, "amp": 0.0}}], 1),
    "isentropic-amp-1e308": (["simulate", {**_VALID_CONFIG, "init": {
        "name": "isentropic_smooth", "amp": 1e308}}], 1),
    "sod-transverse-1e308": (["simulate", {**_VALID_CONFIG, "dims": 2, "init": {
        "name": "sod", "transverse": 1e308}}], 1),
    "constant-rho-nan": (["simulate", {**_VALID_CONFIG, "init": {
        "name": "constant", "rho": float("nan")}}], 1),
    "constant-u-inf": (["simulate", {**_VALID_CONFIG, "init": {
        "name": "constant", "u": -float("inf")}}], 1),
    "constant-u-1e200": (["simulate", {**_VALID_CONFIG, "init": {
        "name": "constant", "u": 1e200}}], 1),
    "t-end-1e300": (["simulate", {"grid_n": 16, "t_end": 1e300}], 2),
    "gamma-1e300": (["simulate", {**_VALID_CONFIG, "gamma": 1e300}], 2),
    "t-end-nan": (["simulate", {**_VALID_CONFIG, "t_end": float("nan")}], 2),
    "t-end-negative": (["simulate", {**_VALID_CONFIG, "t_end": -1.0}], 2),
    "cfl-0": (["simulate", {**_VALID_CONFIG, "cfl": 0.0}], 2),
    "cfl-1e308": (["simulate", {**_VALID_CONFIG, "cfl": 1e308}], None),
    "stride-0": (["simulate", {**_VALID_CONFIG, "snapshot_stride": 0.0}], 2),
    "stride-1e308": (["simulate", {**_VALID_CONFIG, "snapshot_stride": 1e308}], None),
    "grid-n-flag-0": (["simulate", {**_VALID_CONFIG}, "--grid-n", "0"], 2),
    "thermo-gamma-1e308": (["verify-thermo", "--gamma", "1e308"], 2),
    "thermo-gamma--1e308": (["verify-thermo", "--gamma=-1e308"], 2),
    "thermo-gamma-inf": (["verify-thermo", "--gamma", "inf"], 2),
    "thermo-gamma-nan": (["verify-thermo", "--gamma", "nan"], 2),
    "thermo-gamma-1+1e-10": (["verify-thermo", "--gamma", "1.0000000001"], 2),
    "thermo-gamma-1+1e-5": (["verify-thermo", "--gamma", "1.00001"], 0),
    "besov-alternating-1e308": (["besov-fit", 1e308 * (-1.0) ** np.arange(64)], 2),
    "besov-alternating--1e308": (["besov-fit", -1e308 * (-1.0) ** np.arange(64)], 2),
    "besov-5e-324": (["besov-fit", np.full(64, 5e-324)], None),
    "besov-p-1e308": (["besov-fit", _RAMP, "--p", "1e308"], 2),
    "besov-p-inf": (["besov-fit", _RAMP, "--p", "inf"], None),
    "oslip-constant-1e308": (["oslip-check", np.full(64, 1e308)], 0),
    "oslip-ramp--1e308": (["oslip-check", -1e308 * _RAMP], 2),
    "oslip-alternating-1e308": (["oslip-check", 1e308 * (-1.0) ** np.arange(64)], 2,
                                "a difference quotient of the velocity over 64 cells"),
    "oslip-ramp-5e-324": (["oslip-check", 5e-324 * _RAMP], None),
    "oslip-field-delta": (["oslip-check", _RAMP, "--delta", "0"], 2),
    "oslip-traj-delta-nan": (["oslip-check", "--traj", "TRAJ", "--delta", "nan"], 2),
    "oslip-traj-delta-1e308": (["oslip-check", "--traj", "TRAJ", "--delta", "1e308"], 2),
    "relentropy-sigma-nan": (["relentropy", "--traj-a", "TRAJ", "--traj-b", "TRAJ",
                              "--sigma", "nan"], 2),
    "relentropy-sigma--1e308": (["relentropy", "--traj-a", "TRAJ", "--traj-b", "TRAJ",
                                 "--sigma=-1e308"], None),
    "commutator-eps-nan": (["commutator-rate", {**_VALID_PROBE, "eps": [float("nan")] * 4}], 2),
    "commutator-eps-inf": (["commutator-rate", {**_VALID_PROBE, "eps": [float("inf"), 0.5,
                                                                        0.25, 0.125]}], 2),
    "commutator-p-1e308": (["commutator-rate", {**_VALID_PROBE, "p": 1e308}], None),
    "commutator-phase-1e308": (["commutator-rate", {**_VALID_PROBE, "fields": [
        {"weierstrass": {**_VALID_WEIER, "phase": 1e308}}]}], None),
    "commutator-pressure-of-a-negative-density": (["commutator-rate", {
        **_VALID_PROBE, "G": "pressure_tilde", "gamma": 1e308, "fields": [
            {"weierstrass": _VALID_WEIER}, {"weierstrass": {**_VALID_WEIER, "phase": 1.0}}]}],
        2, "G 'pressure_tilde' reads probe field 1 as the density, which must be positive, "
        "got min -1.39327: a weierstrass field has mean 0, so give the density as a 'file'"),
}


def _resave(edit):
    """Replace the short run's snapshot 1 by ``edit`` of its stack."""
    def broken(traj):
        np.save(traj / "t_0001.npy", edit(np.load(traj / "t_0001.npy")), allow_pickle=True)
    return broken


#: Broken copies of the short run's directory, and the text each error holds.
_BROKEN_TRAJ = {
    "empty-npy": (lambda traj: (traj / "t_0001.npy").write_bytes(b""),
                  "cannot read t_0001.npy: EOF: reading magic string"),
    "text-npy": (lambda traj: (traj / "t_0001.npy").write_text("x,rho,m1,E\n0.5,1,0,2.5\n"),
                 "cannot read t_0001.npy: the magic string is not correct"),
    "object-npy": (_resave(lambda stack: stack.astype(object)),
                   "cannot read t_0001.npy: Object arrays cannot be loaded"),
    "float32-npy": (_resave(lambda stack: stack.astype(np.float32)),
                    "t_0001.npy holds float32 (3, 16), not float64 (3, 16)"),
    "wrong-shape-npy": (_resave(lambda stack: stack[:, :8]),
                        "t_0001.npy holds float64 (3, 8), not float64 (3, 16)"),
    "csv-only": (lambda traj: [f.unlink() for f in traj.glob("*.npy")],
                 "need one snapshot file t_NNNN.npy (numpy's .npy format) per time"),
}
for _how, (_, _message) in _BROKEN_TRAJ.items():
    _ADVERSARIAL[f"oslip-traj-{_how}"] = (["oslip-check", "--traj", f"TRAJ:{_how}"], 2, _message)
    _ADVERSARIAL[f"relentropy-{_how}"] = (["relentropy", "--traj-a", "TRAJ", "--traj-b",
                                           f"TRAJ:{_how}"], 2, _message)


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("adversarial") / "traj"
    cfg = out.parent / "run.json"
    cfg.write_text(json.dumps({"grid_n": 16, "t_end": 0.1, "snapshot_stride": 0.05}))
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("case", list(_ADVERSARIAL))
def test_adversarial_input_table(tmp_path, capsys, short_run, case):
    """No input ends in a traceback, a numpy warning or an exit code outside
    0, 1 and 2."""
    argv, code, *message = _ADVERSARIAL[case]
    args = []
    for item in argv:
        if isinstance(item, dict):
            args += ["--config", str(tmp_path / "cfg.json")]
            (tmp_path / "cfg.json").write_text(json.dumps(item))
        elif isinstance(item, np.ndarray):
            args += ["--field", str(tmp_path / "field.csv")]
            save_scalar_field(tmp_path / "field.csv",
                              ScalarField(PeriodicGrid(1, len(item)), item))
        elif item.startswith("TRAJ:"):
            broken = shutil.copytree(short_run, tmp_path / "broken")
            _BROKEN_TRAJ[item[5:]][0](broken)
            args.append(str(broken))
        else:
            args.append(str(short_run) if item == "TRAJ" else item)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = main(args + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert got in (0, 1, 2) and "Traceback" not in err
    assert code is None or got == code
    assert all(text in err for text in message)
