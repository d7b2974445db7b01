"""Command-line behavior: outputs, determinism, config handling, exit codes."""

import hashlib
import os
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import spinlight.experiment
from spinlight.cli import RunConfig, build_parser, load_config, main, read_config, write_config

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    out = {}
    for line in text.strip().splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key] = value
    return out


class TestCalibrate:
    def test_paper_settings(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--theta-deg", "10")
        assert code == 0
        values = parse_kv(out)
        assert float(values["kappa2_theory"]) == pytest.approx(18.6 * 4.5 * 2 * 10 / 700,
                                                               rel=1e-12)
        assert float(values["kappa2_exp"]) == pytest.approx(1.0, rel=1e-12)
        assert float(values["ratio"]) == pytest.approx(2.39, abs=5e-3)

    def test_zero_angle(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--theta-deg", "0")
        assert code == 0
        values = parse_kv(out)
        assert float(values["kappa2_theory"]) == 0.0
        assert float(values["kappa2_exp"]) == 0.0

    @pytest.mark.parametrize("theta", ["0", "10"])
    def test_no_value_is_nan(self, capsys, theta):
        code, out, _ = run_cli(capsys, "calibrate", "--theta-deg", theta)
        assert code == 0
        values = parse_kv(out)
        assert not any(np.isnan(float(v)) for v in values.values())
        assert ("ratio" in values) == (theta != "0")  # no ratio to a zero coupling

    def test_detuning_scaling(self, capsys):
        _, out1, _ = run_cli(capsys, "calibrate", "--theta-deg", "10")
        _, out2, _ = run_cli(capsys, "calibrate", "--theta-deg", "10",
                             "--detuning-mhz", "1400")
        k1 = float(parse_kv(out1)["kappa2_theory"])
        k2 = float(parse_kv(out2)["kappa2_theory"])
        assert k2 == pytest.approx(k1 / 2.0, rel=1e-12)

    def test_bad_params_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "calibrate", "--power-mw", "-3")
        assert code == 1
        assert "error" in err


class TestRun:
    def test_summary_and_csv(self, capsys, tmp_path):
        out_path = tmp_path / "cycles.csv"
        code, out, _ = run_cli(capsys, "run", "--kappa2", "1", "--beta", "1",
                               "--cycles", "100000", "--seed", "1",
                               "--out", str(out_path))
        assert code == 0
        values = parse_kv(out)
        assert 1.96 <= float(values["var1"]) <= 2.04
        assert values["entangled"] == "true"
        lines = out_path.read_text().splitlines()
        assert lines[0] == "cycle_index,a1,b1,a2,b2"
        assert len(lines) == 100_001

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        args = ["run", "--kappa2", "1", "--cycles", "5000", "--seed", "9"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, out1, _ = run_cli(capsys, *args, "--out", str(p1))
        code2, out2, _ = run_cli(capsys, *args, "--out", str(p2))
        assert code1 == code2 == 0
        assert out1 == out2
        assert p1.read_bytes() == p2.read_bytes()

    def test_full_decay_reports_separable(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--kappa2", "1", "--beta", "0",
                               "--cycles", "10000", "--seed", "1")
        assert code == 0
        assert parse_kv(out)["entangled"] == "false"

    def test_zero_coupling_verdict_undetermined(self, capsys):
        # at kappa2 = 0 cond_var < 1 + kappa2 is a coin flip, not a verdict
        code, out, _ = run_cli(capsys, "run", "--kappa2", "0", "--cycles", "1000")
        assert code == 0
        assert parse_kv(out)["entangled"] == "undetermined"

    def test_zero_coupling_prints_no_nan(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--kappa2", "0", "--cycles", "1000")
        assert code == 0
        values = parse_kv(out)
        assert "atomic_var" not in values  # (cond_var - 1) / kappa2 is undefined
        assert values["calibration"] == "ok"
        numbers = [v for k, v in values.items() if k not in ("calibration", "entangled")]
        assert not any(np.isnan(float(v)) for v in numbers)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_stdout_same_without_out(self, capsys, tmp_path, workers):
        # --out writes each chunk's rows as it reduces them; the statistics are the same bits
        args = ["run", "--kappa2", "1", "--beta", "0.65", "--cycles", "9000", "--seed", "4"]
        _, with_csv, _ = run_cli(capsys, *args, "--out", str(tmp_path / "c.csv"))
        code, streamed, _ = run_cli(capsys, *args, "--parallel", workers)
        assert code == 0
        assert streamed == with_csv

    @pytest.mark.parametrize("with_out", [False, True])
    def test_overflowing_sums_refused(self, capsys, tmp_path, with_out):
        # at kappa2 = 1e308 the squared outcomes overflow: no summary, no CSV
        path = tmp_path / "cycles.csv"
        code, out, err = run_cli(capsys, "run", "--kappa2", "1e308", "--cycles", "100",
                                 *(("--out", str(path)) if with_out else ()))
        assert code == 1
        assert out == ""
        assert "not finite" in err
        assert not path.exists()

    def test_non_finite_statistics_refused(self, capsys):
        # finite sums, but var1 = (S_a1 + S_b1) / (n - 1) overflows
        code, out, err = run_cli(capsys, "run", "--kappa2", "3e306", "--cycles", "100")
        assert code == 1
        assert out == ""
        assert "not finite" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv", [
        ("run", "--kappa2", "3e306", "--cycles", "100"),  # the statistics overflow
        ("run", "--kappa2", "1e308", "--cycles", "100"),  # the outcome sums overflow
        ("run", "--kappa2", "6e304", "--cycles", "8192"),  # the sum of two chunks overflows
        ("sweep", "--theta-grid", "2,1e308", "--cycles", "100")])
    def test_refusal_prints_one_stderr_line(self, tmp_path, argv, workers):
        # in a fresh interpreter, so stderr holds whatever numpy would warn
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-m", "spinlight.cli", *argv, "--parallel", workers,
                               "--out", str(tmp_path / "out.csv")],
                              env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
        assert done.returncode == 1
        assert done.stdout == ""
        assert re.fullmatch(r"error: the [a-z ]+ at kappa2 = \S+ are not finite\n", done.stderr)

    def test_subnormal_coupling_refused(self, capsys):
        # finite statistics, but atomic_var = (cond_var - 1) / kappa2 overflows
        code, out, err = run_cli(capsys, "run", "--kappa2", "1e-320", "--cycles", "100")
        assert code == 1
        assert out == ""
        assert "not finite" in err

    def test_unwritable_output_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--kappa2", "1", "--cycles", "100",
                               "--out", "/nonexistent_dir/x.csv")
        assert code == 2
        assert "i/o error" in err

    def test_physical_route_resolves_kappa2(self, capsys):
        # no --kappa2: coupling derived from the physical parameters
        code, out, _ = run_cli(capsys, "run", "--cycles", "2000", "--seed", "3")
        assert code == 0
        kappa2 = float(parse_kv(out)["kappa2"])
        assert 0.8 < kappa2 < 1.0  # defaults: 1e11 atoms, 4.5 mW, 700 MHz


class TestSweep:
    def test_zero_grid_row(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--theta-grid", "0",
                             "--cycles", "5000", "--seed", "2", "--out", str(path))
        assert code == 0
        header, row = path.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["kappa2"]) == 0.0
        assert abs(float(cells["pn1"])) < 0.1

    def test_entanglement_across_densities(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--theta-grid", "2,4,6,8,10,12,14",
                             "--beta", "0.65", "--cycles", "100000", "--seed", "1",
                             "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 7
        for cells in rows:
            assert float(cells["cond_var_minus_shot"]) < float(cells["pn1"])
        thetas = [float(c["theta_deg"]) for c in rows]
        pn = [float(c["pn1"]) for c in rows]
        slope = np.polyfit(thetas, pn, 1)[0]
        assert slope == pytest.approx(0.10, rel=0.05)

    def test_overflowing_sums_refused(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, "sweep", "--theta-grid", "2,1e308",
                                 "--cycles", "100", "--out", str(path))
        assert code == 1
        assert out == ""
        assert "not finite" in err
        assert not path.exists()

    def test_missing_out_is_usage_error(self, capsys, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("sweep simulated before checking --out")

        monkeypatch.setattr(spinlight.experiment, "density_sweep", no_simulation)
        code, _, _ = run_cli(capsys, "sweep", "--cycles", "100")
        assert code == 1


class TestTimedomain:
    def test_report_passes(self, capsys, tmp_path, monkeypatch):
        # lighter resolution for the test harness; the default 650-cycle pulse
        # is exercised in the acceptance suite
        import spinlight.timedomain as td
        monkeypatch.setattr(td, "DEFAULT_OMEGA_T", 2.0 * np.pi * 20.0)
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, "timedomain", "--kappa2", "1",
                               "--cycles", "20000", "--seed", "17",
                               "--out", str(trace_path))
        assert code == 0
        assert "overall = PASS" in out
        assert "spin-sum drift" in out
        assert trace_path.exists()

    def test_failed_gate_exit_code(self, capsys, monkeypatch):
        # 64 runs cannot meet the 3% moment gate
        import spinlight.timedomain as td
        monkeypatch.setattr(td, "DEFAULT_OMEGA_T", 2.0 * np.pi * 20.0)
        code, out, _ = run_cli(capsys, "timedomain", "--kappa2", "1",
                               "--cycles", "64", "--seed", "17")
        assert "overall = FAIL" in out
        assert code == 4


class TestProtocolCommand:
    def test_teleport_report(self, capsys):
        code, out, _ = run_cli(capsys, "protocol", "--protocol", "teleport",
                               "--kappa2", "100", "--cycles", "200", "--seed", "4")
        assert code == 0
        values = parse_kv(out)
        assert float(values["mean_fidelity"]) >= 0.95

    def test_swap_report_and_csv(self, capsys, tmp_path):
        path = tmp_path / "runs.csv"
        code, out, _ = run_cli(capsys, "protocol", "--protocol", "swap",
                               "--kappa2", "4", "--cycles", "20", "--seed", "4",
                               "--out", str(path))
        assert code == 0
        values = parse_kv(out)
        assert float(values["duan_sum_out"]) == pytest.approx(66.0 / 114.0, abs=1e-9)
        assert values["entangled"] == "true"
        lines = path.read_text().splitlines()
        assert lines[0].startswith("run_index,a1,b1")
        assert len(lines) == 21

    @pytest.mark.parametrize("argv,digest", [
        (("teleport", "--kappa2", "4", "--gain", "0.8"),
         "72e5e96110b52ce5612cd21645860bcb9a2b3b74c128993d816553f8e828e2fc"),
        (("swap", "--kappa2", "4"),
         "d059205256042b6eac257b3728909bacbe2f9570723a5c96db758356daab8ed2"),
        (("memory", "--kappa2", "100", "--squeeze-r", "0.5"),
         "d73e65acfc6998d513cc050b1362321df52e688d5fc6c0ef4d1306da02052633"),
    ], ids=["teleport", "swap", "memory"])
    def test_csv_bytes_pinned(self, capsys, tmp_path, argv, digest):
        path = tmp_path / "runs.csv"
        code, _, _ = run_cli(capsys, "protocol", "--protocol", *argv,
                             "--cycles", "20", "--seed", "4", "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_memory_report(self, capsys):
        code, out, _ = run_cli(capsys, "protocol", "--protocol", "memory",
                               "--kappa2", "100", "--squeeze-r", "2",
                               "--cycles", "100", "--seed", "4")
        assert code == 0
        assert float(parse_kv(out)["mean_fidelity"]) > 0.5

    def test_unknown_protocol(self, capsys):
        code, _, err = run_cli(capsys, "protocol", "--protocol", "warp")
        assert code == 1
        assert "unknown protocol" in err

    def test_missing_protocol_flag(self, capsys):
        code, _, _ = run_cli(capsys, "protocol")
        assert code == 1


class TestConfig:
    def test_round_trip(self, tmp_path):
        config = RunConfig(kappa2=1.5, beta=0.65, theta_deg=7.25, power_mw=3.5,
                           pulse_ms=1.25, detuning_mhz=900.0, n_atoms=3.0e10,
                           cycles=777, seed=13, out="cycles.csv", parallel=2,
                           protocol="swap", gain=0.8, squeeze_r=0.1,
                           theta_grid=(0.1, 3.0))
        assert all(getattr(config, f.name) != f.default for f in fields(config))
        path = tmp_path / "run.cfg"
        write_config(config, str(path))
        reparsed = RunConfig(**read_config(str(path)))
        assert reparsed == config

    def test_flags_override_file(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("kappa2 = 1\nbeta = 1\ncycles = 5000\nseed = 21\n")
        _, out_file, _ = run_cli(capsys, "run", "--config", str(path))
        _, out_override, _ = run_cli(capsys, "run", "--config", str(path),
                                     "--beta", "0")
        assert parse_kv(out_file)["beta"] == "1"
        assert parse_kv(out_override)["beta"] == "0"

    def test_comments_and_errors(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\nkappa2 = 2.0  # inline\n")
        assert read_config(str(path)) == {"kappa2": 2.0}
        path.write_text("unknown_key = 3\n")
        with pytest.raises(ValueError):
            read_config(str(path))
        path.write_text("cycles = not_a_number\n")
        with pytest.raises(ValueError):
            read_config(str(path))

    def test_flag_set(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        argv = ["run", "--config", str(path), "--kappa2", "2.5", "--beta", "0.5",
                "--theta-deg", "3", "--power-mw", "1.5", "--pulse-ms", "0.5",
                "--detuning-mhz", "350", "--n-atoms", "2e10", "--cycles", "123",
                "--seed", "7", "--out", "x.csv", "--parallel", "3",
                "--protocol", "swap", "--gain", "0.75", "--squeeze-r", "0.25",
                "--theta-grid", "1,2.5"]
        args = build_parser().parse_args(argv)
        flags = [a for a in argv if a.startswith("--")]
        assert len(flags) == 16
        assert set(vars(args)) == {"command"} | {f[2:].replace("-", "_") for f in flags}
        assert load_config(args) == RunConfig(
            kappa2=2.5, beta=0.5, theta_deg=3.0, power_mw=1.5, pulse_ms=0.5,
            detuning_mhz=350.0, n_atoms=2e10, cycles=123, seed=7, out="x.csv",
            parallel=3, protocol="swap", gain=0.75, squeeze_r=0.25,
            theta_grid=(1.0, 2.5))

    @pytest.mark.parametrize("argv", [("run", "--kappa2", "nan"),
                                      ("run", "--kappa2", "inf"),
                                      ("calibrate", "--power-mw", "nan")])
    def test_non_finite_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--cycles", "100")
        assert code == 1
        assert out == ""
        assert "must be finite" in err

    def test_config_validation(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--cycles", "1")
        assert code == 1
        code, _, _ = run_cli(capsys, "run", "--beta", "1.5")
        assert code == 1


class TestParallelDeterminism:
    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_run_output_independent_of_parallelism(self, capsys, tmp_path, workers):
        path = tmp_path / f"p{workers}.csv"
        code, out, _ = run_cli(capsys, "run", "--kappa2", "0.5", "--beta", "0.8",
                               "--cycles", "8199", "--seed", "6",
                               "--parallel", workers, "--out", str(path))
        assert code == 0
        if not hasattr(TestParallelDeterminism, "_reference"):
            TestParallelDeterminism._reference = (path.read_bytes(), out)
        else:
            ref_bytes, ref_out = TestParallelDeterminism._reference
            assert path.read_bytes() == ref_bytes
            assert out == ref_out
