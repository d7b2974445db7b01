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
from spinlight.experiment import CYCLE_CHUNK

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


def verdict_margin(values, n):
    """The margin 1 + kappa2 - cond_var of a run's summary in standard errors,
    se = cond_var sqrt(2 / (2n - 1)) (the law of cond_var in
    linear_oracle.cycle_stat_laws), once the printed verdict is checked to be
    cond_var < 1 + kappa2."""
    kappa2, cond = float(values["kappa2"]), float(values["cond_var"])
    assert values["entangled"] == ("true" if cond < 1.0 + kappa2 else "false")
    return (1.0 + kappa2 - cond) / (cond * np.sqrt(2.0 / (2 * n - 1)))


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

    @pytest.mark.parametrize("route", [(), ("--theta-deg", "10")], ids=["n_atoms", "theta"])
    def test_red_detuning_changes_only_the_sign_of_a(self, capsys, route):
        # kappa^2 depends on |Delta|; -700 exited 1 in kappa2_theory while run accepted it
        _, blue, _ = run_cli(capsys, "calibrate", "--detuning-mhz", "700", *route)
        code, red, _ = run_cli(capsys, "calibrate", "--detuning-mhz", "-700", *route)
        assert code == 0
        blue, red = parse_kv(blue), parse_kv(red)
        assert float(red.pop("a")) == -float(blue.pop("a"))
        assert red == blue

    def test_bad_params_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "calibrate", "--power-mw", "-3")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ("calibrate", "--theta-deg", "1e308"),  # printed j_x = inf and ratio = inf
        ("calibrate", "--power-mw", "1e308"),  # printed s_x = inf
        ("calibrate", "--n-atoms", "1e300"),  # printed kappa2_first_principles = inf
        ("calibrate", "--detuning-mhz", "1e-300"),  # kappa**2 raised OverflowError
        ("protocol", "--protocol", "swap", "--theta-deg", "1e308")])  # numpy warned
    def test_non_finite_operating_point_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert re.fullmatch(r"error: the operating point's \w+ is not finite\n", err)


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
        # at beta = 0 the model's cond_var is 1 + kappa2, the bound itself, so the
        # verdict is a coin flip (true at 28 of seeds 1-60); the data can show only
        # that it follows cond_var and that the margin is within 5 standard errors of 0
        code, out, _ = run_cli(capsys, "run", "--kappa2", "1", "--beta", "0",
                               "--cycles", "10000", "--seed", "1")
        assert code == 0
        assert abs(verdict_margin(parse_kv(out), 10_000)) <= 5.0

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

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv", [
        ("--kappa2", "1e-320", "--cycles", "100"),  # _stats refuses the statistics
        ("--kappa2", "6e304", "--cycles", "8192")])  # the drawn sums overflow
    def test_refused_run_leaves_no_csv(self, capsys, tmp_path, argv, workers):
        path = tmp_path / "cycles.csv"
        code, out, err = run_cli(capsys, "run", *argv, "--parallel", workers, "--out", str(path))
        assert code == 1
        assert out == ""
        assert "not finite" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["file", "symlink", "dangling symlink"])
    def test_refused_run_keeps_a_path_that_existed(self, capsys, tmp_path, kind):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        if kind != "dangling symlink":
            target.write_text("a user's file\n")
        if kind != "file":
            link.symlink_to(target)
        path = target if kind == "file" else link
        code, _, err = run_cli(capsys, "run", "--kappa2", "1e-320", "--cycles", "100",
                               "--out", str(path))
        assert code == 1
        assert "not finite" in err
        assert os.path.lexists(path)
        assert path.is_symlink() == (kind != "file")
        # refused before the path is opened: no row reaches the target, and no
        # temporary file is left or dangling symlink's target created
        if kind == "dangling symlink":
            assert [p.name for p in tmp_path.iterdir()] == ["link.csv"]
        else:
            assert target.read_text() == "a user's file\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == (
                ["target.csv"] if kind == "file" else ["link.csv", "target.csv"])

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
    def test_read_only_file_refused(self, capsys, tmp_path):
        # the directory is writable, so only the file's own mode can refuse the write
        path = tmp_path / "locked.csv"
        path.write_text("a user's file\n")
        path.chmod(0o444)
        code, out, err = run_cli(capsys, "run", "--kappa2", "1", "--cycles", "100",
                                 "--out", str(path))
        assert code == 2
        assert err.startswith("i/o error: ")
        assert path.read_text() == "a user's file\n"
        assert [p.name for p in tmp_path.iterdir()] == ["locked.csv"]

    def test_out_to_a_pipe_writes_the_csv_then_the_summary(self, tmp_path):
        # /dev/stdout is a symlink, so it is written in place, not replaced
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        argv = [sys.executable, "-m", "spinlight.cli", "run", "--kappa2", "1", "--cycles", "100"]
        env = dict(os.environ, PYTHONPATH=path)
        to_file = subprocess.run([*argv, "--out", str(tmp_path / "c.csv")], env=env,
                                 capture_output=True, timeout=60)
        to_pipe = subprocess.run([*argv, "--out", "/dev/stdout"], env=env,
                                 capture_output=True, timeout=60)
        assert to_file.returncode == to_pipe.returncode == 0
        assert to_pipe.stdout == (tmp_path / "c.csv").read_bytes() + to_file.stdout
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv"]

    def test_non_finite_statistics_refused(self, capsys):
        # the drawn sum of a1^2 + b1^2, about 1.5e306 chi2(200), overflows
        code, out, err = run_cli(capsys, "run", "--kappa2", "3e306", "--cycles", "100")
        assert code == 1
        assert out == ""
        assert "not finite" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv", [
        ("run", "--kappa2", "3e306", "--cycles", "100"),  # the drawn sums overflow
        ("run", "--kappa2", "1e308", "--cycles", "100"),
        ("run", "--kappa2", "6e304", "--cycles", "8192"),
        ("sweep", "--theta-grid", "2,1e308", "--cycles", "100"),
        ("timedomain", "--kappa2", "1e308", "--cycles", "100")])  # the sample covariance overflows
    def test_refusal_prints_one_stderr_line(self, tmp_path, argv, workers):
        # in a fresh interpreter, so stderr holds whatever numpy would warn
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-m", "spinlight.cli", *argv, "--parallel", workers,
                               "--out", str(tmp_path / "out.csv")],
                              env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
        assert done.returncode == 1
        assert done.stdout == ""
        assert re.fullmatch(r"error: the [a-z ]+ at kappa2 = \S+ are not finite\n", done.stderr)

    def test_coupling_lost_in_the_bound_is_undetermined(self, capsys):
        # 1 + 1e-300 == 1: cond_var < 1 + kappa2 is a coin flip, not a verdict, and
        # atomic_var = (cond_var - 1) / 1e-300 (printed as -8.97e+298) is shot noise
        code, out, _ = run_cli(capsys, "run", "--kappa2", "1e-300", "--cycles", "100")
        assert code == 0
        assert parse_kv(out)["entangled"] == "undetermined"
        assert "atomic_var" not in parse_kv(out)

    @pytest.mark.parametrize("argv", [
        ("sweep", "--theta-grid", "2", "--out", "sweep.csv"),  # OverflowError in rng.chisquare
        ("run", "--kappa2", "1")])  # ran without end
    def test_cycle_count_beyond_int64_refused(self, tmp_path, argv):
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-m", "spinlight.cli", *argv,
                               "--cycles", str(2**63)], cwd=tmp_path, timeout=60,
                              env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == "error: n_cycles must be below 2**63\n"
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("kappa2", ["1e16", "1e306"])
    def test_cond_var_without_a_correct_digit_refused(self, kappa2):
        # the Gram form printed cond_var = 10.34 and 0 here, both with a verdict
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-m", "spinlight.cli", "run", "--kappa2", kappa2,
                               "--cycles", "100"],
                              env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
        assert done.returncode == 1
        assert done.stdout == ""
        assert re.fullmatch(r"error: cond_var at kappa2 = \S+ has no correct digit: [^\n]*\n",
                            done.stderr)

    @pytest.mark.parametrize("kappa2", ["1e-6", "1", "1e8"])
    def test_verdict_kept_where_the_bound_resolves(self, capsys, kappa2):
        # 1 + kappa2 > 1, so a verdict is printed.  At 1e-6 the model's margin,
        # kappa2^2 / (1 + kappa2), is 1e-11 standard errors: the verdict is a coin
        # flip (true at 28 of seeds 1-60), so only its margin's size is checked;
        # at 1 the model's margin is 3.3 standard errors, at 1e8 about 5e8
        code, out, _ = run_cli(capsys, "run", "--kappa2", kappa2, "--cycles", "100")
        assert code == 0
        margin = verdict_margin(parse_kv(out), 100)
        assert abs(margin) <= 5.0 if kappa2 == "1e-6" else margin > 0.0

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

    def test_csv_bytes_pinned(self, capsys, tmp_path):
        # one pooled Gram matrix drawn per point, of all 16386 cycles: a change
        # to that stream is a deliberate edit of this digest
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--theta-grid", "2,4,6", "--cycles", "16386",
                             "--seed", "5", "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "3eff22d504358d60ab0743d352fa61c36b80c01e51d26557c6c23c1639b8bdca")

    @pytest.mark.parametrize("cycles,digest", [
        # one chunk's pooled Gram matrix, at a full chunk and at 3 cycles,
        # where the Bartlett factor's last diagonal is sqrt(chi2(5))
        ("4096", "add861e565a6a21b4630efca235e37512b1af51ccb368b133da5ddfac4f41070"),
        ("3", "6bb74820b1d1b61845b536838bf7049a9d7ba87241f150b97f7966b9c30748f8"),
    ], ids=["4096", "3"])
    def test_one_chunk_csv_bytes_pinned(self, capsys, tmp_path, cycles, digest):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--theta-grid", "2,4,6", "--cycles", cycles,
                             "--seed", "5", "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_csv_equal_at_any_parallelism(self, capsys, tmp_path):
        csvs = []
        for workers in ("1", "2", "4"):
            path = tmp_path / f"p{workers}.csv"
            code, _, _ = run_cli(capsys, "sweep", "--theta-grid", "2,4,6", "--beta", "0.65",
                                 "--cycles", str(5 * CYCLE_CHUNK + 3), "--seed", "45",
                                 "--parallel", workers, "--out", str(path))
            assert code == 0
            csvs.append(path.read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]

    def test_missing_out_is_usage_error(self, capsys, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("sweep simulated before checking --out")

        monkeypatch.setattr(spinlight.experiment, "density_sweep", no_simulation)
        code, _, _ = run_cli(capsys, "sweep", "--cycles", "100")
        assert code == 1


# test_report_passes' whole stdout: any kernel or BLAS-threading change that moves
# a printed digit fails it.  The trace CSV is not pinned: its 17-digit cos/sin
# values may differ in the last bit between CPUs.
TIMEDOMAIN_REPORT = """\
kappa2 = 1
runs = 20000
moment                timedomain        engine  status
mean(x_l1)              0.002379      0.000000  PASS
mean(x_l2)              0.000153      0.000000  PASS
mean(X_A1)              0.002356      0.000000  PASS
mean(P_A1)              0.002317      0.000000  PASS
mean(X_A2)              0.000183      0.000000  PASS
mean(P_A2)             -0.005394      0.000000  PASS
var(x_l1)               1.007237      1.000000  PASS
var(x_l2)               0.991395      1.000000  PASS
cov(x_l1,x_l2)         -0.008417      0.000000  PASS
var(X_A1)               1.002449      1.000000  PASS
var(P_A1)               0.505690      0.500000  PASS
var(X_A2)               1.006306      1.000000  PASS
var(P_A2)               0.504624      0.500000  PASS
cov(x_l1,P_A1)          0.501940      0.500000  PASS
cov(x_l2,P_A2)          0.500208      0.500000  PASS
cov(X_A1,P_A1)          0.003674      0.000000  PASS
cov(x_l1,X_A1)         -0.004402      0.000000  PASS
spin-sum drift = 0.000e+00 (PASS)
overall = PASS
"""


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
        assert out == TIMEDOMAIN_REPORT
        assert trace_path.exists()

    def test_overflowing_moments_refused_at_the_given_coupling(self, capsys, monkeypatch):
        # sqrt(1.7e308)**2 is 1.6999999999999997e+308; the message shows what was given
        import spinlight.timedomain as td
        monkeypatch.setattr(td, "DEFAULT_OMEGA_T", 2.0 * np.pi * 20.0)
        code, out, err = run_cli(capsys, "timedomain", "--kappa2", "1.7e308", "--cycles", "100")
        assert (code, out) == (1, "")
        assert err == "error: the sample moments at kappa2 = 1.7e+308 are not finite\n"

    def test_failed_gate_exit_code(self, capsys, monkeypatch):
        # 64 runs cannot meet the 3% moment gate
        import spinlight.timedomain as td
        monkeypatch.setattr(td, "DEFAULT_OMEGA_T", 2.0 * np.pi * 20.0)
        code, out, _ = run_cli(capsys, "timedomain", "--kappa2", "1",
                               "--cycles", "64", "--seed", "17")
        assert "overall = FAIL" in out
        assert code == 4

    def test_failed_drift_row_exit_code(self, capsys, monkeypatch):
        # no real input moves the vacuum pulse's spin sums: make them move by 1e-9
        import spinlight.timedomain as td
        monkeypatch.setattr(td, "DEFAULT_OMEGA_T", 2.0 * np.pi * 20.0)
        simulate_pulse = td.simulate_pulse

        def drifting_pulse(*args):
            trace, lock_in = simulate_pulse(*args)
            trace.spin_sums[-1] += 1e-9
            return trace, lock_in

        monkeypatch.setattr(td, "simulate_pulse", drifting_pulse)
        code, out, _ = run_cli(capsys, "timedomain", "--kappa2", "1",
                               "--cycles", "20000", "--seed", "17")
        assert out == (TIMEDOMAIN_REPORT
                       .replace("drift = 0.000e+00 (PASS)", "drift = 1.000e-09 (FAIL)")
                       .replace("overall = PASS", "overall = FAIL"))
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

    @pytest.mark.parametrize("squeeze_r,code,message", [
        ("20", 3, "internal invariant violation: unphysical reduced covariance"),  # F = 2
        ("25", 3, "internal invariant violation: unphysical reduced covariance"),
        ("400", 1, "error: matrix entries up to .* overflow"),  # raised OverflowError
        ("1000", 1, "error: matrix entries up to .* overflow")],  # numpy warned
        ids=["20", "25", "400", "1000"])
    def test_squeezing_beyond_double_precision_refused(self, capsys, squeeze_r, code, message):
        got, out, err = run_cli(capsys, "protocol", "--protocol", "memory", "--kappa2", "1",
                                "--squeeze-r", squeeze_r, "--cycles", "10")
        assert got == code
        assert out == ""
        assert re.fullmatch(message + r"[^\n]*\n", err)

    # each printed numpy warnings, then mean_fidelity = nan, duan_sum_out = nan or (at
    # 2.27e154, where the covariance's symmetrization overflows) 1.1e154, with exit 0
    @pytest.mark.parametrize("protocol,kappa2", [("teleport", "1e300"), ("swap", "1e300"),
                                                 ("swap", "2.27e154")])
    def test_state_that_overflows_refused(self, capsys, protocol, kappa2):
        code, out, err = run_cli(capsys, "protocol", "--protocol", protocol,
                                 "--kappa2", kappa2, "--cycles", "10")
        assert code == 1
        assert out == ""
        assert err == "error: the state's mean or covariance is not finite\n"

    # the feedback gain sqrt(2) / kappa is about 1.4e160 at a subnormal coupling, so
    # displacement errors near 1e159 are real and F rounds to 0; the fidelity's
    # quadratic form overflowed with a numpy RuntimeWarning
    @pytest.mark.parametrize("protocol", ["teleport", "memory"])
    def test_feedback_noise_beyond_range_gives_zero_fidelity(self, capsys, protocol):
        code, out, err = run_cli(capsys, "protocol", "--protocol", protocol,
                                 "--kappa2", "1e-320", "--cycles", "10")
        assert code == 0
        assert parse_kv(out)["mean_fidelity"] == "0"
        assert err == ""

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

    @pytest.mark.parametrize("out", ["runs#1.csv", "runs\n.csv", "a.csv\r", " a.csv", ()])
    def test_strings_that_would_not_read_back_refused(self, tmp_path, out):
        # "out = runs#1.csv" read back as "runs": '#' starts a comment; an empty
        # grid wrote "theta_grid = ", which read_config refuses
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\n")
        config = RunConfig(theta_grid=()) if out == () else RunConfig(out=out)
        with pytest.raises(ValueError, match="would not read back"):
            write_config(config, str(path))
        assert path.read_text() == "seed = 3\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

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
        path.write_text("kappa2 2.0\n")
        with pytest.raises(ValueError, match="expected 'key = value'"):
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
        assert run_cli(capsys, "run", "--parallel", "0") == (1, "", "error: parallel must be >= 1\n")
        assert run_cli(capsys, "run", "--kappa2", "-1") == (1, "", "error: kappa2 must be >= 0\n")

    @pytest.mark.parametrize("argv,message", [
        (("run", "--cycles", "abc"), "argument --cycles: invalid int value: 'abc'"),
        (("run", "--no-such-flag"), "unrecognized arguments: --no-such-flag"),
        (("flip",), "argument command: invalid choice: 'flip'"),
        (("run", "--config", "{missing}"), "cannot read config: "),
        (("run", "--config", "{no_equals}"), "{no_equals}:1: expected 'key = value'")],
        ids=["bad-int", "unknown-flag", "unknown-command", "unreadable-config", "line-without-="])
    def test_usage_errors_print_one_line(self, capsys, tmp_path, argv, message):
        paths = {"missing": str(tmp_path / "missing.cfg"), "no_equals": str(tmp_path / "bad.cfg")}
        (tmp_path / "bad.cfg").write_text("kappa2 2.0\n")
        code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
        assert (code, out) == (1, "")
        assert err.startswith("error: " + message.format(**paths))
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("argv", [("run",), ("sweep",), ("timedomain",),
                                      ("protocol", "--protocol", "teleport")])
    def test_negative_seed_refused(self, capsys, tmp_path, argv):
        refusal = (1, "", "error: seed must be >= 0\n")
        assert run_cli(capsys, *argv, "--seed", "-1") == refusal
        path = tmp_path / "run.cfg"
        path.write_text("seed = -1\n")
        assert run_cli(capsys, *argv, "--config", str(path)) == refusal

    @pytest.mark.parametrize("argv", [("run",), ("sweep",), ("timedomain",),
                                      ("protocol", "--protocol", "teleport")])
    def test_empty_out_refused_before_any_work(self, capsys, tmp_path, monkeypatch, argv):
        # it ran the whole command, then failed to rename the file it wrote beside ''
        monkeypatch.chdir(tmp_path)
        refusal = (1, "", "error: out must name a file\n")
        assert run_cli(capsys, *argv, "--cycles", "100", "--out", "") == refusal
        (tmp_path / "run.cfg").write_text("out = \n")
        assert run_cli(capsys, *argv, "--cycles", "100", "--config", "run.cfg") == refusal
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


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
