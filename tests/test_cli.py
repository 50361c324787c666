import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dinfh
from dinfh.cli import main
from dinfh.selfsim import MAX_LEVEL


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMembershipCommand:
    def test_resolvent_point(self, capsys):
        code, out, _ = run_cli(capsys, "membership", "--z", "1", "8", "4", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["in_spectrum"] is False
        assert payload["witnesses"][0]["x_re"] == pytest.approx(-79 / 64)

    def test_complex_literals(self, capsys):
        code, out, _ = run_cli(capsys, "membership", "--z", "1,0", "1,0", "0,0", "0,0")
        assert code == 0
        assert json.loads(out)["in_spectrum"] is True


    @pytest.mark.parametrize(
        "z1, z3, expected",
        # exponent, leading-dot and RE,IM literals: values, not option flags
        [("-1e-5", "0", -1e-5), ("-.5", "-2.5E-1", -0.5), ("-1,0", "-0,-1", -1.0)],
    )
    def test_negative_literals_are_values(self, capsys, z1, z3, expected):
        code, out, err = run_cli(capsys, "membership", "--z", "1", z1, "0", z3)
        assert code == 0, err
        reference = main(["membership", "--z", "1", f" {z1}", "0", f" {z3}"])
        assert reference == 0
        assert json.loads(out) == json.loads(capsys.readouterr().out)

    def test_negative_option_lookalike_is_still_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["membership", "--z", "1", "-x", "0", "0"])
        assert exc.value.code == 1
        assert "expected 4 arguments" in capsys.readouterr().err


class TestTraceCommand:
    def test_oracle_tau(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "trace",
            "--z", "2,0", "0,0", "0,0", "1,0",
            "--functional", "tr",
            "--word", "tau",
            "--method", "oracle",
            "--N", "64",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value_re"] == pytest.approx(-1 / 3)
        assert payload["functional"] == "Tr"

    def test_quadrature_tabulated(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "trace",
            "--z", "2", "0", "0", "1",
            "--word", "tau",
            "--formula", "tabulated",
            "--n-nodes", "16",
        )
        assert code == 0
        assert json.loads(out)["value_re"] == pytest.approx(1 / 3)

    def test_on_spectrum_error(self, capsys):
        code, out, err = run_cli(capsys, "trace", "--z", "1", "1", "0", "0")
        assert code == 2
        assert json.loads(err)["error"] == "OnSpectrum"

    def test_dense_size_cap(self, capsys):
        code, out, err = run_cli(
            capsys, "trace", "--z", "1", "8", "4", "2", "--method", "oracle", "--N", "1025"
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "TruncationTooLarge"


class TestPeriodCommand:
    def test_named_loop(self, capsys):
        code, out, _ = run_cli(
            capsys, "period", "--loop", "L1", "--functional", "phitr", "--steps", "64"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value_im"] == pytest.approx(-2 * math.pi, abs=1e-6)
        assert payload["nearest"] == -2
        assert payload["residual"] <= 1e-6

    def test_oracle_canonical_on_coarse_grid(self, capsys):
        # 64 steps alias the 64 turns of det P around L1 at N = 32
        code, out, _ = run_cli(
            capsys, "period", "--loop", "L1", "--method", "oracle", "--steps", "64"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["nearest"] == 2
        assert payload["residual"] <= 1e-6

    def test_inline_loop(self, capsys):
        desc = json.dumps(
            {
                "kind": "circle",
                "center": [[2.5, 0], [0, 0], [0, 0], [0.5, 0]],
                "radius": 0.4,
                "coords": ["z0"],
                "steps": 64,
                "name": "ring",
            }
        )
        code, out, _ = run_cli(capsys, "period", "--loop", desc)
        assert code == 0
        assert json.loads(out)["nearest"] == 0
        assert json.loads(out)["loop"] == "ring"


class TestTreeCommands:
    def test_tree_dump(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "--element", "a", "--level", "1")
        assert code == 0
        assert out.splitlines() == ["0 -> 1", "1 -> 0", "2 -> 3", "3 -> 2"]

    def test_tree_spectrum_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "tree-spectrum", "--z1", "1", "--z2", "1", "--z3", "1",
            "--level", "1",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "level,z1,z2,z3,lambda,multiplicity_hint"
        assert len(lines) == 4

    def test_coverage(self, capsys):
        code, out, _ = run_cli(
            capsys, "coverage", "--z1", "1", "--z2", "0", "--z3", "0", "--level", "2"
        )
        assert code == 0
        assert json.loads(out)["gap"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ["tree", "--element", "a"],
            ["tree-spectrum", "--z1", "1", "--z2", "1", "--z3", "1"],
            ["coverage", "--z1", "1", "--z2", "1", "--z3", "1"],
        ],
    )
    def test_level_cap(self, capsys, argv):
        # one past the cap, so nothing large is allocated even if it failed
        level = str(MAX_LEVEL + 1)
        code, out, err = run_cli(capsys, *argv, "--level", level)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "LevelTooLarge"


class TestSliceCommand:
    def test_csv_output(self, capsys, tmp_path):
        out_file = tmp_path / "slice.csv"
        code, _, _ = run_cli(
            capsys,
            "slice",
            "--axes", "z0", "z1",
            "--fixed", "1,0", "0,0",
            "--grid", "5", "5",
            "--u-range", "-2", "2",
            "--v-range", "-2", "2",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "u,v,margin,in_spectrum"
        assert len(lines) == 26

    def test_negative_fixed_values_and_ranges(self, capsys):
        code, out, err = run_cli(
            capsys,
            "slice",
            "--axes", "z0", "z1",
            "--fixed", "-1e-5", "-1,-2",
            "--grid", "2", "2",
            "--u-range", "-1e-3", "-.5",
            "--v-range", "-2", "-1E+0",
        )
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [(float(u), float(v)) for u, v, *_ in rows] == [
            (-1e-3, -2.0), (-1e-3, -1.0), (-0.5, -2.0), (-0.5, -1.0)
        ]


class TestMcCheckCommand:
    def test_closedness_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc-check", "--z", "1", "8", "4", "2", "--n-nodes", "64"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "coord_i,coord_j,residual"
        max_line = [l for l in lines if l.startswith("# max residual")]
        assert float(max_line[0].split(":")[1]) <= 1e-6


class TestVerifyCommand:
    def test_single_criterion(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "2")
        assert code == 0
        payload = json.loads("\n".join(out.splitlines()[1:]))
        assert payload["all_passed"] is True
        assert payload["criteria"][0]["number"] == 2

    def test_repeated_criterion_runs_once(self, capsys, tmp_path):
        once, twice = tmp_path / "once.json", tmp_path / "twice.json"
        for f, only in ((once, "2"), (twice, "2,2")):
            code, out, _ = run_cli(capsys, "verify", "--only", only, "--out", str(f))
            assert code == 0
            assert len(out.splitlines()) == 1
        assert twice.read_bytes() == once.read_bytes()

    @pytest.mark.parametrize("only, message", [("2,10", "no criterion 10"), ("", "no criterion selected")])
    def test_bad_selection_runs_nothing(self, capsys, only, message):
        # the whole selection is checked before criterion 2 could print PASS
        code, out, err = run_cli(capsys, "verify", "--only", only)
        assert code == 1
        assert out == ""
        assert err == f"dinfh: error: {message}\n"


class TestErratumCommand:
    def test_report_content(self, capsys):
        code, out, _ = run_cli(capsys, "erratum-report", "--skip-periods")
        assert code == 0
        payload = json.loads(out)
        assert payload["tau_trace"]["direct_algebra"] == pytest.approx(-1 / 3)
        assert payload["tau_trace"]["tabulated"] == pytest.approx(1 / 3)
        assert payload["mixed_partials"]["pointwise_inequality_reproducible"] is False


class TestDeterminism:
    def test_identical_artifacts(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "membership", "--z", "1", "8", "4", "2", "--out", str(f1))
        run_cli(capsys, "membership", "--z", "1", "8", "4", "2", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_verify_artifacts_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        for f in (f1, f2):
            code, _, _ = run_cli(capsys, "verify", "--only", "2,4,8", "--out", str(f))
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_erratum_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        for f in (f1, f2):
            run_cli(capsys, "erratum-report", "--skip-periods", "--out", str(f))
        assert f1.read_bytes() == f2.read_bytes()


class TestOutFile:
    def run(self, tmp_path, stdout):
        out_file = tmp_path / "m.json"
        proc = subprocess.run(
            [sys.executable, "-m", "dinfh.cli", "membership", "--z", "1", "8", "4", "2",
             "--out", str(out_file)],
            env={**os.environ, "PYTHONPATH": str(Path(dinfh.__file__).resolve().parents[1])},
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out_file.read_text())["in_spectrum"] is False
        return proc

    def test_writes_the_file_and_nothing_to_stdout(self, tmp_path):
        assert self.run(tmp_path, subprocess.PIPE).stdout == ""

    def test_closed_stdout_pipe_gives_no_traceback(self, tmp_path):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self.run(tmp_path, write)
        finally:
            os.close(write)
        assert "Traceback" not in proc.stderr


class TestUsageErrors:
    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 1

    def test_bad_complex_literal_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["membership", "--z", "1", "2", "3", "nope"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["tree", "--level", "-1"], "level must be nonnegative"),
            (
                ["trace", "--z", "1", "8", "4", "2", "--method", "oracle", "--N", "1"],
                "truncation size N must be at least 2",
            ),
            (
                ["trace", "--z", "1", "8", "4", "2", "--method", "oracle", "--N", "0"],
                "truncation size N must be at least 2",
            ),
            (
                ["trace", "--z", "1", "8", "4", "2", "--n-nodes", "15"],
                "n_nodes must be even and at least 4",
            ),
            (["period", "--loop", "L1", "--steps", "4"], "a loop needs at least 8 steps"),
            (["period", "--loop", "L1", "--steps", "-8"], "a loop needs at least 8 steps"),
            (
                ["period", "--loop", "L1", "--steps", "-8", "--method", "oracle"],
                "a loop needs at least 8 steps",
            ),
            (["period", "--loop", "L1", "--steps", "0"], "a loop needs at least 8 steps"),
            (
                ["slice", "--axes", "z0", "z1", "--fixed", "0", "0", "--grid", "0", "0"],
                "raster grid must be at least 2x2",
            ),
            (
                ["mc-check", "--z", "1", "8", "4", "2", "--step=0"],
                "step must be positive and finite, not 0.0",
            ),
            (
                ["mc-check", "--z", "1", "8", "4", "2", "--step=-1e-5"],
                "step must be positive and finite, not -1e-05",
            ),
            (
                ["mc-check", "--z", "1", "8", "4", "2", "--step=nan"],
                "step must be positive and finite, not nan",
            ),
        ],
        ids=[
            "tree-level", "trace-N", "trace-N-zero", "trace-nodes", "period-steps",
            "period-steps-negative", "period-steps-negative-oracle", "period-steps-zero",
            "slice-grid",
            "mc-check-step-zero", "mc-check-step-negative", "mc-check-step-nan",
        ],
    )
    def test_invalid_value_exits_1(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"dinfh: error: {message}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["membership", "--z", "nan", "1", "1", "1"],
            ["membership", "--z", "1", "1,-inf", "1", "1"],
            ["membership", "--z", "1", "1,nan", "1", "1"],
            ["membership", "--z", "1", "8", "4", "2", "--tol", "inf"],
            ["trace", "--z", "nan", "8", "4", "2"],
            ["mc-check", "--z", "1", "8", "Infinity", "2"],
            ["coverage", "--z1", "nan", "--z2", "1", "--z3", "0.5"],
            ["tree-spectrum", "--z1", "1", "--z2", "1", "--z3", "inf"],
            ["slice", "--axes", "z0", "z1", "--fixed", "1", "1", "--tol", "nan"],
            ["slice", "--axes", "z0", "z1", "--fixed", "1", "nan"],
            ["slice", "--axes", "z0", "z1", "--fixed", "1", "1", "--u-range", "inf", "1"],
        ],
        ids=[
            "membership-z0", "membership-z1", "membership-imag", "membership-tol",
            "trace", "mc-check", "coverage", "tree-spectrum", "slice-tol", "slice-fixed",
            "slice-range",
        ],
    )
    def test_non_finite_number_exits_1(self, capsys, argv):
        # nan and inf name no point and no tolerance: argparse refuses them
        # before any command runs
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert "is not a finite number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "desc, message",
        [
            ('{"radius": 1}', "inline loop lacks center, coords"),
            (
                '{"center": [[1, 0], [0, 0], [0, 0], [0, 0]], "radius": 0.5, "coords": ["z9"]}',
                "unknown loop coordinates ['z9']; use ['z0', 'z1', 'z2', 'z3']",
            ),
            ("[1]", "an inline loop must be a JSON object"),
            (
                '{"center": 5, "radius": 1, "coords": ["z0"]}',
                "inline loop center must be a list of finite [re, im] pairs",
            ),
            (
                '{"center": [[1, 0], [0, 0], [0, 0], [0, 0]], "radius": 1, "coords": 3}',
                "inline loop coords must be a list",
            ),
            (
                '{"center": [1, 2, 3, 4], "radius": 1, "coords": ["z0"]}',
                "inline loop center must be a list of finite [re, im] pairs",
            ),
            (
                '{"center": [[1, 0], [0, 0], [0, 0], [0, 0]], "radius": 1, "coords": ["z0"],'
                ' "signs": 3}',
                "inline loop signs must be a list of finite numbers",
            ),
            (
                '{"center": [[1, 0], [0, 0], [0, 0], [0, 0]], "radius": [1], "coords": ["z0"]}',
                "inline loop radius and steps must be finite numbers",
            ),
            (
                '{"center": [[NaN, 0], [0, 0], [0, 0], [1.5, 0]], "radius": 0.5, "coords": ["z0"]}',
                "inline loop center must be a list of finite [re, im] pairs",
            ),
            (
                '{"center": [[1, 0], [0, 0], [0, 0], [1e999, 0]], "radius": 0.5, "coords": ["z0"]}',
                "inline loop center must be a list of finite [re, im] pairs",
            ),
            (
                '{"center": [[1, 0], [0, 0], [0, 0], [0, 0]], "radius": Infinity, "coords": ["z0"]}',
                "inline loop radius and steps must be finite numbers",
            ),
            (
                '{"center": [[1, 0], [0, 0], [0, 0], [0, 0]], "radius": true, "coords": ["z0"]}',
                "inline loop radius and steps must be finite numbers",
            ),
            (
                '{"center": [[1, 0], [0, 0], [0, 0], [0, 0]], "radius": 0.5, "coords": ["z0"],'
                ' "steps": 1' + "0" * 400 + '}',
                "inline loop radius and steps must be finite numbers",
            ),
            (
                '{"center": [[1, 0], [0, 0], [0, 0], [0, 0]], "radius": 0.5, "coords": ["z0"],'
                ' "signs": [-Infinity]}',
                "inline loop signs must be a list of finite numbers",
            ),
            (
                '{"center": [[1, 0], [0, 0], [0, 0], [0, 0]], "radius": 1, "coords": [7, ["z0"]]}',
                "unknown loop coordinates [7, ['z0']]; use ['z0', 'z1', 'z2', 'z3']",
            ),
            (
                '{"center": [[2.5, 0], [0, 0], [0, 0], [0.5, 0]], "radius": 0.4, "coords": ["z0"],'
                ' "name": [1]}',
                "inline loop name must be a string",
            ),
            (
                '{"center": [[2.5, 0], [0, 0], [0, 0], [0.5, 0]], "radius": 0.4, "coords": ["z0"],'
                ' "steps": 8.9}',
                "inline loop steps must be an integer",
            ),
            (
                '{"center": [[2.5, 0], [0, 0], [0, 0], [0.5, 0]], "radius": 0.4, "coords": ["z0"],'
                ' "steps": 64.0}',
                "inline loop steps must be an integer",
            ),
        ],
        ids=[
            "missing-keys", "unknown-axis", "not-an-object", "center-number",
            "coords-number", "center-not-pairs", "signs-number", "radius-list",
            "center-nan", "center-overflow", "radius-infinity", "radius-bool", "steps-past-float",
            "signs-infinity", "axis-index-out-of-range", "name-list", "steps-fraction",
            "steps-float",
        ],
    )
    def test_malformed_inline_loop_exits_1(self, desc, message):
        proc = subprocess.run(
            [sys.executable, "-m", "dinfh.cli", "period", "--loop", desc],
            env={**os.environ, "PYTHONPATH": str(Path(dinfh.__file__).resolve().parents[1])},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"dinfh: error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--z", "1", "8", "4", "2", "--n-nodes", "1000000000000"],
            ["mc-check", "--z", "1", "8", "4", "2", "--n-nodes", "1000000000000"],
            ["period", "--loop", "L1", "--steps", "1000000000000"],
            ["period", "--loop", "L1", "--steps", "1000000000000", "--method", "oracle"],
            ["slice", "--axes", "z0", "z1", "--fixed", "1", "1", "--grid", "1000000", "1000000"],
        ],
        ids=["trace-nodes", "mc-check-nodes", "period-analytic", "period-oracle", "slice"],
    )
    def test_oversized_first_grid_exits_2(self, argv):
        # each grid would need terabytes: the cap must refuse it before numpy
        # is asked for the memory
        proc = subprocess.run(
            [sys.executable, "-m", "dinfh.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(Path(dinfh.__file__).resolve().parents[1])},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"] == "GridTooLarge"


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_fresh_python(code, spectra_threads):
    """Run code in a new interpreter with only SPECTRA_THREADS set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["SPECTRA_THREADS"] = spectra_threads
    src = str(Path(dinfh.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


class TestThreadCap:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_cap_applies_before_numpy_loads(self):
        proc = run_fresh_python(
            "import os, dinfh.cli; print(len(os.listdir('/proc/self/task')))", "1"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_scipy_loads_at_the_first_block_solve_under_the_cap(self):
        # dinfh sets the BLAS variables before numpy loads; SciPy, imported
        # only when a Klein block is solved, must still find them
        proc = run_fresh_python(
            "import os, sys, dinfh.cli\n"
            "from dinfh import oracle, selfsim\n"
            "argv = ['membership', '--z', '1', '8', '4', '2', '--out', os.devnull]\n"
            "assert dinfh.cli.main(argv) == 0\n"
            "selfsim.pencil_level_eigs(1.0, 1.0, 0.5, 4)\n"
            "print('scipy' in sys.modules)\n"
            "oracle.oracle_trace((1.0, 8.0, 4.0, 2.0), 'e', 16)\n"
            "print('scipy.linalg' in sys.modules, len(os.listdir('/proc/self/task')))\n",
            "1",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True", "1"]

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_invalid_cap_rejected(self, value):
        proc = run_fresh_python("import dinfh", value)
        assert proc.returncode != 0
        assert "SPECTRA_THREADS must be a positive integer" in proc.stderr
