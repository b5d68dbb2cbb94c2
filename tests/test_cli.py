import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gridrestore.cli
import gridrestore.lp
import gridrestore.milp
import gridrestore.models
from gridrestore.cli import (EXIT_OK, EXIT_PARSE, EXIT_SOLVER, RunConfig, cmd_compare,
                             cmd_solve, cmd_sweep, main)
from gridrestore.heuristics import brute_force_optimal
from gridrestore.network import (DamageScenario, build_schedule, parse_case,
                                 random_damage)
from gridrestore.lp import LpSolution
from gridrestore.models import PlanEvaluationError
from conftest import CASES_DIR, energizes_every_line

TINY3 = os.path.join(CASES_DIR, "tiny3.m")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def read_summary(outdir):
    with open(os.path.join(outdir, "summary.json")) as f:
        return json.load(f)


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


class TestSolve:
    def test_util_full_damage_one_line_per_period(self, tmp_path):
        rc = main(["solve", "--case", TINY3, "--damage-fraction", "1.0",
                   "--seed", "7", "--algo", "util", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        summary = read_summary(tmp_path)
        assert len(summary["plan"]) == 3
        assert sorted(sum(summary["plan"], [])) == [1, 2, 3]

    def test_oracle_matches_brute_force(self, tmp_path):
        rc = main(["solve", "--case", TINY3, "--damage-lines", "1", "2", "3",
                   "--algo", "oracle", "--rel-gap", "0", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        summary = read_summary(tmp_path)
        net = parse_case(open(TINY3).read())
        plan, energy = brute_force_optimal(net, DamageScenario((1, 2, 3)),
                                           build_schedule(3, 3))
        assert summary["plan"] == [sorted(p) for p in plan.periods]
        assert summary["total_energy_pu"] == pytest.approx(energy)

    def test_rop_reports_gap(self, tmp_path):
        rc = main(["solve", "--case", TINY3, "--damage-lines", "1", "2",
                   "--algo", "rop", "--time-limit", "30", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        summary = read_summary(tmp_path)
        assert summary["gap"] is not None
        assert summary["gap"] >= 0.0

    def test_rop_unproven_bound_writes_null_gap(self, tmp_path, monkeypatch):
        real_solve = gridrestore.milp.solve_lp
        calls = []

        def root_fails(lp, *args, **kwargs):
            calls.append(lp)
            if len(calls) == 1:  # the root LP comes first
                return LpSolution("numerical_failure", float("nan"),
                                  np.zeros(len(lp.variables)))
            return real_solve(lp, *args, **kwargs)

        monkeypatch.setattr(gridrestore.milp, "solve_lp", root_fails)
        rc = main(["solve", "--case", TINY3, "--damage-lines", "1", "2",
                   "--algo", "rop", "--time-limit", "30", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert len(calls) == 2  # the failed root and the cold warm-start LP
        assert read_summary(tmp_path)["gap"] is None

    def test_summary_energy_matches_csv(self, tmp_path):
        main(["solve", "--case", TINY3, "--damage-fraction", "1.0",
              "--algo", "rrr", "--out", str(tmp_path)])
        summary = read_summary(tmp_path)
        rows = read_csv(os.path.join(tmp_path, "report.csv"))
        recomputed = sum(float(r["delivered_pu"]) for r in rows)  # 1h periods
        assert abs(recomputed - summary["total_energy_pu"]) <= 1e-9
        assert float(rows[-1]["cumulative_energy_pu"]) == pytest.approx(
            summary["total_energy_pu"], abs=1e-9)

    def test_oracle_memo_does_not_outlive_the_call(self, tmp_path, monkeypatch):
        real_solve = gridrestore.lp.solve_lp
        calls = []

        def counting(lp, *args, **kwargs):
            calls.append(lp)
            return real_solve(lp, *args, **kwargs)

        monkeypatch.setattr(gridrestore.lp, "solve_lp", counting)
        args = ["solve", "--case", TINY3, "--damage-lines", "1", "2", "3",
                "--algo", "oracle", "--out", str(tmp_path)]
        counts = []
        for _ in range(2):
            calls.clear()
            assert main(args) == EXIT_OK
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        def singular(lp, *args, **kwargs):
            return LpSolution("numerical_failure", float("nan"), None)

        monkeypatch.setattr(gridrestore.lp, "solve_lp", singular)
        for algo in ("util", "oracle"):
            rc = main(["solve", "--case", TINY3, "--damage-lines", "1", "2",
                       "--algo", algo, "--out", str(tmp_path)])
            assert rc == EXIT_SOLVER

    def test_final_period_failure(self, tmp_path, monkeypatch, capsys):
        # the final-period LP of the ordering MILP is the one with every line in
        real_solve = gridrestore.lp.solve_lp

        def failing_final(lp, *args, **kwargs):
            if energizes_every_line(lp, kwargs.get("form")):
                return LpSolution("numerical_failure", float("nan"), None)
            return real_solve(lp, *args, **kwargs)

        monkeypatch.setattr(gridrestore.lp, "solve_lp", failing_final)
        args = ["solve", "--case", TINY3, "--damage-lines", "1", "2", "3"]
        capsys.readouterr()
        assert main(args + ["--algo", "rop", "--out", str(tmp_path / "rop")]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("error: plan evaluation failed: plan evaluation LP of "
                              "period 3 ended with status numerical_failure")
        assert "Traceback" not in err
        # that LP is also the final period of every plan's evaluation
        assert main(args + ["--algo", "util", "--out", str(tmp_path / "u")]) == EXIT_SOLVER
        monkeypatch.setattr(gridrestore.lp, "solve_lp", real_solve)

        # rrr and rad fall back to the capacity order when an ordering
        # MILP's final period fails
        def failing_rop(network, damage, schedule, out=frozenset(), memo=None):
            raise PlanEvaluationError(schedule.n_periods, "numerical_failure")

        monkeypatch.setattr(gridrestore.models, "build_rop", failing_rop)
        util = tmp_path / "util"
        assert main(args + ["--algo", "util", "--out", str(util)]) == EXIT_OK
        for algo in ("rrr", "rad"):
            out = tmp_path / algo
            assert main(args + ["--algo", algo, "--time-limit", "5", "--out", str(out)]) \
                == EXIT_OK
            assert read_summary(out)["plan"] == read_summary(util)["plan"]

    def test_rop_solves_each_topology_once(self, tmp_path, monkeypatch):
        # the ordering MILP's final period and its base are in the solve's
        # memo, so the final evaluation re-solves neither
        real_solve = gridrestore.lp.solve_lp
        real_build_rop = gridrestore.cli.build_rop
        solved, in_rop = [], []

        def counting(lp, *args, **kwargs):
            form = kwargs["form"]
            solved.append((form.lower.tobytes(), form.upper.tobytes()))
            return real_solve(lp, *args, **kwargs)

        def build_rop(*args, **kwargs):
            art = real_build_rop(*args, **kwargs)
            in_rop.extend(solved)
            return art

        monkeypatch.setattr(gridrestore.lp, "solve_lp", counting)
        monkeypatch.setattr(gridrestore.cli, "build_rop", build_rop)
        case = os.path.join(CASES_DIR, "mesh12.m")
        assert main(["solve", "--case", case, "--damage-fraction", "0.25", "--seed", "3",
                     "--algo", "rop", "--out", str(tmp_path)]) == EXIT_OK
        assert len(in_rop) == 2  # the base and the final period
        assert len(solved) > len(in_rop)
        assert len(set(solved)) == len(solved)

    @pytest.mark.parametrize("algo", ["rrr", "rad", "oracle"])
    def test_heuristics_solve_each_topology_once(self, tmp_path, monkeypatch, algo):
        # rrr, rad and oracle take the solve's memo: every topology and
        # every base is solved once in the run, the final evaluation
        # included, and each from a basis, a base from its own crash basis
        real_solve = gridrestore.lp.solve_lp
        solved, starts = [], []

        def counting(lp, *args, **kwargs):
            form = kwargs["form"]
            solved.append((form.lower.tobytes(), form.upper.tobytes()))
            starts.append(kwargs.get("start"))
            return real_solve(lp, *args, **kwargs)

        monkeypatch.setattr(gridrestore.lp, "solve_lp", counting)
        case = os.path.join(CASES_DIR, "mesh12.m")
        assert main(["solve", "--case", case, "--damage-fraction", "0.25", "--seed", "3",
                     "--algo", algo, "--out", str(tmp_path)]) == EXIT_OK
        assert len(set(solved)) == len(solved) > 2
        assert None not in starts

    @pytest.mark.parametrize("algo", ["rrr", "rop"])
    def test_no_cold_lp_inside_solve_mip(self, tmp_path, monkeypatch, algo):
        # each ordering MILP's root starts from the model's start, its
        # other LPs from a parent's basis, and every base from its crash
        # basis: no LP of the run is cold, that is, runs from the slack basis
        real_slack = gridrestore.lp._Simplex.slack_basis
        real_node_lp = gridrestore.milp.solve_lp
        inside, colds, starts = [False], [], []

        def cold(self):
            colds.append(inside[0])
            return real_slack(self)

        def node_lp(lp, *args, **kwargs):
            starts.append(kwargs.get("start"))
            inside[0] = True
            try:
                return real_node_lp(lp, *args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(gridrestore.lp._Simplex, "slack_basis", cold)
        monkeypatch.setattr(gridrestore.milp, "solve_lp", node_lp)
        case = os.path.join(CASES_DIR, "mesh12.m")
        assert main(["solve", "--case", case, "--damage-fraction", "0.25", "--seed", "3",
                     "--algo", algo, "--out", str(tmp_path)]) == EXIT_OK
        assert starts and None not in starts
        assert colds == []

    def test_rop_one_period_has_no_free_binary(self, tmp_path, monkeypatch):
        real_solve_mip = gridrestore.cli.solve_mip
        binaries = []

        def counting(mip, opts):
            binaries.append(len(mip.binary_vars))
            return real_solve_mip(mip, opts)

        monkeypatch.setattr(gridrestore.cli, "solve_mip", counting)
        rc = main(["solve", "--case", TINY3, "--damage-lines", "1", "2", "3",
                   "--algo", "rop", "--n-periods", "1", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert binaries == [0]
        summary = read_summary(tmp_path)
        assert summary["plan"] == [[1, 2, 3]]
        assert summary["gap"] == 0.0

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.m"
        bad.write_text("mpc.baseMVA = 100;\n")
        rc = main(["solve", "--case", str(bad), "--damage-fraction", "1.0",
                   "--algo", "util", "--out", str(tmp_path)])
        assert rc == EXIT_PARSE

    def test_non_finite_case_number_is_a_parse_error(self, tmp_path, capsys):
        # tiny3 with a NaN reactance on its first branch
        with open(TINY3) as f:
            text = f.read()
        bad = tmp_path / "nan.m"
        bad.write_text(text.replace("1\t2\t0\t0.1\t", "1\t2\t0\tNaN\t"))
        out_dir = tmp_path / "out"
        rc = main(["solve", "--case", str(bad), "--damage-fraction", "1.0",
                   "--algo", "util", "--out", str(out_dir)])
        assert rc == EXIT_PARSE
        out, err = capsys.readouterr()
        assert err.startswith("error: parse error") and "field 'x'" in err
        assert out == "" and not out_dir.exists()

    def test_missing_file_exit_code(self, tmp_path):
        rc = main(["solve", "--case", str(tmp_path / "nope.m"),
                   "--damage-fraction", "1.0", "--algo", "util",
                   "--out", str(tmp_path)])
        assert rc == EXIT_PARSE

    def test_byte_identical_reruns(self, tmp_path):
        # rad stays on tiny3: it takes seconds on the meshed grid
        for case, fraction, algo in (("tiny3.m", "1.0", "rrr"), ("mesh12.m", "0.25", "rrr"),
                                     ("mesh12.m", "0.25", "rop")):
            out1, out2 = tmp_path / f"{algo}_{case}_a", tmp_path / f"{algo}_{case}_b"
            args = ["solve", "--case", os.path.join(CASES_DIR, case), "--damage-fraction",
                    fraction, "--seed", "3", "--algo", algo, "--rel-gap", "0"]
            assert main(args + ["--out", str(out1)]) == EXIT_OK
            assert main(args + ["--out", str(out2)]) == EXIT_OK
            for name in ("summary.json", "report.csv"):
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestCompare:
    def test_oracle_at_least_util(self, tmp_path):
        base = RunConfig(case=TINY3, algorithm="util", damage_lines=(1, 2, 3),
                         rel_gap=0.0, output_dir=str(tmp_path))
        assert cmd_compare(base, ["util", "oracle"]) == EXIT_OK
        rows = read_csv(os.path.join(tmp_path, "compare.csv"))
        by_algo = {r["algorithm"]: r for r in rows}
        assert float(by_algo["oracle"]["energy"]) >= float(by_algo["util"]["energy"]) - 1e-9
        assert by_algo["oracle"]["best"] == "True"

    def test_identical_algorithms_identical_rows(self, tmp_path):
        base = RunConfig(case=TINY3, algorithm="util", damage_lines=(1, 2),
                         output_dir=str(tmp_path))
        assert cmd_compare(base, ["util", "util"]) == EXIT_OK
        rows = read_csv(os.path.join(tmp_path, "compare.csv"))
        assert rows[0]["energy"] == rows[1]["energy"]
        assert rows[0]["best"] == rows[1]["best"]

    def test_requires_two_algorithms(self, tmp_path):
        rc = main(["compare", "--case", TINY3, "--damage-lines", "1",
                   "--algos", "util", "--out", str(tmp_path)])
        assert rc == EXIT_PARSE


class TestSweep:
    def test_single_cell(self, tmp_path):
        rc = main(["sweep", "--case", TINY3, "--fractions", "1.0",
                   "--seeds", "0", "--algos", "util", "--out", str(tmp_path),
                   "--workers", "1"])
        assert rc == EXIT_OK
        rows = read_csv(os.path.join(tmp_path, "sweep.csv"))
        assert len(rows) == 1
        assert rows[0]["algorithm"] == "util"
        assert float(rows[0]["energy"]) > 0

    def test_cache_idempotence(self, tmp_path):
        args = ["sweep", "--case", TINY3, "--fractions", "0.5", "1.0",
                "--seeds", "0", "1", "--algos", "util", "--out", str(tmp_path),
                "--workers", "1"]
        assert main(args) == EXIT_OK
        cell_dir = os.path.join(tmp_path, "cells")
        mtimes = {f: os.path.getmtime(os.path.join(cell_dir, f))
                  for f in os.listdir(cell_dir)}
        assert main(args) == EXIT_OK
        after = {f: os.path.getmtime(os.path.join(cell_dir, f))
                 for f in os.listdir(cell_dir)}
        assert mtimes == after  # cells never recomputed

    def test_changed_settings_recompute(self, tmp_path, capsys):
        base = ["sweep", "--case", TINY3, "--fractions", "1.0", "--seeds", "0",
                "--algos", "util", "--out", str(tmp_path), "--workers", "1"]
        for n_periods in ("3", "2"):
            assert main(base + ["--n-periods", n_periods]) == EXIT_OK
            assert "(1 computed, 0 cached)" in capsys.readouterr().out
        assert len(os.listdir(os.path.join(tmp_path, "cells"))) == 2
        assert main(base + ["--n-periods", "2"]) == EXIT_OK
        assert "(0 computed, 1 cached)" in capsys.readouterr().out

    def test_long_form_columns(self, tmp_path):
        main(["sweep", "--case", TINY3, "--fractions", "1.0", "--seeds", "0",
              "--algos", "util", "rrr", "--out", str(tmp_path), "--workers", "1"])
        rows = read_csv(os.path.join(tmp_path, "sweep.csv"))
        assert set(rows[0]) == {"case", "fraction", "seed", "algorithm",
                                "energy", "time", "gap"}
        assert len(rows) == 2


class TestRunConfig:
    def test_requires_exactly_one_damage_spec(self):
        with pytest.raises(ValueError, match="exactly one"):
            RunConfig(case=TINY3, algorithm="util")
        with pytest.raises(ValueError, match="exactly one"):
            RunConfig(case=TINY3, algorithm="util", damage_fraction=0.5,
                      damage_lines=(1,))

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            RunConfig(case=TINY3, algorithm="magic", damage_fraction=0.5)

    @pytest.mark.parametrize("field, value, message", [
        ("time_limit", 0.0, "time limit"), ("time_limit", float("nan"), "time limit"),
        ("rel_gap", 1.5, "relative gap"), ("rel_gap", -0.1, "relative gap"),
        ("n_periods", 0, "number of periods"), ("n_periods", -1, "number of periods")])
    def test_rejects_bad_solver_settings(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(case=TINY3, algorithm="util", damage_fraction=0.5, **{field: value})


# each subcommand, with the arguments it needs besides the option under test
SUBCOMMANDS = {
    "solve": ["solve", "--damage-lines", "1", "2", "--algo", "util"],
    "compare": ["compare", "--damage-lines", "1", "2", "--algos", "util", "rrr"],
    "sweep": ["sweep", "--fractions", "1.0", "--seeds", "0", "--algos", "util",
              "--workers", "1"],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@pytest.mark.parametrize("option", [["--time-limit", "0"], ["--rel-gap", "1.5"],
                                    ["--n-periods", "-1"], ["--n-periods", "0"]])
def test_bad_option_is_one_error_line(tmp_path, capsys, command, option):
    rc = main(SUBCOMMANDS[command] + ["--case", TINY3, "--out", str(tmp_path)] + option)
    assert rc == EXIT_PARSE
    out, err = capsys.readouterr()
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ")
    assert out == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@pytest.mark.parametrize("usage", ["bad_algorithm", "unknown_flag", "missing_case"])
def test_usage_error_is_a_parse_error(tmp_path, capsys, command, usage):
    # argparse would exit 2, the code of an infeasible model
    argv = SUBCOMMANDS[command] + ["--out", str(tmp_path)]
    if usage != "missing_case":
        argv += ["--case", TINY3]
    if usage == "bad_algorithm":
        argv[argv.index("util")] = "bogus"
    if usage == "unknown_flag":
        argv.append("--bogus")
    rc = main(argv)
    assert rc == EXIT_PARSE
    out, err = capsys.readouterr()
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: gridrestore")
    assert out == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [["--help"]] + [[command, "--help"]
                                                 for command in sorted(SUBCOMMANDS)])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gridrestore")


def test_runs_without_scipy(tmp_path):
    # the runtime needs numpy only: every algorithm solves with scipy unimportable
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from gridrestore.cli import ALGORITHMS, main\n"
        "for algo in ALGORITHMS:\n"
        "    rc = main(['solve', '--case', sys.argv[1], '--damage-fraction', '1.0',\n"
        "               '--algo', algo, '--out', sys.argv[2] + '/' + algo])\n"
        "    if rc:\n"
        "        sys.exit(f'{algo} exited {rc}')\n"
        "assert 'scipy' not in {m.split('.')[0] for m, v in sys.modules.items() if v}\n")
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", script, TINY3, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for algo in ("util", "rrr", "rad", "rop", "oracle"):
        assert (tmp_path / algo / "summary.json").exists()


def test_solve_loads_no_sweep_or_backend_module(tmp_path):
    # a solve on the internal solver imports neither the process pool of
    # sweep nor the external backend's subprocess and temporary files;
    # the interpreter's own startup may load some of them, so only the
    # modules the solve adds count
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from gridrestore.cli import main\n"
        "for algo in ('rrr', 'rop', 'oracle'):\n"
        "    rc = main(['solve', '--case', sys.argv[1], '--damage-fraction', '1.0',\n"
        "               '--algo', algo, '--out', sys.argv[2] + '/' + algo])\n"
        "    if rc:\n"
        "        sys.exit(f'{algo} exited {rc}')\n"
        "added = set(sys.modules) - before\n"
        "print(sorted(m for m in added if m.split('.')[0] in\n"
        "             ('multiprocessing', 'concurrent', 'tempfile', 'subprocess', 'shlex')))\n")
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", script, TINY3, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
