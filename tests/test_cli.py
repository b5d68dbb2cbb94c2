import csv
import json
import os

import numpy as np
import pytest

import gridrestore.lp
import gridrestore.milp
from gridrestore.cli import (EXIT_OK, EXIT_PARSE, EXIT_SOLVER, RunConfig, cmd_compare,
                             cmd_solve, cmd_sweep, main)
from gridrestore.heuristics import brute_force_optimal
from gridrestore.network import (DamageScenario, build_schedule, parse_case,
                                 random_damage)
from gridrestore.lp import LpSolution
from conftest import CASES_DIR

TINY3 = os.path.join(CASES_DIR, "tiny3.m")


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

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.m"
        bad.write_text("mpc.baseMVA = 100;\n")
        rc = main(["solve", "--case", str(bad), "--damage-fraction", "1.0",
                   "--algo", "util", "--out", str(tmp_path)])
        assert rc == EXIT_PARSE

    def test_missing_file_exit_code(self, tmp_path):
        rc = main(["solve", "--case", str(tmp_path / "nope.m"),
                   "--damage-fraction", "1.0", "--algo", "util",
                   "--out", str(tmp_path)])
        assert rc == EXIT_PARSE

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["solve", "--case", TINY3, "--damage-fraction", "1.0",
                "--seed", "3", "--algo", "rrr", "--rel-gap", "0"]
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
