import csv
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import gridrestore.cli
import gridrestore.lp
import gridrestore.milp
import gridrestore.models
from gridrestore.cli import (BACKEND_ENV, EXIT_OK, EXIT_PARSE, EXIT_SOLVER, CliError,
                             RunConfig, _config_key, cmd_compare, cmd_solve, cmd_sweep,
                             main)
from gridrestore.heuristics import brute_force_optimal
from gridrestore.network import (DamageScenario, build_schedule, parse_case,
                                 random_damage)
from gridrestore.lp import LpSolution, mps_column_name
from gridrestore.milp import SolveOptions, solve_mip
from gridrestore.models import PlanEvaluationError, build_rop, extract_plan
from conftest import CASES_DIR, energizes_every_line

TINY3 = os.path.join(CASES_DIR, "tiny3.m")
MESH12 = os.path.join(CASES_DIR, "mesh12.m")
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

    @pytest.mark.parametrize("n_periods", [[], ["--n-periods", "2"]],
                             ids=["default-periods", "two-periods"])
    def test_zero_damage_runs_every_algorithm(self, tmp_path, n_periods):
        # 1% of tiny3's three lines rounds to none: every algorithm plans
        # empty periods, and rop's MILP proves its gap
        for algo in ("util", "rrr", "rad", "rop", "oracle"):
            out = tmp_path / algo
            rc = main(["solve", "--case", TINY3, "--damage-fraction", "0.01", "--algo", algo,
                       "--out", str(out)] + n_periods)
            assert rc == EXIT_OK
            summary = read_summary(out)
            assert summary["damaged_lines"] == []
            assert summary["plan"] == [[]] * (2 if n_periods else 1)
            assert summary["gap"] == (0.0 if algo == "rop" else None)
            assert summary["total_energy_pu"] == pytest.approx(1.4 * len(summary["plan"]))
            if algo != "util":
                assert (out / "report.csv").read_bytes() == \
                    (tmp_path / "util" / "report.csv").read_bytes()

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
        # the failed root alone: the warm start is scored from its period LPs
        assert len(calls) == 1
        assert read_summary(tmp_path)["gap"] is None

    def test_rop_drops_a_warm_start_whose_evaluation_fails(self, tmp_path, monkeypatch):
        # util's plan scores the warm start; when one of its period LPs
        # fails, the search runs with no warm start to the same optimum
        real_solve_mip = gridrestore.cli.solve_mip
        starts = []

        def recording(mip, opts):
            starts.append((mip.warm_start, mip.warm_start_objective))
            return real_solve_mip(mip, opts)

        def failing(*args, **kwargs):
            raise PlanEvaluationError(1, "numerical_failure")

        monkeypatch.setattr(gridrestore.cli, "solve_mip", recording)
        args = ["solve", "--case", MESH12, "--damage-fraction", "0.25", "--seed", "1",
                "--algo", "rop", "--rel-gap", "0"]
        assert main(args + ["--out", str(tmp_path / "warm")]) == EXIT_OK
        monkeypatch.setattr(gridrestore.models, "evaluate_plan", failing)
        assert main(args + ["--out", str(tmp_path / "cold")]) == EXIT_OK
        assert starts[0][0] and starts[0][1] > 0
        assert starts[1] == (None, None)
        warm, cold = read_summary(tmp_path / "warm"), read_summary(tmp_path / "cold")
        assert cold["gap"] == 0.0
        assert cold["total_energy_pu"] == pytest.approx(warm["total_energy_pu"], rel=1e-9)

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

    @pytest.mark.parametrize("algo", ["util", "rrr", "rad"])
    def test_orderings_are_bucketed_by_the_periods(self, tmp_path, algo):
        # --n-periods governs every algorithm: three lines over two periods
        rc = main(["solve", "--case", TINY3, "--damage-fraction", "1.0", "--algo", algo,
                   "--n-periods", "2", "--time-limit", "30", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        plan = read_summary(tmp_path)["plan"]
        assert [len(p) for p in plan] == [2, 1]
        assert sorted(sum(plan, [])) == [1, 2, 3]
        assert len(read_csv(os.path.join(tmp_path, "report.csv"))) == 2

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

    def test_self_loop_branch_is_a_parse_error(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc = main(["solve", "--case", os.path.join(CASES_DIR, "selfloop.m"),
                   "--damage-fraction", "1.0", "--algo", "util", "--out", str(out_dir)])
        assert rc == EXIT_PARSE
        out, err = capsys.readouterr()
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: parse error") and "(line 22, field 'branch')" in err
        assert out == "" and not out_dir.exists()

    def test_repeated_damage_line_is_one_error_line(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc = main(["solve", "--case", TINY3, "--damage-lines", "1", "1", "--algo", "util",
                   "--out", str(out_dir)])
        assert rc == EXIT_PARSE
        out, err = capsys.readouterr()
        assert err == "error: duplicate damaged line ids\n"
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


FAILING_BACKEND = "false {mps} {solfile}"


class TestExternalBackend:
    @pytest.mark.parametrize("time_limit", ["300", "inf"])
    @pytest.mark.parametrize("algo, code", [("rrr", EXIT_OK), ("rad", EXIT_OK),
                                            ("rop", EXIT_SOLVER)])
    def test_failing_backend(self, tmp_path, monkeypatch, capsys, algo, code, time_limit):
        # rrr and rad fall back to capacity order; rop has no plan
        monkeypatch.delenv(gridrestore.cli.BACKEND_ENV, raising=False)
        rc = main(["solve", "--case", TINY3, "--damage-fraction", "1.0", "--algo", algo,
                   "--time-limit", time_limit, "--backend-cmd", FAILING_BACKEND,
                   "--out", str(tmp_path)])
        assert rc == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == EXIT_SOLVER:
            assert err == "error: solver failed with no incumbent plan\n"

    @pytest.mark.parametrize("time_limit, rounds", [("300", 8), ("inf", 1)])
    def test_rad_stops_when_no_block_gets_a_plan(self, tmp_path, monkeypatch, time_limit,
                                                 rounds):
        # tiny3's three lines make one block per round. Each round doubles
        # the MILP time limit from 1% of the budget, 3 s, ..., 384 s; the
        # first round whose limit covers the time left ends the search
        monkeypatch.delenv(gridrestore.cli.BACKEND_ENV, raising=False)
        real_solve_external = gridrestore.cli.solve_external
        calls = []

        def counting(*args):
            calls.append(args)
            return real_solve_external(*args)

        monkeypatch.setattr(gridrestore.cli, "solve_external", counting)
        rc = main(["solve", "--case", TINY3, "--damage-fraction", "1.0", "--algo", "rad",
                   "--time-limit", time_limit, "--backend-cmd", FAILING_BACKEND,
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert len(calls) == rounds

    def test_rop_scores_no_warm_start_for_the_backend(self, tmp_path, monkeypatch):
        # the backend takes no warm start, so none is scored for it
        monkeypatch.delenv(gridrestore.cli.BACKEND_ENV, raising=False)
        programs = []

        def recording(mip, opts, command):
            programs.append(mip)
            return gridrestore.milp.MipSolution("failure")

        monkeypatch.setattr(gridrestore.cli, "solve_external", recording)
        rc = main(["solve", "--case", TINY3, "--damage-fraction", "1.0", "--algo", "rop",
                   "--backend-cmd", FAILING_BACKEND, "--out", str(tmp_path)])
        assert rc == EXIT_SOLVER
        assert [(p.warm_start, p.warm_start_objective) for p in programs] == [(None, None)]

    def test_environment_variable_without_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv(gridrestore.cli.BACKEND_ENV, FAILING_BACKEND)
        rc = main(["solve", "--case", TINY3, "--damage-fraction", "1.0", "--algo", "rop",
                   "--out", str(tmp_path)])
        assert rc == EXIT_SOLVER

    def test_flag_wins_over_environment_variable(self, tmp_path, monkeypatch):
        # the flag's command copies the internal solver's solution of the
        # same ordering MILP; the variable's command fails
        with open(TINY3) as f:
            net = parse_case(f.read())
        dmg = random_damage(net, 1.0, 0)
        n = len(dmg.damaged_lines)
        art = build_rop(net, dmg, build_schedule(n, n))
        sol = solve_mip(art.program, SolveOptions(time_limit=30))
        prepared = tmp_path / "ready.sol"
        prepared.write_text("".join(f"{mps_column_name(j)} {float(v)!r}\n"
                                    for j, v in enumerate(sol.primal)))
        monkeypatch.setenv(gridrestore.cli.BACKEND_ENV, FAILING_BACKEND)
        rc = main(["solve", "--case", TINY3, "--damage-fraction", "1.0", "--algo", "rop",
                   "--backend-cmd", f"cp {prepared} {{solfile}}", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert read_summary(tmp_path)["plan"] == \
            [sorted(p) for p in extract_plan(art, sol).periods]


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

    def test_rop_best_over_the_same_periods(self, tmp_path):
        # every algorithm is scored over the same two periods, so the
        # exact ordering MILP is at least as good as util
        rc = main(["compare", "--case", MESH12, "--damage-fraction", "0.25", "--seed", "1",
                   "--n-periods", "2", "--algos", "util", "rop", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        by_algo = {r["algorithm"]: r for r in read_csv(os.path.join(tmp_path, "compare.csv"))}
        assert by_algo["rop"]["best"] == "True"
        assert float(by_algo["rop"]["energy"]) >= float(by_algo["util"]["energy"])

    def test_failed_run_is_a_status(self, tmp_path, capsys):
        # the oracle enumerates at most 7 damaged lines: with 8 its run
        # fails with the solver's exit code, and util alone is scored
        rc = main(["compare", "--case", MESH12, "--damage-lines", *map(str, range(1, 9)),
                   "--algos", "util", "oracle", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        by_algo = {r["algorithm"]: r for r in read_csv(os.path.join(tmp_path, "compare.csv"))}
        assert by_algo["oracle"] == {"algorithm": "oracle", "energy": "", "time": "", "gap": "",
                                     "status": f"failed({EXIT_SOLVER})", "best": "False",
                                     "within_1pct": "False"}
        assert (by_algo["util"]["status"], by_algo["util"]["best"]) == ("ok", "True")
        table = capsys.readouterr().out.splitlines()
        assert table[-1].split() == ["oracle", "-", "-", f"failed({EXIT_SOLVER})"]

    def test_best_is_relative_to_the_energy(self, tmp_path, monkeypatch):
        # 4e-12 is under two ulps at 7000 pu.h: both runs are best; 1e-5 is not
        energies = {"util": 7000.0, "rrr": 7000.0 + 4e-12, "rad": 7000.0 - 1e-5}
        monkeypatch.setattr(gridrestore.cli, "_result", lambda config: {
            "energy": energies[config.algorithm], "time": 0.0, "gap": None, "status": "ok"})
        base = RunConfig(case=TINY3, algorithm="util", damage_lines=(1,),
                         output_dir=str(tmp_path))
        assert cmd_compare(base, list(energies)) == EXIT_OK
        rows = read_csv(os.path.join(tmp_path, "compare.csv"))
        assert [(r["best"], r["within_1pct"]) for r in rows] == \
            [("True", "True"), ("True", "True"), ("False", "True")]

    def test_requires_two_algorithms(self, tmp_path):
        rc = main(["compare", "--case", TINY3, "--damage-lines", "1",
                   "--algos", "util", "--out", str(tmp_path)])
        assert rc == EXIT_PARSE


def raise_parse_error(config):
    raise CliError("case file vanished", EXIT_PARSE)


def test_cli_error_survives_pickling():
    e = pickle.loads(pickle.dumps(CliError("case file vanished", EXIT_PARSE)))
    assert (str(e), e.code) == ("case file vanished", EXIT_PARSE)


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

    def test_fractions_alike_to_six_digits_get_their_own_cells(self, tmp_path, capsys):
        # the two fractions print alike with 6 significant digits, but of
        # mesh12.m's 17 lines the first damages 2 (2.4999979 rounded) and the
        # second 3 (2.5000013): each row must be its own fraction's run
        fractions = ["0.1470587", "0.1470589"]
        assert main(["sweep", "--case", MESH12, "--fractions", *fractions, "--seeds", "1",
                     "--algos", "util", "--out", str(tmp_path), "--workers", "1"]) == EXIT_OK
        assert "(2 computed, 0 cached)" in capsys.readouterr().out
        assert len(os.listdir(os.path.join(tmp_path, "cells"))) == 2
        rows = read_csv(os.path.join(tmp_path, "sweep.csv"))
        assert [r["fraction"] for r in rows] == fractions
        for row, fraction in zip(rows, fractions):
            outdir = os.path.join(tmp_path, "solve_" + fraction)
            main(["solve", "--case", MESH12, "--damage-fraction", fraction, "--seed", "1",
                  "--algo", "util", "--out", outdir])
            assert float(row["energy"]) == read_summary(outdir)["total_energy_pu"]
        assert rows[0]["energy"] != rows[1]["energy"]

    @pytest.mark.parametrize("fractions", [["1.5"], ["1.0", "0"]])
    def test_bad_fraction_is_one_error_line(self, tmp_path, capsys, fractions):
        rc = main(["sweep", "--case", TINY3, "--fractions", *fractions, "--seeds", "0",
                   "--algos", "util", "--out", str(tmp_path), "--workers", "1"])
        assert rc == EXIT_PARSE
        out, err = capsys.readouterr()
        assert err == "error: fraction must be in (0, 1]\n"
        assert out == "" and os.listdir(tmp_path) == []

    def test_worker_usage_error_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # a usage error raised in a worker process crosses back to the parent
        # whole, so the sweep ends in one error line, not a broken pool
        monkeypatch.setattr(gridrestore.cli, "solve_to_report", raise_parse_error)
        rc = main(["sweep", "--case", TINY3, "--fractions", "0.5", "1.0", "--seeds", "0",
                   "--algos", "util", "--out", str(tmp_path), "--workers", "2"])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err == "error: case file vanished\n"

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
        ("time_limit", 0.0, "time_limit must be positive"),
        ("time_limit", float("nan"), "time_limit must be positive"),
        ("rel_gap", 1.5, "rel_gap must be in"),
        ("rel_gap", -0.1, "rel_gap must be in"),
        ("n_periods", 0, "number of periods"), ("n_periods", -1, "number of periods")])
    def test_rejects_bad_solver_settings(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(case=TINY3, algorithm="util", damage_fraction=0.5, **{field: value})

    @pytest.mark.parametrize("flag, want", [(None, "env {mps}"), ("", "env {mps}"),
                                            ("flag {mps}", "flag {mps}")])
    def test_backend_cmd_falls_back_to_environment(self, monkeypatch, flag, want):
        monkeypatch.setenv(BACKEND_ENV, "env {mps}")
        config = RunConfig(case=TINY3, algorithm="util", damage_fraction=0.5,
                           backend_cmd=flag)
        assert config.backend_cmd == want

    def test_environment_backend_keys_the_sweep(self, monkeypatch):
        keys = set()
        for cmd in ("solver-a {mps}", "solver-b {mps}", None):
            if cmd is None:
                monkeypatch.delenv(BACKEND_ENV, raising=False)
            else:
                monkeypatch.setenv(BACKEND_ENV, cmd)
            keys.add(_config_key(RunConfig(case=TINY3, algorithm="util",
                                           damage_fraction=0.5), "case text"))
        assert len(keys) == 3


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


# each directory of tests/golden: the solve that wrote it, run from the
# repository root, as the numpy-only CI job runs it
GOLDEN = {
    **{f"{algo}_mesh14_s6": ["mesh14_s6.m", "0.25", "6", algo]
       for algo in ("util", "rrr", "rad", "rop", "oracle")},
    **{f"{algo}_mesh12_25": ["mesh12.m", "0.25", "1", algo] for algo in ("util", "rrr", "rad")},
    "rop_mesh12_25": ["mesh12.m", "0.25", "1", "rop"],
    "rop_mesh12_40": ["mesh12.m", "0.4", "1", "rop"],
    "oracle_cap": ["mesh12.m", "0.4", "1", "oracle"],
    "oracle_cap_3p": ["mesh12.m", "0.4", "1", "oracle", "--n-periods", "3"],
}


def test_every_golden_directory_is_pinned():
    assert sorted(os.listdir(os.path.join(os.path.dirname(SRC), "tests", "golden"))) == \
        sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_the_goldens_byte_for_byte(tmp_path, monkeypatch, capsys, name):
    case, fraction, seed, algo, *extra = GOLDEN[name]
    monkeypatch.chdir(os.path.dirname(SRC))
    assert main(["solve", "--case", f"tests/cases/{case}", "--damage-fraction", fraction,
                 "--seed", seed, "--algo", algo, *extra, "--out", str(tmp_path)]) == EXIT_OK
    for file in ("report.csv", "summary.json"):
        with open(os.path.join("tests", "golden", name, file), "rb") as want, \
                open(tmp_path / file, "rb") as got:
            assert got.read() == want.read(), file
