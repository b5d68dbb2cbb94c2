"""Tests of the benchmark's generator, failure accounting, checks and trace."""
import json
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import gridrestore.lp  # noqa: E402
import layertrace  # noqa: E402
from gridrestore.network import parse_case, random_damage  # noqa: E402
from meshgen import meshed_case  # noqa: E402
from outcheck import check_outputs, highs_energy, read_outputs  # noqa: E402
from run import Runner  # noqa: E402
from workloads import DAMAGE_FRACTION, Instance, Workload, bus_ids  # noqa: E402


def _instances(tmp_path, n_buses, seeds, renumber_seed=None):
    out = []
    for s in seeds:
        ids = bus_ids(n_buses, renumber_seed, s) if renumber_seed is not None else None
        path = tmp_path / f"mesh{n_buses}_s{s}_r{renumber_seed}.m"
        path.write_text(meshed_case(n_buses, s, ids))
        out.append(Instance(f"s{s}", s, str(path)))
    return out


def _runner(tmp_path, algo, instances):
    return Runner(Workload("test", algo, 0, (), "test"), instances, str(tmp_path))


def test_meshed_case_shape_and_determinism():
    text = meshed_case(30, 4)
    assert text == meshed_case(30, 4)
    net = parse_case(text)
    assert (len(net.buses), len(net.lines), len(net.generators), len(net.loads)) == (30, 44, 5, 15)
    assert len(random_damage(net, DAMAGE_FRACTION, 4).damaged_lines) == 11


def test_bus_renumbering_changes_text_not_outputs(tmp_path):
    plain = _instances(tmp_path, 14, [1])
    renumbered = _instances(tmp_path, 14, [1], renumber_seed=7)
    assert open(plain[0].case_path).read() != open(renumbered[0].case_path).read()
    outputs = []
    for inst, sub in ((plain, "a"), (renumbered, "b")):
        runner = _runner(tmp_path / sub, "rop", inst)
        (solve,) = runner.run_pass().solves
        assert not solve.failed, solve.problems
        outputs.append(read_outputs(runner.out_dirs[0]))
    summaries = [json.loads(o[1]) for o in outputs]
    assert outputs[0][0] == outputs[1][0]
    assert summaries[0]["plan"] == summaries[1]["plan"]
    assert summaries[0]["total_energy_pu"] == summaries[1]["total_energy_pu"]


def test_malformed_case_fails_and_the_loop_goes_on(tmp_path):
    bad = tmp_path / "bad.m"
    bad.write_text("mpc.baseMVA = 100;\nmpc.bus = [\n 1 3 x;\n];\n")
    instances = [Instance("bad", 1, str(bad))] + _instances(tmp_path, 14, [1])
    solves = _runner(tmp_path, "util", instances).run_pass().solves
    assert [s.exit_code for s in solves] == [1, 0]
    assert [s.failed for s in solves] == [True, False]


class InjectedFault(Exception):
    pass


def test_exception_in_solve_lp_is_counted(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise InjectedFault("injected")

    monkeypatch.setattr(gridrestore.lp, "solve_lp", broken)
    tracer = layertrace.Tracer()
    run = _runner(tmp_path, "util", _instances(tmp_path, 14, [1, 2])).run_pass(tracer)
    assert [s.exit_code for s in run.solves] == [None, None]
    assert all(s.failed and "InjectedFault" in s.problems[0] for s in run.solves)
    assert run.layers["lp.exceptions"] == 2
    assert gridrestore.lp.solve_lp is broken  # the tracer restored what it found


def test_trace_counts_repeat_and_cover_every_node(tmp_path):
    runner = _runner(tmp_path, "rop", _instances(tmp_path, 10, [1]))
    tracers = [layertrace.Tracer(), layertrace.Tracer()]
    runs = [runner.run_pass(t) for t in tracers]
    assert all(not s.failed for r in runs for s in r.solves)
    for tracer in tracers:
        ok, detail = layertrace.coverage_holds(tracer.spans)
        assert ok, detail
    first, second = (r.layers for r in runs)
    assert first["milp.nodes"] > 2 and first["milp.solve_mip_calls"] == 1
    for name in ("milp.nodes", "lp.pivots", "lp.solve_lp_calls", "models.period_lps",
                 "models.distinct_topologies"):
        assert first[name] == second[name], name
    assert first["models.evaluate_plan_calls"] == 1
    spent = sum(s.duration for s in tracers[0].spans if s.parent is None)
    assert first["milp.solve_mip_s"] <= spent


def test_oracle_trace_counts_repeated_topologies(tmp_path):
    tracer = layertrace.Tracer()
    run = _runner(tmp_path, "oracle", _instances(tmp_path, 10, [2])).run_pass(tracer)
    assert not run.solves[0].failed
    layers = run.layers
    assert layers["milp.solve_mip_calls"] == 0
    assert layers["models.period_lps"] == 4 * layers["models.evaluate_plan_calls"]
    assert 0 < layers["models.distinct_topologies"] < layers["models.period_lps"]
    assert layers["heuristics.brute_force_optimal_s"] > 0


def test_output_checks(tmp_path):
    inst = _instances(tmp_path, 14, [3])
    runner = _runner(tmp_path, "util", inst)
    assert not runner.run_pass().solves[0].failed
    report, summary = read_outputs(runner.out_dirs[0])
    doc = json.loads(summary)
    assert highs_energy(inst[0].case_path, DAMAGE_FRACTION, 3, doc["plan"]) == \
        pytest.approx(doc["total_energy_pu"], rel=1e-9)
    doc["plan"] = doc["plan"][1:]
    short = json.dumps(doc).encode()
    problems = check_outputs(inst[0].case_path, DAMAGE_FRACTION, 3, (report, short),
                             (report, summary))
    assert any("differs" in p for p in problems)
    assert any("plan restores" in p for p in problems)
