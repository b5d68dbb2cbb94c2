"""Benchmark of ``gridrestore solve`` on generated meshed grids.

Run from the repository root:

    python3 bench/run.py --workload rop-mesh14 --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn, each in a fresh interpreter.

Each run generates the workload's cases (see ``workloads.py``), then solves
every instance in-process through ``gridrestore.cli.main`` in passes until
``--seconds`` have been measured. The first pass sets how many passes fit;
there are at least three. Only the ``cli.main`` call of each solve is timed;
the output checks run between solves and after the last pass.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates traced and untraced passes, at least two of each. It
reports the per-layer metrics of the traced passes (medians) and the trace
overhead: the fastest traced pass time minus the fastest untraced one, each
taken per instance as for ``wall_s``. Spans are written to ``bench/out/``
when the run ends, with a JSON record of each run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. BLAS is pinned to one
thread: this is the single-threaded baseline.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import layertrace
from workloads import DAMAGE_FRACTION, WORKLOADS, solve_argv, write_cases

# gridrestore (and with it numpy) is imported only inside functions, after
# main() has pinned the BLAS threads and put the sources on the path.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_SAMPLES = 11
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# a run must end within 180 s even when a pass is far slower than expected
PASS_DEADLINE_S = 120.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# per-layer counts that must repeat exactly between traced passes
REPEATING_COUNTS = ("milp.nodes", "lp.pivots", "models.distinct_topologies")

END_TO_END_UNITS = {
    "wall_s": "s", "solve_p50_s": "s", "energy_pu": "pu.h",
    "solved_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB",
}

# import plus case generation in a fresh interpreter; argv: src bench
# workload seed offset dir
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = sys.argv[1:3]
import gridrestore.cli
import workloads
workloads.write_cases(workloads.WORKLOADS[sys.argv[3]], int(sys.argv[4]),
                      int(sys.argv[5]), sys.argv[6])
print(time.perf_counter() - t0)
"""


@dataclass
class Solve:
    instance: str
    seconds: float
    exit_code: int | None
    problems: list[str] = field(default_factory=list)
    energy: float | None = None

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


@dataclass
class Pass:
    traced: bool
    solves: list[Solve]
    peak_rss_mb: float
    layers: dict | None = None

    @property
    def wall(self) -> float:
        return sum(s.seconds for s in self.solves)


def environment() -> dict:
    """nproc, interpreter, numpy/BLAS versions and BLAS threads in use."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def measure_setup(workload: str, seed: int, offset: int, work_dir: str) -> list[float]:
    """Import plus case generation, timed in fresh interpreters."""
    samples = []
    for i in range(SETUP_SAMPLES):
        case_dir = os.path.join(work_dir, f"setup{i}")
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, BENCH_DIR, workload,
             str(seed), str(offset), case_dir],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
        shutil.rmtree(case_dir)
    return samples


class Runner:
    """Solves the instances of one workload and checks each solve."""

    def __init__(self, workload, instances, work_dir):
        from gridrestore import cli

        self.cli = cli
        self.workload = workload
        self.instances = instances
        self.out_dirs = [os.path.join(work_dir, f"out{i}") for i in range(len(instances))]
        self.first_outputs: dict[str, tuple[bytes, bytes]] = {}

    def solve(self, i: int, mip_statuses: list) -> Solve:
        """One solve; every exception or non-zero exit becomes a failure."""
        from outcheck import check_outputs, read_outputs

        inst = self.instances[i]
        out = self.out_dirs[i]
        shutil.rmtree(out, ignore_errors=True)
        argv = solve_argv(self.workload, inst, out)
        sink = io.StringIO()
        problems = []
        n_mips = len(mip_statuses)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
            except Exception:  # the loop goes on with the next instance
                code = None
                problems.append(traceback.format_exc(limit=3).strip())
            seconds = time.perf_counter() - t0
        result = Solve(inst.name, seconds, code, problems)
        if code != 0:
            if code is not None:
                problems.append(f"exit code {code}: {sink.getvalue().strip()[-300:]}")
            return result
        if "feasible_time_limit" in mip_statuses[n_mips:]:
            problems.append("a MILP returned feasible_time_limit")
        outputs = read_outputs(out)
        problems += check_outputs(inst.case_path, DAMAGE_FRACTION, inst.seed, outputs,
                                  self.first_outputs.get(inst.name))
        self.first_outputs.setdefault(inst.name, outputs)
        result.energy = json.loads(outputs[1])["total_energy_pu"]
        return result

    def run_pass(self, tracer=None) -> Pass:
        statuses: list[str] = []
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(layertrace.installed(tracer))
            stack.enter_context(layertrace.mip_status_probe(statuses))
            solves = []
            for i, inst in enumerate(self.instances):
                if tracer is not None:
                    tracer.instance = inst.name
                solves.append(self.solve(i, statuses))
        layers = layertrace.layer_metrics(tracer.spans) if tracer is not None else None
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return Pass(tracer is not None, solves, peak_rss_mb, layers)

    def check_energy(self, passes: list[Pass]) -> None:
        """HiGHS recomputation of each instance's energy; fails its solves on mismatch."""
        from outcheck import ENERGY_RTOL, highs_energy

        for inst in self.instances:
            first = self.first_outputs.get(inst.name)
            if first is None:
                continue
            summary = json.loads(first[1])
            try:
                ref = highs_energy(inst.case_path, DAMAGE_FRACTION, inst.seed, summary["plan"])
            except Exception as e:  # a missing or failing yardstick fails the check
                problem = f"HiGHS check failed to run: {e!r}"
            else:
                got = summary["total_energy_pu"]
                if abs(got - ref) <= ENERGY_RTOL * max(1.0, abs(ref)):
                    continue
                problem = f"total_energy_pu {got!r} != HiGHS {ref!r}"
            for p in passes:
                for s in p.solves:
                    if s.instance == inst.name and s.exit_code == 0:
                        s.problems.append(problem)


def plan_passes(runner: Runner, seconds: float, trace: bool) -> tuple[list[Pass], list]:
    """Closed loop over the instances: as many passes as fit in ``seconds``.

    The first pass sets the count, at least ``MIN_PASSES``. A traced run
    alternates traced and untraced passes, starting with a traced one, and
    makes at least two of each.
    """
    passes: list[Pass] = []
    tracers = []
    start = time.perf_counter()
    min_passes = 2 * MIN_TRACED_PASSES if trace else MIN_PASSES
    n_passes = min_passes
    while len(passes) < n_passes:
        if passes and time.perf_counter() - start + passes[-1].wall > PASS_DEADLINE_S:
            break
        if trace and len(passes) % 2 == 0:
            tracers.append(layertrace.Tracer())
            passes.append(runner.run_pass(tracers[-1]))
        else:
            passes.append(runner.run_pass())
        if len(passes) == 1:
            n_passes = max(min_passes, round(seconds / max(passes[0].wall, 1e-9)))
    return passes, tracers


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def fastest_solves(passes: list[Pass]) -> dict[str, float]:
    """Each instance's fastest solve time over ``passes``.

    Other processes on the machine only ever add time, and on a shared box
    they slow a solve by up to a third; the fastest solve is the one they
    disturbed least (the ``timeit`` convention).
    """
    fastest: dict[str, float] = {}
    for p in passes:
        for s in p.solves:
            fastest[s.instance] = min(fastest.get(s.instance, s.seconds), s.seconds)
    return fastest


def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    """End-to-end metrics of the untraced passes.

    Peak memory is read after the first pass: what one fresh process needs
    for one pass, without the heap growth of later passes.
    """
    plain = [p for p in passes if not p.traced]
    solves = [s for p in plain for s in p.solves]
    fastest = fastest_solves(plain)
    return {
        "wall_s": sum(fastest.values()),
        "solve_p50_s": median(list(fastest.values())),
        "energy_pu": sum(s.energy or 0.0 for s in plain[0].solves),
        "solved_frac": 1.0 - sum(s.failed for s in solves) / len(solves),
        "setup_s": median(setup),
        "peak_rss_mb": plain[0].peak_rss_mb,
    }


def per_layer(passes: list[Pass]) -> tuple[dict, list[str]]:
    """Medians over the traced passes, and the flags of counts that differ."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    flags = []
    for name in REPEATING_COUNTS:
        values = {p.layers[name] for p in traced}
        if len(values) > 1:
            flags.append(f"{name} differs between traced passes: {sorted(values)}")
    metrics = {name: float(median([p.layers[name] for p in traced]))
               for name in traced[0].layers}
    metrics["trace.overhead_s"] = (sum(fastest_solves(traced).values())
                                   - sum(fastest_solves(plain).values()) if plain else 0.0)
    return metrics, flags


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "milp.s_per_node":
        return "s"
    return {"lp.pivots_per_call": "pivots/call", "lp.rows_mean": "rows",
            "lp.cols_mean": "cols", "lp.gflop_computed": "GFLOP",
            "models.topology_repeat_share": "frac"}.get(name, "count")


def run_workload(workload, args) -> tuple[dict, dict, list[Solve], list[str]]:
    """One run: set up, measure, check; returns metrics, units, solves, flags."""
    tag = f"{workload.name}-s{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT_DIR, f"{tag}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        setup = measure_setup(workload.name, args.seed, args.instance_offset, work_dir)
        env = environment()
        instances = write_cases(workload, args.seed, args.instance_offset,
                                os.path.join(work_dir, "cases"))
        runner = Runner(workload, instances, work_dir)
        passes, tracers = plan_passes(runner, args.seconds, bool(args.trace))
        runner.check_energy(passes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    flags = []
    if args.trace:
        metrics, flags = per_layer(passes)
        units = {name: layer_unit(name) for name in metrics}
        with open(os.path.join(OUT_DIR, f"{tag}.spans.jsonl"), "w") as f:
            for n, tracer in enumerate(tracers):
                tracer.write_jsonl(f, traced_pass=n)
                ok, detail = layertrace.coverage_holds(tracer.spans)
                if not ok:
                    flags.append(f"trace coverage: {detail}")
    else:
        metrics = end_to_end(passes, setup)
        units = END_TO_END_UNITS
    solves = [s for p in passes for s in p.solves]
    failed = [s for s in solves if s.failed]
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as f:
        json.dump({"workload": workload.name, "why": workload.why, "seed": args.seed,
                   "instance_offset": args.instance_offset, "seconds": args.seconds,
                   "trace": args.trace, "environment": env,
                   "instances": [i.name for i in instances],
                   "pass_walls_s": [[p.traced, p.wall] for p in passes],
                   "solve_s": [[s.instance, s.seconds] for s in solves],
                   "setup_samples_s": setup, "metrics": metrics, "flags": flags,
                   "failures": [[s.instance, s.exit_code, s.problems] for s in failed]},
                  f, indent=1)

    print(f"environment: {json.dumps(env)}")
    n_plain = sum(not p.traced for p in passes)
    print(f"workload {workload.name}: {len(instances)} instances x {len(passes)} passes "
          f"({len(passes) - n_plain} traced); {workload.why}")
    notes = {} if args.trace else {
        "wall_s": f"sum of each instance's fastest of {n_plain} solves",
        "solve_p50_s": f"median over {len(instances)} instances of their fastest "
                       f"solve, n={len(instances) * n_plain} solves",
        "setup_s": f"median of {len(setup)} fresh interpreters"}
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]:<11} {notes.get(name, '')}".rstrip())
    print(f"  failed_frac {len(failed) / len(solves):.6g} "
          f"({len(failed)} of {len(solves)} solves)")
    for s in failed:
        print(f"  FAILED {s.instance}: exit {s.exit_code}; {'; '.join(s.problems)[:500]}")
    for flag in flags:
        print(f"  FLAG {flag}")
    return metrics, units, solves, flags


def run_all(args) -> dict:
    """Every workload in a fresh interpreter of its own; metrics keyed workload.name."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--instance-offset", str(args.instance_offset)],
            capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            result["correct"] = False
            continue
        child = json.loads(lines[-1])
        result["correct"] &= child["correct"]
        result["attempted"] += child["attempted"]
        result["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = value
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, required=True,
                        help="renumbers the buses of every case")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-offset", type=int, default=0,
                        help="shifts every instance seed, for fresh grids")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gridrestore", "__init__.py")):
        print(f"error: no gridrestore sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    metrics, units, solves, flags = run_workload(WORKLOADS[args.workload], args)
    failed = sum(s.failed for s in solves)
    print(json.dumps({
        "correct": not failed and not flags,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
