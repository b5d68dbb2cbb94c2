"""Outside-in layer trace: spans around the public calls of each module.

``installed(tracer)`` rebinds each traced name in every ``gridrestore``
module that binds it to a wrapper that records a span, and restores the
originals on exit. Nothing in the package is edited. Spans stay in memory;
``Tracer.write_jsonl`` writes them out when the run ends.

Counts come from what the calls return or receive: ``LpSolution.iterations``
and the size of the ``LinearProgram`` for each LP, ``MipSolution.nodes``
and the binaries of each MILP, and the energized line set of each period
an ``evaluate_plan`` call covers.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    instance: str | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; one per traced pass or run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.instance: str | None = None
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, attrs_of):
        idx = len(self.spans)
        span = Span(name, self._stack[-1] if self._stack else None,
                    self.instance, 0.0)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            span.start = time.perf_counter()
            result = fn(*args, **kwargs)
            span.end = time.perf_counter()
        except BaseException as e:
            span.end = time.perf_counter()
            span.attrs["exception"] = type(e).__name__
            raise
        finally:
            self._stack.pop()
        if attrs_of is not None:
            span.attrs.update(attrs_of(args, kwargs, result))
        return result

    def write_jsonl(self, f, **extra) -> None:
        """One JSON line per span, with ``extra`` fields on every line."""
        for i, s in enumerate(self.spans):
            f.write(json.dumps({**extra, "id": i, "name": s.name, "parent": s.parent,
                                "instance": s.instance, "start": s.start,
                                "end": s.end, **s.attrs}) + "\n")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _lp_attrs(args, kwargs, sol):
    lp = _arg(args, kwargs, 0, "lp")
    return {"rows": len(lp.constraints), "cols": len(lp.variables),
            "iterations": sol.iterations, "status": sol.status}


def _mip_attrs(args, kwargs, sol):
    mip = _arg(args, kwargs, 0, "mip")
    return {"binaries": len(mip.binary_vars), "nodes": sol.nodes,
            "status": sol.status}


def _eval_attrs(args, kwargs, series):
    from gridrestore.models import energized_lines

    network = _arg(args, kwargs, 0, "network")
    damage = _arg(args, kwargs, 1, "damage")
    plan = _arg(args, kwargs, 2, "plan")
    schedule = _arg(args, kwargs, 3, "schedule")
    return {"periods": schedule.n_periods,
            "topologies": [sorted(energized_lines(network, damage, plan, k))
                           for k in range(1, schedule.n_periods + 1)]}


# (module, bound name, span name, attributes read from the call)
TRACED = (
    ("lp", "solve_lp", "lp.solve_lp", _lp_attrs),
    ("milp", "solve_lp", "lp.solve_lp", _lp_attrs),
    ("cli", "solve_mip", "milp.solve_mip", _mip_attrs),
    ("heuristics", "solve_mip", "milp.solve_mip", _mip_attrs),
    ("models", "build_rip", "models.build_rip", None),
    ("models", "build_rop", "models.build_rop", None),
    ("cli", "build_rop", "models.build_rop", None),
    ("cli", "evaluate_plan", "models.evaluate_plan", _eval_attrs),
    ("heuristics", "evaluate_plan", "models.evaluate_plan", _eval_attrs),
    ("heuristics", "util_order", "heuristics.util_order", None),
    ("cli", "rrr", "heuristics.rrr", None),
    ("cli", "brute_force_optimal", "heuristics.brute_force_optimal", None),
    ("cli", "parse_case", "network.parse_case", None),
    ("cli", "build_report", "postprocess.build_report", None),
    ("cli", "solve_to_report", "cli.solve_to_report", None),
    ("cli", "main", "cli.main", None),
)


@contextlib.contextmanager
def _rebound(bindings):
    """Rebind ``(module, name, make_wrapper)`` triples; restore them on exit."""
    saved = []
    try:
        for mod_name, attr, make in bindings:
            mod = importlib.import_module(f"gridrestore.{mod_name}")
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, make(fn))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def installed(tracer: Tracer):
    """Trace every name in ``TRACED`` while the block runs."""
    def wrap(name, attrs_of):
        def make(fn):
            def traced(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs, attrs_of)
            return traced
        return make

    return _rebound([(mod, attr, wrap(name, attrs_of))
                     for mod, attr, name, attrs_of in TRACED])


def mip_status_probe(statuses: list):
    """Append the status of every MILP solve to ``statuses``.

    The output check needs the statuses in untraced passes too; this is the
    one hook those passes carry, one extra call per MILP.
    """
    def make(fn):
        def probe(*args, **kwargs):
            sol = fn(*args, **kwargs)
            statuses.append(sol.status)
            return sol
        return probe

    return _rebound([("cli", "solve_mip", make), ("heuristics", "solve_mip", make)])


SELF_TIME_LAYERS = ("cli.main", "cli.solve_to_report")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of a set of spans (one pass)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def ancestors(i):
        p = spans[i].parent
        while p is not None:
            yield spans[p]
            p = spans[p].parent

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    lps = [s for s in spans if s.name == "lp.solve_lp"]
    lps_done = [s for s in lps if "status" in s.attrs]
    mips = [s for s in spans if s.name == "milp.solve_mip"]
    mips_done = [s for s in mips if "status" in s.attrs]
    evals = [s for s in spans if s.name == "models.evaluate_plan" and "periods" in s.attrs]
    in_rrr = [any(a.name == "heuristics.rrr" for a in ancestors(i))
              for i in range(len(spans))]

    pivots = sum(s.attrs["iterations"] for s in lps_done)
    nodes = sum(s.attrs["nodes"] for s in mips_done)
    period_lps = sum(s.attrs["periods"] for s in evals)
    topologies = {(s.instance, tuple(t)) for s in evals for t in s.attrs["topologies"]}
    mip_s = total("milp.solve_mip")
    gflop = sum(s.attrs["iterations"] * 2.0 * (s.attrs["rows"] ** 2 + s.attrs["rows"]
                                               * (s.attrs["cols"] + s.attrs["rows"]))
                for s in lps_done) / 1e9
    return {
        "lp.solve_lp_s": total("lp.solve_lp"),
        "lp.solve_lp_calls": len(lps),
        "lp.pivots": pivots,
        "lp.pivots_per_call": pivots / len(lps_done) if lps_done else 0.0,
        "lp.rows_mean": (sum(s.attrs["rows"] for s in lps_done) / len(lps_done)
                         if lps_done else 0.0),
        "lp.cols_mean": (sum(s.attrs["cols"] for s in lps_done) / len(lps_done)
                         if lps_done else 0.0),
        "lp.gflop_computed": gflop,
        "lp.exceptions": sum(1 for s in lps if "exception" in s.attrs),
        "lp.nonoptimal": sum(1 for s in lps_done if s.attrs["status"] != "optimal"),
        "milp.solve_mip_s": mip_s,
        "milp.solve_mip_calls": len(mips),
        "milp.nodes": nodes,
        "milp.s_per_node": mip_s / nodes if nodes else 0.0,
        "milp.self_s": sum(s.duration - child_time[i] for i, s in enumerate(spans)
                           if s.name == "milp.solve_mip"),
        "milp.max_binaries": max((s.attrs["binaries"] for s in mips_done), default=0),
        "milp.status_failure": sum(1 for s in mips_done if s.attrs["status"] == "failure"),
        "milp.time_limit_hits": sum(1 for s in mips_done
                                    if s.attrs["status"] == "feasible_time_limit"),
        "models.evaluate_plan_s": total("models.evaluate_plan"),
        "models.evaluate_plan_calls": sum(1 for s in spans
                                          if s.name == "models.evaluate_plan"),
        "models.period_lps": period_lps,
        "models.distinct_topologies": len(topologies),
        "models.topology_repeat_share": (1.0 - len(topologies) / period_lps
                                         if period_lps else 0.0),
        "models.build_rip_s": total("models.build_rip"),
        "models.build_rop_s": total("models.build_rop"),
        "heuristics.rrr_s": total("heuristics.rrr"),
        "heuristics.subsolves": sum(1 for i, s in enumerate(spans)
                                    if s.name == "milp.solve_mip" and in_rrr[i]),
        "heuristics.util_fallbacks": sum(1 for i, s in enumerate(spans)
                                         if s.name == "heuristics.util_order" and in_rrr[i]),
        "heuristics.brute_force_optimal_s": total("heuristics.brute_force_optimal"),
        "network.parse_case_s": total("network.parse_case"),
        "postprocess.build_report_s": total("postprocess.build_report"),
        "cli.self_s": sum(s.duration - child_time[i] for i, s in enumerate(spans)
                          if s.name in SELF_TIME_LAYERS),
    }


def coverage_holds(spans: list[Span]) -> tuple[bool, str]:
    """Every B&B node is one traced LP: sum of nodes == LPs under solve_mip."""
    nodes = sum(s.attrs.get("nodes", 0) for s in spans if s.name == "milp.solve_mip")
    node_lps = sum(1 for s in spans if s.name == "lp.solve_lp" and s.parent is not None
                   and spans[s.parent].name == "milp.solve_mip")
    return nodes == node_lps, f"milp nodes {nodes}, LP spans under solve_mip {node_lps}"
