"""attnplan benchmark: one closed-loop caller, one process, no threads.

Run from the root of a checkout (the library is imported from ``src/``):

    python3 perfbench/run.py --workload muddy-cli --seed 1 --seconds 40 --trace 0

Workloads are defined in ``families.py``; why each exists and which layer
it stresses is written down in ``README.md`` beside this file.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced operations on the same cases and reports the
per-layer metrics from ``spans.py``.  Human-readable lines come first; the
last line of standard output is one JSON object.

Every timed step runs under ``speed.SpeedProbe`` and its time is reported
at the reference speed: the wall time scaled by how much slower than
nominal a fixed calibration burst ran before, during and after the step.
On a shared host the same pure-Python loop runs up to twice as slow in
phases; the scaling takes that out, so the figures compare the program,
not the hour.  The wall-clock medians are printed beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
WORKLOAD_NAMES = ("muddy-cli", "survey-exhaust", "emulate-b40")
# Set-up is repeated and its median reported, so one slow import or page-in
# does not decide the figure.
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: (layer, field).  Counts and times are per traced
# operation; world and node sizes are means per call of that layer.
FIELD_UNITS = {
    "calls": "count/op",
    "hits": "count/op",
    "total_s": "s/op",
    "self_s": "s/op",
    "worlds_in": "worlds/call",
    "worlds_out": "worlds/call",
    "post_nodes": "nodes/call",
}
PER_CALL_FIELDS = ("worlds_in", "worlds_out", "post_nodes")
LAYER_FIELDS = (
    ("cli.run", "total_s"),
    ("taskfile.load", "total_s"),
    ("logic.parse_formula", "calls"),
    ("logic.parse_formula", "total_s"),
    ("logic.entails", "calls"),
    ("logic.entails", "self_s"),
    ("models.check", "calls"),
    ("models.check", "self_s"),
    ("actions.applicable", "calls"),
    ("actions.applicable", "self_s"),
    ("actions.attention_update", "calls"),
    ("actions.attention_update", "self_s"),
    ("actions.attention_update", "worlds_in"),
    ("actions.attention_update", "worlds_out"),
    ("actions.apply_sequence", "total_s"),
    ("actions.product_update", "calls"),
    ("actions.product_update", "self_s"),
    ("models.kripke_rendition", "calls"),
    ("models.kripke_rendition", "self_s"),
    ("bisim.contract", "calls"),
    ("bisim.contract", "self_s"),
    ("bisim.contract", "worlds_in"),
    ("bisim.contract", "worlds_out"),
    ("bisim.bisimilar", "calls"),
    ("bisim.bisimilar", "self_s"),
    ("bisim.bisimilar", "hits"),
    ("bisim.kripke_bisimilar", "calls"),
    ("bisim.kripke_bisimilar", "self_s"),
    ("emulate.to_post", "calls"),
    ("emulate.to_post", "self_s"),
    ("emulate.to_post", "post_nodes"),
    ("emulate.resolve_actual", "calls"),
    ("emulate.resolve_actual", "self_s"),
    ("planner.solve_nfl", "calls"),
    ("planner.solve_nfl", "total_s"),
)


def _setup(name: str, seed: int, tiny: bool):
    """Import the library and the generators afresh, then build the inputs.

    Returns the set-up's wall time, that time at the reference speed, the
    workload and its pool of cases."""
    for key in list(sys.modules):
        if key in ("families", "attnplan") or key.startswith("attnplan."):
            del sys.modules[key]
    with SpeedProbe() as probe:
        start = time.perf_counter()
        families = importlib.import_module("families")
        workload = families.WORKLOADS[name]
        size = workload.tiny if tiny else workload.full
        pool = workload.setup(random.Random(seed), WORKDIR, **size)
        elapsed = time.perf_counter() - start
    return elapsed - probe.spent, probe.at_reference_speed(elapsed), workload, pool


def _clear_program_caches() -> None:
    """Empty the library's memo tables, as a fresh process would have them."""
    for key, module in list(sys.modules.items()):
        if key == "attnplan" or key.startswith("attnplan."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _timed_op(workload, case, recorder=None) -> tuple[float, float, bool]:
    """One operation: its wall time, that time at the reference speed, and
    whether it gave the right answer."""
    inputs = workload.fresh(case)
    _clear_program_caches()
    gc.collect()
    # A traced step samples the speed only before and after, so the probe's
    # bursts do not fall into the per-layer times.
    with SpeedProbe(sample=recorder is None) as probe, recorder or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            ok = workload.op(inputs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        elapsed = time.perf_counter() - start
    if not ok:
        print("an operation failed or gave a wrong answer", file=sys.stderr)
    return elapsed - probe.spent, probe.at_reference_speed(elapsed), ok


def _case_times(samples: dict[int, list[float]]) -> list[float]:
    """Each case's median over its repeats in the run."""
    return [statistics.median(times) for times in samples.values()]


def _p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]


def _layer_metrics(recorder, traced: dict, untraced: dict) -> dict:
    ops = sum(map(len, traced.values()))
    out = {}
    for layer, field in LAYER_FIELDS:
        stats = recorder.stats[layer]
        per = stats.calls if field in PER_CALL_FIELDS else ops
        out[f"{layer}.{field}"] = {
            "value": getattr(stats, field) / per if per else 0.0,
            "unit": FIELD_UNITS[field],
        }
    bisim = recorder.stats["bisim.bisimilar"]
    out["planner.dedup_hit_ratio"] = {
        "value": bisim.hits / bisim.calls if bisim.calls else 0.0,
        "unit": "ratio",
    }
    out["planner.nodes_explored"] = {"value": recorder.nodes_explored / ops, "unit": "count/op"}
    out["trace.overhead_s"] = {
        "value": statistics.median(_case_times(traced)) - statistics.median(_case_times(untraced)),
        "unit": "s",
    }
    return out


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run: the result object printed as the last line, and
    notes for the human-readable lines (distinct cases, wall-clock times)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)
    setup_times, setup_wall = [], []
    for _ in range(SETUP_REPEATS):
        workload = pool = None  # drop the previous inputs so memory peaks stay comparable
        wall_s, elapsed, workload, pool = _setup(name, seed, tiny)
        setup_times.append(elapsed)
        setup_wall.append(wall_s)
    imported = Path(sys.modules["attnplan"].__file__).resolve()
    if SRC.resolve() not in imported.parents:
        raise RuntimeError(f"attnplan was imported from {imported}, not from {SRC}")

    untraced: dict[int, list[float]] = {}
    traced: dict[int, list[float]] = {}
    wall: dict[int, list[float]] = {}
    recorder = spans.Recorder() if trace else None
    passes = [(untraced, None)] + ([(traced, recorder)] if recorder else [])
    failed = index = 0
    deadline = time.perf_counter() + seconds
    while index == 0 or time.perf_counter() < deadline:
        k = index % len(pool)
        index += 1
        for samples, rec in passes:
            wall_s, elapsed, ok = _timed_op(workload, pool[k], rec)
            samples.setdefault(k, []).append(elapsed)
            if rec is None:
                wall.setdefault(k, []).append(wall_s)
            failed += not ok
    attempted = index * len(passes)

    if recorder is not None:
        metrics = _layer_metrics(recorder, traced, untraced)
    else:
        times = _case_times(untraced)
        values = {
            "ops_per_s": len(times) / sum(times),
            "op_p50_s": statistics.median(times),
            "op_p90_s": _p90(times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    notes = {
        "cases": len(untraced),
        "wall_op_p50_s": statistics.median(_case_times(wall)),
        "wall_setup_s": statistics.median(setup_wall),
    }
    return result, notes


def _commit() -> str:
    """The checked-out commit when run from a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "attnplan" / "__init__.py").is_file():
        print(f"error: no attnplan sources under {SRC}", file=sys.stderr)
        return 2

    result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} loop=closed callers=1"
    )
    print(
        f"# python={platform.python_version()} platform={platform.platform()} "
        f"nproc={len(os.sched_getaffinity(0))} commit={_commit()}"
    )
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(f"fail_ratio {result['failed'] / result['attempted']:.6g} ratio")
    print(f"samples {result['attempted']} count, over {notes['cases']} distinct case(s)")
    print(
        f"# times above are at the reference speed; wall clock: "
        f"op_p50 {notes['wall_op_p50_s']:.6g} s, setup {notes['wall_setup_s']:.6g} s"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
