"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload whatif_cold --seed 1 \\
        --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` and ``e2ebench/README.md``):

* ``whatif_cold`` — a designer's closed loop of what-if predictions
  over a seeded face_detection config list, stage caches empty;
* ``whatif_restart`` — the same list in a new process over the on-disk
  stage cache an earlier process filled;
* ``serve_net`` — ``python -m repro serve-net`` under open- and
  closed-loop load over TCP.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` repeats the run untraced and traced (tracer installed
from ``tracer.py``) and reports the per-layer metrics of the traced
one, with the tracing overhead between the two.  On ``whatif_cold`` it
also traces a training from an empty registry and a few full
place-and-route flows, for the implementation layers.

Every timed answer is checked (reference recomputation, restart ==
cold, wire == in-process; traced flows are re-routed by the reference
router).  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a run whose checks
fail reports ``correct: false`` with no metrics and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import dataclass, field

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("whatif_cold", "whatif_restart", "serve_net")


def _declared() -> dict:
    """``BENCHMARK.json``: the metric names and units a run reports."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _registry_ready() -> str:
    """Train the per-checkout model once (with the code under test)."""
    root = common.registry_dir()
    models = os.path.join(root, "models")

    def ready() -> bool:
        return os.path.isdir(models) and any(
            name.endswith(".manifest.json") for name in os.listdir(models))

    if ready():
        return models
    work = common.scratch_dir("registry")
    building = os.path.join(work, "cache")
    try:
        common.run_pass({"kind": "registry", "cache_dir": building,
                         "work_dir": work}, "registry")
        try:
            os.replace(building, root)
        except OSError:
            if not ready():  # not a concurrent run that won the race
                raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return models


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict | None  # end-to-end (untraced run)
    layers: dict | None  # per-layer (traced run)
    attempted: int
    failed: int
    samples: dict
    checks: list = field(default_factory=list)
    gen2: list = field(default_factory=list)
    #: informational lines, printed but never reported as metrics
    notes: list = field(default_factory=list)


def _timing_metrics(latencies: list[float], setups: list[float],
                    rss: float) -> dict:
    """End-to-end timings from per-config latencies (seconds)."""
    return {
        "setup_s": common.median(setups),
        "configs_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": common.percentile(latencies, 50) * 1e3,
        "latency_p90_ms": common.percentile(latencies, 90) * 1e3,
        "peak_rss_mb": rss,
    }


def _overhead_pct(untraced_s: float, traced_s: float) -> float:
    return (traced_s / untraced_s - 1.0) * 100.0


def _traced_layers(quick: dict, traced: dict, trace: dict) -> dict:
    """Layer metrics of a traced pass, with the tracing overhead against
    the untraced ``quick`` pass over the list's first configs (the
    first block warms code paths up in either pass, so it is left
    out)."""
    import layers

    times = traced["latencies"]
    out = layers.answer_layers(trace, len(times))
    k, b = len(quick["latencies"]), common.BALANCE
    out["trace.overhead_pct"] = _overhead_pct(
        sum(quick["latencies"][b:]), sum(times[b:k]))
    return out


def _outcome(metrics, layer, passes, n, setups, score=None):
    """Sum the passes' failures and checks.  ``n`` is the list's length;
    every answer of every pass counts as attempted."""
    failed = sum(p["failed"] for p in passes)
    if metrics is not None and score is not None:
        metrics["mae_v_pct"] = score["mae_v_pct"]
        metrics["mae_h_pct"] = score["mae_h_pct"]
    return Outcome(
        metrics=metrics, layers=layer,
        attempted=sum(len(p.get("latencies", ())) for p in passes),
        failed=failed,
        checks=[c for p in passes for c in p["checks"]],
        samples={"latency": n, "setup": setups,
                 "scored_nodes": score["scored_nodes"] if score else 0},
        gen2=[p["gen2"] for p in passes if "gen2" in p],
    )


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def whatif_cold(args, work, registry):
    spec = {"kind": "whatif", "mode": "cold", "seed": args.seed,
            "n": common.n_configs(args.seconds), "registry": registry,
            "setups": common.SETUPS, "checks": True,
            "score": not args.trace, "trace_path": None, "work_dir": work,
            "cache_dir": os.path.join(work, "cold-cache")}
    if not args.trace:
        result = common.run_pass(spec, "cold")
        metrics = _timing_metrics(result["latencies"], result["setup_s"],
                                  result["peak_rss_mb"])
        outcome = _outcome(metrics, None, [result], spec["n"],
                           len(result["setup_s"]), result)
        flows = len(result["flow_s"]) / sum(result["flow_s"])
        outcome.notes.append(
            f"full flow on the {len(result['flow_s'])} scored configs "
            f"(untimed, informational): {flows:.3f} configs/s; ROADMAP "
            f"premise ratio {metrics['configs_per_s'] / flows:.2f}x "
            f"(gate: 5x)")
        return outcome
    import layers

    quick = common.run_pass({
        **spec, "n": common.OVERHEAD_CONFIGS, "setups": 1, "checks": False,
        "cache_dir": os.path.join(work, "quick-cache")}, "quick")
    trace_path = os.path.join(work, "trace.json")
    traced = common.run_pass({**spec, "setups": 1,
                              "trace_path": trace_path}, "traced")
    layer = _traced_layers(quick, traced, layers.load(trace_path))
    # the implementation layers: training plus full flows, traced in a
    # pass of their own
    flow_trace = os.path.join(work, "implement-trace.json")
    flows = common.run_pass({
        "kind": "implement", "seed": args.seed, "n": spec["n"],
        "work_dir": work, "cache_dir": os.path.join(work, "train-cache"),
        "trace_path": flow_trace}, "implement")
    layer.update(layers.implement_layers(layers.load(flow_trace),
                                         len(flows["latencies"])))
    return _outcome(None, layer, [quick, traced, flows], spec["n"], 1)


def whatif_restart(args, work, registry):
    n = common.RESTART_LIST_FACTOR * common.n_configs(args.seconds)
    base = {"kind": "whatif", "seed": args.seed, "registry": registry,
            "n": n, "setups": common.SETUPS, "checks": False,
            "score": False, "trace_path": None, "work_dir": work,
            "cache_dir": os.path.join(work, "filled-cache")}
    # the cold sweep that fills the cache gives the answers the restart
    # must repeat; the reference checks and scoring run there
    filled = common.run_pass({**base, "mode": "fill", "setups": 1,
                              "checks": True, "score": not args.trace},
                             "fill")

    def restart(tag: str, **over) -> dict:
        result = common.run_pass({**base, "mode": "restart", **over}, tag)
        answers = result["answers"]
        expected = filled["answers"][:len(answers)]
        mismatched = sum(1 for a, b in zip(answers, expected) if a != b)
        mismatched += len(expected) - len(answers)
        result["failed"] += mismatched
        result["checks"].append({"restart_equals_cold": mismatched == 0})
        return result

    if not args.trace:
        result = restart("restart")
        metrics = _timing_metrics(result["latencies"], result["setup_s"],
                                  result["peak_rss_mb"])
        return _outcome(metrics, None, [filled, result], n,
                        len(result["setup_s"]), filled)
    import layers

    quick = restart("quick", n=common.OVERHEAD_CONFIGS, setups=1)
    trace_path = os.path.join(work, "trace.json")
    traced = restart("traced", setups=1, trace_path=trace_path)
    layer = _traced_layers(quick, traced, layers.load(trace_path))
    return _outcome(None, layer, [filled, quick, traced], n, 1)


def serve_net(args, work, registry):
    import layers
    import servenet

    # the server gets the first CPU, the load generator the others, so
    # neither takes time slices from the other
    allowed = sorted(os.sched_getaffinity(0))
    server_cpus = {allowed[0]}
    os.sched_setaffinity(0, set(allowed[1:]) or server_cpus)

    def session(tag, traced, quick=False):
        return servenet.run_session(work, tag, args.seed, args.seconds,
                                    registry, work if traced else None,
                                    server_cpus, quick)

    def throughput(run) -> float:
        start, end = run["closed_window"]
        return len(run["closed"]) / ((end - start) / 1e9)

    layer = None
    if args.trace:
        quick = session("quick", False, quick=True)
        run = session("traced", True)
    else:
        run = session("untraced", False)
    expected, predictor = servenet.in_process_answers(run["groups"],
                                                      registry)
    failed = servenet.count_wrong(run, expected)
    attempted = (len(run["groups"]) + len(run["open_requests"])
                 + len(run["closed_requests"]))
    open_ms = [(r[2] - r[0]) / 1e6 for r in run["open"].values()]
    metrics = {
        "setup_s": common.median(run["setup_s"]),
        "configs_per_s": throughput(run),
        "latency_p50_ms": common.percentile(open_ms, 50),
        "latency_p90_ms": common.percentile(open_ms, 90),
        "peak_rss_mb": run["peak_rss_mb"],
        **servenet.score_variants(predictor),
    }
    if args.trace:
        client = {rid: (r[0], r[2]) for rid, r in run["open"].items()}
        client.update({rid: (r[0], r[1]) for rid, r in run["closed"].items()})
        layer = layers.serving_layers(layers.load(run["traces"][-1]),
                                      run["window"], client)
        loads = [(s[3] - s[2]) / 1e6 for path in run["traces"]
                 for s in layers.load(path)["spans"]
                 if s[1] == "serve.registry.load"]
        layer["serve.registry.load_ms"] = common.median(loads) if loads \
            else 0.0
        layer["serve.service.prediction_hit_ratio"] = run[
            "prediction_hit_ratio"]
        late = [(r[1] - r[0]) / 1e6 for r in run["open"].values()]
        layer["loadgen.late_ms_p90"] = common.percentile(late, 90)
        layer["trace.overhead_pct"] = _overhead_pct(
            1 / throughput(quick), 1 / throughput(run))
    return Outcome(
        metrics=metrics, layers=layer, attempted=attempted, failed=failed,
        checks=[{"wire_equals_in_process": failed == 0}],
        samples={"latency": len(open_ms), "setup": len(run["setup_s"]),
                 "scored_nodes": metrics.pop("scored_nodes")},
    )


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"error: no program to measure: {common.SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)

    yard_before = common.yardstick_ms()
    registry = _registry_ready()
    work = common.scratch_dir(args.workload)
    try:
        fn = {"whatif_cold": whatif_cold, "whatif_restart": whatif_restart,
              "serve_net": serve_net}[args.workload]
        outcome = fn(args, work, registry)
    except common.PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    yard_after = common.yardstick_ms()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"scale {common.SCALE}  cpus {os.cpu_count()}")
    declared = _declared()
    if not args.trace:
        samples = outcome.samples
        for metric in declared["end_to_end"]:
            name = metric["name"]
            n = samples["setup"] if name == "setup_s" else (
                samples["scored_nodes"] if name.startswith("mae")
                else samples["latency"])
            print(f"  {name:<16} {outcome.metrics[name]:12.4f} "
                  f"{metric['unit']:<4} (n={n})")
    failed_pct = 100.0 * outcome.failed / max(1, outcome.attempted)
    print(f"  {'failed_pct':<16} {failed_pct:12.4f} %    "
          f"(attempted={outcome.attempted}, failed={outcome.failed})")
    print(f"  host.yardstick_ms before {common.median(yard_before):.1f} "
          f"after {common.median(yard_after):.1f}")
    if args.workload != "serve_net":
        print(f"  gc.gen2_count    {outcome.gen2} (timed answers, per pass)")
    print(f"  checks {json.dumps(outcome.checks)}")
    for note in outcome.notes:
        print(f"  {note}")

    if outcome.failed:
        print(json.dumps({"correct": False, "attempted": outcome.attempted,
                          "failed": outcome.failed, "metrics": {}}))
        return 1
    if args.trace:
        values = outcome.layers
        values["host.yardstick_ms"] = common.median(yard_before + yard_after)
        reported = declared["per_layer"]
        for metric in reported:
            print(f"  {metric['name']:<36} {values[metric['name']]:12.4f} "
                  f"{metric['unit']}")
    else:
        values, reported = outcome.metrics, declared["end_to_end"]
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
           for m in reported}
    print(json.dumps({"correct": True, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
