"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload bootstrap --seed 1 --seconds 10 --trace 0

Workloads: ``bootstrap``, ``helr_step`` and ``serve`` (see README.md).
Run from the repository root; the library is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces the
layers and prints the per-layer metrics, the tracing overhead, the
coverage check and which predictions in ``predictions.json`` held.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only if every correctness gate passed.
Full details, and with ``--trace 1`` every span, are written under
``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

_now = time.perf_counter
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_runs"
WORKLOADS = ("bootstrap", "helr_step", "serve")

# End-to-end metrics: name -> (unit, better).  The unit of work is one
# bootstrap, one HELR step, or one served request.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "precision_bits": ("bits", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
}

# Traced runs fail when the layer spans cover less than this share of
# the timed work as the workload's own clock measures it.
COVERAGE_FLOOR = 0.9

# Layers whose time is reported inclusive of the layers they call
# (pipeline stages); every other span reports its self time.
STAGES = ("ckks.lt", "ckks.evalmod", "ckks.modraise", "sched.execute")
COUNTED = {  # span name -> name of its work counter
    "rns.ntt_fwd": "rows",
    "rns.ntt_inv": "rows",
    "rns.bconv": "macs",
    "rns.ks_inner": "words",
}
PER_UNIT_CALLS = (
    "ckks.keyswitch", "ckks.encode", "ckks.hmult", "ckks.pmult", "ckks.rotate",
    "ckks.conjugate", "ckks.rescale", "rns.ntt_fwd", "rns.ntt_inv", "rns.bconv",
    "rns.ks_inner", "rns.mul", "rns.add", "sched.execute", "check.admit",
)
PER_UNIT_SECONDS = (
    "ckks.keyswitch", "ckks.encode", "ckks.lt", "ckks.evalmod", "ckks.modraise",
    "ckks.hmult", "ckks.pmult", "ckks.rotate", "ckks.conjugate", "ckks.rescale",
    "rns.ntt_fwd", "rns.ntt_inv", "rns.bconv", "rns.ks_inner", "rns.mul",
    "rns.add", "sched.execute", "check.admit",
)


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (``q`` in [0, 100]).

    A Beta-weighted mean of all order statistics: much steadier than
    picking one or two of them when there are few samples.  Any
    infinite sample (a failed request) makes every percentile infinite.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    if x.size == 0 or not np.all(np.isfinite(x)):
        return float("inf")
    n, p = x.size, q / 100.0
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    grid = (np.arange(20000) + 0.5) / 20000
    cdf = np.cumsum(np.exp((a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)))
    cdf = np.concatenate([[0.0], cdf / cdf[-1]])
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0, 1, cdf.size), cdf)
    return float(np.diff(edges) @ x)


def host_speed(windows: int = 5, seconds: float = 0.08) -> float:
    """Passes per second of a fixed numpy modular-multiply loop.

    The best of a few short windows, read at the start and the end of a
    run: a large change between the two means the host's speed moved
    during the run (shared machines), which moves every timing with it.
    """
    a = np.random.default_rng(0).integers(0, 1 << 20, (16, 4096), dtype=np.uint64)
    b = np.empty_like(a)
    q = np.uint64(1000003)
    best = 0.0
    for _ in range(windows):
        start = _now()
        passes = 0
        while _now() - start < seconds:
            np.multiply(a, a, out=b)
            np.remainder(b, q, out=b)
            passes += 1
        best = max(best, passes / (_now() - start))
    return best


def environment(backend: str) -> dict[str, Any]:
    from workloads import nproc

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": backend,
    }


def end_to_end(outcome) -> dict[str, float]:
    lat = outcome.latencies_s
    rate = outcome.info.get("throughput_per_s")
    if rate is None:
        rate = len(lat) / sum(lat) if lat and sum(lat) > 0 else 0.0
    return {
        "setup_s": outcome.setup_s,
        "peak_rss_mb": outcome.peak_rss_mb,
        "precision_bits": statistics.median(outcome.precision_bits)
        if outcome.precision_bits else 0.0,
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "throughput_per_s": rate,
    }


def per_layer(outcome) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from the trace summary, plus coverage problems."""
    trace = outcome.trace or {"phases": {}}
    phases = trace["phases"]
    timed = phases.get("timed", {"wall_s": 0.0, "untraced_s": 0.0, "layers": {}})
    setup = phases.get("setup", {"layers": {}})
    units = max(1, int(outcome.info.get("traced_units", len(outcome.latencies_s))))
    layers = timed["layers"]

    def row(name: str, key: str, table=layers) -> float:
        return float(table.get(name, {}).get(key, 0.0))

    m: dict[str, tuple[float, str]] = {}
    for name in PER_UNIT_CALLS:
        m[f"{name}.calls"] = (row(name, "calls") / units, "count")
    for name in PER_UNIT_SECONDS:
        key = "incl_s" if name in STAGES else "self_s"
        m[f"{name}.s"] = (row(name, key) / units, "s")
    for name, counter in COUNTED.items():
        m[f"{name}.{counter}"] = (row(name, "work") / units, "count")
    m["ckks.encode.incl_s"] = (row("ckks.encode", "incl_s") / units, "s")
    m["params.build.s"] = (row("params.build", "self_s", setup["layers"]), "s")
    m["sched.certify.calls"] = (row("sched.certify", "calls"), "count")
    m["sched.certify.setup_calls"] = (row("sched.certify", "calls", setup["layers"]), "count")
    m["sched.certify.setup_s"] = (row("sched.certify", "incl_s", setup["layers"]), "s")
    m["serve.ingress.s"] = (timed.get("ingress_s", 0.0) / units, "s")
    m["serve.egress.s"] = (timed.get("egress_s", 0.0) / units, "s")
    for key, unit in (("serve.queue_wait_ms", "ms"), ("serve.execute_ms", "ms"),
                      ("serve.batch_size_mean", "count"), ("serve.occupancy_mean", "ratio"),
                      ("serve.gen_late_ms", "ms"), ("check.rejected", "count")):
        m[key] = (float(outcome.info.get(key, 0.0)), unit)
    if outcome.unit == "request":
        m["serve.p95_ms"] = (percentile(outcome.latencies_s, 95) * 1e3, "ms")
    else:
        m["serve.p95_ms"] = (0.0, "ms")
    m["rns.kernel_cache.hit_ratio"] = (float(outcome.info.get("kernel_cache_hit_ratio", 0.0)),
                                       "ratio")

    # Coverage: the share of the timed work, as the workload clocks it
    # (each unit's own timer; for serve the server's timer around each
    # batch), that falls inside layer spans (for serve, spans below
    # serve.batch).  It drops when timed work runs outside every hook.
    clocked = float(outcome.info.get("clocked_s", 0.0))
    coverage = float(outcome.info.get("covered_s", 0.0)) / clocked if clocked else 0.0
    problems = []
    if coverage < COVERAGE_FLOOR:
        problems.append(
            f"coverage: layer spans cover {coverage:.4f} of the {clocked:.3f} s "
            f"the workload clocked, below the floor {COVERAGE_FLOOR}"
        )
    m["trace.wall_s"] = (timed["wall_s"] / units, "s")
    m["trace.untraced_s"] = (timed["untraced_s"] / units, "s")
    m["trace.coverage"] = (coverage, "ratio")
    traced_unit = outcome.info.get("traced_unit_s")
    if traced_unit is None and outcome.latencies_s:
        traced_unit = statistics.median(outcome.latencies_s)
    base = outcome.untraced_unit_s
    m["trace.overhead"] = ((traced_unit / base - 1.0) if traced_unit and base else 0.0, "ratio")
    return m, problems


def check_predictions(workload: str, outcome) -> list[tuple[dict, bool, str]]:
    """Evaluate each prediction for this workload against the trace.

    The measures are defined in ``predictions.json``; a claim holds when
    its measure lies within the claim's ``min``/``max``.
    """
    spec = json.loads((HERE / "predictions.json").read_text())
    phases = (outcome.trace or {}).get("phases", {})
    timed = phases.get("timed", {"busy_s": 0.0, "layers": {}})
    layers = timed["layers"]
    busy = timed["busy_s"] or 1.0
    ranked = sorted(layers, key=lambda n: layers[n]["self_s"], reverse=True)

    def total(names: str | list[str], key: str, table: dict) -> float:
        """Sum over the named layers; a trailing '*' matches a prefix."""
        names = [names] if isinstance(names, str) else names
        return sum(
            r[key] for n, r in table.items()
            if any(n.startswith(p[:-1]) if p.endswith("*") else n == p for p in names)
        )

    results = []
    for claim in spec["predictions"]:
        if claim["workload"] != workload:
            continue
        layer, measure = claim["layer"], claim["measure"]
        if measure == "self_share":
            value = total(layer, "self_s", layers) / busy
        elif measure == "incl_share":
            value = total(layer, "incl_s", layers) / busy
        elif measure in ("ratio", "self_ratio"):
            key = "incl_s" if measure == "ratio" else "self_s"
            base = total(claim["of"], key, layers)
            value = total(layer, key, layers) / base if base else 0.0
        elif measure == "rank":
            value = ranked.index(layer) + 1 if layer in ranked else 0
        elif measure == "calls":
            names = list(phases) if claim["phase"] == "all" else [claim["phase"]]
            value = sum(total(layer, "calls", phases.get(n, {}).get("layers", {}))
                        for n in names)
        else:
            raise ValueError(f"unknown prediction measure {measure!r}")
        held = claim.get("min", value) <= value <= claim.get("max", value)
        results.append((claim, held, f"{measure} {value:.4g}"))
    return results


def headline_names() -> dict[tuple[str, str], str]:
    """(workload, metric) -> the ROADMAP headline name it stands for."""
    spec = json.loads((HERE / "predictions.json").read_text())
    return {
        (row["workload"], row["metric"]): name
        for name, row in spec["end_to_end_names"].items()
        if row["workload"] != "all"
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from spans import Tracer

    speed_start = host_speed()
    tracer = None
    if args.workload == "serve":
        import serve_load

        outcome = serve_load.serve(args.seed, args.seconds, bool(args.trace), ROOT)
    else:
        import workloads

        tracer = Tracer() if args.trace else None
        outcome = getattr(workloads, args.workload)(args.seed, args.seconds, tracer)
        outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    speed_end = host_speed()
    drift = speed_end / speed_start - 1.0
    env = environment(outcome.backend)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# {args.workload}: attempted {outcome.attempted}, failed {outcome.failed}, "
          f"units timed {len(outcome.latencies_s)}")
    for message in outcome.failures:
        print(f"# FAIL {message}")
    print(f"# host speed {speed_start:.1f} -> {speed_end:.1f} passes/s ({drift:+.1%})"
          + ("  HOST DRIFT: timings of this run are not comparable" if abs(drift) > 0.1 else ""))

    problems: list[str] = []
    details: dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               "environment": env, "info": outcome.info,
                               "host_speed": {"start": speed_start, "end": speed_end},
                               "failures": outcome.failures}
    if args.trace:
        metrics, problems = per_layer(outcome)
        for message in problems:
            print(f"# FAIL {message}")
        missing = (outcome.trace or {}).get("missing_hooks", [])
        if missing:
            print(f"# hooks not found (their layers report nothing): {', '.join(missing)}")
        predictions = check_predictions(args.workload, outcome)
        held = sum(1 for _, ok, _ in predictions if ok)
        metrics["predictions.held"] = (float(held), "count")
        metrics["predictions.failed"] = (float(len(predictions) - held), "count")
        for claim, ok, seen in predictions:
            print(f"# prediction {'HELD  ' if ok else 'FAILED'} {claim['id']}: "
                  f"{claim['claim']} ({seen})")
        details["predictions"] = [
            {"id": c["id"], "held": ok, "observed": seen} for c, ok, seen in predictions
        ]
        details["trace"] = outcome.trace
        if tracer is not None:
            tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    else:
        values = end_to_end(outcome)
        for name, value in values.items():
            if not math.isfinite(value):
                # A failed request counts as missing every latency limit.
                problems.append(f"{name} is not finite ({value})")
                values[name] = 0.0
        metrics = {name: (values[name], END_TO_END[name][0]) for name in END_TO_END}
        aliases = headline_names()
        for name, (value, unit) in metrics.items():
            alias = aliases.get((args.workload, name))
            note = f"  (= {alias})" if alias else ""
            print(f"{name:<18} {value:14.6f} {unit:<5}{note}")
        if outcome.unit == "request":
            # Too few open-loop samples per run for a bounded metric;
            # printed here and reported by the traced run as serve.p95_ms.
            p95 = percentile(outcome.latencies_s, 95) * 1e3
            print(f"# serve_p95_ms {p95:.6f} ms (not bounded: few samples lie beyond it)")
        print(f"# samples: {len(outcome.latencies_s)} {outcome.unit} latencies, "
              f"{len(outcome.precision_bits)} precision readings")

    correct = outcome.failed == 0 and not problems
    details["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, default=str) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
