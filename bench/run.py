"""Seeded benchmark of the episodeseq pipelines.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``text-dict``, ``trajectory-mine``, ``pair-viterbi`` or ``all``.  A
run builds its inputs from the seed, repeats pipeline passes over them for
about S seconds (and at least once on each input), checks every pass's
output and prints, as its last stdout line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A figure taken per pass
is reduced to the median of each input's passes, then the mean over inputs.

* ``--trace 0`` measures with tracing off.  The metrics are the end-to-end
  ones: the pass time, the median set-up time (imports plus input
  generation, taken in this process and in fresh probe processes), the
  peak resident memory, and the code units per event of the result.
* ``--trace 1`` alternates untraced and traced passes.  The metrics are the
  per-layer ones: span times and counters of the traced passes, the tracing
  overhead (traced minus untraced pass time) and the share of a traced pass
  that its top-level spans cover.

``all`` runs every workload, each in its own process, once untraced and
once traced, and prints every metric.  Each run also writes
``.bench_out/<workload>-seed<N>-trace<T>.json``: the run environment, the
pass times and, for a traced run, every span with its self time.

The package is imported from ``src/`` and ``EPISODESEQ_THREADS`` is removed
from the environment, so the default single-thread path is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("text-dict", "trajectory-mine", "pair-viterbi")
DEFAULT_SEED = 0  # the seed whose output digests are recorded in workloads.py
SETUP_PROBES = 4  # fresh processes that repeat the set-up, for its median

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "code_units_per_event": "units/event",
}
RATIOS = ("candidates.emitted_per_node_eval", "mdl.pick_yield")
SHARES = ("trace.top_level_share", "ops_failed")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in RATIOS:
        return "ratio"
    if name in SHARES:
        return "share"
    return "count"


def _import_workloads():
    """Import the workloads, and with them numpy, scipy and the package."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def setup(name: str, seed: int, size: str, trace_to=None):
    """Import and generate the inputs; returns (workload, inputs, seconds)."""
    start = time.perf_counter()
    workload = _import_workloads().WORKLOADS[name]
    sizes = getattr(workload, size)
    if trace_to is None:
        inputs = workload.setup(seed, sizes)
    else:
        with trace_to.patched():
            inputs = trace_to.call("setup", workload.setup, seed, sizes)
    return workload, inputs, time.perf_counter() - start


def _probe_setup(name: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(proc.stdout.split()[-1])


def _problems(workload, inputs, outputs, digest: str | None) -> list[str]:
    try:
        problems = workload.check(inputs, outputs)
        if digest is not None and workload.digest(outputs) != digest:
            problems.append("default-seed digest differs from the recorded one")
        return problems
    except Exception:
        return ["check raised:\n" + traceback.format_exc()]


def input_mean(samples: dict[int, list[float]]) -> float:
    """Mean over inputs of each input's median, so every input weighs the same."""
    return statistics.mean(statistics.median(v) for v in samples.values())


def measure(workload, inputs: tuple, seconds: float, trace_to, digests) -> dict:
    """Repeat passes for about ``seconds``, and at least once on every input.

    Untraced and traced passes (the latter only with a tracer) alternate,
    and each kind rotates over the inputs in the same order.  Pass times,
    quality and per-layer figures are kept per input index.
    """
    kinds = (False, True) if trace_to is not None else (False,)
    walls: dict[bool, dict[int, list[float]]] = {kind: {} for kind in kinds}
    done = dict.fromkeys(kinds, 0)
    quality: dict[int, float] = {}
    layers: dict[int, list[dict[str, float]]] = {}
    failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace_to is not None and done[True] < done[False]
        index = done[traced] % len(inputs)
        done[traced] += 1
        root = len(trace_to.spans) if traced else -1
        counts_before = Counter(trace_to.counts) if traced else None
        start = time.perf_counter()
        try:
            if traced:
                with trace_to.patched():
                    outputs = trace_to.call("pass", workload.run, inputs[index])
            else:
                outputs = workload.run(inputs[index])
        except Exception:
            outputs = None
            problems = ["pass raised:\n" + traceback.format_exc()]
        walls[traced].setdefault(index, []).append(time.perf_counter() - start)
        if outputs is not None:
            digest = digests[index] if digests else None
            problems = _problems(workload, inputs[index], outputs, digest)
            if not problems:
                quality[index] = workload.quality(inputs[index], outputs)
                if traced:
                    added = trace_to.counts - counts_before
                    layers.setdefault(index, []).append(
                        tracer.pass_layers(trace_to, root, added)
                    )
        if problems:
            failed += 1
            print(f"{workload.name}: failed pass on input {index}:", *problems,
                  sep="\n  ", file=sys.stderr)
        covered = all(count >= len(inputs) for count in done.values())
        typical = statistics.median(w for ws in walls[False].values() for w in ws)
        if covered and time.perf_counter() + typical > deadline:
            break
    return {
        "walls": walls,
        "attempted": sum(done.values()),
        "quality": quality,
        "layers": layers,
        "failed": failed,
    }


def _src_lines() -> int:
    return sum(
        len(path.read_text("utf-8").splitlines()) for path in sorted(SRC.rglob("*.py"))
    )


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def environment(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": _src_lines(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    setup_probes: int = SETUP_PROBES,
    out_dir: Path = OUT,
) -> tuple[dict, dict]:
    """One benchmark run in this process; returns (result, environment)."""
    origin = time.perf_counter()
    trace_to = tracer.Tracer() if trace else None
    workload, inputs, setup_s = setup(name, seed, size, trace_to)
    digests = None
    if seed == DEFAULT_SEED and size == "full":
        digests = _import_workloads().DEFAULT_DIGESTS.get(name)
    # Half the probes before the passes and half after, so that set-up is
    # sampled across the run rather than at one moment of a drifting host.
    probes = 0 if trace else setup_probes
    setup_samples = [setup_s] + [_probe_setup(name, seed) for _ in range(probes // 2)]
    run = measure(workload, inputs, seconds, trace_to, digests)
    setup_samples += [_probe_setup(name, seed) for _ in range(probes - probes // 2)]

    walls = run["walls"]
    if trace:
        metrics = {}
        if run["layers"]:
            keys = next(iter(run["layers"].values()))[0]
            metrics = {
                key: input_mean({i: [p[key] for p in ps] for i, ps in run["layers"].items()})
                for key in keys
            }
        metrics["hmm.simulate_s"] = sum(
            (span.duration for span in trace_to.spans if span.name == "hmm.simulate"), 0.0
        )
        metrics["trace.overhead_s"] = input_mean(walls[True]) - input_mean(walls[False])
        metrics["ops_failed"] = run["failed"] / run["attempted"]
        metrics = {k: _metric(v, per_layer_unit(k)) for k, v in sorted(metrics.items())}
    else:
        values = {
            "wall_s": input_mean(walls[False]),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if run["quality"]:
            values["code_units_per_event"] = statistics.mean(run["quality"].values())
        metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    env = environment(name, seed, seconds, trace)
    record = {
        "environment": env,
        "result": result,
        "setup_s": setup_samples,
        "pass_s": {"traced" if kind else "untraced": w for kind, w in walls.items()},
        "spans": trace_to.records(origin) if trace else [],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    return result, env


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, untraced then traced."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True,
                timeout=args.seconds * 3 + 900,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"error: {name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                print(f"{name:16} {metric:36} {entry['value']:>14.6g} {entry['unit']}")
                merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time the set-up alone and print its seconds (used by the set-up probes)",
    )
    args = parser.parse_args(argv)
    # Child processes inherit the environment without it too.
    os.environ.pop("EPISODESEQ_THREADS", None)
    if not (SRC / "episodeseq" / "__init__.py").is_file():
        print(f"error: no episodeseq package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        print(setup(args.workload, args.seed, "full")[2])
        return 0
    result, env = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
