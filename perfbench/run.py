"""Benchmark of the latin-transversals verifier: time to verdict, end to end and per layer.

    python3 perfbench/run.py --workload {enumerate,percell,certify} \\
        --seed N --seconds S --trace {0,1}

Runs one workload in this process with one worker (jobs=1): one untimed
warm-up pass, then timed passes until ``--seconds`` have passed (at least
one).  Every pass checks every verdict.  The seed only shuffles the order of
the inputs within each pass; the inputs are always the paper's squares.

``--trace 0`` measures end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced passes with traced replays, checks that both reach the
same verdicts, reports per-layer metrics and the tracing overhead, and writes
the spans to ``.perfbench/`` in the checkout.  Human-readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
TRACE_DIR = ROOT / ".perfbench"


def git_sha() -> str:
    """HEAD of the checkout, read from its own .git only; 'unavailable' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def env_line(backend: str) -> str:
    note = "" if backend == "numba" else " (numba not importable; the numba path is unmeasured)"
    return (f"env git={git_sha()} python={platform.python_version()} "
            f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"jobs=1 backend={backend}{note}")


def measure_setup(workload: str, probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first possible timed call."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or not line.startswith("ready"):
            raise RuntimeError(f"set-up probe for {workload} failed: {line!r}")
        times.append(elapsed)
    return times


def spread(samples: list[float]) -> str:
    """Median, quartiles, the highest percentile with >= 10 samples beyond it, count."""
    med = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (med, med, med)
    n = len(samples)
    if n > 10:
        tail = f"p{100 * (n - 10) // n}={sorted(samples)[n - 11]!r}"
    else:
        tail = "tail=none (needs >= 11 samples)"
    return f"median={med!r} q1={q1!r} q3={q3!r} {tail} n={n}"


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        inputs=None, refs=None) -> tuple[list[str], dict]:
    """One benchmark run; returns the human-readable lines and the result object."""
    import workloads
    from spans import COMPUTED, Tracer

    wl = workloads.WORKLOADS[workload]
    inputs = wl.inputs if inputs is None else tuple(inputs)
    refs = workloads.reference() if refs is None else refs
    rng = random.Random(seed)
    lines = [env_line(workloads.BACKEND)]
    # CPU speed on a shared machine drifts over seconds, so the five set-up
    # probes are spread over the run: before the warm-up, after it, at the end.
    setup = []
    if not trace:
        measure_setup(workload, 1)  # fills the byte-code cache; not counted
        setup += measure_setup(workload, 2)
    ctx = workloads.make_context(workload, inputs)
    tally = workloads.Tally()

    def one_pass(order, tracer=None):
        t0 = time.perf_counter()
        if tracer is None:
            obs = wl.run_pass(ctx, order)
        else:
            tracer.begin_pass()
            with tracer.span("bench.pass"):
                obs = wl.run_pass(ctx, order, tracer)
        checked = wl.check(ctx, obs, refs)
        return time.perf_counter() - t0, obs, checked

    def shuffled():
        order = list(inputs)
        rng.shuffle(order)
        return order

    one_pass(shuffled())  # warm-up, untimed
    if not trace:
        setup += measure_setup(workload, 2)
    walls, rates, traced_walls = [], [], []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        order = shuffled()
        wall, obs, checked = one_pass(order)
        walls.append(wall)
        rates.append(checked.attempted / wall)
        nodes = sum(getattr(r, "nodes", 0) for r in obs.values())
        tally.add(checked)
        if tracer is not None:
            t_wall, t_obs, t_checked = one_pass(order, tracer)
            traced_walls.append(t_wall)
            tally.add(t_checked)
            tally.verdict(t_obs == obs, "traced replay reached different verdicts")

    if not trace:
        setup += measure_setup(workload, 1)

    lines.append(f"workload {workload} seed {seed} seconds {seconds} "
                 f"passes {len(walls)} (+1 untimed warm-up) trace {int(trace)}")
    lines.append(f"wall_s [s] {spread(walls)}")
    lines.append(f"engine.nodes {nodes} count (last untraced pass; "
                 f"0 where the program does not expose it)")
    lines.append(f"fail_ratio {tally.failed / tally.attempted!r} ratio "
                 f"({tally.failed} failed of {tally.attempted} verdicts)")
    lines += [f"error {e}" for e in dict.fromkeys(tally.errors)]
    lines += [f"note {e}" for e in dict.fromkeys(tally.notes)]

    if tracer is None:
        metrics = {
            "wall_s": statistics.median(walls),
            "verdicts_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        lines.append(f"setup_s [s] {spread(setup)}")
    else:
        passes = range(tracer.pass_id + 1)
        per_pass = [tracer.layers(p) for p in passes]
        metrics = {k: statistics.median(layer[k] for layer in per_pass) for k in per_pass[0]}
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1
        self_s = {}
        for p in passes:
            for name, v in tracer.self_times(p).items():
                self_s.setdefault(name, []).append(v)
        lines.append(f"traced wall_s [s] {spread(traced_walls)}")
        lines.append(f"trace overhead {overhead!r} ratio (median traced / untraced wall_s - 1; "
                     f"includes the extra calls behind computed layers)")
        for name, vals in sorted(self_s.items(), key=lambda kv: -statistics.median(kv[1])):
            lines.append(f"self {name} {statistics.median(vals)!r} s")
        lines += [f"computed {k}: {why}" for k, why in COMPUTED.items()]
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
        t0 = tracer.spans[0][1]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "env": lines[0], "workload": workload, "seed": seed,
                "untraced_wall_s": walls, "traced_wall_s": traced_walls,
                "overhead": overhead, "layers": per_pass, "computed": COMPUTED,
                "span_fields": ["name", "start_s", "end_s", "parent", "pass"],
                "spans": [[n, s - t0, e - t0, par, pid]
                          for n, s, e, par, pid in tracer.spans],
            }, fh, separators=(",", ":"))
        lines.append(f"trace written to {path.relative_to(ROOT)}")
    spec = json.loads(BENCHMARK.read_text())["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    lines += [f"metric {k} {metrics[k]!r} {unit}" for k, unit in units.items()]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    return lines, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("enumerate", "percell", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import workloads  # noqa: F401  imports the program from src/
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
