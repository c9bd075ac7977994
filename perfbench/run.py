"""isoshape benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; isoshape is imported from
``src/`` of that checkout.  One run:

1. builds the workload's inputs from the seed (grids, starting shapes);
2. repeats the workload's fixed unit of work until ``--seconds`` is used
   up (at least three times), checking every output, and reports as
   ``cpu_s`` and ``wall_s`` the sum over the unit's operations of each
   one's median CPU and wall time across the repetitions;
3. after the repetitions, times the set-up several times, each in a
   fresh interpreter, and reports the median as ``setup_s``;
4. prints the machine block, every named metric with its unit, and as the
   last line one JSON object with ``correct``, ``attempted``, ``failed``
   and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off.  ``--trace 1`` runs one discarded warm-up repetition,
then pairs of one untraced and one traced repetition, at least two pairs,
with the order flipped from pair to pair.  It reports the per-layer
metrics from the traced repetitions, plus ``trace.overhead_frac``: the
median over the pairs of the traced over the untraced repetition's CPU
time, minus one.  The spans are written to ``perfbench/out/`` when the run
ends.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUTDIR = HERE / "out"
SETUP_PROBES = 5
MIN_REPS = 3
MIN_PAIRS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "ISOSHAPE_THREADS")

# Named end-to-end numbers printed for every workload ("n/a" where the
# workload has no such output).  Those listed in BENCHMARK.json also go
# into the result line; fail_frac is reported there as failed/attempted.
REPORTED = (("cpu_s", "s"), ("wall_s", "s"), ("setup_s", "s"),
            ("peak_rss_mb", "MiB"), ("fail_frac", "1"),
            ("converged_frac", "1"), ("energy_err_max", "1"),
            ("riesz_relerr_max", "1"), ("ref_relerr_max", "1"),
            ("errbar_misses", "count"),
            ("mc_z_max", "sigma"), ("raster_margin_min", "1"))


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true",
                    help="build the inputs and exit (used to time set-up)")
    return ap.parse_args(argv)


def _import_program():
    """Put the checkout's src/ first on the path and import from there only."""
    src = CHECKOUT / "src"
    if not (src / "isoshape" / "__init__.py").is_file():
        sys.exit(f"perfbench: no isoshape sources under {src}")
    sys.path.insert(0, str(src))
    import isoshape
    if Path(isoshape.__file__).resolve().parent != (src / "isoshape").resolve():
        sys.exit(f"perfbench: imported isoshape from {isoshape.__file__}, "
                 f"not from {src}")
    import workloads
    return workloads


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(CHECKOUT.parent))
    try:
        res = subprocess.run(["git", "-C", str(CHECKOUT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _cache_sizes() -> dict:
    try:
        res = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for line in res.stdout.splitlines():
        parts = line.split()
        if (len(parts) == 2 and parts[0].endswith("CACHE_SIZE")
                and parts[1].isdigit()):
            sizes[parts[0]] = int(parts[1])
    return sizes


def machine_block() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "caches": _cache_sizes(),
        "commit": _git_commit(),
    }


def _monotonic() -> float:
    # system-wide clock, so a child's reading compares with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _setup_probe(args):
    """Returns a function that times one set-up: the seconds from spawning
    a fresh interpreter until it has imported everything and built the
    inputs (the child reports when it got there)."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]

    def probe() -> float:
        t0 = _monotonic()
        res = subprocess.run(cmd, cwd=CHECKOUT, check=True, timeout=170,
                             capture_output=True, text=True)
        return float(res.stdout.split()[-1]) - t0

    return probe


def _measure(unit, inputs, seconds, tracer, probe, cpu_clock):
    """Repeat the unit until ``seconds`` of repetitions are used up, at
    least MIN_REPS times; with a tracer, run one discarded warm-up and then
    untraced/traced pairs instead, at least MIN_PAIRS of them, flipping the
    order from pair to pair so that neither side is always the first.
    After the last repetition, times SETUP_PROBES set-ups; that time is
    not counted in ``seconds``, and a fresh interpreter run between two
    repetitions would disturb the one after it.  Returns the untraced and
    the traced repetitions as (wall, cpu, outcome) triples, the spans of
    each traced one, the set-up times, and the outcomes of all
    repetitions, the warm-up included."""
    untraced, traced, rep_spans = [], [], []
    walls, outcomes = [], []
    while True:
        # after the warm-up the pairs run untraced-traced, traced-untraced
        k = len(walls) - 1
        tracing_on = tracer is not None and k % 4 in (1, 2)
        if tracing_on:
            mark = len(tracer.spans)
            tracer.install()
        t0 = time.perf_counter()
        c0 = cpu_clock()
        outcome = unit(inputs)
        wall = time.perf_counter() - t0
        rep = (wall, cpu_clock() - c0, outcome)
        if tracing_on:
            tracer.uninstall()
            rep_spans.append(tracer.spans[mark:])
            traced.append(rep)
        elif tracer is None or walls:
            untraced.append(rep)
        walls.append(wall)
        outcomes.append(outcome)
        if tracer is None:
            enough = len(untraced) >= MIN_REPS
        else:
            enough = len(traced) >= MIN_PAIRS and len(untraced) == len(traced)
        step = statistics.median(walls) * (1 if tracer is None else 2)
        if enough and sum(walls) + step > seconds:
            break
    setup_times = [probe() for _ in range(SETUP_PROBES)]
    return untraced, traced, rep_spans, setup_times, outcomes


def unit_seconds(reps, clock: str) -> float:
    """Time of one unit on the ``clock`` ("wall" or "cpu"): the sum over
    its operations of each operation's median time across repetitions,
    plus the median time spent outside them.  A burst of outside load that
    hits different operations in different repetitions drops out of every
    median; it would stay in a median of whole-unit times."""
    col, attr = (0, "seconds") if clock == "wall" else (1, "cpu")
    per_op = [getattr(r[2], attr) for r in reps]
    in_ops = sum(statistics.median(t[k] for t in per_op) for k in per_op[0])
    outside = statistics.median(r[col] - sum(t.values())
                                for r, t in zip(reps, per_op))
    return in_ops + outside


def _write_spans(path: Path, tracer, machine, rep_spans):
    with path.open("w") as fh:
        fh.write(json.dumps({"machine": machine, "missing": tracer.missing})
                 + "\n")
        for rep, spans in enumerate(rep_spans):
            for s in spans:
                fh.write(json.dumps({
                    "rep": rep, "name": s.name, "id": s.id,
                    "parent": s.parent, "thread": s.thread,
                    "start": s.start - T_START, "end": s.end - T_START,
                    "work": s.work}) + "\n")


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    args = _args(argv)
    workloads = _import_program()
    import reference
    import tracing

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    setup, unit = workloads.WORKLOADS[args.workload]
    OUTDIR.mkdir(exist_ok=True)
    reference.self_check()
    inputs = setup(args.seed, OUTDIR)
    if args.setup_probe:
        print(repr(_monotonic()))
        return 0

    machine = machine_block()
    print("machine " + json.dumps(machine, sort_keys=True), flush=True)
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced, rep_spans, setup_times, outcomes = _measure(
        unit, inputs, args.seconds, tracer, _setup_probe(args),
        workloads.cpu_clock)

    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    last = outcomes[-1]

    def worst(key, pick=max):
        vals = [o.accuracy[key] for o in outcomes if key in o.accuracy]
        return pick(vals) if vals else None

    descents = last.counts.get("descents", 0)
    values = {
        "cpu_s": unit_seconds(untraced, "cpu"),
        "wall_s": unit_seconds(untraced, "wall"),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": len(failures) / max(attempted, 1),
        "converged_frac": (last.counts["converged"] / descents
                           if descents else None),
        "energy_err_max": worst("energy_err_max"),
        "riesz_relerr_max": worst("riesz_relerr_max"),
        "ref_relerr_max": worst("ref_relerr_max"),
        "errbar_misses": worst("errbar_misses"),
        "mc_z_max": worst("mc_z_max"),
        "raster_margin_min": worst("raster_margin_min", min),
    }
    print(f"workload {args.workload} seed {args.seed}: repetitions untraced "
          + " ".join(f"{w:.3f}/{c:.3f}" for w, c, _ in untraced)
          + ", traced " + " ".join(f"{w:.3f}/{c:.3f}" for w, c, _ in traced)
          + " (wall/CPU), setup "
          + " ".join(f"{t:.3f}" for t in setup_times) + " s")
    for name, unit_name in REPORTED:
        print(f"metric {name} = {_fmt(values[name])} {unit_name}")

    if tracer is not None:
        per_rep = [tracing.layer_metrics(spans) for spans in rep_spans]
        for key in per_rep[0]:
            values[key] = statistics.median(m[key] for m in per_rep)
        values["cli.artifact_bytes"] = last.counts.get("artifact_bytes", 0)
        # pair i is the (2i+1)-th and (2i+2)-th repetition after the
        # warm-up, so the i-th traced and i-th untraced ones belong to it
        values["trace.overhead_frac"] = statistics.median(
            t[1] / u[1] for t, u in zip(traced, untraced)) - 1.0
        values["trace.missing"] = len(tracer.missing)
        for name in tracer.missing:
            print(f"trace: {name} is missing, not traced")
        path = OUTDIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        _write_spans(path, tracer, machine, rep_spans)
        for m in spec["per_layer"]:
            print(f"layer {m['name']} = {_fmt(values[m['name']])} {m['unit']}")
        print(f"trace: spans -> {path}")

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
