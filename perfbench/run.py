"""Benchmark of the qgraph toolkit, run against the working tree's ``src/``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload convergence-n3 --seed 1 --seconds 10 --trace 0

One process drives one workload.  It writes the seeded input documents to a
scratch directory under ``.perfbench_out/``, times the set-up (import qgraph,
load and normalize every document) several times, each in a fresh
interpreter (``setup_probe.py``), then runs the workload's op list again and
again until ``--seconds`` have passed, at least once.  Every op's output is
checked after the op; only the op itself is timed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead (see ``tracing.py``): it runs rounds in place of
the passes, at least two, and in each round every op runs untraced, then
traced.  Metric names and units come from ``BENCHMARK.json``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit, the failed checks and the machine record,
and the same record goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import sys

# BLAS runs single-threaded (at most nproc, as required), set before numpy
# is imported and recorded with every result.  The matrices here are at most
# a few hundred wide: on a 2-CPU machine a second OpenBLAS thread made the HS
# sweep of delta'-s n=3 1.8x slower and its run-to-run spread 4x wider.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import setup_probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Untraced end-to-end figures of single stages, by op stage.  Not every
# workload has every stage, and a bounded metric may never be 0, so they
# are printed by every run and reported as per-layer metrics of the traced
# run (0 where a workload lacks the stage).
STAGES = {
    "sweep_scattering_s": "sweep_scattering",
    "sweep_hs_s": "sweep_hs",
    "sweep_eig_s": "sweep_eig",
    "spectrum_s": "spectrum",
    "build_s": "build",
}
LAYER_PREFIXES = tracing.LAYERS + ("linalg", "root", "quad")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="run only the first N ops of the workload (smoke runs)")
    return parser.parse_args(argv)


# -- set-up -----------------------------------------------------------------

def set_up(paths):
    """Seconds per set-up repeat, each in a fresh interpreter, so imports
    of numpy, scipy and their submodules are paid every time."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, paths)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    return times


# -- passes -----------------------------------------------------------------

def new_pass(q, work) -> dict:
    """An empty pass: op timings, checks and counters, filled by run_op."""
    ctx = workloads.Context(q=q, work=work)
    return {"ctx": ctx, "wall": 0.0, "op_s": {}, "checks": [], "counts": ctx.counts}


def run_op(p: dict, op) -> None:
    """Run and time one op, then check its output, into pass ``p``."""
    ctx = p["ctx"]
    start = time.perf_counter()
    try:
        out = op.run(ctx)
    except Exception as exc:  # a failed op is counted, never fatal
        out, error = None, exc
    else:
        error = None
    seconds = time.perf_counter() - start
    p["op_s"][op.name] = seconds
    p["wall"] += seconds
    if error is None:
        try:
            p["checks"].extend(op.check(ctx, out))
        except Exception as exc:
            error = exc
    if error is not None:
        p["checks"].append(checks.Check(f"{op.name} raised {type(error).__name__}: {error}", False))


def run_pass(q, work, ops) -> dict:
    p = new_pass(q, work)
    for op in ops:
        run_op(p, op)
    return p


def run_passes(q, work, ops, seconds):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(q, work, ops))
    return passes


def median(values):
    return statistics.median(values) if values else 0.0


def op_seconds(passes, ops) -> dict:
    """Each op's time: the least over the passes.  Other work on the machine
    only ever adds time, and on a shared 2-CPU host it added up to 80% to
    single ops, so the least of the repeats is the steadiest estimate."""
    return {op.name: min(p["op_s"][op.name] for p in passes) for op in ops}


def stage_metrics(passes, ops) -> dict:
    """Untraced end-to-end figures, summed over ops from op_seconds."""
    op_s = op_seconds(passes, ops)
    by_stage: dict[str, float] = {}
    for op in ops:
        by_stage[op.stage] = by_stage.get(op.stage, 0.0) + op_s[op.name]
    out = {"wall_s": sum(op_s.values())}
    for name, stage in STAGES.items():
        out[name] = by_stage.get(stage, 0.0)
    first = passes[0]
    samples = first["counts"].get("form_bound_samples", 0)
    fb_s = by_stage.get("form_bound", 0.0)
    out["form_bound_samples_per_s"] = samples / fb_s if fb_s > 0 else 0.0
    out["failed_frac"] = sum(1 for c in first["checks"] if not c.ok) / len(first["checks"])
    return out


def verdict(passes):
    """(correct, attempted, failed, failed check labels).

    Counts come from the first pass.  A run is correct when no op raised
    and every failed check is one of the known defect's; every pass must
    fail the same checks.
    """
    first = passes[0]["checks"]
    failed = [c for c in first if not c.ok]
    same = all([c.ok for c in p["checks"]] == [c.ok for c in first] for p in passes)
    correct = same and all(c.known is not None for c in failed)
    return correct, len(first), len(failed), failed


# -- traced passes -------------------------------------------------------------

def traced_round(q, work, ops, texts):
    """Each op untraced, then traced, back to back, so drift of the host
    between the two is seconds, not minutes.  Returns (untraced pass,
    traced pass, tracer, index of the first span of the op list); the
    tracer also holds a traced set-up."""
    tracer = tracing.Tracer()
    modules = tracing.qgraph_modules()
    restore = tracing.instrument(tracer, modules)
    try:
        setup_probe.normalize_inputs(q, texts)
    finally:
        restore()
    first_op_span = len(tracer.spans)
    plain, traced = new_pass(q, work), new_pass(q, work)
    for op in ops:
        run_op(plain, op)
        restore = tracing.instrument(tracer, modules)
        try:
            run_op(traced, op)
        finally:
            restore()
    return plain, traced, tracer, first_op_span


def traced_rounds(q, work, ops, texts, seconds):
    """Traced rounds until ``seconds`` have passed, at least two."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        rounds.append(traced_round(q, work, ops, texts))
    return rounds


def traced_metrics(rounds, ops):
    """Per-layer figures, tracer and per-span-name summary of the round
    whose traced pass was fastest.  Counts are the same in every round.

    ``trace.wall_s`` is estimated like ``wall_s``, from each op's least
    traced time; the caller sets ``trace.overhead_s`` against ``wall_s``
    from the same rounds' untraced runs.
    """
    _, traced, tracer, first_op_span = min(rounds, key=lambda r: r[1]["wall"])
    traced_wall = sum(op_seconds([r[1] for r in rounds], ops).values())
    summary = tracer.summary()

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    out = {}
    for name in PER_LAYER:
        head, _, key = name.rpartition(".")
        if key in ("calls", "s", "self_s") and head in summary:
            out[name] = get(head, key)
    for layer in LAYER_PREFIXES:
        out[f"{layer}.self_s"] = sum(v["self_s"] for n, v in summary.items() if n.startswith(layer + "."))
    out["linalg.s"] = sum(v["s"] for n, v in summary.items() if n.startswith("linalg."))
    out["root.s"] = sum(v["s"] for n, v in summary.items() if n.startswith("root."))
    out["budget.CubicSpline.s"] = get("budget.CubicSpline", "s") + get("budget.CubicSpline.eval", "s")
    out["linalg.max_n"] = tracer.max_n
    for key in ("linalg.flops", "builder.inner_edges", "serialize.bytes_out", "budget.samples"):
        out[key] = tracer.counts.get(key, 0)
    out["convergence.skipped_points"] = traced["counts"].get("skipped_points", 0)
    out["convergence.quad_warnings"] = traced["counts"].get("quad_warnings", 0)
    out["trace.spans"] = len(tracer.spans)
    out["trace.wall_s"] = traced_wall
    out["trace.coverage"] = tracer.root_seconds(since=first_op_span) / traced["wall"]
    return out, tracer, summary


# -- record -----------------------------------------------------------------

def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu or platform.processor(),
        "nproc": NPROC,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
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
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qgraph" / "__init__.py").is_file():
        print(f"perfbench: no qgraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ops = workload.ops[: args.max_ops]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        paths = workloads.write_inputs(workload, work)
        setup_times = set_up(paths)
        q = setup_probe.import_qgraph()
        summary = None
        if args.trace:
            texts = [path.read_text(encoding="utf-8") for path in paths]
            rounds = traced_rounds(q, work, ops, texts, args.seconds)
            passes = [r[0] for r in rounds]
            layer, tracer, summary = traced_metrics(rounds, ops)
            correct, attempted, failed, failed_checks = verdict(passes + [r[1] for r in rounds])
        else:
            passes = run_passes(q, work, ops, args.seconds)
            correct, attempted, failed, failed_checks = verdict(passes)
        stages = stage_metrics(passes, ops)
        figures = {
            "setup_s": median(setup_times),
            "wall_s": stages["wall_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_frac": 1.0 - failed / attempted,
        }
        units = dict(END_TO_END, **{k: PER_LAYER[k] for k in stages if k in PER_LAYER})
        if args.trace:
            layer["trace.overhead_s"] = layer["trace.wall_s"] - stages["wall_s"]
            layer.update({k: v for k, v in stages.items() if k in PER_LAYER})
            metrics = {k: {"value": layer.get(k, 0), "unit": unit} for k, unit in PER_LAYER.items()}
            tracer.write(OUT / f"spans-{args.workload}.jsonl.gz")
        else:
            metrics = {k: {"value": figures[k], "unit": unit} for k, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    shown = dict(figures, **stages)
    print(f"perfbench {args.workload} seed={args.seed}: {len(passes)} pass(es), "
          f"{attempted} checks, {failed} failed")
    for name, value in shown.items():
        print(f"  {name:28s} {value:14.6g} {units.get(name, '')}")
    print(f"  {'setup_s per repeat':28s} " + " ".join(f"{t:.4f}" for t in setup_times))
    for check in failed_checks:
        print(f"  FAILED{' (known: ' + check.known + ')' if check.known else ''}: {check.label}")
    env = environment(args)
    print("  env " + json.dumps(env, sort_keys=True))
    record = {"env": env, "end_to_end": shown, "setup_times": setup_times, "passes": len(passes),
              "op_s": op_seconds(passes, ops), "pass_s": [p["wall"] for p in passes],
              "attempted": attempted, "failed": [c.label for c in failed_checks],
              "metrics": metrics, "spans": summary}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
