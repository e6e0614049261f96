"""gnssfsl benchmark entry point.

    python3 perfbench/run.py --workload desk-chain --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  It imports gnssfsl from ./src, runs
one closed-loop, single-client workload for --seconds, checks every
operation's outputs, and prints one JSON object as the last line of standard
output: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run is split in an
untraced and a traced half and the metrics are the per-layer ones, plus the
tracing overhead.  The line before it carries the environment and the
quality readouts; both, and the traced spans, are also written under
.perfbench_out/.  BLAS is pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent


def pin_blas_threads():
    """Pin BLAS to one thread; refuse if numpy is already loaded (the pin would not take)."""
    if "numpy" in sys.modules:
        raise SystemExit("perfbench: numpy was imported before the BLAS thread pin; refusing to run")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import gnssfsl from this checkout's src/; returns (package, seconds)."""
    src = ROOT / "src"
    if not (src / "gnssfsl" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gnssfsl sources under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (imported first so the timing below is the package's own)

    t0 = time.perf_counter()
    import gnssfsl
    from gnssfsl import cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    if Path(gnssfsl.__file__).resolve().parent != (src / "gnssfsl").resolve():
        raise SystemExit(f"perfbench: imported gnssfsl from {gnssfsl.__file__}, not {src}")
    return gnssfsl, elapsed


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def untraced_run(wl, import_s, seconds):
    import workloads

    setups = [timed(wl.setup) for _ in range(wl.setup_repeats)]
    durations, attempted, failed, errors = workloads.measure(wl, seconds)
    if not durations:
        raise SystemExit(f"perfbench: every operation failed: {errors}")
    metrics = {
        "op_p10_s": workloads.percentile(durations, 10),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "named": wl.metrics(durations),
        "ops": len(durations),
        "setup_s_samples": setups,
        "import_s": import_s,
    }
    return metrics, attempted, failed, errors, details, None


def traced_run(wl, pkg, seconds):
    """Untraced half, then the same work traced; per-layer metrics plus overhead."""
    import tracer as tr
    import workloads

    half = seconds / 2.0
    setup_plain = timed(wl.setup)
    plain, att1, fail1, err1 = workloads.measure(wl, half)
    rss_plain = peak_rss_mb()

    tracer = tr.Tracer()
    tr.install(tracer, pkg)
    try:
        setup_traced = timed(tracer.run_op, "setup", wl.setup)
        wl.manifest_bytes.clear()
        traced, att2, fail2, err2 = workloads.measure(wl, half, tracer, first_op=att1)
    finally:
        tracer.uninstall()
    leftovers = tr.leftover_wrappers()
    if not plain or not traced:
        raise SystemExit(f"perfbench: every operation failed: {err1 + err2}")

    metrics = tr.layer_metrics(tracer)
    metrics["cli.manifest_bytes"] = (
        statistics.mean(wl.manifest_bytes) if wl.manifest_bytes else 0.0
    )
    pct = lambda t, u: 100.0 * (t - u) / u
    pctl = workloads.percentile
    metrics.update({
        "trace.overhead.op_p10_pct": pct(pctl(traced, 10), pctl(plain, 10)),
        "trace.overhead.op_p50_pct": pct(statistics.median(traced), statistics.median(plain)),
        "trace.overhead.setup_pct": pct(setup_traced, setup_plain),
        "trace.overhead.peak_rss_mb": peak_rss_mb() - rss_plain,
    })
    errors = (err1 + err2)[:5]
    if leftovers:
        errors.append(f"tracer wrappers left installed: {leftovers}")
    details = {
        "untraced_ops": len(plain),
        "traced_ops": len(traced),
        "spans": len(tracer.spans),
        "unwrapped": tracer.missing,
    }
    return metrics, att1 + att2, fail1 + fail2, errors, details, tracer


def with_units(group, values) -> dict:
    """Attach BENCHMARK.json's units; the names must match its list exactly."""
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[group]}
    if units.keys() != values.keys():
        raise SystemExit(
            f"perfbench: {group} metrics disagree with BENCHMARK.json: "
            f"{sorted(units.keys() ^ values.keys())}"
        )
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def write_outputs(name, seed, trace, record, tracer):
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{name}-seed{seed}-trace{trace}"
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(f"{stem}.spans.jsonl", "w") as fh:
            fh.write(json.dumps({"ops": tracer.ops}) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    pkg, import_s = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_tmp"))
    try:
        wl = workloads.WORKLOADS[args.workload](pkg, args.seed, scratch)
        if args.trace:
            result = traced_run(wl, pkg, args.seconds)
        else:
            result = untraced_run(wl, import_s, args.seconds)
    except workloads.CheckFailed as exc:
        raise SystemExit(f"perfbench: set-up failed: {exc}") from exc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics, attempted, failed, errors, details, tracer = result

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "readouts": wl.readouts,
        "details": details,
        "errors": errors,
    }
    write_outputs(args.workload, args.seed, args.trace, record, tracer)
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": with_units("per_layer" if args.trace else "end_to_end", metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
