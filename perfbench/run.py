#!/usr/bin/env python3
"""Run one benchmark workload; the last line of stdout is its JSON result.

    python3 perfbench/run.py --workload train_tiny --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it holds the per-layer metrics of a traced run, whose table
is also written to ``perfbench/results/``. ``--quick`` swaps every workload to
the tiny network at 32x32 RAW, for a schema check without timing meaning.
Progress and check details go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread: on a 2-CPU machine shared with other tenants, two threads gave
# the same throughput with four times the run-to-run spread. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from frenet.analyze import count_params_macs  # noqa: E402

import workloads  # noqa: E402
from tracer import SECTION_ORDER, Tracer  # noqa: E402

# Set-up is repeated at least this often, and until this much time has passed.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0


def log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def timed_setup(work, repeats: int, seconds: float) -> list[float]:
    times = []
    while len(times) < repeats or sum(times) < seconds:
        start = time.perf_counter()
        work.setup()
        times.append(time.perf_counter() - start)
    return times


def run_rounds(work, seconds: float, traced: Tracer | None):
    """Whole rounds until ``seconds`` have passed; traced runs alternate plain and traced rounds."""
    plain, traced_rounds = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not plain or (traced is not None and not traced_rounds):
        use_tracer = traced is not None and len(plain) > len(traced_rounds)
        if use_tracer:
            traced.install()
        try:
            r = work.round()
        except Exception:  # a failed round is a failed operation; keep measuring
            log(traceback.format_exc())
            r = workloads.Round(float("nan"), 0, float("nan"), False)
        finally:
            if use_tracer:
                traced.uninstall()
        (traced_rounds if use_tracer else plain).append(r)
        log(f"round {len(plain) + len(traced_rounds)}{' traced' if use_tracer else ''}: "
            f"{r.seconds:.3f} s, {r.mpix_per_s:.5f} Mpix/s, ok={r.ok}")
    return plain, traced_rounds


def median_of(rounds, field: str) -> float:
    values = [getattr(r, field) for r in rounds if r.ok]
    return statistics.median(values) if values else float("nan")


def layer_table(name: str, layers: dict, macs: dict) -> str:
    lines = [f"# {name}: per-layer metrics from a traced run", "",
             f"{'section':8s} {'fwd ms/round':>14s} {'MMAC/forward':>14s} {'GMAC/s':>10s}"]
    for sec in SECTION_ORDER:
        lines.append(f"{sec:8s} {layers[f'arch.{sec}.fwd_ms'][0]:14.3f} "
                     f"{macs.get(sec, 0) / 1e6:14.3f} {layers[f'arch.{sec}.gmac_per_s'][0]:10.3f}")
    lines.append("")
    lines += [f"{key:36s} {value:14.4f} {unit}" for key, (value, unit) in layers.items()]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=HERE))
    try:
        work = workloads.make(args.workload, args.seed, workdir, quick=args.quick)
        setup_tracer = Tracer() if args.trace else None
        if setup_tracer:
            setup_tracer.install()
        try:
            setup_times = timed_setup(work, *((1, 0.0) if args.quick else (SETUP_REPEATS, SETUP_SECONDS)))
        finally:
            if setup_tracer:
                setup_tracer.uninstall()
        log(f"setup: {' '.join(f'{t:.4f}' for t in setup_times)} s")
        work.prepare()
        tracer = Tracer() if args.trace else None
        plain, traced = run_rounds(work, args.seconds, tracer)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        results = work.check(plain + traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for result in results:
        log(f"check {result.name}: {'ok' if result.ok else 'FAILED'} ({result.detail})")

    rounds = plain + traced
    failed = sum(not r.ok for r in rounds) + sum(not c.ok for c in results)
    if args.trace:
        macs = count_params_macs(work.cfg.network).sections
        layers = tracer.per_layer(len(traced), work.samples_per_round() * len(traced), macs)
        from_setup = setup_tracer.per_layer(1, 1, macs)
        for key in ("rawdata.gen_ms_per_pair", "fileio.restore_ms"):
            layers[key] = from_setup[key]
        layers["trace.round_ms"] = (1e3 * median_of(traced, "seconds"), "ms")
        layers["trace.overhead_ratio"] = (median_of(traced, "seconds") / median_of(plain, "seconds"), "ratio")
        results_dir = HERE / "results"
        results_dir.mkdir(exist_ok=True)
        table = layer_table(args.workload, layers, macs)
        (results_dir / f"{args.workload}-trace.txt").write_text(table)
        log(table)
        metrics = layers
    else:
        metrics = {
            "mpix_per_s": (median_of(plain, "mpix_per_s"), "Mpix/s"),
            "psnr_db": (median_of(plain, "psnr_db"), "dB"),
            "peak_rss_mib": (peak_mib, "MiB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rounds) + len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
