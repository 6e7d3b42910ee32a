"""Seeded end-to-end benchmark of flowenc, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  The program under test is imported from
``src/`` next to this directory, never from an installed copy.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
wrapper in place.  With ``--trace 1`` the run first repeats the workload
untraced for half of ``--seconds``, then runs the same rounds again with
every layer wrapped, and reports the per-layer metrics; spans and the
per-layer table go to ``bench/runs/<workload>/``.  ``--smoke`` shrinks every
workload to a few seconds and keeps every check.  See README.md.
"""

from __future__ import annotations

import time

T_SCRIPT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"

#: End-to-end metrics of an untraced run: name -> unit.
END_TO_END = {"setup_s": "s", "images_per_s": "images/s",
              "final_loss": "nats/pixel", "peak_rss_mb": "MiB"}


def process_age_s() -> float:
    """Seconds since this process started (kernel start time, else script)."""
    script = time.perf_counter() - T_SCRIPT
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return script
    # The kernel figure has 10 ms ticks; trust it only if it is plausible.
    return age if script <= age <= script + 5.0 else script


def load_program() -> None:
    """Put the checkout's src/ first on the path and import flowenc from it."""
    pkg = ROOT / "src" / "flowenc"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: flowenc sources not found at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import flowenc
    if Path(flowenc.__file__).resolve().parent != pkg:
        raise SystemExit(f"error: imported flowenc from {flowenc.__file__}, "
                         f"not from {pkg}")


@dataclass
class Rounds:
    times: list = field(default_factory=list)  # seconds, successful rounds
    attempted: int = 0
    failed: int = 0
    differ: int = 0       # rounds whose output differs from the first
    first: object = None  # output of the first successful round
    peak_rss_mb: float = 0.0  # after the first round, set-up included


def run_rounds(wl, seconds: float, rounds: int | None, first=None) -> Rounds:
    """Rounds until ``seconds`` have passed, or exactly ``rounds`` of them.

    Only the first successful output is kept (or the ``first`` given); every
    other round is compared with it.  Peak memory is read after the first
    round, so it covers the same work however many rounds fit in the run.
    """
    from workloads import FAILURES
    n = wl.images_per_round
    res = Rounds(first=first)
    signature = None if first is None else wl.signature(first)
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            out = wl.run_round()
        except FAILURES as exc:
            print(f"round failed: {exc}", file=sys.stderr)
            res.failed += n
        else:
            res.times.append(time.perf_counter() - t0)
            if res.first is None:
                res.first, signature = out, wl.signature(out)
            elif wl.signature(out) != signature:
                res.differ += 1
        if not res.attempted:
            res.peak_rss_mb = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        res.attempted += n
        if rounds is not None:
            if res.attempted >= rounds * n:
                break
        elif time.perf_counter() - begin >= seconds:
            break
    return res


def images_per_s(wl, times: list[float]) -> float:
    return wl.images_per_round / statistics.median(times) if times else 0.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, all checks, a few seconds")
    args = p.parse_args(argv)

    load_program()
    import numpy as np
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose "
                         f"from {sorted(workloads.WORKLOADS)}")
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes)

    tracer = instr = None
    if args.trace:
        tracer = tracing.Tracer()
        instr = tracing.Instrumentation(tracer, workloads.WIDTHS)
        instr.install_setup()
        setup_span = tracer.open("bench.setup")
    wl.setup()
    if args.trace:
        tracer.close(setup_span)
        setup_end = len(tracer)
        instr.remove()
    setup_s = process_age_s()

    half = args.seconds / 2 if args.trace else args.seconds
    run = run_rounds(wl, half, None)
    attempted, failed, first = run.attempted, run.failed, run.first

    if args.trace:
        instr.install()
        phase = tracer.open("bench.workload")
        traced = run_rounds(wl, 0.0, attempted // wl.images_per_round, first)
        tracer.close(phase)
        phase_end = len(tracer)
        probe_span = tracer.open("bench.probe")
        probe_images = workloads.probe(wl)
        tracer.close(probe_span)
        instr.remove()
        attempted += traced.attempted
        failed += traced.failed

    errors: list[str] = []
    if run.differ:
        errors.append(f"{wl.name}: {run.differ} rounds differ from the first")
    if first is not None:
        errors += wl.check(first)
    else:
        errors.append(f"{wl.name}: no round succeeded")

    if not args.trace:
        metrics = {"setup_s": setup_s,
                   "images_per_s": images_per_s(wl, run.times),
                   "final_loss": wl.final_loss(first) if first is not None else 0.0,
                   "peak_rss_mb": run.peak_rss_mb}
        units = END_TO_END
    else:
        if traced.differ:
            errors.append(f"{wl.name}: {traced.differ} traced rounds differ "
                          "from the untraced ones")
        rounds = max(len(traced.times), 1)
        widths = workloads.WIDTHS
        own = tracing.layer_metrics(tracer, phase + 1, phase_end,
                                    rounds * wl.images_per_round, rounds, widths)
        fallback = tracing.layer_metrics(tracer, probe_span + 1, len(tracer),
                                         probe_images, 1, widths)
        metrics, from_probe = {}, []
        for key, value in own.items():
            if value is None:
                value = fallback[key]
                from_probe.append(key)
            metrics[key] = value
        ratios = tracing.correction_ratios(tracer.adjoint_samples)
        synth = tracing.span_total_ns(tracer, 0, setup_end, tracing.SPAN_SYNTH)
        metrics["data.synth_digits_s"] = synth / 1e9
        metrics["training.adjoint_correction_ratio"] = (
            float(np.mean(ratios)) if ratios else None)
        ips_u, ips_t = images_per_s(wl, run.times), images_per_s(wl, traced.times)
        metrics["bench.trace_overhead_pct"] = (
            (ips_u - ips_t) / ips_u * 100.0 if ips_u else None)
        # A layer that neither the workload nor the probe reaches any more
        # (say, work moved off diffcore) reads 0 rather than failing the run.
        undefined = [k for k, v in metrics.items() if v is None]
        if undefined:
            print(f"per-layer metrics with no calls, reported as 0: {undefined}",
                  file=sys.stderr)
        metrics = {name: metrics[name] or 0.0 for name, _, _ in tracing.PER_LAYER}
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        outdir = RUNS / wl.name
        outdir.mkdir(parents=True, exist_ok=True)
        tracer.write(outdir / "spans.npz")
        (outdir / "layers.json").write_text(json.dumps({
            "workload": wl.name, "seed": args.seed, "smoke": args.smoke,
            "rounds": rounds, "spans": len(tracer), "from_probe": from_probe,
            "undefined": undefined, "metrics": metrics}, indent=2) + "\n")

    print(f"{wl.name} seed {args.seed}: {len(run.times)} rounds of "
          f"{wl.images_per_round} images, round seconds "
          f"{' '.join(f'{t:.3f}' for t in run.times)}", file=sys.stderr)
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units.get(k, "")}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
