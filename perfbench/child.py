"""Child-process entry points of the benchmark; run.py starts one per job.

  probe    start-up cost of a fresh process up to its first cell
  inproc   one workload run inside this process (CLI workloads through
           decoguard.cli.main with one worker), optionally traced
  pool     one default fig6 surface with workers 1, 2, 2 and 1

Each mode prints one JSON object as its last stdout line. The child never
decides pass or fail of CLI outputs; run.py checks the files it wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import workloads


def _probe(args) -> dict:
    from decoguard import channels, optimize, qmath  # the imports are part of set-up
    if args.workload == "library-mixed":
        item = workloads.library_inputs(0, args.size)[0]
        rho, noise_kind, r = item.rho, item.noise_kind, item.r
        grid = optimize.GridSpec.default(**workloads.grid_counts(args.workload, args.size))

        def cell():  # the cheaper of the two mixed cells; a probe runs it twice
            optimize.optimize_qffc_rot(rho, channels.make_channel(noise_kind, r), grid)
    else:
        from decoguard import cli
        cmd = workloads.cli_commands(args.workload, args.size, None, Path(args.outdir))[0]
        parsed = cli.build_parser().parse_args(list(cmd.argv))
        grid = optimize.GridSpec.default(**workloads.grid_counts(args.workload, args.size))
        phi = getattr(parsed, "phi", None) or 0.0
        rho = qmath.state_from_angles(qmath.InitialState(alpha=grid.alphas[1], phi=phi))
        noise_kind, r = parsed.noise or "ad", grid.rs[1]
        scheme = getattr(parsed, "scheme", None)

        def cell():
            noise = channels.make_channel(noise_kind, r)
            if scheme is None:
                optimize.optimize_qfbc(rho, noise, grid)
                optimize.optimize_qffc_rot(rho, noise, grid)
            else:
                optimize.optimize_scheme(scheme, rho, noise, grid)
    ready = time.monotonic()
    t0 = time.perf_counter()
    cell()
    first = time.perf_counter() - t0
    t0 = time.perf_counter()
    cell()
    warm = time.perf_counter() - t0
    return {"ready_monotonic": ready, "first_cell_s": first, "warm_cell_s": warm,
            "workers_default": optimize.resolve_workers(None, len(grid.alphas))}


def _inproc(args) -> dict:
    from decoguard import cli  # imported before timing, traced or not
    tracer = None
    if args.trace:
        from tracer import Tracer, tail
        tracer = Tracer()
        tracer.install()
    out = {}
    t0, c0 = time.perf_counter(), time.process_time()
    if args.workload == "library-mixed":
        out.update(workloads.run_library(args.seed, args.size))
    else:
        cmds = workloads.cli_commands(args.workload, args.size, args.seed,
                                      Path(args.outdir), workers=1)
        out["exit_codes"] = [cli.main(list(cmd.argv)) for cmd in cmds]
    out["rep_s"] = time.perf_counter() - t0
    out["rep_cpu_s"] = time.process_time() - c0
    if tracer is not None:
        tracer.uninstall()
        out["metrics"] = tracer.metrics()
        cells = tracer.cell_times()
        out["cell_tail"] = {"percentile": tail(cells)[0] if cells else None,
                            "samples": len(cells)}
        out["spans"] = len(tracer.spans)
        tracer.write_spans(Path(args.spans))
    return out


def _pool(args) -> dict:
    from decoguard import optimize
    grid = optimize.GridSpec.default(**workloads.FIG6_COUNTS[args.size])
    ref = workloads.read_ref(args.size, workloads.FIG6_FILES[0])
    out = {"workers_default": optimize.resolve_workers(None, len(grid.alphas))}
    attempted = failed = 0
    times = {1: [], 2: []}
    for workers in (1, 2, 2, 1):  # ABBA order cancels a linear drift of host speed
        t0 = time.perf_counter()
        table = optimize.sweep_fig6(0.0, "ad", grid, workers=workers)
        times[workers].append(time.perf_counter() - t0)
        a, f = workloads.compare_table(ref, table.to_csv(), workloads.FIG6_FLOAT_COLS)
        attempted += a
        failed += f
    out.update(surface_w1_s=times[1], surface_w2_s=times[2],
               attempted=attempted, failed=failed)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("probe", "inproc", "pool"))
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--size", choices=workloads.SIZES, default="full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", default=".")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default="spans.csv")
    args = p.parse_args(argv)
    result = {"probe": _probe, "inproc": _inproc, "pool": _pool}[args.mode](args)
    import numpy
    result.update(python=sys.version.split()[0], numpy=numpy.__version__,
                  pid=os.getpid())
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
