"""decoguard benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload fig6-default --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Every workload step runs in a child process with
DECO_GUARD_THREADS removed from its environment. With --trace 0 the
workload repeats until --seconds have passed, and then fresh processes
measure set-up time. With --trace 1 one traced serial run gives the
per-layer metrics, one untraced serial run beside it gives the tracing
overhead, and one default fig6 surface timed with workers 1, 2, 2 and 1
gives the pool speed-up. Outputs are checked every time; the last stdout line is the JSON result,
and the full record (provenance, per-run samples) goes to
.perfbench_out/result-<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracer import PER_LAYER, percentile, tail

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 170
SETUP_PROBES = 7
MIN_REPS = 2

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cells_per_s": ("1/s", "higher"),
    "call_p50_ms": ("ms", "lower"),
    "call_p95_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DECO_GUARD_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_child(cmd: list[str]) -> tuple[subprocess.Popen, float]:
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    return proc, t0


def finish_child(proc: subprocess.Popen, t0: float) -> tuple[int, str, float]:
    """Wait for a child; returns (exit code, stdout, wall s since its start).
    On timeout the whole process group (pool workers included) is killed."""
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    wall = time.perf_counter() - t0
    sys.stderr.write(err[-4000:])
    return proc.returncode, out, wall


def run_child(cmd: list[str]) -> tuple[int, str, float]:
    return finish_child(*start_child(cmd))


def children_json(args, jobs) -> list[dict]:
    """Run child.py jobs (mode, extra args) side by side; one JSON result each."""
    started = [start_child([sys.executable, str(CHILD), mode, "--workload", args.workload,
                            "--size", args.size, "--seed", str(args.seed), *extra])
               for mode, extra in jobs]
    results = []
    for (mode, _), (proc, t0) in zip(jobs, started):
        code, out, wall = finish_child(proc, t0)
        if code != 0:
            raise ChildFailed(f"child {mode} exited with {code}")
        results.append(dict(json.loads(out.strip().splitlines()[-1]), process_wall_s=wall))
    return results


def child_json(mode: str, args, *extra: str) -> dict:
    return children_json(args, [(mode, extra)])[0]


class Scratch:
    """A fresh output directory for one workload run, removed afterwards."""

    def __enter__(self) -> Path:
        (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=OUT_DIR / "tmp"))
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


def cli_rep(args) -> dict:
    """One CLI workload run, each command its own process as a user types it."""
    rep = {"wall_s": 0.0, "calls_s": [], "cells": 0, "attempted": 0, "failed": 0}
    with Scratch() as outdir:
        for cmd in workloads.cli_commands(args.workload, args.size, args.seed, outdir):
            code, _, wall = run_child([sys.executable, "-m", "decoguard.cli", *cmd.argv])
            a, f = workloads.check_command(cmd, args.size, outdir)
            rep["wall_s"] += wall
            rep["calls_s"].append(wall)
            rep["cells"] += cmd.cells
            rep["attempted"] += a
            rep["failed"] += a if code != 0 else f
    return rep


def library_rep(args) -> dict:
    res = child_json("inproc", args)
    return {"wall_s": res["process_wall_s"], "calls_s": res["latencies"],
            "cells": res["cells"], "attempted": res["attempted"], "failed": res["failed"]}


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the whole machine, to tell host noise apart."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields[:8])


def probe_setup(args) -> tuple[float, dict]:
    """Seconds from spawning a fresh process to its first cell being ready
    (interpreter, imports, parser on CLI workloads, and the first-call surplus
    of a cell), and the probe's own report."""
    with Scratch() as outdir:
        t0 = time.monotonic()
        res = child_json("probe", args, "--outdir", str(outdir))
    return res["ready_monotonic"] - t0 + res["first_cell_s"] - res["warm_cell_s"], res


def measure_end_to_end(args, record: dict) -> tuple[dict, int, int]:
    rep_fn = library_rep if args.workload == "library-mixed" else cli_rep
    # At least two runs; another only if it is expected to end within --seconds.
    reps = []
    ticks0 = cpu_ticks()
    start = time.perf_counter()
    while len(reps) < MIN_REPS or (time.perf_counter() - start + statistics.median(
            r["wall_s"] for r in reps) <= args.seconds):
        cpu0 = children_cpu_s()
        reps.append(rep_fn(args))
        reps[-1]["cpu_s"] = children_cpu_s() - cpu0
    ticks1 = cpu_ticks()
    # read before the set-up probes so only the workload's own processes count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
    setups = [s for s, _ in probes]
    probe = probes[0][1]
    walls = [r["wall_s"] for r in reps]
    rates = [r["cells"] / r["wall_s"] for r in reps]
    calls_ms = [1e3 * c for r in reps for c in r["calls_s"]]
    q, tail_ms = tail(calls_ms)
    record.update(
        reps=len(reps), rep_walls_s=walls, rep_cpu_s=[r["cpu_s"] for r in reps],
        setup_samples_s=setups,
        host_steal_frac=((ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1])
                         if ticks0 and ticks1 else None),
        call_samples=len(calls_ms), call_tail={"percentile": q, "value_ms": tail_ms},
        quartiles={"wall_s": _quartiles(walls), "setup_s": _quartiles(setups),
                   "call_ms": _quartiles(calls_ms)},
        cells_per_rep=reps[0]["cells"], workers_cli_default=probe["workers_default"],
        numpy=probe["numpy"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cells_per_s": statistics.median(rates),
        "call_p50_ms": percentile(calls_ms, 50),
        "call_p95_ms": percentile(calls_ms, 95),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, sum(r["attempted"] for r in reps), sum(r["failed"] for r in reps)


def _quartiles(xs) -> list[float]:
    return [percentile(xs, q) for q in (25, 50, 75)]


def check_inproc(args, res: dict, outdir: Path) -> tuple[int, int]:
    """(attempted, failed) of one in-process run; sums the CSV bytes it wrote."""
    if args.workload == "library-mixed":
        return res["attempted"], res["failed"]
    attempted = failed = 0
    res["csv_bytes"] = 0
    cmds = workloads.cli_commands(args.workload, args.size, args.seed, outdir, workers=1)
    for cmd, code in zip(cmds, res["exit_codes"]):
        a, f = workloads.check_command(cmd, args.size, outdir)
        res["csv_bytes"] += sum((outdir / n).stat().st_size
                                for n in cmd.outputs if (outdir / n).is_file())
        attempted += a
        failed += a if code != 0 else f
    return attempted, failed


def measure_per_layer(args, record: dict) -> tuple[dict, int, int]:
    # The traced and the untraced serial run go side by side, one per core,
    # so that drift in the host's speed hits both alike.
    with Scratch() as traced_dir, Scratch() as plain_dir:
        spans = OUT_DIR / f"spans-{args.workload}.csv"
        traced, plain = children_json(args, [
            ("inproc", ["--outdir", str(traced_dir), "--trace", "--spans", str(spans)]),
            ("inproc", ["--outdir", str(plain_dir)])])
        a1, f1 = check_inproc(args, traced, traced_dir)
        a2, f2 = check_inproc(args, plain, plain_dir)
    pool = child_json("pool", args)
    metrics = dict(traced["metrics"])
    metrics["cli.csv_bytes"] = traced.get("csv_bytes", 0)
    metrics["optimize.pool_speedup"] = sum(pool["surface_w1_s"]) / sum(pool["surface_w2_s"])
    # CPU time of the two single-process runs: steal by the host drops out
    metrics["trace.overhead_frac"] = traced["rep_cpu_s"] / plain["rep_cpu_s"] - 1
    record.update(traced_rep_s=traced["rep_s"], untraced_rep_s=plain["rep_s"],
                  traced_rep_cpu_s=traced["rep_cpu_s"], untraced_rep_cpu_s=plain["rep_cpu_s"],
                  spans=traced["spans"], cell_tail=traced["cell_tail"],
                  pool={k: pool[k] for k in ("surface_w1_s", "surface_w2_s")},
                  workers_cli_default=pool["workers_default"],
                  numpy=pool["numpy"])
    return metrics, a1 + a2 + pool["attempted"], f1 + f2 + pool["failed"]


def git_sha() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(args) -> dict:
    src = ROOT / "src" / "decoguard"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(src.glob("*.py"))),
        "deco_guard_threads_cleared": True,
        "deco_guard_threads_was": os.environ.get("DECO_GUARD_THREADS"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="decoguard benchmark")
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny grids for the benchmark's own tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "decoguard" / "__init__.py").is_file():
        print(f"error: no decoguard sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    record = {"provenance": provenance(args)}
    try:
        if args.trace:
            values, attempted, failed = measure_per_layer(args, record)
            spec = PER_LAYER
        else:
            values, attempted, failed = measure_end_to_end(args, record)
            spec = END_TO_END
    except (ChildFailed, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in spec.items()}
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record.update(result=result, fail_frac=failed / max(attempted, 1))
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _print_summary(record)
    print(json.dumps(result))
    return 0


def _print_summary(record: dict):
    for key, value in record.items():
        if key != "result":
            print(f"{key}: {json.dumps(value)}")
    for name, m in record["result"]["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
