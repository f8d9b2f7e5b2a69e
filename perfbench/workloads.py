"""Workload definitions, seeded inputs and output checks of the benchmark.

Three workloads, each a closed loop with one caller:

  fig6-default        `decoguard fig6` on the default grid (5,580 cells of pure
                      input); the vectorized optimizer kernels and the process
                      pool do almost all the work.
  sweep-postselected  three `decoguard sweep` runs (wmqmr, qffc_ps, composite)
                      on a 7-point angle grid; the exhaustive run_* loop path,
                      which never touches the vectorized kernels.
  library-mixed       direct library calls on seeded random mixed states: the
                      tied-eta loop optimizers, general fidelity and 4x4
                      concurrence, none of which the CLI reaches.

CLI outputs are compared with reference tables produced by the seed code
(`make_refs.py`); library calls are checked against physical invariants and
an optimizer-versus-pipeline oracle.
"""

from __future__ import annotations

import gzip
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "ref"

WORKLOADS = ("fig6-default", "sweep-postselected", "library-mixed")
SIZES = ("full", "tiny")

# --- CLI workloads -----------------------------------------------------------

FIG6_COUNTS = {"full": {}, "tiny": {"angle_count": 4, "alpha_count": 3, "r_count": 3}}
FIG6_FILES = tuple(f"fig6_{noise}_phi{tag}.csv" for noise in ("ad", "pd")
                   for tag in ("0pi", "0.25pi", "0.5pi"))
FIG6_CELLS = {"full": 6 * 30 * 31, "tiny": 6 * 3 * 3}
FIG6_FLOAT_COLS = ("f_qfbc", "f_qffc", "f_diff")

SWEEP_SCHEMES = ("wmqmr", "qffc_ps", "composite")
SWEEP_COUNTS = {"full": {"angle_count": 7, "alpha_count": 6, "r_count": 8},
                "tiny": {"angle_count": 4, "alpha_count": 2, "r_count": 3}}
SWEEP_FLOAT_COLS = ("f_opt", "success_prob")

# Floats agree to 1e-12; the few-ulp slack absorbs parsing the 12-digit text.
FLOAT_ATOL = 1e-12
PROB_TOL = 1e-12
ORACLE_ATOL = 1e-9


@dataclass(frozen=True)
class Command:
    """One CLI invocation, the files it writes and their reference tables."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    float_cols: tuple[str, ...]
    cells: int


def grid_counts(workload: str, size: str) -> dict[str, int]:
    """GridSpec.default keyword arguments of a workload at a size."""
    if workload == "fig6-default":
        return FIG6_COUNTS[size]
    if workload == "sweep-postselected":
        return SWEEP_COUNTS[size]
    return {"angle_count": LIBRARY_SIZES[size][2]}


def _grid_flags(counts: dict[str, int]) -> list[str]:
    return [flag for key, value in counts.items()
            for flag in (f"--{key.replace('_', '-')}", str(value))]


def cli_commands(workload: str, size: str, seed: int | None, outdir: Path,
                 workers: int | None = None) -> list[Command]:
    """The commands a user types for one run of a CLI workload.

    The seed only permutes the order of the sweep commands (None keeps the
    listed order); fig6 has a fixed grid and no random input. workers=None
    leaves the CLI default in place.
    """
    extra = [] if workers is None else ["--workers", str(workers)]
    if workload == "fig6-default":
        argv = ["fig6", "--outdir", str(outdir), *_grid_flags(FIG6_COUNTS[size]), *extra]
        return [Command(tuple(argv), FIG6_FILES, FIG6_FLOAT_COLS, FIG6_CELLS[size])]
    if workload == "sweep-postselected":
        order = list(SWEEP_SCHEMES)
        if seed is not None:
            random.Random(seed).shuffle(order)
        flags = _grid_flags(SWEEP_COUNTS[size])
        cells = SWEEP_COUNTS[size]["alpha_count"] * SWEEP_COUNTS[size]["r_count"]
        return [Command(("sweep", "--scheme", s, "--noise", "ad", "--phi", "0.25pi", *flags,
                         "--out", str(outdir / f"sweep_{s}.csv"), *extra),
                        (f"sweep_{s}.csv",), SWEEP_FLOAT_COLS, cells)
                for s in order]
    raise ValueError(f"{workload!r} is not a CLI workload")


def read_ref(size: str, name: str, ref_dir: Path = REF_DIR) -> str:
    with gzip.open(ref_dir / size / f"{name}.gz", "rt", encoding="utf-8", newline="") as fh:
        return fh.read()


def _floats_agree(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    slack = 4 * sys.float_info.epsilon * max(abs(x), abs(y))
    return math.isfinite(x) and abs(x - y) <= FLOAT_ATOL + slack


def compare_table(ref_text: str, out_text: str, float_cols) -> tuple[int, int]:
    """(attempted, failed) cells of one CSV table against its reference.

    Rows must come in the reference order; float columns agree to 1e-12 and
    every other column (grid values, argmax parameters, axes) exactly.
    """
    ref = ref_text.splitlines()
    out = out_text.splitlines()
    attempted = max(len(ref), len(out)) - 1
    if not out or out[0] != ref[0]:
        return attempted, attempted
    header = ref[0].split(",")
    tol_idx = {header.index(c) for c in float_cols}
    failed = abs(len(ref) - len(out))
    for ref_row, out_row in zip(ref[1:], out[1:]):
        a, b = ref_row.split(","), out_row.split(",")
        ok = len(a) == len(b) and all(
            _floats_agree(x, y) if i in tol_idx else x == y
            for i, (x, y) in enumerate(zip(a, b)))
        failed += not ok
    return attempted, failed


def check_command(cmd: Command, size: str, outdir: Path,
                  ref_dir: Path = REF_DIR) -> tuple[int, int]:
    """(attempted, failed) cells of one command's outputs; a missing file fails
    every cell it should have held."""
    attempted = failed = 0
    for name in cmd.outputs:
        ref_text = read_ref(size, name, ref_dir)
        path = outdir / name
        if path.is_file():
            a, f = compare_table(ref_text, path.read_text(encoding="utf-8"), cmd.float_cols)
        else:
            a = len(ref_text.splitlines()) - 1
            f = a
        attempted += a
        failed += f
    return attempted, failed


# --- library workload ----------------------------------------------------------

# (states, run_* rounds per scheme and state, angle-grid points)
LIBRARY_SIZES = {"full": (20, 10, 7), "tiny": (2, 2, 4)}
_PAULIS = (np.array([[0, 1], [1, 0]], dtype=complex),
           np.array([[0, -1j], [1j, 0]], dtype=complex),
           np.array([[1, 0], [0, -1]], dtype=complex))


@dataclass(frozen=True)
class MixedInput:
    """One library-mixed state: its channel and the run_* rounds made on it."""

    rho: np.ndarray
    noise_kind: str
    r: float
    rounds: tuple[dict, ...]


def _mixed_qubit(rng) -> np.ndarray:
    direction = rng.normal(size=3)
    bloch = rng.uniform(0.2, 0.95) * direction / np.linalg.norm(direction)
    return 0.5 * (np.eye(2, dtype=complex) + sum(b * p for b, p in zip(bloch, _PAULIS)))


def _full_rank_pair(rng) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def library_inputs(seed: int, size: str) -> list[MixedInput]:
    """Seeded inputs: mixed qubits with Bloch radius in [0.2, 0.95], channels
    alternating ad/pd, random r and random run_* parameters."""
    rng = np.random.default_rng(seed)
    n_states, n_rounds, _ = LIBRARY_SIZES[size]
    inputs = []
    for i in range(n_states):
        rho = _mixed_qubit(rng)
        r = float(rng.uniform(0.05, 0.9))
        rounds = []
        for _ in range(n_rounds):
            p = float(rng.uniform(0.5, 0.99))
            rounds.append({
                "wmqmr": {"r": r, "p1": float(rng.uniform(0.0, 0.95))},
                "qffc_ps": {"r": r, "p": p},
                "composite": {"r": r, "p": p, "eta": float(rng.uniform(0.0, np.pi / 2)),
                              "signs": tuple(int(s) for s in rng.choice((1, -1), size=2))},
                "ent_wmqmr": {"rho_2q": _full_rank_pair(rng), "r1": r,
                              "r2": float(rng.uniform(0.05, 0.9)),
                              "p1": float(rng.uniform(0.0, 0.95)), "side": "both"},
            })
        inputs.append(MixedInput(rho, "ad" if i % 2 == 0 else "pd", r, tuple(rounds)))
    return inputs


def _in_unit(x) -> bool:
    return -PROB_TOL <= x <= 1 + PROB_TOL


def result_ok(res) -> bool:
    """Invariants of one scheme run: fidelity and success in [0, 1], branch
    weights summing to at most 1, concurrence (if any) in [0, 1]."""
    return (_in_unit(res.fidelity) and _in_unit(res.success_prob)
            and res.branches.total_weight <= 1 + PROB_TOL
            and (res.concurrence is None or _in_unit(res.concurrence)))


def optimum_ok(kind: str, rho, noise, grid) -> bool:
    """Run one optimizer and re-run its pipeline at the argmax parameters; the
    optimum must equal that fidelity whatever search space produced it."""
    from decoguard import optimize, schemes
    if kind == "qfbc":
        opt = optimize.optimize_qfbc(rho, noise, grid)
        p = opt.params
        again = schemes.run_qfbc(rho, noise, theta=p["theta"], etas=p["etas"],
                                 meas_axis=p["meas_axis"], rot_axis=p["rot_axis"])
    else:
        opt = optimize.optimize_qffc_rot(rho, noise, grid)
        p = opt.params
        again = schemes.run_qffc_rot(rho, noise, p=p["p"], eta=p["eta"], signs=p["signs"])
    return (_in_unit(opt.f_opt) and _in_unit(opt.success_prob)
            and abs(opt.f_opt - again.fidelity) <= ORACLE_ATOL)


def _report_failure(what: str, raised: bool):
    print(f"check failed: {what}", file=sys.stderr)
    if raised:
        traceback.print_exc()


def run_library(seed: int, size: str) -> dict:
    """One library-mixed run. Returns per-call latencies of the run_* rounds
    (seconds), cells (states) done and the attempted/failed check counts."""
    from decoguard import channels, optimize, schemes
    _, _, angle_count = LIBRARY_SIZES[size]
    grid = optimize.GridSpec.default(angle_count=angle_count)
    runners = (("wmqmr", lambda rho, kw: schemes.run_wmqmr(rho, **kw)),
               ("qffc_ps", lambda rho, kw: schemes.run_qffc_ps(rho, **kw)),
               ("composite", lambda rho, kw: schemes.run_composite(rho, **kw)),
               ("ent_wmqmr", lambda rho, kw: schemes.run_ent_wmqmr(**kw)))
    inputs = library_inputs(seed, size)
    latencies = []
    attempted = failed = 0
    for item in inputs:
        noise = channels.make_channel(item.noise_kind, item.r)
        for kind in ("qfbc", "qffc_rot"):
            attempted += 1
            try:
                ok = optimum_ok(kind, item.rho, noise, grid)
            except Exception:  # a raising cell counts as failed; the run goes on
                ok = False
                _report_failure(f"optimize_{kind}", raised=True)
            else:
                if not ok:
                    _report_failure(f"optimize_{kind}", raised=False)
            failed += not ok
        for rnd in item.rounds:
            for name, call in runners:
                attempted += 1
                t0 = time.perf_counter()
                try:
                    res = call(item.rho, rnd[name])
                except Exception:  # as above
                    latencies.append(time.perf_counter() - t0)
                    _report_failure(f"run_{name}", raised=True)
                    failed += 1
                    continue
                latencies.append(time.perf_counter() - t0)
                if not result_ok(res):
                    _report_failure(f"run_{name}", raised=False)
                    failed += 1
    return {"latencies": latencies, "cells": len(inputs),
            "attempted": attempted, "failed": failed}
