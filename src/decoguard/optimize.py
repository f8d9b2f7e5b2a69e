"""Grid-search optimization of control parameters and comparison sweeps.

The feedback (qfbc) and feed-forward (qffc_rot) schemes are optimized over
their full control grids for each (initial state, noise) cell; the fidelity
difference of the two optima builds the comparison surfaces over the
(alpha, r) plane for fixed phi. All grid evaluation is deterministic; sweep
cells are independent pure computations and may be evaluated in parallel
(DECO_GUARD_THREADS limits the worker count), with rows always assembled in
alpha-major, r-minor order.

For pure inputs the qfbc and qffc_rot outputs are evaluated in closed
vectorized form and agree with the scheme pipelines run point by point
(cross-checked in the test suite); the qfbc search optimizes the two outcome
rotation angles independently. These fast paths take the first maximum of
the rounded scores, so round-off, not candidate order, settles exact ties.
Their operator tables are built once per grid; their ket products are kept for
the last input ket of each path, so a fig6 alpha row builds them once. Each
cached array holds the bits a cell would compute, so every score is unchanged.
Every other search (mixed-input qfbc, with tied +/- eta, and qffc_rot; wmppf,
wmqmr, qffc_ps, composite) is one exhaustive loop through run_scheme;
equal scores go to the smallest candidate index.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from .channels import KrausChannel, apply_channel, make_channel
from .measurements import flips, povm_axis, rotation
from .qmath import InitialState, check_density, eig_hermitian, purity, state_from_angles
# run_qfbc is unused here but stays importable from this module for existing callers
from .schemes import SchemeSpec, run_qfbc, run_scheme  # noqa: F401

ENV_THREADS = "DECO_GUARD_THREADS"

_SIGN_COMBOS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))


def _angle_grid(count: int) -> tuple[float, ...]:
    if count < 2 or 30 % (count - 1) != 0:
        raise ValueError(
            f"angle grid needs a count n with (n-1) dividing 30 so steps are "
            f"multiples of pi/60; got {count}")
    return tuple(float(v) for v in np.linspace(0.0, np.pi / 2, count))


@dataclass(frozen=True)
class GridSpec:
    """Control and sweep grids for the optimizer.

    theta and eta run from 0 to pi/2 inclusive in multiples of pi/60;
    strengths are cos^2(theta/2) in theta order. alphas cover [0, pi/2] and
    rs the damping probabilities including the endpoints 0 and 0.999.
    """

    theta: tuple[float, ...]
    eta: tuple[float, ...]
    alphas: tuple[float, ...]
    rs: tuple[float, ...]
    phis: tuple[float, ...] = (0.0, np.pi / 4, np.pi / 2)
    axes: tuple[str, ...] = ("x", "y", "z")

    def __post_init__(self):
        for name, grid in (("theta", self.theta), ("eta", self.eta)):
            if len(grid) < 1:
                raise ValueError(f"{name} grid is empty")
            if abs(grid[0]) > 1e-15 or abs(grid[-1] - np.pi / 2) > 1e-12:
                raise ValueError(f"{name} grid must span [0, pi/2] inclusive")
        if not self.alphas or not self.rs:
            raise ValueError("alpha and r grids must be non-empty")

    @property
    def strengths(self) -> tuple[float, ...]:
        """p = cos^2(theta/2) in theta order (descending from 1 to 1/2)."""
        return tuple(float(np.cos(t / 2) ** 2) for t in self.theta)

    @classmethod
    def default(cls, angle_count: int = 31, alpha_count: int = 30,
                r_count: int = 31) -> "GridSpec":
        """Default grids: 31-point angle grids, 30 alphas, 31 r values."""
        angles = _angle_grid(angle_count)
        alphas = tuple(float(v) for v in np.linspace(0.0, np.pi / 2, alpha_count))
        if r_count < 2:
            raise ValueError("r grid needs at least the two endpoints")
        interior = tuple(k / (r_count - 1) for k in range(1, r_count - 1))
        rs = (0.0,) + interior + (0.999,)
        return cls(theta=angles, eta=angles, alphas=alphas, rs=rs)


@dataclass(frozen=True)
class OptResult:
    """Grid optimum of one scheme: best fidelity, argmax parameters, success."""

    f_opt: float
    params: dict[str, Any]
    success_prob: float


# ---------------------------------------------------------------------------
# vectorized evaluation tables (pure-state fast path)
# ---------------------------------------------------------------------------

_TABLE_CACHE: dict[tuple, dict] = {}
_KET_MEMO: dict[str, tuple] = {}  # fast path -> ((table key, ket bytes), ket tables)


def _signed_etas(eta_grid) -> np.ndarray:
    """Candidates 0, +d, -d, +2d, ...; this order settles only bitwise-equal
    scores, as the fast paths take the first maximum of the rounded scores."""
    out = [0.0]
    for e in eta_grid[1:]:
        out.append(+e)
        out.append(-e)
    return np.array(out)


def _qfbc_tables(grid: GridSpec) -> dict:
    """Per grid: signed etas and, per axis pair, conj(K[t, m, e] = R(e) @ M(t)[m])."""
    key = ("qfbc", grid.theta, grid.eta, grid.axes)
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]
    se = _signed_etas(grid.eta)
    tables = {"key": key, "signed_etas": se, "blocks": {}}
    for ma in grid.axes:
        m_ops = np.stack([np.stack(povm_axis(ma, t).ops) for t in grid.theta])
        for ra in grid.axes:
            r_ops = np.stack([rotation(ra, abs(e), +1 if e >= 0 else -1).matrix
                              for e in se])
            tables["blocks"][(ma, ra)] = np.einsum("eij,tmjk->tmeik", r_ops, m_ops).conj()
    _TABLE_CACHE[key] = tables
    return tables


def _qffc_tables(grid: GridSpec) -> dict:
    """Per grid: strengths, eta, the flips, M_i(p) and R_y(sign eta)."""
    key = ("qffc", grid.theta, grid.eta)
    if key not in _TABLE_CACHE:
        strengths, eta = grid.strengths, np.asarray(grid.eta)
        m1 = np.stack([np.diag([np.sqrt(p), np.sqrt(1 - p)]) for p in strengths]).astype(complex)
        m2 = np.stack([np.diag([np.sqrt(1 - p), np.sqrt(p)]) for p in strengths]).astype(complex)
        _TABLE_CACHE[key] = {
            "key": key, "strengths": strengths, "eta": eta, "flips": flips(), "m": (m1, m2),
            "r": {sign: np.stack([rotation("y", e, sign).matrix for e in eta])
                  for sign in (+1, -1)}}
    return _TABLE_CACHE[key]


def _qfbc_ket(tables: dict, psi) -> dict:
    """Per ket: v = conj(K) psi for every axis pair."""
    return {pair: np.einsum("tmeji,j->tmei", k, psi) for pair, k in tables["blocks"].items()}


def _qffc_ket(tables: dict, psi) -> tuple:
    """Per ket: u[i] = M_i(p) |psi> and w[sign][e] = <psi| R_y(sign e)."""
    u = tuple(np.einsum("pij,j->pi", m, psi) for m in tables["m"])
    w = {sign: np.einsum("j,eji->ei", psi.conj(), r) for sign, r in tables["r"].items()}
    return u, w


def _ket_tables(tables: dict, psi, build):
    """build(tables, psi), kept for the last (grid, ket) of each fast path."""
    kind, key = tables["key"][0], (tables["key"], psi.tobytes())
    if kind not in _KET_MEMO or _KET_MEMO[kind][0] != key:
        _KET_MEMO[kind] = (key, build(tables, psi))
    return _KET_MEMO[kind][1]


def _pure_ket(rho: np.ndarray) -> np.ndarray:
    w, v = eig_hermitian(rho)
    return v[:, 0]


def _optimize_qfbc_pure(psi, rho_e, grid: GridSpec):
    tables = _qfbc_tables(grid)
    vs = _ket_tables(tables, psi, _qfbc_ket)
    se = tables["signed_etas"]
    best_key = None
    best = None
    for ra_i, ra in enumerate(grid.axes):
        for ma_i, ma in enumerate(grid.axes):
            v = vs[(ma, ra)]
            f = np.real(np.einsum("tmei,ij,tmej->tme", v.conj(), rho_e, v))
            e_best = np.argmax(f, axis=2)                        # (t, m)
            vals = np.take_along_axis(f, e_best[:, :, None], axis=2)[:, :, 0]
            tot = vals.sum(axis=1)                               # (t,)
            t_best = int(np.argmax(tot))
            key = (-tot[t_best], t_best, int(e_best[t_best, 0]),
                   int(e_best[t_best, 1]), ma_i, ra_i)
            if best_key is None or key < best_key:
                best_key = key
                best = (tot[t_best], grid.theta[t_best],
                        (float(se[e_best[t_best, 0]]), float(se[e_best[t_best, 1]])),
                        ma, ra)
    f2, theta, etas, ma, ra = best
    f_opt = float(np.sqrt(np.clip(f2, 0.0, 1.0)))
    params = {"theta": float(theta), "etas": etas, "meas_axis": ma, "rot_axis": ra}
    return OptResult(f_opt=f_opt, params=params, success_prob=1.0)


def optimize_qfbc(rho_in, noise: KrausChannel, grid: GridSpec) -> OptResult:
    """Best feedback-control fidelity over the measurement/rotation grid.

    Pure inputs: measurement axis x/y/z, rotation axis x/y/z, theta grid,
    and the two outcome rotation angles optimized independently over the
    signed eta grid. Mixed inputs fall back to the tied +/- eta form.
    """
    rho_in = check_density(rho_in)
    if purity(rho_in) >= 1 - 1e-10:
        return _optimize_qfbc_pure(_pure_ket(rho_in), apply_channel(rho_in, noise), grid)
    return _optimize_by_loop(rho_in, "qfbc", noise, _search_space("qfbc", noise, grid))


def _optimize_qffc_pure(psi, noise: KrausChannel, grid: GridSpec):
    tables = _qffc_tables(grid)
    u, w = _ket_tables(tables, psi, _qffc_ket)
    strengths, eta = tables["strengths"], tables["eta"]
    t_ops = [[f @ a @ f for a in noise.ops] for f in tables["flips"]]
    # amplitude for branch i, kraus k: <psi| R F_i A_k F_i M_i(p) |psi>
    branch_f2 = {}
    for i in (0, 1):
        for sign in (+1, -1):
            acc = np.zeros((len(strengths), len(eta)))
            for a in t_ops[i]:
                amp = np.einsum("ei,ij,pj->pe", w[sign], a, u[i])
                acc += np.abs(amp) ** 2
            branch_f2[(i, sign)] = acc
    best_key = None
    best = None
    for c_i, (s1, s2) in enumerate(_SIGN_COMBOS):
        tot = branch_f2[(0, s1)] + branch_f2[(1, s2)]
        flat = int(np.argmax(tot))
        t_best, e_best = divmod(flat, tot.shape[1])
        key = (-tot[t_best, e_best], t_best, e_best, c_i)
        if best_key is None or key < best_key:
            best_key = key
            best = (tot[t_best, e_best], t_best, e_best, (s1, s2))
    f2, t_best, e_best, signs = best
    params = {"p": strengths[t_best], "theta_pre": grid.theta[t_best],
              "eta": float(eta[e_best]), "signs": signs}
    return OptResult(f_opt=float(np.sqrt(np.clip(f2, 0.0, 1.0))),
                     params=params, success_prob=1.0)


def optimize_qffc_rot(rho_in, noise: KrausChannel, grid: GridSpec) -> OptResult:
    """Best deterministic feed-forward fidelity over p, eta and branch signs."""
    rho_in = check_density(rho_in)
    if purity(rho_in) >= 1 - 1e-10:
        return _optimize_qffc_pure(_pure_ket(rho_in), noise, grid)
    return _optimize_by_loop(rho_in, "qffc_rot", noise, _search_space("qffc_rot", noise, grid))


OPTIMIZABLE_KINDS = ("qfbc", "qffc_rot", "wmppf", "wmqmr", "qffc_ps", "composite")


def _search_space(kind: str, noise: KrausChannel | None, grid: GridSpec):
    """The exhaustive candidates of one scheme kind as (tie key, params) pairs;
    params are run_* keyword arguments plus any reported-only entries.

    qfbc: tied +/- eta over axes, theta and binding; qffc_rot: p in theta
    order, eta and the branch signs; wmppf: p; wmqmr: (p1, p2); qffc_ps:
    (p, p_u, p_v); composite: (p, eta, signs) with matched post-measurements.
    The last four run strengths in ascending order, so ties prefer the weakest.
    """
    if kind not in OPTIMIZABLE_KINDS:
        raise ValueError(f"cannot optimize scheme kind {kind!r}")
    if kind in ("qfbc", "qffc_rot", "wmppf"):
        if noise is None:
            raise ValueError(f"{kind} optimization needs a noise channel")
    elif noise is None or noise.r is None or noise.kind != "ad":
        raise ValueError(f"{kind} optimization needs an amplitude-damping channel")
    ps = sorted(grid.strengths)
    if kind == "qfbc":
        return (((t_i, e_i, ma_i, ra_i, s_i),
                 {"theta": theta, "etas": (binding * eta, -binding * eta),
                  "meas_axis": ma, "rot_axis": ra})
                for ra_i, ra in enumerate(grid.axes)
                for ma_i, ma in enumerate(grid.axes)
                for t_i, theta in enumerate(grid.theta)
                for e_i, eta in enumerate(grid.eta)
                for s_i, binding in enumerate((+1, -1)))
    if kind == "qffc_rot":
        return (((t_i, e_i, c_i),
                 {"p": p, "theta_pre": grid.theta[t_i], "eta": eta, "signs": signs})
                for t_i, p in enumerate(grid.strengths)
                for e_i, eta in enumerate(grid.eta)
                for c_i, signs in enumerate(_SIGN_COMBOS))
    if kind == "wmppf":
        return (((i,), {"p": p}) for i, p in enumerate(ps))
    r = noise.r
    if kind == "wmqmr":
        return (((i, j), {"r": r, "p1": p1, "p2": p2})
                for i, p1 in enumerate(ps) for j, p2 in enumerate(ps))
    if kind == "qffc_ps":
        return (((i, j, k), {"r": r, "p": p, "p_u": pu, "p_v": pv})
                for i, p in enumerate(ps) for j, pu in enumerate(ps)
                for k, pv in enumerate(ps))
    return (((i, j, c), {"r": r, "p": p, "eta": e, "signs": signs})  # composite
            for i, p in enumerate(ps) for j, e in enumerate(grid.eta)
            for c, signs in enumerate(_SIGN_COMBOS))


def _optimize_by_loop(rho_in, kind: str, noise: KrausChannel | None,
                      candidates) -> OptResult:
    """Run every (tie key, params) candidate through run_scheme; the highest
    fidelity wins and the smallest tie key breaks ties."""
    best_key = None
    best = None
    for tie, params in candidates:
        res = run_scheme(rho_in, SchemeSpec(kind=kind, noise=noise, params=params))
        key = (-res.fidelity, *tie)
        if best_key is None or key < best_key:
            best_key = key
            best = (res.fidelity, params, res.success_prob)
    return OptResult(f_opt=best[0], params=best[1], success_prob=best[2])


def optimize_scheme(scheme_kind: str, rho_in, noise: KrausChannel | None,
                    grid: GridSpec) -> OptResult:
    """Exhaustive grid optimization of one scheme's control parameters.

    qfbc and qffc_rot go through optimize_qfbc and optimize_qffc_rot; the
    other kinds loop over their search space (see _search_space).
    """
    kind = scheme_kind.lower()
    rho_in = check_density(rho_in)
    candidates = _search_space(kind, noise, grid)  # validates kind and noise
    if kind == "qfbc":
        return optimize_qfbc(rho_in, noise, grid)
    if kind == "qffc_rot":
        return optimize_qffc_rot(rho_in, noise, grid)
    return _optimize_by_loop(rho_in, kind, noise, candidates)


def f_diff(rho_in, noise: KrausChannel, grid: GridSpec) -> float:
    """Optimal feedback fidelity minus optimal feed-forward fidelity."""
    return (optimize_qfbc(rho_in, noise, grid).f_opt
            - optimize_qffc_rot(rho_in, noise, grid).f_opt)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

FIG6_COLUMNS = ("alpha", "phi", "r", "noise", "f_qfbc", "f_qffc", "f_diff",
                "theta_opt", "eta_opt", "meas_axis", "rot_axis", "p_opt")
SWEEP_COLUMNS = ("alpha", "phi", "r", "noise", "scheme", "f_opt",
                 "success_prob", "params")


@dataclass(frozen=True)
class SweepResult:
    """A fixed-order table of sweep records with deterministic CSV rendering."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (tuple, list)):
        return "|".join(_fmt(v) for v in value)
    return str(value)


def resolve_workers(workers: int | None, n_tasks: int) -> int:
    if workers is None:
        env = os.environ.get(ENV_THREADS)
        if env is not None:
            try:
                workers = int(env)
            except ValueError as exc:
                raise ValueError(f"{ENV_THREADS} must be an integer, got {env!r}") from exc
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return min(workers, max(1, n_tasks))


def _fig6_alpha_row(args) -> list[tuple]:
    phi, noise_kind, alpha, grid = args
    rho = state_from_angles(InitialState(alpha=alpha, phi=phi))
    rows = []
    for r in grid.rs:
        noise = make_channel(noise_kind, r)
        fb = optimize_qfbc(rho, noise, grid)
        ff = optimize_qffc_rot(rho, noise, grid)
        rows.append((alpha, phi, r, noise_kind,
                     fb.f_opt, ff.f_opt, fb.f_opt - ff.f_opt,
                     fb.params["theta"], fb.params["etas"][0],
                     fb.params["meas_axis"], fb.params["rot_axis"],
                     ff.params["p"]))
    return rows


def _sweep_alpha_row(args) -> list[tuple]:
    scheme_kind, phi, noise_kind, alpha, grid = args
    rho = state_from_angles(InitialState(alpha=alpha, phi=phi))
    rows = []
    for r in grid.rs:
        noise = make_channel(noise_kind, r)
        opt = optimize_scheme(scheme_kind, rho, noise, grid)
        packed = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(opt.params.items()))
        rows.append((alpha, phi, r, noise_kind, scheme_kind,
                     opt.f_opt, opt.success_prob, packed))
    return rows


def _run_rows(task_fn, tasks, workers: int | None) -> tuple[tuple, ...]:
    n = resolve_workers(workers, len(tasks))
    if n == 1:
        chunks = [task_fn(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n) as pool:
            chunks = list(pool.map(task_fn, tasks))
    return tuple(row for chunk in chunks for row in chunk)


def sweep_fig6(phi: float, noise_kind: str, grid: GridSpec,
               workers: int | None = None) -> SweepResult:
    """Comparison table over the full (alpha, r) grid for one phi and channel."""
    tasks = [(phi, noise_kind, alpha, grid) for alpha in grid.alphas]
    return SweepResult(columns=FIG6_COLUMNS,
                       rows=_run_rows(_fig6_alpha_row, tasks, workers))


def sweep_optimal(scheme_kind: str, phi: float, noise_kind: str, grid: GridSpec,
                  workers: int | None = None) -> SweepResult:
    """Per-scheme optimal-fidelity table over the full (alpha, r) grid."""
    tasks = [(scheme_kind, phi, noise_kind, alpha, grid) for alpha in grid.alphas]
    return SweepResult(columns=SWEEP_COLUMNS,
                       rows=_run_rows(_sweep_alpha_row, tasks, workers))
