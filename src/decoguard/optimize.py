"""Grid-search optimization of control parameters and comparison sweeps.

The feedback (qfbc) and feed-forward (qffc_rot) schemes are optimized over
their full control grids for each (initial state, noise) cell; the fidelity
difference of the two optima builds the comparison surfaces over the
(alpha, r) plane for fixed phi. All grid evaluation is deterministic; sweep
alpha rows are independent pure computations and may be evaluated in
parallel (the workers argument limits the process count), with rows always
assembled in alpha-major, r-minor order. A run computes its first two alpha
rows in this process and pools the rest only if workers > 1 (workers=1 never
pools) and they would take over _POOL_MIN_S at the second row's pace. A pooled run
starts one pool for the remaining alpha rows of all the surfaces it asks for
(sweep_fig6_surfaces); each process builds a row's channels once per (noise
kind, r grid).

Every search goes through one row function (_optimize_row): the optima of
one state, validated once, under a row of channels (a fig6 alpha row, or one
channel), each kind and channel checked there (_check_search). Each
screens, then verifies, and equal scores go to the first candidate in a
fixed order.

Pure qfbc and qffc_rot rows go to row kernels; the qfbc one optimizes the
two outcome rotation angles independently. Both screen from rho's Pauli
vector r and per-grid transfer tables, with no ket. A qfbc candidate's F^2
is r_e . T r / 2, T the transfer matrix of rho -> K^dagger rho K, a sinusoid
A + B cos(eta) + C sin(eta) of its signed rotation angle: one product r @
table gives every coefficient, one with the row's noisy states scores every
cell, and the maximum over the eta grid has a closed form. A qffc_rot
candidate's F^2 is sum_i (post_i^T r) . (T pre_i r) / 2 over its loop stages.
Fixed einsums on the ket verify the theta slices (p rows) within SCREEN_ATOL
of a cell's best (qfbc: the signed etas whose sinusoid is within SCREEN_ATOL
of their outcome's best, gathered over the row in batches; qffc_rot: one per
branch, sign and Kraus operator over the row's shortlisted (cell, p) pairs),
and their first maximum of the rounded scores in (theta, eta, axis pair or
signs) order settles exact ties. An entry's bits do not depend on the others
scored with it, so the winner, tie-break included, is the unscreened one.
Grid tables are functools caches of the GridSpec; a row finds its ket once.

Every other search (mixed-input qfbc, with tied +/- eta, and qffc_rot;
wmppf, wmqmr, qffc_ps, composite) is a loop row (_loop_row). In the
Pauli-transfer picture a channel is a real 4x4 matrix T, and every candidate
is noise-free stages, T, noise-free stages. One cached table per kind and
grid (_loop_search) holds the candidate grid's shape, whose C order is its
tie order, each candidate's params and its noise-free stages' transfer
matrices. A row takes its channels one at a time and scores every candidate
from T and the closed-form qubit fidelity. The candidates within SCREEN_ATOL
of the best score go through run_scheme in grid order, and the first highest
fidelity wins. The kernel is within far less than SCREEN_ATOL / 2 of
run_scheme, so the exhaustive loop's winner, with its success probability
and params, is always among them.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from .channels import KrausChannel, _apply_kraus, _pauli, _ptm, make_channel
from .measurements import flips, post_wm_ops, povm_axis, pre_wm_pair, qmr_map, rotation, wm_map
from .qmath import (
    PURITY_PURE_THRESHOLD,
    InitialState,
    check_density,
    eig_hermitian,
    purity,
    state_from_angles,
)
from .schemes import AD_ONLY_KINDS, matched_post_wm_strength, run_scheme
# run_qfbc is unused here but stays importable from this module for existing callers
from .schemes import run_qfbc  # noqa: F401

# the measurement and rotation axes of the qfbc searches
AXES = ("x", "y", "z")
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

    def __post_init__(self):
        for name, grid in (("theta", self.theta), ("eta", self.eta)):
            if len(grid) < 1:
                raise ValueError(f"{name} grid is empty")
            if abs(grid[0]) > 1e-15 or abs(grid[-1] - np.pi / 2) > 1e-12:
                raise ValueError(f"{name} grid must span [0, pi/2] inclusive")
        if not self.alphas or not self.rs:
            raise ValueError("alpha and r grids must be non-empty")

    @functools.cached_property
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

# Every search screens, then verifies: a candidate (a theta slice on the pure
# fast paths) is scored exactly when its screen score is within SCREEN_ATOL
# of the best screen score. Each screen agrees with the exact score to far
# less than SCREEN_ATOL / 2, so the exact winner is always among those scored.
SCREEN_ATOL = 1e-6
_VERIFY_SLICES = 128  # qfbc slices verified at once, to bound a tie-heavy row's memory


def _signed_etas(eta_grid) -> np.ndarray:
    """Candidates 0, +d, -d, +2d, ...; this order settles only bitwise-equal
    scores, as the fast paths take the first maximum of the rounded scores."""
    out = [0.0]
    for e in eta_grid[1:]:
        out.append(+e)
        out.append(-e)
    return np.array(out)


@functools.cache
def _qfbc_tables(grid: GridSpec) -> dict:
    """Per grid: signed etas; folded_etas: each of their magnitudes once, sorted (from
    0 and each -eta; np.unique would add 10 ms and 1.5 MB of lazy imports on first
    use); blocks: conj(K[t, m, e] = R(e) @ M(t)[m]) per (meas axis, rot axis) pair,
    pair = 3 meas + rot in AXES, (pair, t, m, e, 2, 2); sinusoids: (4, N),
    _pauli(rho) @ sinusoids the coefficients in the signed eta, (3, pair, t, m, 4),
    of the Pauli 4-vectors of K^dagger rho K / 2."""
    se = _signed_etas(grid.eta)
    meas = [np.stack([np.stack(povm_axis(ma, t).ops) for t in grid.theta]) for ma in AXES]
    rots = [np.stack([rotation(ra, e) for e in se]) for ra in AXES]
    blocks = np.empty((len(meas) * len(rots), *meas[0].shape[:2], len(se), 2, 2), dtype=complex)
    for i, (m, r) in enumerate(itertools.product(meas, rots)):
        np.einsum("eij,tmjk->tmeik", r, m, out=blocks[i])
    np.conjugate(blocks, out=blocks)
    # transfer matrices of rho -> K^dagger rho K at the signed etas 0 and +-eta[-1]
    ends = _ptm(np.moveaxis(blocks[:, :, :, [0, -2, -1]], 3, 0).swapaxes(-1, -2))
    coef = np.moveaxis(_sinusoid(ends, grid.eta[-1]) / 2, -1, 0)
    return {"signed_etas": se, "folded_etas": np.sort(np.abs(se[::2])), "blocks": blocks,
            "sinusoids": np.ascontiguousarray(coef.reshape(4, -1))}


def _stacks(ops) -> tuple[np.ndarray, ...]:
    """Per position of the tuples in ops, the stack of their operators there."""
    return tuple(map(np.stack, zip(*ops)))


@functools.cache
def _qffc_tables(grid: GridSpec) -> dict:
    """Per grid: the noise-free factors of the pure feed-forward search.

    m: the (M_1(p), M_2(p)) stacks of pre_wm_pair in theta order; r: R_y(sign eta) per sign.
    """
    return {"m": _stacks(pre_wm_pair(p).ops for p in grid.strengths),
            "r": {sign: np.stack([rotation("y", sign * e) for e in grid.eta])
                  for sign in (+1, -1)}}


def _sinusoid(x, h: float) -> np.ndarray:
    """(a, b, c), (3, ...), with x(eta) = a + b cos(eta) + c sin(eta), from its
    samples x = (x(0), x(+h), x(-h))."""
    x0, x_plus, x_minus = x
    b = (x0 - (x_plus + x_minus) / 2) / (1 - np.cos(h))
    return np.stack([x0 - b, b, (x_plus - x_minus) / (2 * np.sin(h))])


def _eta_max(coef, eta) -> np.ndarray:
    """max over the signed grid +-eta of a + b cos(eta) + c sin(eta), (a, b, c) = coef,
    eta sorted in [0, pi/2]. The better sign gives a + b cos(eta) + |c| sin(eta), with
    the same bits; on [0, pi/2] that sinusoid rises to its peak atan2(|c|, b), in
    [0, pi], and falls after it, so its grid maximum is at a grid neighbour of the peak."""
    a, b, c = coef
    c = np.abs(c)
    k = np.searchsorted(eta, np.arctan2(c, b))
    cos, sin = np.cos(eta), np.sin(eta)
    lo, hi = np.maximum(k - 1, 0), np.minimum(k, len(eta) - 1)
    return np.maximum(a + b * cos[lo] + c * sin[lo], a + b * cos[hi] + c * sin[hi])


def _qffc_ket(grid: GridSpec, psi) -> tuple:
    """u[i] = M_i(p) |psi> and w[sign][e] = <psi| R_y(sign e) of the ket psi."""
    tables = _qffc_tables(grid)
    u = tuple(np.einsum("pij,j->pi", m, psi) for m in tables["m"])
    w = {sign: np.einsum("j,eji->ei", psi.conj(), r) for sign, r in tables["r"].items()}
    return u, w


def _qfbc_row_screen(rho, rho_es, grid: GridSpec) -> np.ndarray:
    """(a, b, c) of every (axis pair, t, m) F^2 per noisy state, (3, state, pair, t, m):
    F^2 = <v|rho_e|v> = a + b cos(eta) + c sin(eta) in the signed eta, of v = K^dagger
    psi, and |v><v| = K^dagger rho K."""
    tables, r = _qfbc_tables(grid), _pauli(np.concatenate([rho[None], rho_es]))
    abc = (r[0] @ tables["sinusoids"]).reshape(-1, 4) @ r[1:].T
    return np.ascontiguousarray(np.moveaxis(abc.reshape(3, *tables["blocks"].shape[:3], -1), -1, 1))


def _pure_result(neg_f2, params: dict) -> OptResult:
    """The OptResult of a pure row kernel's winner from its key's -F^2."""
    return OptResult(f_opt=math.sqrt(min(max(-neg_f2, 0.0), 1.0)), params=params,
                     success_prob=1.0)


def _qfbc_kets(k, psi) -> np.ndarray:
    """v = K^dagger psi per gathered block k = conj(K), (entry, 2, 2) -> (entry, 2). Each
    entry is a two-term sum, so it has the bits of the same entry of the whole block's kets."""
    return np.einsum("kji,j->ki", k, psi)


def _qfbc_entry_scores(v, rho_e) -> np.ndarray:
    """F^2 = <v|rho_e|v> per entry of kets v, (entry, 2), and states rho_e, (entry, 2, 2):
    the einsum whose round-off settles the qfbc tie-breaks. Of two or more entries no
    entry's bits depend on the others; a lone entry's einsum is a scalar sum, rounded otherwise."""
    return np.real(np.einsum("ki,kij,kj->k", v.conj(), rho_e, v))


def _qfbc_row(rho_in, psi, noises, grid: GridSpec) -> list[OptResult]:
    tables = _qfbc_tables(grid)
    se, blocks = tables["signed_etas"], tables["blocks"]
    rho_es = _apply_kraus(rho_in, np.stack([noise.stack for noise in noises]))
    coef = _qfbc_row_screen(rho_in, rho_es, grid)
    approx = _eta_max(coef, tables["folded_etas"]).sum(axis=3)
    # the shortlisted (cell, axis pair, theta) slices, cell-major
    cell, pair, t = np.nonzero(approx >= approx.max(axis=(1, 2), keepdims=True) - SCREEN_ATOL)
    e, tot = np.empty((len(t), 2), dtype=int), np.empty(len(t))
    for at in (slice(lo, lo + _VERIFY_SLICES) for lo in range(0, len(t), _VERIFY_SLICES)):
        a, b, c = coef[:, cell[at], pair[at], t[at], :, None]
        x = a + b * np.cos(se) + c * np.sin(se)  # the screen's F^2 of each (slice, m, e)
        # only an entry within SCREEN_ATOL of its outcome's best can be the exact
        # maximum; each outcome keeps its best, so a batch scores two or more
        n, m, k = np.nonzero(x >= x.max(axis=2, keepdims=True) - SCREEN_ATOL)
        f, (c_n, p_n, t_n) = np.full(x.shape, -np.inf), (ix[at][n] for ix in (cell, pair, t))
        f[n, m, k] = _qfbc_entry_scores(_qfbc_kets(blocks[p_n, t_n, m, k], psi), rho_es[c_n])
        e[at] = np.argmax(f, axis=2)  # each outcome's first maximum over the signed etas
        tot[at] = np.take_along_axis(f, e[at, :, None], axis=2)[:, :, 0].sum(axis=1)
    order = np.lexsort((pair, e[:, 1], e[:, 0], t, -tot, cell))  # (cell, -F^2, t, e_0, e_1, pair)
    return [_pure_result(-tot[j], {
        "theta": float(grid.theta[t[j]]), "etas": (float(se[e[j, 0]]), float(se[e[j, 1]])),
        "meas_axis": AXES[pair[j] // len(AXES)], "rot_axis": AXES[pair[j] % len(AXES)]})
        for j in order[np.unique(cell[order], return_index=True)[1]]]  # each cell's smallest


def _qffc_row_screen(rho, noises, grid: GridSpec) -> np.ndarray:
    """max over (eta, signs) of the F^2 of every p under each channel, (channel,
    p): the overlap sum_i (post_i^T r) . (T pre_i r) / 2 over the stages of
    _loop_search("qffc_rot"), r = _pauli(rho), T the channel's transfer matrix."""
    r, tables = _pauli(rho), _loop_search("qffc_rot", grid)[1]
    t = np.stack([noise.transfer for noise in noises])
    after = np.concatenate([(r @ post).reshape(-1, 4) for _, post in tables], axis=1)
    before = np.concatenate([(pre @ r).reshape(-1, 4) @ t.swapaxes(1, 2) for pre, _ in tables],
                            axis=2)
    return (before @ after.T).max(axis=2) / 2


def _qffc_pair_scores(u_i, w_sign, ops) -> np.ndarray:
    """sum_k |<psi| R_y(sign e) F_i A_k F_i M_i(p) |psi>|^2 of one (i, sign) per (cell, p)
    pair, (pair, e), from u_i = M_i(p) |psi> and ops = F_i A_k F_i, (pair, k, 2, 2): the
    einsums whose round-off settles the qffc_rot tie-breaks; no pair's bits depend on the others."""
    acc = np.zeros((len(u_i), len(w_sign)))
    for k in range(ops.shape[1]):
        acc += np.abs(np.einsum("ei,nij,nj->ne", w_sign, ops[:, k], u_i)) ** 2
    return acc


def _qffc_row(rho_in, psi, noises, grid: GridSpec) -> list[OptResult]:
    u, w = _qffc_ket(grid, psi)
    # F_i A_k F_i per channel, (channel, i, k, 2, 2): the flips are I and X, so each entry is exact
    fl = np.stack(flips())[:, None]
    fa = fl @ np.stack([noise.stack for noise in noises])[:, None] @ fl
    approx = _qffc_row_screen(rho_in, noises, grid)  # (cell, p); pairs shortlisted cell-major
    cell, t = np.nonzero(approx >= approx.max(axis=1, keepdims=True) - SCREEN_ATOL)
    f2 = [{s: _qffc_pair_scores(u[i][t], w[s], fa[cell, i]) for s in (+1, -1)} for i in (0, 1)]
    tot = np.stack([f2[0][s1] + f2[1][s2] for s1, s2 in _SIGN_COMBOS], -1).reshape(len(t), -1)
    flat = np.argmax(tot, axis=1)  # each pair's first maximum in (eta, signs)
    best, (e, c) = tot.max(axis=1), np.divmod(flat, len(_SIGN_COMBOS))
    order = np.lexsort((flat, t, -best, cell))  # then each cell's first in (t, eta, signs)
    return [_pure_result(-best[j], {
        "p": grid.strengths[t[j]], "theta_pre": grid.theta[t[j]],
        "eta": grid.eta[e[j]], "signs": _SIGN_COMBOS[c[j]]})
        for j in order[np.unique(cell[order], return_index=True)[1]]]


def _optimize_row(rho_in, noises, grid: GridSpec,
                  kinds=("qfbc", "qffc_rot")) -> list[list[OptResult]]:
    """The optima of each kind for one state, validated once, under each
    channel, per kind in channel order; every (kind, channel) is checked first
    (_check_search). A pure qfbc or qffc_rot row goes to its row kernel, with
    the state's ket found once, every other row to _loop_row."""
    rho_in = check_density(rho_in)
    for kind, noise in itertools.product(kinds, noises):
        _check_search(kind, noise, len(rho_in))
    pure = purity(rho_in) >= PURITY_PURE_THRESHOLD
    rows = {"qfbc": _qfbc_row, "qffc_rot": _qffc_row} if pure else {}
    psi = eig_hermitian(rho_in)[1][:, 0] if pure else None
    return [rows[kind](rho_in, psi, noises, grid) if kind in rows
            else _loop_row(rho_in, kind, noises, grid) for kind in kinds]


def _check_search(kind: str, noise: KrausChannel | None, dim: int = 2) -> None:
    """Reject a kind that cannot be optimized, a missing channel, a non-AD one for
    an AD-only kind, and a state of dimension dim or a channel that is not a qubit's."""
    if kind not in OPTIMIZABLE_KINDS:
        raise ValueError(f"cannot optimize scheme kind {kind!r}")
    if kind in AD_ONLY_KINDS:
        if noise is None or noise.r is None or noise.kind != "ad":
            raise ValueError(f"{kind} optimization needs an amplitude-damping channel")
    elif noise is None:
        raise ValueError(f"{kind} optimization needs a noise channel")
    if (dim, noise.dim) != (2, 2):
        raise ValueError(f"dimension mismatch: a qubit scheme got (state, channel) dims "
                         f"{(dim, noise.dim)}")


def optimize_qfbc(rho_in, noise: KrausChannel, grid: GridSpec) -> OptResult:
    """Best feedback-control fidelity over the measurement/rotation grid.

    Pure inputs: measurement axis x/y/z, rotation axis x/y/z, theta grid,
    and the two outcome rotation angles optimized independently over the
    signed eta grid. Mixed inputs fall back to the tied +/- eta form.
    """
    return _optimize_row(rho_in, (noise,), grid, ("qfbc",))[0][0]


def optimize_qffc_rot(rho_in, noise: KrausChannel, grid: GridSpec) -> OptResult:
    """Best deterministic feed-forward fidelity over p, eta and branch signs."""
    return _optimize_row(rho_in, (noise,), grid, ("qffc_rot",))[0][0]


OPTIMIZABLE_KINDS = ("qfbc", "qffc_rot", "wmppf", "wmqmr", "qffc_ps", "composite")


# ---------------------------------------------------------------------------
# loop searches: Pauli-transfer screen, run_scheme verification
# ---------------------------------------------------------------------------

# Accepted weights where the pipelines' fidelity-0 cutoff (success <= 1e-15)
# may fall on the other side for the kernel; such candidates are always run.
_CUTOFF_BAND = (1e-16, 1e-14)


@functools.cache
def _loop_search(kind: str, grid: GridSpec):
    """Per loop kind and grid: (shape, stages, params). shape is the candidate
    grid's, whose C order is the tie order; stages holds (pre_i, post_i) per
    branch i, the transfer matrices of a candidate's noise-free stages before
    and after the channel, broadcastable to shape; params(*index) gives the
    candidate's run_* keyword arguments (less an AD-only kind's r, its
    channel's) and any reported-only entries. The stages are built from the
    factories run_* call (the flips F_i, M_i(p) of pre_wm_pair, wm(p) of wm_map,
    qmr(p) of qmr_map, the recovery pair (N_1, N_2) of post_wm_ops) and follow
    each run_*; strengths ascend, so ties prefer the weakest (qffc_rot's p excepted):
      qfbc       (theta, eta, meas axis, rot axis, sign s of eta): I, and the sum
                 over outcomes m of R(e_m) M_m(theta), e = (s eta, -s eta)
      wmqmr      (p1, p2): wm(p1), qmr(p2)
      wmppf      (p): F_i M_i(p), F_i
      qffc_rot   (p in theta order, eta, signs s): F_i M_i(p), R_y(s_i eta) F_i
      qffc_ps    (p, p_u, p_v): F_i M_i(p), N_i F_i at p_u (N_1) and p_v (N_2)
      composite  (p, eta, signs s): F_i M_i(p), R_y(s_i eta) N_i F_i at
                 matched_post_wm_strength(p)
    """
    theta, eta, n, m, c = grid.theta, grid.eta, len(grid.theta), len(grid.eta), len(_SIGN_COMBOS)
    if kind == "qfbc":
        blocks = _qfbc_tables(grid)["blocks"]  # conj(R(e) M_m(theta)), (pair, theta, m, e)
        a = len(AXES)
        # positions of +eta and -eta among _signed_etas: 0, +d, -d, +2d, ...
        plus, minus = np.r_[0, 1:2 * m - 1:2], np.r_[0, 2:2 * m - 1:2]
        signed = np.stack([np.stack([plus, minus], -1), np.stack([minus, plus], -1)], 1)
        tied = blocks.reshape(a, a, *blocks.shape[1:])[:, :, :, np.arange(2), signed].conj()
        post = _ptm(tied).sum(axis=5)  # (meas, rot, theta, eta, sign of eta, 4, 4)
        stages = ((np.eye(4), np.ascontiguousarray(post.transpose(2, 3, 0, 1, 4, 5, 6))),)
        return (n, m, a, a, 2), stages, lambda t, e, ma, ra, s: {
            "theta": theta[t], "etas": ((+1, -1)[s] * eta[e], (-1, +1)[s] * eta[e]),
            "meas_axis": AXES[ma], "rot_axis": AXES[ra]}
    ps = grid.strengths if kind == "qffc_rot" else sorted(grid.strengths)
    if kind == "wmqmr":
        wm, qmr = map(_ptm, _stacks((wm_map(p).op, qmr_map(p).op) for p in ps))
        return (n, n), ((wm[:, None], qmr),), lambda i, j: {"p1": ps[i], "p2": ps[j]}
    f = _ptm(np.stack(flips()))
    pre_m = map(_ptm, _stacks(pre_wm_pair(p).ops for p in ps))
    pre = tuple(f_i @ m_i for f_i, m_i in zip(f, pre_m))
    if kind == "wmppf":
        return (n,), tuple(zip(pre, f)), lambda i: {"p": ps[i]}
    pre = tuple(p_i[:, None, None] for p_i in pre)
    if kind in ("qffc_ps", "composite"):  # N_i F_i, N_i at p_u and p_v, or matched to p
        qs = ps if kind == "qffc_ps" else [matched_post_wm_strength(p) for p in ps]
        post_n = map(_ptm, _stacks([pm.op for pm in post_wm_ops(q, q)] for q in qs))
        nf = [n_i @ f_i for n_i, f_i in zip(post_n, f)]
    if kind == "qffc_ps":
        return (n, n, n), ((pre[0], nf[0][:, None]), (pre[1], nf[1])), lambda i, j, k: {
            "p": ps[i], "p_u": ps[j], "p_v": ps[k]}
    r = {sign: _ptm(rots) for sign, rots in _qffc_tables(grid)["r"].items()}
    rot = [np.stack([r[signs[i]] for signs in _SIGN_COMBOS], axis=1) for i in (0, 1)]
    if kind == "qffc_rot":
        return (n, m, c), tuple(zip(pre, (rot[i] @ f[i] for i in (0, 1)))), lambda t, e, k: {
            "p": ps[t], "theta_pre": theta[t], "eta": eta[e], "signs": _SIGN_COMBOS[k]}
    stages = tuple(zip(pre, (rot[i] @ nf[i][:, None, None] for i in (0, 1))))
    return (n, m, c), stages, lambda i, j, k: {"p": ps[i], "eta": eta[j], "signs": _SIGN_COMBOS[k]}


def _loop_scores(rho, kind: str, noise: KrausChannel,
                 grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(fidelity, success) of every candidate of a loop search, in
    _loop_search order, under one channel of transfer matrix T.

    sigma = sum_i post_i T pre_i _pauli(rho) over _loop_search's stages, success = Tr
    sigma, and the closed-form qubit fidelity F^2 = Tr rho s + 2 sqrt(det rho
    det s) of s = sigma / success (Hubner 1992; Jozsa 1994), clipped as
    qmath.fidelity clips: the overlap alone for a pure rho, zeroed spectrum
    below 1e-14, F <= 1, and F = 0 when success <= 1e-15.
    """
    r, t = _pauli(rho), noise.transfer
    sigma = sum(post @ ((pre @ r) @ t.T)[..., None] for pre, post in _loop_search(kind, grid)[1])
    sigma = sigma.reshape(-1, 4)
    success = sigma[:, 0]
    fid = np.zeros(len(success))
    kept = success > 1e-15
    s = sigma[kept] / success[kept, None]
    overlap = s @ r / 2
    if purity(rho) >= PURITY_PURE_THRESHOLD:
        f = np.sqrt(np.maximum(overlap, 0.0))
    else:
        # the eigenvalues of sqrt(rho) s sqrt(rho) have sum overlap and product det
        det = np.maximum((r[0] ** 2 - r[1:] @ r[1:]) * (1 - (s[:, 1:] ** 2).sum(axis=1)) / 16, 0.0)
        hi = np.maximum(0.5 * (overlap + np.sqrt(np.maximum(overlap ** 2 - 4 * det, 0.0))), 0.0)
        lo = np.divide(det, hi, out=np.zeros_like(hi), where=hi > 0)
        lo[lo < 1e-14 * np.maximum(1.0, hi)] = 0.0
        f = np.sqrt(hi) + np.sqrt(lo)
    fid[kept] = np.minimum(1.0, f)
    return fid, success


def _loop_row(rho_in, kind: str, noises, grid: GridSpec) -> list[OptResult]:
    """The optima of a loop search for one state under each channel, one
    channel at a time: _loop_scores screens every candidate, and only those
    within SCREEN_ATOL of the best score, plus any in the success band where
    the fidelity-0 cutoff is not continuous, go through _optimize_by_loop. If
    every score is within delta of its run_scheme fidelity and 2 delta <=
    SCREEN_ATOL, the exhaustive loop's winner is among them, so the result is
    its OptResult, tie-breaks included."""
    shape, _, params = _loop_search(kind, grid)
    results = []
    for noise in noises:
        fixed = {"r": noise.r} if kind in AD_ONLY_KINDS else {}
        fid, success = _loop_scores(rho_in, kind, noise, grid)
        band = (success >= _CUTOFF_BAND[0]) & (success <= _CUTOFF_BAND[1])
        top = np.max(fid, where=~band, initial=-np.inf)
        keep = band | (fid >= top - SCREEN_ATOL)
        results.append(_optimize_by_loop(rho_in, kind, noise, (
            {**fixed, **params(*index)} for index in np.argwhere(keep.reshape(shape)).tolist())))
    return results


def _optimize_by_loop(rho_in, kind: str, noise: KrausChannel | None, candidates) -> OptResult:
    """Run every params candidate given through run_scheme; the first highest
    fidelity wins. The loop rows pass it their screened shortlist in
    _loop_search order, so the winner is that of the exhaustive loop."""
    best = None
    for params in candidates:
        res = run_scheme(rho_in, kind, noise, **params)
        if best is None or res.fidelity > best.f_opt:
            best = OptResult(f_opt=res.fidelity, params=params, success_prob=res.success_prob)
    return best


def optimize_scheme(scheme_kind: str, rho_in, noise: KrausChannel | None,
                    grid: GridSpec) -> OptResult:
    """Exhaustive grid optimization of one scheme's control parameters.

    Pure-input qfbc and qffc_rot run through their row kernels. The other
    searches cover their whole space (see _loop_search): a transfer-matrix
    kernel screens every candidate and run_scheme verifies the near-best
    ones, which gives the result of running every candidate through
    run_scheme, tie-break included (see _loop_row).
    """
    return _optimize_row(rho_in, (noise,), grid, (scheme_kind.lower(),))[0][0]


def f_diff(rho_in, noise: KrausChannel, grid: GridSpec) -> float:
    """Optimal feedback fidelity minus optimal feed-forward fidelity."""
    (fb,), (ff,) = _optimize_row(rho_in, (noise,), grid)
    return fb.f_opt - ff.f_opt


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
        lines = [",".join(self.columns)] + [",".join(map(_fmt, row)) for row in self.rows]
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (tuple, list)):
        return "|".join(_fmt(v) for v in value)
    return str(value)


def resolve_workers(workers: int | None, n_tasks: int) -> int:
    """workers (when None, the CPUs this process may run on), at most one per task."""
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return min(workers, max(1, n_tasks))


def _fig6_row(rho, noises, grid: GridSpec) -> list[tuple]:
    return [(fb.f_opt, ff.f_opt, fb.f_opt - ff.f_opt, fb.params["theta"], fb.params["etas"][0],
             fb.params["meas_axis"], fb.params["rot_axis"], ff.params["p"])
            for fb, ff in zip(*_optimize_row(rho, noises, grid))]


def _sweep_row(scheme_kind: str, rho, noises, grid: GridSpec) -> list[tuple]:
    opts, = _optimize_row(rho, noises, grid, (scheme_kind.lower(),))
    return [(scheme_kind, opt.f_opt, opt.success_prob,
             ";".join(f"{k}={_fmt(v)}" for k, v in sorted(opt.params.items()))) for opt in opts]


@functools.cache
def _channels(noise_kind: str, rs: tuple[float, ...]) -> tuple[KrausChannel, ...]:
    """Per process: the channels of one noise kind at each r of a row."""
    return tuple(make_channel(noise_kind, r) for r in rs)


def _alpha_row(args) -> list[tuple]:
    """The rows of one alpha, r ascending: (alpha, phi, r, noise kind, *row(...)[i])."""
    row, phi, noise_kind, alpha, grid = args
    rho = state_from_angles(InitialState(alpha=alpha, phi=phi))
    cells = row(rho, _channels(noise_kind, grid.rs), grid)
    return [(alpha, phi, r, noise_kind, *cell) for r, cell in zip(grid.rs, cells)]


# Rows left x the second row's seconds above which a run pools the rest. On a 2-core
# host serial and 2-worker pooled sweeps broke even near 0.2 s of serial work (composite,
# 7-point angles, 6 x 31 rows: 0.21 s serial, 0.25 s pooled; 8 x 31: 0.23 s, 0.20 s).
_POOL_MIN_S = 0.2


def _run_surfaces(row, surfaces, grid: GridSpec, workers: int | None):
    """The rows of each (phi, noise kind) surface, yielded once its last alpha
    row is done. The first two alpha rows run in this process; the second, clear
    of the first's table builds, is timed. The rest go, in surface order, to one
    pool of up to `workers` processes when more than one is allowed and their
    predicted time exceeds _POOL_MIN_S, and run here otherwise. Forked workers
    inherit the grid tables built so far."""
    tasks = [(row, phi, noise_kind, alpha, grid)
             for phi, noise_kind in surfaces for alpha in grid.alphas]
    n, k = resolve_workers(workers, len(tasks) - 2), len(grid.alphas)
    first = [_alpha_row(task) for task in tasks[:1]]  # none for no surfaces
    start = time.perf_counter()
    first += [_alpha_row(task) for task in tasks[1:2]]
    pooled = n > 1 and (len(tasks) - 2) * (time.perf_counter() - start) > _POOL_MIN_S
    if pooled:  # imported here, so that a run that never pools never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=n) if pooled else contextlib.nullcontext() as pool:
        chunks = itertools.chain(first, (pool.map if pool else map)(_alpha_row, tasks[2:]))
        for _ in range(len(tasks) // k):
            yield tuple(line for chunk in itertools.islice(chunks, k) for line in chunk)


def sweep_fig6_surfaces(surfaces, grid: GridSpec, workers: int | None = None):
    """Comparison tables over the full (alpha, r) grid, one per (phi, channel
    kind) in surfaces, computed on at most one process pool; an iterator that
    yields each table as soon as its rows are done."""
    return (SweepResult(columns=FIG6_COLUMNS, rows=rows)
            for rows in _run_surfaces(_fig6_row, surfaces, grid, workers))


def sweep_fig6(phi: float, noise_kind: str, grid: GridSpec,
               workers: int | None = None) -> SweepResult:
    """Comparison table over the full (alpha, r) grid for one phi and channel."""
    table, = sweep_fig6_surfaces(((phi, noise_kind),), grid, workers)
    return table


def sweep_optimal(scheme_kind: str, phi: float, noise_kind: str, grid: GridSpec,
                  workers: int | None = None) -> SweepResult:
    """Per-scheme optimal-fidelity table over the full (alpha, r) grid."""
    # validates the kind and the channel before any row is run
    _check_search(scheme_kind.lower(), make_channel(noise_kind, grid.rs[0]))
    rows, = _run_surfaces(functools.partial(_sweep_row, scheme_kind),
                          ((phi, noise_kind),), grid, workers)
    return SweepResult(columns=SWEEP_COLUMNS, rows=rows)
