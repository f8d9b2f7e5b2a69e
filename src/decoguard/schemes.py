"""End-to-end state protection pipelines.

Each run_* function wires instruments and channels into one protection
scheme and reports the output state, success probability, fidelity against
the input, and the full branch trail. Deterministic schemes (qfbc, qffc_rot,
wmppf) are trace-preserving maps with success probability exactly 1;
post-selected schemes (wmqmr, qffc_ps, composite, ent_wmqmr) report the
normalized accepted mixture and its weight.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np

from . import measurements, qmath
from .channels import KrausChannel, ad_kraus, ad_unravel, apply_channel, lift_local
from .measurements import (
    Branch,
    BranchEnsemble,
    PartialMeasurement,
    flips,
    measure,
    partial_measure,
    post_wm_ops,
    povm_axis,
    povm_generalized,
    pre_wm_pair,
    qmr_map,
    rotation,
    wm_map,
)
from .qmath import ID2, TRACE_ATOL, InitialState, check_prob, dagger, state_from_angles


@dataclass(frozen=True)
class SchemeResult:
    """Outcome of one scheme run.

    output_state is the CPTP output for deterministic schemes and the
    normalized accepted mixture for post-selected ones (None when the
    accepted weight is zero, in which case fidelity is reported as 0).
    """

    output_state: np.ndarray | None
    success_prob: float
    fidelity: float
    branches: BranchEnsemble
    concurrence: float | None = None


@dataclass(frozen=True)
class SchemeSpec:
    """A scheme kind plus its noise channel and named parameters.

    params holds keyword arguments of the kind's run_* function; it is stored
    as a read-only copy of the mapping given.
    """

    kind: str
    noise: KrausChannel | None
    params: Mapping[str, Any]

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))


def _conj(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return op @ rho @ dagger(op)


def _deterministic(rho_in, branches: list[Branch], what: str) -> SchemeResult:
    """Result of a trace-preserving scheme: the sum of its branches, checked
    to have unit trace and renormalized to it."""
    out = sum(br.state for br in branches)
    tr = float(np.real(np.trace(out)))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"{what} map is not trace preserving: trace {tr}")
    out = out / tr
    return SchemeResult(output_state=out, success_prob=1.0,
                        fidelity=qmath._fidelity(rho_in, out),
                        branches=BranchEnsemble(branches=tuple(branches)))


def _postselected(rho_in, accepted_sum, ensemble: BranchEnsemble) -> SchemeResult:
    """Result of a post-selected scheme: the accepted weight (at most 1; its
    float sum can round past 1) and the accepted mixture normalized by the
    unclipped sum (None, with fidelity 0, when nothing is kept)."""
    success = ensemble.success_prob
    out, fid = None, 0.0
    if success > 1e-15:
        out = accepted_sum / success
        fid = qmath._fidelity(rho_in, out)
    return SchemeResult(output_state=out, success_prob=min(success, 1.0), fidelity=fid,
                        branches=ensemble)


def matched_qmr_strength(p1: float, r: float) -> float:
    """Reversal strength p2 = 1 - (1-p1)(1-r) that undoes the no-jump branch."""
    return 1.0 - (1.0 - p1) * (1.0 - r)


def matched_post_wm_strength(p: float) -> float:
    """Post-WM strength (2p-1)/p that exactly inverts the pre-measurement (p >= 1/2)."""
    if p <= 0:
        return 0.0
    return max(0.0, (2.0 * p - 1.0) / p)


def run_wmqmr(rho_in, r: float, p1: float, p2: float | None = None,
              no_jump_only: bool = False) -> SchemeResult:
    """Weak measurement, amplitude damping, reversal measurement.

    p2 defaults to the matched reversal strength. With no_jump_only the
    channel is restricted to its A0 trajectory (the jump branch is
    discarded), under which the matched p2 recovers the input exactly.
    """
    rho_in = qmath.check_density(rho_in)
    check_prob(r, "r")
    check_prob(p1, "p1")
    if p2 is None:
        p2 = matched_qmr_strength(p1, r)
    check_prob(p2, "p2")

    branches: list[Branch] = []
    wm_ens = partial_measure(rho_in, wm_map(p1))
    branches.append(wm_ens.branches[1])
    s = wm_ens.branches[0].state

    if no_jump_only:
        unravel = ad_unravel(s, r)
        branches.append(Branch(label="wm/jump/discard",
                               state=unravel.branches[1].state, accepted=False))
        s = unravel.branches[0].state
    else:
        s = apply_channel(s, ad_kraus(r))

    qmr_ens = partial_measure(s, qmr_map(p2))
    branches.append(Branch(label="wm/ad/qmr/discard",
                           state=qmr_ens.branches[1].state, accepted=False))
    kept = qmr_ens.branches[0].state
    branches.insert(0, Branch(label="wm/ad/qmr/accept", state=kept, accepted=True))
    return _postselected(rho_in, kept, BranchEnsemble(tuple(branches)))


def run_qfbc(rho_in, noise: KrausChannel, theta: float, eta: float | None = None,
             meas_axis: str = "y", rot_axis: str = "z", beta: float | None = None,
             sign_binding: int = +1,
             etas: tuple[float, float] | None = None) -> SchemeResult:
    """Measure after the noise, rotate conditioned on the outcome.

    The default binding rotates the '+' outcome by +eta and the '-' outcome
    by -eta about rot_axis (sign_binding = -1 swaps them). etas overrides
    the tied form with independently signed angles per outcome. beta selects
    the phase-generalized measurement pair instead of an axis pair.
    """
    rho_in = qmath.check_density(rho_in)
    if etas is None:
        if eta is None:
            raise ValueError("provide eta or etas")
        if sign_binding not in (+1, -1):
            raise ValueError(f"sign_binding must be +1 or -1, got {sign_binding}")
        etas = (sign_binding * eta, -sign_binding * eta)

    rho_e = apply_channel(rho_in, noise)
    pair = povm_generalized(theta, beta) if beta is not None \
        else povm_axis(meas_axis, theta)
    measured = measure(rho_e, pair)

    rotated = []
    for br, angle in zip(measured.branches, etas):
        rot = rotation(rot_axis, abs(angle), +1 if angle >= 0 else -1)
        rotated.append(Branch(label=f"{br.label}/rot", state=_conj(rot.matrix, br.state)))
    return _deterministic(rho_in, rotated, "feedback")


def _flip_sandwich(rho_in, noise: KrausChannel, p: float):
    """Shared front of the feed-forward schemes: pre-measure, flip, damp, unflip."""
    pre = measure(rho_in, pre_wm_pair(p))
    fs = flips()
    out = []
    for i, (br, f) in enumerate(zip(pre.branches, fs)):
        s = _conj(f, br.state)
        s = apply_channel(s, noise)
        s = _conj(f, s)
        out.append((f"{br.label}/F{i + 1}/{noise.kind}/F{i + 1}", s))
    return out


def _qffc_ps_branches(rho_in: np.ndarray, r: float, p: float, p_u: float | None,
                      p_v: float | None) -> BranchEnsemble:
    """run_qffc_ps's accept/discard branch pairs of a validated input."""
    check_prob(r, "r")
    check_prob(p, "p")
    if p_u is None:
        p_u = matched_post_wm_strength(p)
    if p_v is None:
        p_v = matched_post_wm_strength(p)
    branches: list[Branch] = []
    for (label, s), pm in zip(_flip_sandwich(rho_in, ad_kraus(r), p), post_wm_ops(p_u, p_v)):
        ens = partial_measure(s, pm)
        branches.append(Branch(label=f"{label}/{pm.role}/accept", state=ens.branches[0].state))
        branches.append(Branch(label=f"{label}/{pm.role}/discard",
                               state=ens.branches[1].state, accepted=False))
    return BranchEnsemble(tuple(branches))


def run_qffc_ps(rho_in, r: float, p: float, p_u: float | None = None,
                p_v: float | None = None) -> SchemeResult:
    """Post-selected feed-forward control against amplitude damping.

    Pre-measurement pair, outcome-keyed flips around the channel, then the
    recovery partial measurements N1 / W1 whose null results are kept.
    Strengths default to the exact-reversal values (2p-1)/p.
    """
    rho_in = qmath.check_density(rho_in)
    ens = _qffc_ps_branches(rho_in, r, p, p_u, p_v)
    return _postselected(rho_in, sum(b.state for b in ens.branches if b.accepted), ens)


def run_qffc_rot(rho_in, noise: KrausChannel, p: float, eta: float,
                 signs: tuple[int, int] = (+1, -1)) -> SchemeResult:
    """Deterministic feed-forward control: rotations instead of post-measurements.

    Both branches are kept; each gets a y-axis rotation R_y(sign_i * eta)
    keyed to its pre-measurement outcome.
    """
    rho_in = qmath.check_density(rho_in)
    check_prob(p, "p")
    branches = []
    for (label, s), sign in zip(_flip_sandwich(rho_in, noise, p), signs):
        rot = rotation("y", eta, sign)
        branches.append(Branch(label=f"{label}/rot", state=_conj(rot.matrix, s)))
    return _deterministic(rho_in, branches, "feed-forward")


def run_wmppf(rho_in, noise: KrausChannel, p: float) -> SchemeResult:
    """Flip sandwich with no recovery stage; success probability is exactly 1."""
    return run_qffc_rot(rho_in, noise, p, eta=0.0)


def run_composite(rho_in, r: float, p: float, eta: float,
                  p_u: float | None = None, p_v: float | None = None,
                  signs: tuple[int, int] = (+1, -1)) -> SchemeResult:
    """Feed-forward control with an added feedback rotation per accepted branch."""
    rho_in = qmath.check_density(rho_in)
    branches = []
    sign_iter = iter(signs)
    for br in _qffc_ps_branches(rho_in, r, p, p_u, p_v).branches:
        if br.accepted:
            rot = rotation("y", eta, next(sign_iter))
            br = Branch(label=f"{br.label}/rot", state=_conj(rot.matrix, br.state))
        branches.append(br)
    ens = BranchEnsemble(tuple(branches))
    return _postselected(rho_in, sum(b.state for b in ens.branches if b.accepted), ens)


def run_ent_wmqmr(rho_2q, r1: float, r2: float, p1: float,
                  p2: float | None = None, side: str = "one") -> SchemeResult:
    """One- or two-sided WMQMR protection of a two-qubit state.

    Local amplitude damping acts on both qubits (strengths r1, r2); the
    weak measurement and its reversal act on qubit 1 only (side='one') or
    on both (side='both'). Reports the concurrence of the accepted state.
    """
    rho_2q = qmath.check_density(rho_2q)
    if rho_2q.shape[0] != 4:
        raise ValueError("run_ent_wmqmr expects a two-qubit state (dim 4)")
    for name, v in (("r1", r1), ("r2", r2), ("p1", p1)):
        check_prob(v, name)
    if side not in ("one", "both"):
        raise ValueError(f"side must be 'one' or 'both', got {side!r}")
    if p2 is None:
        p2 = matched_qmr_strength(p1, r1)
    check_prob(p2, "p2")

    def lifted(role: str, p: float, qubit: int) -> PartialMeasurement:
        op = measurements._partial_op(role, p)   # lifted with no 2x2 measurement built
        return PartialMeasurement(op=qmath._kron(op, ID2) if qubit == 1 else qmath._kron(ID2, op),
                                  strength=p, role=f"{role}@q{qubit}")

    sides = (1,) if side == "one" else (1, 2)
    stages = [lifted("wm", p1, q) for q in sides]
    post_stages = [lifted("qmr", p2, q) for q in sides]

    rejected: list[Branch] = []
    s = rho_2q
    for pm in stages:
        ens = partial_measure(s, pm)
        rejected.append(ens.branches[1])
        s = ens.branches[0].state
    s = apply_channel(s, lift_local(ad_kraus(r1), 1))
    s = apply_channel(s, lift_local(ad_kraus(r2), 2))
    for pm in post_stages:
        ens = partial_measure(s, pm)
        rejected.append(ens.branches[1])
        s = ens.branches[0].state

    res = _postselected(rho_2q, s, BranchEnsemble(
        (Branch(label=f"wm[{side}]/ad/qmr/accept", state=s), *rejected)))
    out = res.output_state
    return replace(res, concurrence=qmath.concurrence(out) if out is not None else 0.0)


SCHEME_KINDS = ("composite", "ent_wmqmr", "qfbc", "qffc_ps", "qffc_rot", "wmppf", "wmqmr")


@functools.cache
def _keywords(runner) -> tuple[frozenset[str], tuple[str, ...]]:
    """The keyword parameters of a run_* function (all but the input state)
    and the required ones among them, in signature order."""
    params = list(inspect.signature(runner).parameters.values())[1:]
    return (frozenset(p.name for p in params),
            tuple(p.name for p in params if p.default is p.empty))


# the kinds whose run_* takes no noise argument: each fixes its own amplitude damping
AD_ONLY_KINDS = tuple(kind for kind in SCHEME_KINDS
                      if "noise" not in _keywords(globals()[f"run_{kind}"])[0])


def run_scheme(rho_in, spec: SchemeSpec) -> SchemeResult:
    """Dispatch a SchemeSpec to its run_* pipeline.

    spec.params are passed as the run_* keyword arguments of the same name;
    keys the runner does not take are ignored. spec.noise goes to runners
    with a noise argument, which need one; the others (AD_ONLY_KINDS) fix
    their own amplitude damping and reject any other channel, or one whose r
    differs from params["r"].
    """
    kind = spec.kind.lower()
    if kind not in SCHEME_KINDS:
        raise ValueError(f"unknown scheme kind {spec.kind!r}; expected one of {SCHEME_KINDS}")
    # looked up at call time, so a rebound run_* (a tracing wrapper) is seen
    runner = globals()[f"run_{kind}"]
    names, required = _keywords(runner)
    kwargs = {k: v for k, v in spec.params.items() if k in names}
    if kind not in AD_ONLY_KINDS:
        if spec.noise is None:
            raise ValueError(f"{kind} needs a noise channel")
        kwargs["noise"] = spec.noise
    elif spec.noise is not None:
        if spec.noise.kind != "ad":
            raise ValueError(f"{kind} needs an amplitude-damping channel, "
                             f"got {spec.noise.kind!r}")
        if "r" in kwargs and kwargs["r"] != spec.noise.r:
            raise ValueError(f"{kind}: params r = {kwargs['r']} differs from the "
                             f"channel's r = {spec.noise.r}")
    for name in required:
        if name not in kwargs:
            raise ValueError(f"missing required parameter {name!r}")
    return runner(rho_in, **kwargs)


def pair_average_fidelity(spec: SchemeSpec, alpha: float, phi: float) -> float:
    """Equal-prior average fidelity over the nonorthogonal pair |psi+->, |psi-->."""
    fids = []
    for sign in (+1, -1):
        rho = state_from_angles(InitialState(alpha=alpha, phi=phi, pair_sign=sign))
        fids.append(run_scheme(rho, spec).fidelity)
    return 0.5 * (fids[0] + fids[1])
