"""End-to-end state protection pipelines.

Each run_* function wires instruments and channels into one protection
scheme and reports the output state, success probability, fidelity against
the input, and the full branch trail. Deterministic schemes (qfbc, qffc_rot,
wmppf) are trace-preserving maps with success probability exactly 1;
post-selected schemes (wmqmr, qffc_ps, composite, ent_wmqmr) report the
normalized accepted mixture and its weight.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from . import channels, measurements, qmath
from .channels import KrausChannel, ad_kraus, lift_local
from .measurements import (
    Branch,
    BranchEnsemble,
    PartialMeasurement,
    flips,
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


def _conj(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return op @ rho @ dagger(op)


def _qubit_input(rho_in, noise: KrausChannel | None = None) -> np.ndarray:
    """rho_in checked as a qubit density matrix that noise (if given) acts on."""
    rho_in = qmath.check_density(rho_in)
    dims = (len(rho_in), noise.dim if noise is not None else 2)
    if dims != (2, 2):
        raise ValueError(f"dimension mismatch: a qubit scheme got (state, channel) dims {dims}")
    return rho_in


def _check_pair(values, name: str):
    if len(values) != 2:
        raise ValueError(f"{name} must hold one entry per outcome (2), got {values!r}")


def _deterministic(rho_in, branches: list[Branch], what: str) -> SchemeResult:
    """Result of a trace-preserving scheme: the sum of its branches, checked
    to have unit trace and renormalized to it."""
    out = sum(br.state for br in branches)
    tr = float(np.real(np.trace(out)))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"{what} map is not trace preserving: trace {tr}")
    out = out / tr
    return SchemeResult(output_state=out, success_prob=1.0,
                        fidelity=qmath._fidelity(rho_in, qmath.check_density(out, "rho_f")),
                        branches=BranchEnsemble(branches=tuple(branches)))


def _postselected(rho_in, branches: list[Branch], eig_in: tuple | None = None) -> SchemeResult:
    """Result of a post-selected scheme: the accepted weight (at most 1; its
    float sum can round past 1) and the accepted mixture normalized by the
    unclipped sum (None, with fidelity 0, when nothing is kept). A two-qubit
    result adds its concurrence (0 if nothing is kept); eig_in: qmath._fidelity."""
    ensemble = BranchEnsemble(tuple(branches))
    success = ensemble.success_prob
    out, fid, conc = None, 0.0, 0.0 if len(rho_in) == 4 else None
    if success > 1e-15:
        out, eig = qmath._checked_density(ensemble.accepted_state(), "rho_f")
        fid = qmath._fidelity(rho_in, out, eig_in)
        conc = conc if eig is None else qmath._concurrence(out, eig)
    return SchemeResult(output_state=out, success_prob=min(success, 1.0), fidelity=fid,
                        branches=ensemble, concurrence=conc)


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
    rho_in = _qubit_input(rho_in)
    check_prob(r, "r")
    wm = wm_map(p1)   # wm_map and qmr_map check p1 and p2
    if p2 is None:
        p2 = matched_qmr_strength(p1, r)
    qmr = qmr_map(p2)

    discards = [Branch(label="wm/discard", state=_conj(wm.complement, rho_in), accepted=False)]
    s = _conj(wm.op, rho_in)
    if no_jump_only:
        a0, a1 = ad_kraus(r).ops
        discards.append(Branch(label="wm/jump/discard", state=_conj(a1, s), accepted=False))
        s = _conj(a0, s)
    else:
        s = channels._apply_kraus(s, ad_kraus(r).stack)
    discards.append(Branch(label="wm/ad/qmr/discard", state=_conj(qmr.complement, s),
                           accepted=False))
    kept = Branch(label="wm/ad/qmr/accept", state=_conj(qmr.op, s))
    return _postselected(rho_in, [kept, *discards])


def run_qfbc(rho_in, noise: KrausChannel, theta: float, eta: float | None = None,
             meas_axis: str | None = None, rot_axis: str = "z", beta: float | None = None,
             etas: tuple[float, float] | None = None) -> SchemeResult:
    """Measure after the noise, rotate conditioned on the outcome.

    eta rotates the '+' outcome by +eta and the '-' outcome by -eta about
    rot_axis, so a negative eta swaps them; etas signs each outcome's angle
    itself and excludes eta. Angles are in [-pi/2, pi/2]. beta selects the
    phase-generalized pair instead of the meas_axis one (default "y").
    """
    rho_in = _qubit_input(rho_in, noise)
    if etas is None:
        if eta is None:
            raise ValueError("provide eta or etas")
        etas = (eta, -eta)
    elif eta is not None:
        raise ValueError("provide eta or etas, not both")
    _check_pair(etas, "etas")
    if beta is not None and meas_axis is not None:
        raise ValueError("provide meas_axis or beta, not both")
    pair = povm_generalized(theta, beta) if beta is not None \
        else povm_axis("y" if meas_axis is None else meas_axis, theta)

    rho_e = channels._apply_kraus(rho_in, noise.stack)
    rotated = [Branch(label=f"{label}/rot", state=_conj(rotation(rot_axis, angle), _conj(m, rho_e)))
               for label, m, angle in zip(pair.labels, pair.ops, etas)]
    return _deterministic(rho_in, rotated, "feedback")


def _flip_sandwich(rho_in, noise: KrausChannel, p: float):
    """Shared front of the feed-forward schemes: pre-measure, flip, damp, unflip."""
    pair = pre_wm_pair(p)
    out = []
    for i, (label, m, f) in enumerate(zip(pair.labels, pair.ops, flips()), 1):
        s = channels._apply_kraus(_conj(f, _conj(m, rho_in)), noise.stack)
        out.append((f"{label}/F{i}/{noise.kind}/F{i}", _conj(f, s)))
    return out


def _qffc_ps_branches(rho_in: np.ndarray, r: float, p: float, p_u: float | None,
                      p_v: float | None, rotations=(None, None)) -> list[Branch]:
    """run_qffc_ps's accept/discard branch pairs of a checked input (ad_kraus and pre_wm_pair
    check r and p); rotations (run_composite's) turn the accepted states."""
    if p_u is None:
        p_u = matched_post_wm_strength(p)
    if p_v is None:
        p_v = matched_post_wm_strength(p)
    branches: list[Branch] = []
    for (label, s), pm, rot in zip(_flip_sandwich(rho_in, ad_kraus(r), p),
                                   post_wm_ops(p_u, p_v), rotations, strict=True):
        label, kept = f"{label}/{pm.role}", _conj(pm.op, s)
        branches.append(Branch(label=f"{label}/accept", state=kept) if rot is None else
                        Branch(label=f"{label}/accept/rot", state=_conj(rot, kept)))
        branches.append(Branch(label=f"{label}/discard", state=_conj(pm.complement, s),
                               accepted=False))
    return branches


def run_qffc_ps(rho_in, r: float, p: float, p_u: float | None = None,
                p_v: float | None = None) -> SchemeResult:
    """Post-selected feed-forward control against amplitude damping.

    Pre-measurement pair, outcome-keyed flips around the channel, then the
    recovery partial measurements N1 / W1 whose null results are kept.
    Strengths default to the exact-reversal values (2p-1)/p.
    """
    rho_in = _qubit_input(rho_in)
    return _postselected(rho_in, _qffc_ps_branches(rho_in, r, p, p_u, p_v))


def _y_rotations(eta: float, signs: tuple[int, int]) -> list[np.ndarray]:
    """R_y(sign * eta) per branch of the feed-forward schemes, eta in [0, pi/2]."""
    _check_pair(signs, "signs")
    if not set(signs) <= {+1, -1}:
        raise ValueError(f"signs must be +1 or -1, got {signs!r}")
    measurements._check_angle(eta, "eta")
    return [rotation("y", sign * eta) for sign in signs]


def run_qffc_rot(rho_in, noise: KrausChannel, p: float, eta: float,
                 signs: tuple[int, int] = (+1, -1)) -> SchemeResult:
    """Deterministic feed-forward control: rotations instead of post-measurements.

    Both branches are kept; each gets a y-axis rotation R_y(sign_i * eta)
    keyed to its pre-measurement outcome.
    """
    rho_in = _qubit_input(rho_in, noise)
    branches = [Branch(label=f"{label}/rot", state=_conj(rot, s)) for (label, s), rot
                in zip(_flip_sandwich(rho_in, noise, p), _y_rotations(eta, signs))]
    return _deterministic(rho_in, branches, "feed-forward")


def run_wmppf(rho_in, noise: KrausChannel, p: float) -> SchemeResult:
    """Flip sandwich with no recovery stage; success probability is exactly 1."""
    return run_qffc_rot(rho_in, noise, p, eta=0.0)


def run_composite(rho_in, r: float, p: float, eta: float,
                  p_u: float | None = None, p_v: float | None = None,
                  signs: tuple[int, int] = (+1, -1)) -> SchemeResult:
    """Feed-forward control with an added feedback rotation per accepted branch."""
    rho_in = _qubit_input(rho_in)
    rotations = _y_rotations(eta, signs)
    return _postselected(rho_in, _qffc_ps_branches(rho_in, r, p, p_u, p_v, rotations))


@qmath._memoized   # like ad_kraus: calls on one input repeat r1 (r2's lift is built per call)
def _ad_on_qubit1(r1: float) -> KrausChannel:
    return lift_local(ad_kraus(r1), 1)


def run_ent_wmqmr(rho_2q, r1: float, r2: float, p1: float,
                  p2: float | None = None, side: str = "one") -> SchemeResult:
    """One- or two-sided WMQMR protection of a two-qubit state.

    Local amplitude damping acts on both qubits (strengths r1, r2); the
    weak measurement and its reversal act on qubit 1 only (side='one') or
    on both (side='both'). Reports the concurrence of the accepted state.
    """
    rho_2q, eig = qmath._checked_density(rho_2q)
    if rho_2q.shape[0] != 4:
        raise ValueError("run_ent_wmqmr expects a two-qubit state (dim 4)")
    for name, v in (("r1", r1), ("r2", r2), ("p1", p1)):
        check_prob(v, name)
    if side not in ("one", "both"):
        raise ValueError(f"side must be 'one' or 'both', got {side!r}")
    if p2 is None:
        p2 = matched_qmr_strength(p1, r1)
    check_prob(p2, "p2")

    def measure_sides(s, role: str, p: float):   # s kept by each side; discards to rejected
        pm = PartialMeasurement(op=measurements._partial_op(role, p), role=role)   # p checked
        for q in (1,) if side == "one" else (1, 2):
            op, comp = (qmath._kron(a, ID2) if q == 1 else qmath._kron(ID2, a)
                        for a in (pm.op, pm.complement))
            rejected.append(Branch(label=f"{role}@q{q}/discard", state=_conj(comp, s),
                                   accepted=False))
            s = _conj(op, s)
        return s

    rejected: list[Branch] = []
    s = measure_sides(rho_2q, "wm", p1)
    s = channels._apply_kraus(s, _ad_on_qubit1(r1).stack)
    s = channels._apply_kraus(s, lift_local(ad_kraus(r2), 2).stack)
    s = measure_sides(s, "qmr", p2)
    return _postselected(rho_2q, [Branch(label=f"wm[{side}]/ad/qmr/accept", state=s), *rejected],
                         eig)


SCHEME_KINDS = ("composite", "ent_wmqmr", "qfbc", "qffc_ps", "qffc_rot", "wmppf", "wmqmr")


# each kind's run_* keyword parameters (all but the input state), read from its
# signature, in signature order, each mapped to whether it is required
SCHEME_PARAMS = {kind: {p.name: p.default is p.empty for p in list(
    inspect.signature(globals()[f"run_{kind}"]).parameters.values())[1:]} for kind in SCHEME_KINDS}

# the kinds whose run_* takes no noise argument: each fixes its own amplitude damping
AD_ONLY_KINDS = tuple(kind for kind in SCHEME_KINDS if "noise" not in SCHEME_PARAMS[kind])

# run_scheme accepts and drops it: the pre-measurement angle behind qffc_rot's optimal p
_REPORTED_ONLY = {"qffc_rot": "theta_pre"}


def run_scheme(rho_in, kind: str, noise: KrausChannel | None = None, **params) -> SchemeResult:
    """Run the scheme named kind: its run_* pipeline with params as keyword arguments.

    Other keys than the runner's (SCHEME_PARAMS) and qffc_rot's theta_pre are
    rejected. noise goes to runners with a noise argument, which need one; the
    others (AD_ONLY_KINDS) fix their own amplitude damping and reject any other
    channel, or one whose r differs from params["r"].
    """
    if kind.lower() not in SCHEME_KINDS:
        raise ValueError(f"unknown scheme kind {kind!r}; expected one of {SCHEME_KINDS}")
    kind = kind.lower()
    # looked up at call time, so a rebound run_* (a tracing wrapper) is seen
    runner = globals()[f"run_{kind}"]
    takes = SCHEME_PARAMS[kind]
    kwargs = {k: v for k, v in params.items() if k != _REPORTED_ONLY.get(kind)}
    if kind not in AD_ONLY_KINDS:
        if noise is None:
            raise ValueError(f"{kind} needs a noise channel")
        kwargs["noise"] = noise
    elif noise is not None:
        if noise.kind != "ad":
            raise ValueError(f"{kind} needs an amplitude-damping channel, got {noise.kind!r}")
        if "r" in kwargs and kwargs["r"] != noise.r:
            raise ValueError(f"{kind}: params r = {kwargs['r']} differs from the "
                             f"channel's r = {noise.r}")
    for name, required in takes.items():
        if required and name not in kwargs:
            raise ValueError(f"missing required parameter {name!r}")
    if stray := sorted(kwargs.keys() - takes.keys()):
        raise ValueError(f"{kind} does not take {', '.join(stray)}")
    return runner(rho_in, **kwargs)


def pair_average_fidelity(alpha: float, phi: float, kind: str,
                          noise: KrausChannel | None = None, **params) -> float:
    """Equal-prior average fidelity over the nonorthogonal pair, the states at phi and
    (phi + pi) mod 2 pi, of run_scheme(rho, kind, noise, **params)."""
    rhos = (state_from_angles(InitialState(alpha=alpha, phi=ph))
            for ph in (phi, (phi + np.pi) % (2 * np.pi)))
    return 0.5 * sum(run_scheme(rho, kind, noise, **params).fidelity for rho in rhos)
