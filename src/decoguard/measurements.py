"""Measurement, flip and rotation operators, and the branch-update rule.

Variable-strength POVM pairs along the Bloch axes, the phase-generalized pair,
the partial (single-operator) measurements of the schemes, unitary rotations and
outcome branches with acceptance flags. pre_wm_pair and post_wm_ops return
shared objects with read-only arrays (qmath._memoized).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qmath import (
    ID2,
    KET_0,
    KET_1,
    KET_MINUS,
    KET_MINUS_I,
    KET_PLUS,
    KET_PLUS_I,
    PAULI_X,
    _entries,
    _memoized,
    as_matrix,
    check_prob,
    dagger,
    eig_hermitian,
    projector,
)

COMPLETENESS_ATOL = 1e-12

_AXIS_KETS = {
    "x": (KET_PLUS, KET_MINUS),
    "y": (KET_PLUS_I, KET_MINUS_I),
    "z": (KET_0, KET_1),
}


@dataclass(frozen=True)
class MeasurementPair:
    """Two-outcome measurement {M_a, M_b} with M_a^t M_a + M_b^t M_b = I."""

    labels: tuple[str, str]
    ops: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        total = sum(dagger(m) @ m for m in self.ops)
        err = np.abs(total - np.eye(total.shape[0])).max()
        if not err <= COMPLETENESS_ATOL:  # NaN fails too
            raise ValueError(f"measurement pair violates completeness by {err}")


@dataclass(frozen=True)
class PartialMeasurement:
    """Single measurement operator with op^t op <= I; the other outcome is discarded.

    complement = sqrt(I - op^t op) is the discarded outcome's operator; it is
    built once, checking op^t op <= I: from a real diagonal 2x2 op's two entries
    in scalar arithmetic (every op the schemes build), in closed form when op^t op
    is diagonal, and from one eigendecomposition otherwise."""

    op: np.ndarray
    role: str
    complement: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        op, e = _entries(self.op, "op")
        object.__setattr__(self, "op", op)
        if e is not None and e[0][1] == e[1][0] == e[0][0].imag == e[1][1].imag == 0:
            # a real diagonal: 1 - x * x has the bits of numpy's I - op^t op
            w = [1 - x.real * x.real for x in (e[0][0], e[1][1])]
            if min(w) < -1e-12:
                raise ValueError(f"partial measurement operator exceeds identity: {1 - min(w)}")
            r0, r1 = (math.sqrt(max(x, 0.0)) for x in w)
            object.__setattr__(self, "complement", np.array([[r0, 0], [0, r1]], dtype=complex))
            return
        m = np.eye(len(op), dtype=complex) - dagger(op) @ op
        diagonal = np.count_nonzero(m) == np.count_nonzero(m.diagonal())
        w, v = (m.diagonal().real, None) if diagonal else eig_hermitian(m)
        if w.min() < -1e-12:
            raise ValueError(f"partial measurement operator exceeds identity: {1 - w.min()}")
        root = np.sqrt(w.clip(0.0, None))
        object.__setattr__(self, "complement", np.diag(root).astype(complex)
                           if diagonal else (v * root) @ dagger(v))


def _check_angle(angle: float, name: str, signed: bool = False):
    """Reject an angle outside [0, pi/2] ([-pi/2, pi/2] if signed), up to 1e-15; NaN too."""
    hi = np.pi / 2 + 1e-15
    if not (-hi if signed else 0.0) <= angle <= hi:
        raise ValueError(f"{name} must be in [{'-pi/2' if signed else '0'}, pi/2], got {angle}")


def rotation(axis: str, angle: float) -> np.ndarray:
    """Unitary R_axis(angle) about a Bloch axis, angle in [-pi/2, pi/2]."""
    if axis not in ("x", "y", "z"):
        raise ValueError(f"rotation axis must be x, y or z, got {axis!r}")
    _check_angle(angle, "angle", signed=True)
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    if axis == "x":
        # unitary exp(-i angle X / 2); the variant with opposite-sign lower
        # off-diagonal is not unitary and breaks trace preservation
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if axis == "y":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([[np.exp(1j * angle / 2), 0], [0, np.exp(-1j * angle / 2)]],
                    dtype=complex)


def povm_axis(axis: str, theta: float) -> MeasurementPair:
    """Variable-strength pair along a Bloch axis.

    theta = pi/2 is zero strength (both operators I/sqrt(2)); theta = 0 is a
    projective measurement onto the axis eigenstates. The z pair is
    cos(t/2)|0><0| + sin(t/2)|1><1| and sin(t/2)|0><0| + cos(t/2)|1><1|,
    which (unlike a literal transcription with both cos terms on the same
    projector) satisfies completeness.
    """
    _check_angle(theta, "theta")
    if axis not in _AXIS_KETS:
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    up, down = (projector(k) for k in _AXIS_KETS[axis])
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return MeasurementPair(labels=("+", "-"), ops=(c * up + s * down, c * down + s * up))


def povm_generalized(theta: float, beta: float) -> MeasurementPair:
    """Phase-generalized z pair: M+ = cos(t/2)|0><0| + e^{i b} sin(t/2)|1><1|."""
    _check_angle(theta, "theta")
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    eb = np.exp(1j * beta)
    mp = np.array([[c, 0], [0, eb * s]], dtype=complex)
    mm = np.array([[eb * s, 0], [0, c]], dtype=complex)
    return MeasurementPair(labels=("+", "-"), ops=(mp, mm))


def _partial_op(role: str, p: float) -> np.ndarray:   # wm_map's or qmr_map's operator
    return np.diag([1, np.sqrt(1 - p)][::1 if role == "wm" else -1]).astype(complex)


def wm_map(p1: float) -> PartialMeasurement:
    """Pre-noise weak measurement diag(1, sqrt(1-p1)); null result keeps the state."""
    check_prob(p1, "p1")
    return PartialMeasurement(op=_partial_op("wm", p1), role="wm")


def qmr_map(p2: float) -> PartialMeasurement:
    """Post-noise reversal measurement diag(sqrt(1-p2), 1)."""
    check_prob(p2, "p2")
    return PartialMeasurement(op=_partial_op("qmr", p2), role="qmr")


@_memoized
def pre_wm_pair(p: float) -> MeasurementPair:
    """Feed-forward pre-measurement pair M1 = diag(sqrt(p), sqrt(1-p)), M2 swapped.

    Equals the z-axis pair of povm_axis under p = cos^2(theta/2).
    """
    check_prob(p, "p")
    m1 = np.diag([np.sqrt(p), np.sqrt(1 - p)]).astype(complex)
    m2 = np.diag([np.sqrt(1 - p), np.sqrt(p)]).astype(complex)
    return MeasurementPair(labels=("M1", "M2"), ops=(m1, m2))


def flips() -> tuple[np.ndarray, np.ndarray]:
    """Feed-forward operators (F1, F2) = (I, X); F2 parks the excited weight near |0>."""
    return ID2.copy(), PAULI_X.copy()


@_memoized
def post_wm_ops(p_u: float, p_v: float) -> tuple[PartialMeasurement, PartialMeasurement]:
    """Recovery measurements N1 = diag(sqrt(1-p_u), 1), W1 = diag(1, sqrt(1-p_v)).

    N1 follows the M1 branch and W1 the M2 branch; with p_u = p_v = (2p-1)/p
    they exactly invert the pre-measurement (M1 N1 and M2 W1 proportional to I).
    """
    check_prob(p_u, "p_u")
    check_prob(p_v, "p_v")
    return (PartialMeasurement(op=_partial_op("qmr", p_u), role="post-wm-n"),
            PartialMeasurement(op=_partial_op("wm", p_v), role="post-wm-w"))


@dataclass(frozen=True)
class Branch:
    """One outcome path: unnormalized state, its label trail, acceptance flag."""

    label: str
    state: np.ndarray
    accepted: bool = True
    weight: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):   # a 2x2's diagonal sum + 0.0 has np.trace's bits, -0.0 read as +0.0
        s = self.state
        w = s.item(0).real + s.item(3).real + 0.0 if s.shape == (2, 2) else s.trace().real
        object.__setattr__(self, "weight", float(w))


@dataclass(frozen=True)
class BranchEnsemble:
    """Ordered collection of outcome branches of one scheme run."""

    branches: tuple[Branch, ...]

    def __post_init__(self):
        if self.total_weight > 1 + 1e-12:
            raise ValueError(f"branch weights sum to {self.total_weight} > 1")

    @property
    def total_weight(self) -> float:
        return sum(b.weight for b in self.branches)

    @property
    def success_prob(self) -> float:
        return sum(b.weight for b in self.branches if b.accepted)

    def accepted_state(self) -> np.ndarray:
        """Normalized mixture over the accepted branches."""
        w = self.success_prob
        if w <= 0:
            raise ValueError("no accepted weight to normalize")
        total = sum(b.state for b in self.branches if b.accepted)
        return total / w


def measure(rho, pair: MeasurementPair) -> BranchEnsemble:
    """Apply a two-outcome measurement; both branches kept and accepted."""
    rho = as_matrix(rho, "rho")
    if rho.shape != pair.ops[0].shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {pair.ops[0].shape}")
    branches = tuple(Branch(label=lab, state=m @ rho @ dagger(m))
                     for lab, m in zip(pair.labels, pair.ops))
    return BranchEnsemble(branches=branches)


def partial_measure(rho, pm: PartialMeasurement) -> BranchEnsemble:
    """Apply a partial measurement: accepted null-result branch plus discarded rest.

    The rejected branch carries the complementary weight through
    pm.complement = sqrt(I - op^t op) so the ensemble stays trace complete;
    scheme success probability is the accepted weight.
    """
    rho = as_matrix(rho, "rho")
    if rho.shape != pm.op.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {pm.op.shape}")
    kept = pm.op @ rho @ dagger(pm.op)
    lost = pm.complement @ rho @ dagger(pm.complement)
    return BranchEnsemble(branches=(
        Branch(label=f"{pm.role}/accept", state=kept, accepted=True),
        Branch(label=f"{pm.role}/discard", state=lost, accepted=False),
    ))
