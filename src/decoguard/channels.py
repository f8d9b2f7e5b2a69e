"""Phase-damping and amplitude-damping channels and their parameterizations.

Both channels are explicit Kraus operator lists, completeness checked at
construction (ad_kraus returns shared ones with read-only arrays). The
phase-flip, rotation-angle and decay-rate forms convert explicitly to the Kraus
damping probability r; channels unravel into jump/no-jump branches and lift
onto one side of a two-qubit system.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .measurements import COMPLETENESS_ATOL, Branch, BranchEnsemble
from .qmath import (ID2, PAULI_X, PAULI_Y, PAULI_Z, _kron, _memoized, _read_only, as_matrix,
                    check_prob, dagger)

TRACE_DRIFT_ATOL = 1e-12
_PAULIS = np.stack([ID2, PAULI_X, PAULI_Y, PAULI_Z])


def _pauli(rho) -> np.ndarray:
    """r with rho = (r_0 I + r_1 X + r_2 Y + r_3 Z) / 2, (..., 4) for a stack (..., 2, 2)."""
    d0, d1, off = rho[..., 0, 0], rho[..., 1, 1], rho[..., 0, 1]
    return np.stack([np.real(d0 + d1), 2 * off.real, -2 * off.imag, np.real(d0 - d1)], axis=-1)


def _ptm(k) -> np.ndarray:
    """The real Pauli transfer matrix T of rho -> K rho K^dagger for each K of
    a stack (..., 2, 2), (..., 4, 4): _pauli(K rho K^dagger) = T @ _pauli(rho)."""
    k = k[..., None, :, :]
    return np.swapaxes(_pauli(k @ _PAULIS @ k.conj().swapaxes(-1, -2)), -1, -2) / 2


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map given by Kraus operators with sum A_i^t A_i = I.

    stack holds the operators as one (k, d, d) array, built once."""

    ops: tuple[np.ndarray, ...]
    kind: str = "custom"
    r: float | None = None
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.ops:
            raise ValueError("channel needs at least one Kraus operator")
        dim = self.ops[0].shape[0]
        total = sum(dagger(a) @ a for a in self.ops)
        err = np.abs(total - np.eye(dim)).max()
        if not err <= COMPLETENESS_ATOL:  # NaN fails too
            raise ValueError(f"Kraus completeness violated by {err}")
        object.__setattr__(self, "stack", np.array(self.ops))

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    @functools.cached_property
    def transfer(self) -> np.ndarray:
        """A qubit channel's real Pauli transfer matrix T, _pauli(out) = T @ _pauli(rho),
        (4, 4) and read-only; built on first use, so construction does not pay for it."""
        return _read_only(_ptm(self.stack).sum(axis=0))


def identity_channel(dim: int = 2) -> KrausChannel:
    """The do-nothing channel."""
    return KrausChannel(ops=(np.eye(dim, dtype=complex),), kind="identity", r=0.0)


def pd_flip(rho, r: float) -> np.ndarray:
    """Phase-flip form of dephasing: r Z rho Z + (1 - r) rho, r in [0, 1/2].

    Leaves populations untouched and scales coherences by (1 - 2r).
    """
    check_prob(r, "r", hi=0.5)
    rho = as_matrix(rho, "rho")
    return r * (PAULI_Z @ rho @ PAULI_Z) + (1 - r) * rho


def pd_lambda_to_r(lam: float) -> float:
    """Kick-angle form: a +/- lam kick about z equals a phase flip with r = sin^2(lam/2)."""
    return float(np.sin(lam / 2) ** 2)


def flip_to_kraus_r(r_flip: float) -> float:
    """Convert flip probability (pd_flip) to Kraus damping probability (pd_kraus).

    Coherences scale by (1 - 2 r_flip) in the flip form and sqrt(1 - r) in
    the Kraus form, so r = 1 - (1 - 2 r_flip)^2.
    """
    check_prob(r_flip, "r_flip", hi=0.5)
    return 1.0 - (1.0 - 2.0 * r_flip) ** 2


def pd_kraus(r: float) -> KrausChannel:
    """Dephasing Kraus pair A0 = diag(1, sqrt(1-r)), A1 = diag(0, sqrt(r))."""
    check_prob(r, "r")
    a0 = np.diag([1, np.sqrt(1 - r)]).astype(complex)
    a1 = np.diag([0, np.sqrt(r)]).astype(complex)
    return KrausChannel(ops=(a0, a1), kind="pd", r=r)


@_memoized
def ad_kraus(r: float) -> KrausChannel:
    """Amplitude damping: A0 = diag(1, sqrt(1-r)), A1 = sqrt(r)|0><1|."""
    check_prob(r, "r")
    a0 = np.diag([1, np.sqrt(1 - r)]).astype(complex)
    a1 = np.array([[0, np.sqrt(r)], [0, 0]], dtype=complex)
    return KrausChannel(ops=(a0, a1), kind="ad", r=r)


def ad_rate_to_r(gamma: float, t: float) -> float:
    """Decay-rate form: sqrt(1-r) = exp(-gamma t), so r = 1 - exp(-2 gamma t)."""
    if gamma < 0 or t < 0:
        raise ValueError(f"gamma and t must be nonnegative, got {gamma}, {t}")
    return 1.0 - math.exp(-2.0 * gamma * t)


def make_channel(kind: str, r: float) -> KrausChannel:
    """Construct a channel by name: 'pd', 'ad' or 'identity'."""
    kind = kind.lower()
    if kind == "pd":
        return pd_kraus(r)
    if kind == "ad":
        return ad_kraus(r)
    if kind == "identity":
        return identity_channel()
    raise ValueError(f"unknown channel kind {kind!r}")


def apply_channel(rho, ch: KrausChannel) -> np.ndarray:
    """sum_i A_i rho A_i^t with silent renormalization of trace drift <= 1e-12."""
    rho = as_matrix(rho, "rho")
    if rho.shape[0] != ch.dim:
        raise ValueError(f"dimension mismatch: state {rho.shape[0]}, channel {ch.dim}")
    return _apply_kraus(rho, ch.stack)


def _apply_kraus(rho, stack) -> np.ndarray:
    """apply_channel's sum on one state (d, d) for Kraus stacks (..., k, d, d),
    (..., d, d): each output is summed over k in order from Python sum's zero
    start, and renormalized when its trace drifts by at most TRACE_DRIFT_ATOL."""
    terms = stack @ rho @ stack.conj().swapaxes(-1, -2)
    out = sum(terms[..., k, :, :] for k in range(stack.shape[-3]))
    if out.shape == (2, 2):   # one qubit state: the same test in scalar arithmetic
        (a, _), (_, d) = rho.tolist()
        (a_out, _), (_, d_out) = out.tolist()
        # + 0.0 makes a zero trace +0.0, as np.trace does; its sign reaches the scale factor
        tr_in, tr_out = a.real + d.real + 0.0, a_out.real + d_out.real
        drift = abs(tr_out - tr_in)
        if drift > TRACE_DRIFT_ATOL:
            raise ValueError(f"trace drift {drift} exceeds {TRACE_DRIFT_ATOL}")
        return out * (tr_in / tr_out) if tr_out > 0 and drift > 0 else out
    tr_in, tr_out = rho.trace().real, out.trace(axis1=-2, axis2=-1).real
    drift = np.abs(tr_out - tr_in)
    if (drift > TRACE_DRIFT_ATOL).any():
        raise ValueError(f"trace drift {drift.max()} exceeds {TRACE_DRIFT_ATOL}")
    fix = (tr_out > 0) & (drift > 0)
    if fix.any():
        out[fix] = out[fix] * (tr_in / tr_out)[fix][..., None, None]
    return out


def ad_unravel(rho, r: float) -> BranchEnsemble:
    """Split amplitude damping into its no-jump (A0) and jump (A1) trajectories.

    Branch states are unnormalized; their weights sum to Tr(rho) and their
    sum equals the full channel output.
    """
    check_prob(r, "r")
    rho = as_matrix(rho, "rho")
    if rho.shape[0] != 2:
        raise ValueError("ad_unravel expects a single-qubit state")
    a0, a1 = ad_kraus(r).ops
    return BranchEnsemble(branches=(
        Branch(label="no-jump", state=a0 @ rho @ dagger(a0)),
        Branch(label="jump", state=a1 @ rho @ dagger(a1)),
    ))


def lift_local(ch: KrausChannel, qubit: int) -> KrausChannel:
    """Tensor a single-qubit channel with identity on the other qubit.

    qubit 1 is the left tensor factor in the fixed 00,01,10,11 basis order.
    """
    if ch.dim != 2:
        raise ValueError("lift_local expects a single-qubit channel")
    if qubit == 1:
        ops = tuple(_kron(a, ID2) for a in ch.ops)
    elif qubit == 2:
        ops = tuple(_kron(ID2, a) for a in ch.ops)
    else:
        raise ValueError(f"qubit must be 1 or 2, got {qubit}")
    return KrausChannel(ops=ops, kind=ch.kind, r=ch.r)
