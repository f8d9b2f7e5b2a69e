"""Small fixed-size complex matrix algebra, qubit states and metrics.

Everything here works on numpy arrays (complex128) of dimension 2 or 4. Density
matrices are validated Hermitian, unit-trace and positive semidefinite. Every
check of a 2x2 matrix (finite entries, Hermitian, trace, smallest eigenvalue in
closed form), and a 2x2's purity and mixed-input fidelity, run in scalar
arithmetic on its entries; a 4x4 one is checked in numpy and LAPACK, with the
same messages. Hermitian matrices are diagonalized by one Jacobi rotation (2x2)
or LAPACK (4x4), only where eigenvectors are used: a 4x4 state's square root
(from the decomposition that checked it, so LAPACK runs once per distinct 4x4
matrix) and the complements of measurement operators that are not real diagonal
2x2s.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# entrywise tolerances for state validation
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10     # eigenvalues in [floor, 0) are numeric drift
PURITY_PURE_THRESHOLD = 1 - 1e-10

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
KET_PLUS_I = np.array([1, 1j], dtype=complex) / np.sqrt(2)
KET_MINUS_I = np.array([1, -1j], dtype=complex) / np.sqrt(2)

_SY_SY = np.kron(PAULI_Y, PAULI_Y)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def projector(ket: np.ndarray) -> np.ndarray:
    """|k><k| for a (not necessarily normalized) state vector."""
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex array of dimension 2 or 4 with finite entries."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] not in (2, 4):
        raise ValueError(f"{name} must have dimension 2 or 4, got {m.shape[0]}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def _entries(m, name: str = "matrix") -> tuple[np.ndarray, list | None]:
    """as_matrix(m, name), and a 2x2's entries [[a, b], [c, d]] as Python complex numbers
    (None for 4x4): a 2x2 passes the same checks, in scalar arithmetic, with the same messages."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        return as_matrix(m, name), None
    e = m.tolist()
    if not all(map(cmath.isfinite, e[0] + e[1])):
        raise ValueError(f"{name} has non-finite entries")
    return m, e


def _asymmetry(m: np.ndarray, e: list | None) -> float:
    """max |m - m^dagger| over the entries, from a 2x2's entries e (_entries) if given."""
    if e is None:
        return np.abs(m - dagger(m)).max()
    (a, b), (c, d) = e
    return max(abs(a - a.conjugate()), abs(b - c.conjugate()), abs(d - d.conjugate()))


def check_prob(value: float, name: str, hi: float = 1.0):
    """Reject a probability-like parameter outside [0, hi]."""
    if not 0.0 <= value <= hi:
        raise ValueError(f"{name} must be in [0, {hi:g}], got {value}")


def check_density(rho, name: str = "rho") -> np.ndarray:
    """Validate a density matrix: Hermitian, trace 1, positive semidefinite.

    A 2x2 is checked in scalar arithmetic on its four entries and a 4x4 in numpy
    (its eigenvalues by LAPACK); both raise the same messages, in the same order."""
    return _checked_density(rho, name)[0]


def _checked_density(rho, name: str = "rho") -> tuple[np.ndarray, tuple | None]:
    """check_density's matrix, with the (w, v) that bounded a 4x4 one's eigenvalues (None for
    2x2): eig_hermitian's bits, which its square root and metrics reuse."""
    rho, e = _entries(rho, name)
    if _asymmetry(rho, e) > HERMITICITY_ATOL:
        raise ValueError(f"{name} is not Hermitian within {HERMITICITY_ATOL}")
    tr = np.trace(rho) if e is None else e[0][0] + e[1][1]
    if abs(tr - 1.0) > TRACE_ATOL:   # the message prints np.trace's bits, zero signs included
        raise ValueError(f"{name} has trace {np.trace(rho)}, expected 1")
    eig = None
    if e is not None:   # the symmetrized matrix's smallest eigenvalue
        (a, b), (c, d) = e
        low = (a.real + d.real) / 2 - math.hypot((a.real - d.real) / 2, abs(b + c.conjugate()) / 2)
    else:
        low = (eig := _eig_core(0.5 * (rho + dagger(rho))))[0][-1]
    if low < EIGENVALUE_FLOOR:
        raise ValueError(f"{name} has negative eigenvalue {low}")
    return rho, eig


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2), 1 for pure states; a 2x2's from its four entries."""
    if rho.shape != (2, 2):
        return float(np.real(np.trace(rho @ rho)))
    (a, b), (c, d) = rho.tolist()
    return (a * a + 2 * (b * c) + d * d).real


class BlochVector(NamedTuple):
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class InitialState:
    """Input state |psi> = cos(alpha/2)|+> + e^{i phi} sin(alpha/2)|->.

    alpha in [0, pi/2] and phi in [0, 2 pi) place the state anywhere on the
    Bloch sphere octant swept in the comparison study. The other member of
    the nonorthogonal pair is the state at phi + pi (mod 2 pi).
    """

    alpha: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= np.pi / 2 + 1e-15:
            raise ValueError(f"alpha must be in [0, pi/2], got {self.alpha}")
        if not 0.0 <= self.phi < 2 * np.pi:
            raise ValueError(f"phi must be in [0, 2*pi), got {self.phi}")

    def ket(self) -> np.ndarray:
        return (np.cos(self.alpha / 2) * KET_PLUS
                + np.exp(1j * self.phi) * np.sin(self.alpha / 2) * KET_MINUS)


def state_from_angles(s: InitialState) -> np.ndarray:
    """Pure density matrix |psi><psi| for the given angles."""
    return projector(s.ket())


def bloch_to_density(b) -> np.ndarray:
    """rho = 1/2 [[1+z, x+iy], [x-iy, 1-z]] for a Bloch vector inside the unit ball."""
    x, y, z = (float(v) for v in b)
    if not x * x + y * y + z * z <= 1 + 1e-12:  # NaN fails too
        raise ValueError(f"Bloch vector ({x}, {y}, {z}) lies outside the unit ball")
    return 0.5 * np.array([[1 + z, x + 1j * y], [x - 1j * y, 1 - z]], dtype=complex)


def density_to_bloch(rho) -> BlochVector:
    """Cartesian components x = 2 Re(rho01), y = 2 Im(rho01), z = 2 rho00 - 1."""
    rho = check_density(rho)
    if rho.shape[0] != 2:
        raise ValueError("Bloch vector is defined for single-qubit states only")
    return BlochVector(x=float(2 * rho[0, 1].real),
                       y=float(2 * rho[0, 1].imag),
                       z=float((rho[0, 0] - rho[1, 1]).real))


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a 2x2 or 4x4 Hermitian matrix.

    Returns (eigenvalues sorted descending, eigenvector matrix V with
    matching columns) such that m = V diag(w) V^dagger. 4x4 uses LAPACK; 2x2
    uses one Jacobi rotation (Golub & Van Loan, sec. 8.5), whose exact
    eigenvector bits decide the round-off tie-breaks that the pinned fig6 and
    sweep outputs record.
    """
    m, e = _entries(m, "m")
    if _asymmetry(m, e) > 1e-10:
        raise ValueError("eig_hermitian requires a Hermitian matrix")
    return _eig_core(0.5 * (m + dagger(m)))   # symmetrize away roundoff


def _eig_core(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eig_hermitian of an already validated, exactly Hermitian matrix."""
    if a.shape[0] == 4:
        w, v = np.linalg.eigh(a)
        return w[::-1].copy(), v[:, ::-1].copy()
    v = ID2
    b = abs(a[0, 1])
    if b > 1e-15 * max(1.0, float(np.abs(a).max())):
        phase = a[0, 1] / b
        # zero a[0,1]: tan(2 th) = 2|a_01| / (a_11 - a_00)
        th = 0.5 * np.arctan2(2 * b, (a[1, 1] - a[0, 0]).real)
        c, s = np.cos(th), np.sin(th)
        v = np.array([[c, s * phase], [-s * np.conj(phase), c]])
        a = dagger(v) @ a @ v
    w0, w1 = a[0, 0].real, a[1, 1].real
    if w1 > w0:   # descending; equal eigenvalues keep their order
        return np.array([w1, w0]), v[:, ::-1].copy()
    return np.array([w0, w1]), v.copy()


def _clip_spectrum(w: np.ndarray, what: str) -> np.ndarray:
    """Clip eigenvalues in [EIGENVALUE_FLOOR, 0) to 0; reject anything lower.

    Eigenvalues below the relative noise floor are zeroed as well: taking a
    square root amplifies O(eps) noise at zero to O(sqrt(eps)), which would
    otherwise dominate the metric error for (near-)pure states.
    """
    if w.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"{what} has eigenvalue {w.min()} below {EIGENVALUE_FLOOR}")
    w = w.clip(0.0, None)
    w[w < 1e-14 * max(1.0, float(w.max()))] = 0.0
    return w


def _sqrtm_psd(eig: tuple) -> np.ndarray:
    w, v = eig   # a 4x4 state's decomposition, from the check that validated it
    return (v * np.sqrt(_clip_spectrum(w, "matrix square root input"))) @ dagger(v)


def fidelity(rho_in, rho_f) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho_in) rho_f sqrt(rho_in)).

    A pure rho_in (Tr(rho_in^2) >= 1 - 1e-10) gives sqrt(<psi|rho_f|psi>), a
    mixed two-qubit one the matrix square root. A mixed qubit takes the closed
    form (Hubner 1992; Jozsa 1994): sqrt(rho_in) rho_f sqrt(rho_in) has
    eigenvalues hi >= lo with hi + lo = Tr(rho_in rho_f) and hi lo = det rho_in
    det rho_f, and F = sqrt(hi) + sqrt(lo), clipped as the optimizers' screen
    clips it (an overlap below EIGENVALUE_FLOOR raises, lo < 1e-14 max(1, hi)
    is zeroed, F <= 1).
    """
    rho_in, eig_in = _checked_density(rho_in, "rho_in")
    return _fidelity(rho_in, check_density(rho_f, "rho_f"), eig_in)


def _fidelity(rho_in: np.ndarray, rho_f: np.ndarray, eig_in: tuple | None = None) -> float:
    """fidelity of validated states, a mixed qubit's from their entries (eig_in: a 4x4's check)."""
    if rho_in.shape != rho_f.shape:
        raise ValueError(f"dimension mismatch: {rho_in.shape} vs {rho_f.shape}")
    if purity(rho_in) >= PURITY_PURE_THRESHOLD:
        overlap = float(np.real(np.trace(rho_in @ rho_f)))
        if overlap < EIGENVALUE_FLOOR:
            raise ValueError(f"negative overlap {overlap} beyond tolerance")
        return min(1.0, np.sqrt(max(overlap, 0.0)))
    if len(rho_in) == 4:
        root = _sqrtm_psd(eig_in)
        w, _ = eig_hermitian(root @ rho_f @ root)
        return min(1.0, float(np.sum(np.sqrt(_clip_spectrum(w, "fidelity inner matrix")))))
    (a, b), (c, d) = rho_in.tolist()
    (p, q), (u, v) = rho_f.tolist()
    overlap = (a * p + b * u + c * q + d * v).real
    if overlap < EIGENVALUE_FLOOR:
        raise ValueError(f"negative overlap {overlap} beyond tolerance")
    det = max((a * d - b * c).real, 0.0) * max((p * v - q * u).real, 0.0)
    hi = max(0.5 * (overlap + math.sqrt(max(overlap * overlap - 4 * det, 0.0))), 0.0)
    lo = det / hi if hi > 0 else 0.0
    lo = 0.0 if lo < 1e-14 * max(1.0, hi) else lo
    return min(1.0, math.sqrt(hi) + math.sqrt(lo))


def concurrence(rho) -> float:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4}.

    The l_i are the descending square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), computed here through the Hermitian
    equivalent sqrt(rho) rho_tilde sqrt(rho) so only a Hermitian
    eigensolver is needed.
    """
    rho, eig = _checked_density(rho)
    if rho.shape[0] != 4:
        raise ValueError("concurrence is defined for two-qubit states (dim 4)")
    return _concurrence(rho, eig)


def _concurrence(rho: np.ndarray, eig: tuple) -> float:
    """concurrence of a validated two-qubit rho, eig its _checked_density decomposition."""
    rho_tilde = _SY_SY @ rho.conj() @ _SY_SY
    root = _sqrtm_psd(eig)
    w, _ = eig_hermitian(root @ rho_tilde @ root)
    w = _clip_spectrum(w, "concurrence spectrum")
    lam = np.sqrt(w)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two single-qubit operators, basis order 00,01,10,11."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[0] != 2 or b.shape[0] != 2:
        raise ValueError("tensor expects two 2x2 operators")
    return _kron(a, b)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of 2x2 matrices, per pair of stacks (..., 2, 2): its broadcast product, no set-up."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], 4, 4)
