"""Small fixed-size complex matrix algebra, qubit states and metrics.

Everything here works on numpy arrays (complex128) of dimension 2 or 4. Density
matrices are validated Hermitian, unit-trace and positive semidefinite (a 2x2
state's smallest eigenvalue in closed form). Hermitian matrices are diagonalized
by one Jacobi rotation (2x2) or LAPACK once per distinct 4x4 matrix, only where
eigenvectors are used: square roots (a fidelity input's is cached) and
non-diagonal measurement complements. _memoized caches the operator factories.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# entrywise tolerances for state validation
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10     # eigenvalues in [floor, 0) are numeric drift
PURITY_PURE_THRESHOLD = 1 - 1e-10
FACTORY_CACHE_SIZE = 8   # results each memoized stage-operator factory keeps

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


def _read_only(obj):   # obj, with the arrays it holds (in tuples, dataclasses) read-only
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    for x in obj if isinstance(obj, tuple) else getattr(obj, "__dict__", {}).values():
        _read_only(x)
    return obj


def _memoized(build):
    """build behind a bounded lru_cache of read-only results, keyed by type, value and sign."""
    cached = functools.lru_cache(FACTORY_CACHE_SIZE, typed=True)(   # -0.0 builds other bits
        lambda signs, /, *a, **kw: _read_only(build(*a, **kw)))

    @functools.wraps(build)
    def factory(*a, **kw):
        try:
            return cached(tuple(math.copysign(1, v) for v in (*a, *kw.values())), *a, **kw)
        except TypeError:   # unhashable or not a number; build raises its own TypeError again
            return build(*a, **kw)
    return factory


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


def check_prob(value: float, name: str, hi: float = 1.0):
    """Reject a probability-like parameter outside [0, hi]."""
    if not 0.0 <= value <= hi:
        raise ValueError(f"{name} must be in [0, {hi:g}], got {value}")


def check_density(rho, name: str = "rho") -> np.ndarray:
    """Validate a density matrix: Hermitian, trace 1, positive semidefinite."""
    rho = as_matrix(rho, name)
    if np.abs(rho - dagger(rho)).max() > HERMITICITY_ATOL:
        raise ValueError(f"{name} is not Hermitian within {HERMITICITY_ATOL}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"{name} has trace {tr}, expected 1")
    if rho.shape[0] == 2:   # the symmetrized matrix's smallest eigenvalue
        (a, b), (c, d) = rho.tolist()
        low = (a.real + d.real) / 2 - math.hypot((a.real - d.real) / 2, abs(b + c.conjugate()) / 2)
    else:
        low = _eig_core(0.5 * (rho + dagger(rho)))[0][-1]
    if low < EIGENVALUE_FLOOR:
        raise ValueError(f"{name} has negative eigenvalue {low}")
    return rho


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2), 1 for pure states."""
    return float(np.real(np.trace(rho @ rho)))


class BlochVector(NamedTuple):
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class InitialState:
    """Input state |psi> = cos(alpha/2)|+> + e^{i phi} (pair_sign) sin(alpha/2)|->.

    alpha in [0, pi/2] and phi in [0, 2 pi) place the state anywhere on the
    Bloch sphere octant swept in the comparison study; pair_sign selects a
    member of the nonorthogonal pair.
    """

    alpha: float
    phi: float = 0.0
    pair_sign: int = +1

    def __post_init__(self):
        if not 0.0 <= self.alpha <= np.pi / 2 + 1e-15:
            raise ValueError(f"alpha must be in [0, pi/2], got {self.alpha}")
        if not 0.0 <= self.phi < 2 * np.pi:
            raise ValueError(f"phi must be in [0, 2*pi), got {self.phi}")
        if self.pair_sign not in (+1, -1):
            raise ValueError(f"pair_sign must be +1 or -1, got {self.pair_sign}")

    def ket(self) -> np.ndarray:
        return (np.cos(self.alpha / 2) * KET_PLUS
                + self.pair_sign * np.exp(1j * self.phi) * np.sin(self.alpha / 2) * KET_MINUS)


def state_from_angles(s: InitialState) -> np.ndarray:
    """Pure density matrix |psi><psi| for the given angles."""
    return projector(s.ket())


def bloch_to_density(b) -> np.ndarray:
    """rho = 1/2 [[1+z, x+iy], [x-iy, 1-z]] for a Bloch vector inside the unit ball."""
    x, y, z = (float(v) for v in b)
    if x * x + y * y + z * z > 1 + 1e-12:
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
    matching columns) such that m = V diag(w) V^dagger. 4x4 uses LAPACK,
    cached by the matrix's bytes and copied out; 2x2 uses one Jacobi rotation
    (Golub & Van Loan, sec. 8.5), whose exact eigenvector bits decide the
    round-off tie-breaks that the pinned fig6 and sweep outputs record.
    """
    m = as_matrix(m, "m")
    if np.abs(m - dagger(m)).max() > 1e-10:
        raise ValueError("eig_hermitian requires a Hermitian matrix")
    return _eig_core(0.5 * (m + dagger(m)))   # symmetrize away roundoff


def _eig_core(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eig_hermitian of an already validated, exactly Hermitian matrix."""
    if a.shape[0] == 4:
        return tuple(x.copy() for x in _eigh4(a.tobytes()))
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


@functools.lru_cache(maxsize=8)   # a two-qubit state's check also serves its square root
def _eigh4(a_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(np.frombuffer(a_bytes, dtype=complex).reshape(4, 4))
    return _read_only((w[::-1], v[:, ::-1]))   # descending read-only views


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


def _sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    w, v = eig_hermitian(rho)
    w = _clip_spectrum(w, "matrix square root input")
    return (v * np.sqrt(w)) @ dagger(v)


@functools.lru_cache(maxsize=8)   # the run_* pipelines compare many outputs with one input
def _input_root(rho_bytes: bytes, dim: int) -> np.ndarray:
    return _read_only(_sqrtm_psd(np.frombuffer(rho_bytes, dtype=complex).reshape(dim, dim)))


def _fidelity_general(rho_in: np.ndarray, rho_f: np.ndarray) -> float:
    """Tr sqrt(sqrt(rho_in) rho_f sqrt(rho_in)) without the purity shortcut."""
    root = _input_root(rho_in.tobytes(), len(rho_in))
    w, _ = eig_hermitian(root @ rho_f @ root)
    w = _clip_spectrum(w, "fidelity inner matrix")
    return min(1.0, float(np.sum(np.sqrt(w))))


def fidelity(rho_in, rho_f) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho_in) rho_f sqrt(rho_in)).

    For a pure rho_in this reduces to sqrt(<psi|rho_f|psi>), which is used
    whenever Tr(rho_in^2) >= 1 - 1e-10.
    """
    return _fidelity(check_density(rho_in, "rho_in"), rho_f)


def _fidelity(rho_in: np.ndarray, rho_f) -> float:
    """fidelity against an already validated rho_in; rho_f is validated here."""
    rho_f = check_density(rho_f, "rho_f")
    if rho_in.shape != rho_f.shape:
        raise ValueError(f"dimension mismatch: {rho_in.shape} vs {rho_f.shape}")
    if purity(rho_in) >= PURITY_PURE_THRESHOLD:
        overlap = float(np.real(np.trace(rho_in @ rho_f)))
        if overlap < EIGENVALUE_FLOOR:
            raise ValueError(f"negative overlap {overlap} beyond tolerance")
        return min(1.0, np.sqrt(max(overlap, 0.0)))
    return _fidelity_general(rho_in, rho_f)


def concurrence(rho) -> float:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4}.

    The l_i are the descending square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), computed here through the Hermitian
    equivalent sqrt(rho) rho_tilde sqrt(rho) so only a Hermitian
    eigensolver is needed.
    """
    rho = check_density(rho)
    if rho.shape[0] != 4:
        raise ValueError("concurrence is defined for two-qubit states (dim 4)")
    rho_tilde = _SY_SY @ rho.conj() @ _SY_SY
    root = _sqrtm_psd(rho)
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
    """np.kron of two 2x2 arrays: the same broadcast product, without its set-up."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)
