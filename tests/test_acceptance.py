"""Acceptance suite: one test (or test group) per criterion, each printing a
PASS/FAIL line at its stated tolerance.

The comparison-surface criteria drive the real CLI on the default grids and
parse the emitted CSV files; everything else exercises the library API
directly against independently computed expectations.
"""

import gzip
import time
from pathlib import Path

import numpy as np
import pytest

from decoguard import cli
from decoguard.channels import ad_kraus, ad_unravel, apply_channel, flip_to_kraus_r, pd_flip, pd_kraus
from decoguard.measurements import povm_axis, povm_generalized, pre_wm_pair, rotation
from decoguard.qmath import (
    InitialState,
    PAULI_Y,
    concurrence,
    density_to_bloch,
    fidelity,
    projector,
    state_from_angles,
)
from decoguard.schemes import (
    matched_post_wm_strength,
    matched_qmr_strength,
    run_ent_wmqmr,
    run_qffc_ps,
    run_wmqmr,
)

THETA_GRID = np.linspace(0, np.pi / 2, 31)
BETA_GRID = np.linspace(0, 2 * np.pi, 8, endpoint=False)
BELL = projector(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
RHO_PLUS = 0.5 * np.ones((2, 2), dtype=complex)


def _report(name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {name} failed {tail}"


def random_states(n, seed):
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        alpha, phi = rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi)
        if rng.choice([-1, 1]) == -1:   # the nonorthogonal pair's other member
            phi = (phi + np.pi) % (2 * np.pi)
        states.append(state_from_angles(InitialState(alpha=alpha, phi=phi)))
    return states


def test_criterion_1_channel_algebra():
    t0 = time.perf_counter()
    ok = True
    detail = []
    rng = np.random.default_rng(101)
    for rho in random_states(100, 102):
        r = rng.uniform(0, 1)
        before = density_to_bloch(rho)
        after = density_to_bloch(apply_channel(rho, pd_kraus(r)))
        ok &= abs(after.z - before.z) < 1e-12
        ok &= abs(after.x - before.x * np.sqrt(1 - r)) < 1e-12
        ok &= abs(after.y - before.y * np.sqrt(1 - r)) < 1e-12

        ens = ad_unravel(rho, r)
        total = sum(b.state for b in ens.branches)
        ok &= np.abs(total - apply_channel(rho, ad_kraus(r))).max() < 1e-12

        r1 = rng.uniform(0, 0.5)
        ok &= np.abs(pd_flip(rho, r1)
                     - apply_channel(rho, pd_kraus(flip_to_kraus_r(r1)))).max() < 1e-12
    elapsed = time.perf_counter() - t0
    detail.append(f"100 states, {elapsed:.2f}s")
    ok &= elapsed < 1.0
    _report("1 channel-algebra", ok, "; ".join(detail))


def test_criterion_2_operator_completeness():
    t0 = time.perf_counter()
    ok = True
    eye = np.eye(2)
    for theta in THETA_GRID:
        for axis in ("x", "y", "z"):
            pair = povm_axis(axis, theta)
            total = sum(m.conj().T @ m for m in pair.ops)
            ok &= np.abs(total - eye).max() < 1e-12
        for beta in BETA_GRID:
            pair = povm_generalized(theta, beta)
            total = sum(m.conj().T @ m for m in pair.ops)
            ok &= np.abs(total - eye).max() < 1e-12
        pair = pre_wm_pair(float(np.cos(theta / 2) ** 2))
        total = sum(m.conj().T @ m for m in pair.ops)
        ok &= np.abs(total - eye).max() < 1e-12
        for axis in ("x", "y", "z"):
            for sign in (+1, -1):
                m = rotation(axis, sign * theta)
                ok &= np.abs(m.conj().T @ m - eye).max() < 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report("2 operator-completeness", ok, f"31x(3+8+1) pairs + rotations, {elapsed:.2f}s")


def test_criterion_3_exact_reversal():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    pairs = [(0.2, 0.3), (0.5, 0.5), (0.8, 0.2), (0.3, 0.9), (0.9, 0.7)]
    states = random_states(50, 103)
    for p1, r in pairs:
        p2 = matched_qmr_strength(p1, r)
        for rho in states:
            res = run_wmqmr(rho, r=r, p1=p1, p2=p2, no_jump_only=True)
            worst = max(worst, abs(res.fidelity - 1.0))
    ok &= worst < 1e-9
    worst_ps = 0.0
    for p in (0.5, 0.7, 0.9):
        matched = matched_post_wm_strength(p)
        for rho in states[:20]:
            res = run_qffc_ps(rho, r=0.0, p=p, p_u=matched, p_v=matched)
            worst_ps = max(worst_ps, abs(res.fidelity - 1.0))
    ok &= worst_ps < 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report("3 exact-reversal", ok,
            f"wmqmr dev {worst:.2e}, qffc_ps dev {worst_ps:.2e}, {elapsed:.2f}s")


def test_criterion_4_metrics():
    t0 = time.perf_counter()
    ok = True
    damped = apply_channel(RHO_PLUS, pd_kraus(0.5))
    expected = np.sqrt((1 + np.sqrt(0.5)) / 2)
    ok &= abs(fidelity(RHO_PLUS, damped) - expected) < 1e-9
    ok &= abs(expected - 0.923880) < 1e-6

    def oracle(rho):
        sysy = np.kron(PAULI_Y, PAULI_Y)
        lam = np.sqrt(np.abs(np.sort(np.linalg.eigvals(
            rho @ sysy @ rho.conj() @ sysy).real)[::-1]))
        return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])

    cases = [(BELL, 1.0), (np.diag([1.0, 0, 0, 0]).astype(complex), 0.0),
             (0.5 * BELL + 0.5 * np.eye(4) / 4, 0.25)]
    for rho, want in cases:
        ok &= abs(concurrence(rho) - want) < 1e-9
        ok &= abs(oracle(rho) - want) < 1e-9
        ok &= abs(concurrence(rho) - oracle(rho)) < 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report("4 metric-correctness", ok, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# comparison surfaces (criteria 5 and 7) — one full default-grid CLI run each
# ---------------------------------------------------------------------------

PHI_TAGS = {"0pi": 0.0, "0.25pi": np.pi / 4, "0.5pi": np.pi / 2}


def _load_surfaces(outdir: Path):
    surfaces = {}
    for path in sorted(outdir.glob("fig6_*.csv")):
        noise, tag = path.stem.split("_")[1], path.stem.split("phi")[1]
        lines = path.read_text().splitlines()
        rows = [ln.split(",") for ln in lines[1:]]
        surfaces[(noise, PHI_TAGS[tag])] = {
            "alpha": np.array([float(r[0]) for r in rows]),
            "r": np.array([float(r[2]) for r in rows]),
            "f_qfbc": np.array([float(r[4]) for r in rows]),
            "f_qffc": np.array([float(r[5]) for r in rows]),
            "f_diff": np.array([float(r[6]) for r in rows]),
            "raw": path.read_bytes(),
            "name": path.name,
        }
    return surfaces


@pytest.fixture(scope="module")
def fig6_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fig6_run1")
    t0 = time.perf_counter()
    code = cli.main(["fig6", "--outdir", str(outdir)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    return {"surfaces": _load_surfaces(outdir), "elapsed": elapsed,
            "outdir": outdir}


def test_criterion_5a_f_diff_floor(fig6_run):
    mins = {key: surf["f_diff"].min() for key, surf in fig6_run["surfaces"].items()}
    ok = len(mins) == 6 and all(v >= -0.01 for v in mins.values())
    _report("5a f_diff >= -0.01", ok,
            f"min over all surfaces {min(mins.values()):+.5f}")


def test_criterion_5b_zero_at_r0(fig6_run):
    worst = 0.0
    for surf in fig6_run["surfaces"].values():
        at0 = np.abs(surf["f_diff"][surf["r"] == 0.0])
        worst = max(worst, at0.max())
    _report("5b f_diff(r=0) = 0 within 1e-12", worst < 1e-12, f"max {worst:.2e}")


# The CSV prints 12 significant digits, and two of the 5c floors are met
# with equality, so a bound is allowed this much round-off.
CSV_ROUND_OFF = 1e-12


def _large_r_bounds(noise: str, phi: float, r: float) -> tuple[float, float]:
    """(floor, ceiling) of max_alpha f_diff at damping r for phi in
    {pi/4, pi/2}, in closed form; the derivation is in
    test_criterion_5c_large_r_band."""
    c = np.sqrt(1 - r)
    ceiling = 1 - np.sqrt(0.5)
    if phi == np.pi / 2:
        return 1 - np.sqrt((1 + c) / 2), ceiling
    u = np.sqrt(0.5)
    z_damped = (1 - r) * u + r if noise == "ad" else u
    q0 = (1 + z_damped) / 2
    f_qfbc = np.sqrt(q0 + (1 - q0) * (1 + u) / 2)
    overlap = (1 - r) + np.sqrt(1 - r + r * r) if noise == "ad" else 1 + c
    f_qffc = np.sqrt((1 + u * u * overlap) / 2)
    return f_qfbc - f_qffc, ceiling


def test_criterion_5c_large_r_band(fig6_run):
    # Stated band [0.4, 0.55] for max_alpha f_diff at the largest r, for
    # phi in {pi/4, pi/2}. Under the square-root fidelity convention this is
    # unattainable: the feed-forward grid always contains the do-nothing
    # point (p = 1/2, eta = 0), so F_qffc >= sqrt(1/2) and
    # f_diff <= 1 - sqrt(1/2) = 0.293 for any feedback search space (proof
    # under "Ceiling" below). The band belongs to the squared convention
    # <psi|rho|psi>, and there the phi = pi/4 peaks (0.250 ad, 0.221 pd)
    # miss it too. So each (noise, phi) peak is checked against the bounds
    # the documented schemes provably meet at r = 0.999.
    #
    # Notation: rho = (I + b.sigma)/2, c = sqrt(1 - r), d = 2p - 1. For a pure
    # input, F^2 = <psi|rho_out|psi> = (1 + b_in.b_out)/2. The grids hold
    # theta = 0, theta = pi/2 (p = 1/2), eta = 0, pi/4, pi/2 and alpha = pi/2.
    #
    # Ceiling, every cell: 1 - sqrt(1/2) = 0.292893. At p = 1/2, eta = 0 both
    # pre-measurement operators are I/sqrt(2), and the output is
    # (E(rho) + X E(X rho X) X)/2. This scales b_in componentwise by
    # (c, c, 1 - r) for ad and (c, c, 1) for pd, all >= 0. So b_in.b_out >= 0,
    # F_qffc >= sqrt(1/2), and with F_qfbc <= 1, f_diff <= 1 - sqrt(1/2).
    #
    # Floors come from the cell alpha = pi/2, which the alpha-maximum is at
    # least: an on-grid feedback control bounds F_qfbc from below, and a
    # bound on every feed-forward output bounds F_qffc from above.
    # Feed-forward branch i (M_i, flip F_i, channel, F_i) keeps the
    # y-coherence sqrt(p(1-p)) c y_in. So the output has
    # y_out = c sqrt(1 - d^2) y_in, and the y rotations leave y unchanged.
    #
    # Floor, phi = pi/2: 1 - sqrt((1 + c)/2) = 0.281800. The input is
    # |-i> = (|0> - i|1>)/sqrt(2), b_in = (0, +-1, 0). A projective z
    # measurement (theta = 0) followed by x rotations +-pi/2 prepares |-i>
    # from either outcome, so F_qfbc = 1. For feed-forward,
    # b_in.b_out = y_in y_out <= c, with equality at p = 1/2, eta = 0. So
    # F_qffc = sqrt((1 + c)/2), and f_diff equals the floor on both channels.
    #
    # Floor, phi = pi/4: 0.133892 (ad), 0.118641 (pd). The input is
    # b_in = (0, +-u, u) with u = 1/sqrt(2).
    # - Feedback: theta = 0, z measurement, x rotations +pi/4 and -pi/2.
    #   Outcome |0>, of probability q0 = (1 + z_e)/2, is turned onto the
    #   input; outcome |1> is turned onto the input's side of the y axis,
    #   with F^2 = (1 + u)/2. The damped z is z_e = (1 - r) u + r (ad) or
    #   u (pd). So F_qfbc^2 >= q0 + (1 - q0)(1 + u)/2.
    # - Feed-forward: before the rotation, branch i has weight
    #   t_i = (1 +- d u)/2 and x = 0. Its z is (u +- d)/2 before the
    #   channel. Through the flips, ad maps these z to (1 - r) z_1 + r t_1
    #   and (1 - r) z_2 - r t_2, and pd keeps them. A y rotation by +-eta
    #   turns (0, z_i) into (+-z_i sin eta, z_i cos eta), and b_in has x = 0.
    #   So u z_out <= u^2 |(1 - r) + r d| for ad and u^2 for pd.
    #   Adding y_in y_out = u^2 c sqrt(1 - d^2): for ad,
    #   b_in.b_out <= u^2 ((1 - r) + c sqrt(1 - d^2) + r |d|)
    #   <= u^2 ((1 - r) + sqrt(1 - r + r^2)), by Cauchy-Schwarz on
    #   (c, r).(sqrt(1 - d^2), |d|); for pd, b_in.b_out <= u^2 (1 + c),
    #   with equality at p = 1/2, eta = 0. These bounds give
    #   F_qffc <= 0.866098 (ad) and 0.870578 (pd). The y-coherence bound
    #   alone, sqrt((1 + sqrt(1 - u^2) + c u^2)/2) = 0.928148, gives floors
    #   of only 0.0718 (ad) and 0.0611 (pd), which a feedback search without
    #   x rotations (pd peak 0.095) would still pass.
    ok = True
    details = []
    for (noise, phi), surf in sorted(fig6_run["surfaces"].items()):
        if phi == 0.0:
            continue
        rmax = surf["r"].max()
        at_rmax = surf["r"] == rmax
        peak = surf["f_diff"][at_rmax].max()
        peak_squared = (surf["f_qfbc"][at_rmax] ** 2 - surf["f_qffc"][at_rmax] ** 2).max()
        floor, ceiling = _large_r_bounds(noise, phi, rmax)
        details.append(f"{noise} phi={phi:.3f}: {peak:.6f} in [{floor:.6f}, "
                       f"{ceiling:.6f}], squared {peak_squared:.3f}")
        ok &= floor - CSV_ROUND_OFF <= peak <= ceiling + CSV_ROUND_OFF
    _report("5c large-r peak within proven bounds", ok, "; ".join(details))


def test_criterion_5d_phi0_alpha_trend(fig6_run):
    # Stated ordering: at phi = 0, r = 0.5 the surface should be smaller
    # near alpha = pi/2 than near alpha = 0 (compared at the interior grid
    # points adjacent to each endpoint). The computed surface is a bump
    # that vanishes at both endpoints and is skewed toward pi/2, so the
    # stated ordering does not hold.
    # - ad: inverted on every control grid tried, from pi/60 to pi/480
    #   steps. On the default pi/60 grid the values are 2.0e-4 near 0 and
    #   3.7e-4 near pi/2; with pi/480 steps they are 2.5e-4 and 3.7e-4.
    # - pd: 1.93e-4 near 0 and 1.97e-4 near pi/2 on the default grid, a
    #   difference of 4e-6. With pi/480 steps they are 2.51e-4 and 1.83e-4:
    #   refining moves them by up to 6e-5 and reverses their order.
    # Whether the criterion or the model is wrong turns on the paper's
    # state parametrization. InitialState puts |+> at alpha = 0 and |0> at
    # alpha = pi/2. At phi = 0 the mirrored convention (|0> at alpha = 0)
    # reverses the surface in alpha and meets the ordering on the default
    # grid, but it would change the pinned fig6 surfaces. Until the paper's
    # Fig. 6 or its parametrization is at hand, the criterion stays as
    # stated and fails.
    ok = True
    details = []
    for noise in ("ad", "pd"):
        surf = fig6_run["surfaces"][(noise, 0.0)]
        alphas = np.unique(surf["alpha"])
        sel = np.isclose(surf["r"], 0.5)
        near0 = surf["f_diff"][sel & np.isclose(surf["alpha"], alphas[1])][0]
        near_half_pi = surf["f_diff"][sel & np.isclose(surf["alpha"], alphas[-2])][0]
        details.append(f"{noise}: near0={near0:.2e} nearPi/2={near_half_pi:.2e}")
        ok &= near_half_pi < near0
    _report("5d phi=0 alpha ordering", ok, "; ".join(details))


REF_FULL = Path(__file__).resolve().parents[1] / "perfbench" / "ref" / "full"


def test_default_grid_matches_golden(fig6_run):
    # pins the default-grid argmax columns (eta_opt, p_opt) byte for byte against
    # the benchmark's reference tables, which perfbench/make_refs.py writes
    assert len(fig6_run["surfaces"]) == 6
    for surf in fig6_run["surfaces"].values():
        golden = gzip.decompress((REF_FULL / f"{surf['name']}.gz").read_bytes())
        assert surf["raw"] == golden, surf["name"]


def test_criterion_5_runtime(fig6_run):
    elapsed = fig6_run["elapsed"]
    _report("5 runtime < 300s", elapsed < 300.0, f"{elapsed:.1f}s")


def test_criterion_6_entanglement_protection():
    t0 = time.perf_counter()
    unprotected = run_ent_wmqmr(BELL, r1=0.6, r2=0.6, p1=0.0, p2=0.0)
    protected = run_ent_wmqmr(BELL, r1=0.6, r2=0.6, p1=0.8)
    ok = protected.concurrence > unprotected.concurrence
    ok &= protected.success_prob < 1.0
    succ = [run_ent_wmqmr(BELL, r1=0.6, r2=0.6, p1=p1).success_prob
            for p1 in np.linspace(0.0, 0.9, 10)]
    ok &= all(a >= b - 1e-12 for a, b in zip(succ, succ[1:]))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report("6 entanglement-protection", ok,
            f"C {unprotected.concurrence:.3f} -> {protected.concurrence:.3f}, "
            f"success {protected.success_prob:.3f}, {elapsed:.2f}s")


def test_criterion_7_determinism(fig6_run, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fig6_run2")
    code = cli.main(["fig6", "--outdir", str(outdir)])
    assert code == 0
    second = _load_surfaces(outdir)
    ok = True
    for key, surf in fig6_run["surfaces"].items():
        ok &= second[key]["raw"] == surf["raw"]
    _report("7 bitwise-determinism", ok, "6 CSV files compared")
