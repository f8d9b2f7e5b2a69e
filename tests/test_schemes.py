import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoguard import channels, measurements, qmath, schemes
from decoguard.channels import ad_kraus, identity_channel, lift_local, make_channel, pd_kraus
from decoguard.measurements import Branch, PartialMeasurement, qmr_map, wm_map
from decoguard.qmath import ID2, InitialState, bloch_to_density, projector, state_from_angles
from decoguard.schemes import (
    AD_ONLY_KINDS,
    SCHEME_KINDS,
    matched_post_wm_strength,
    matched_qmr_strength,
    pair_average_fidelity,
    run_composite,
    run_ent_wmqmr,
    run_qfbc,
    run_qffc_ps,
    run_qffc_rot,
    run_scheme,
    run_wmppf,
    run_wmqmr,
)
from test_optimize import _logging

RHO_0 = np.diag([1.0, 0.0]).astype(complex)
RHO_1 = np.diag([0.0, 1.0]).astype(complex)
BELL = projector(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def random_pure(rng):
    return state_from_angles(InitialState(alpha=rng.uniform(0, np.pi / 2),
                                          phi=rng.uniform(0, 2 * np.pi)))


class TestWmqmr:
    def test_all_identities(self):
        res = run_wmqmr(RHO_1, r=0.0, p1=0.0, p2=0.0)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert res.success_prob == pytest.approx(1.0, abs=1e-12)

    def test_no_jump_reversal_condition(self):
        rng = np.random.default_rng(21)
        pairs = [(0.2, 0.3), (0.5, 0.5), (0.8, 0.2), (0.3, 0.9), (0.9, 0.7)]
        for p1, r in pairs:
            p2 = matched_qmr_strength(p1, r)
            for _ in range(50):
                rho = random_pure(rng)
                res = run_wmqmr(rho, r=r, p1=p1, p2=p2, no_jump_only=True)
                assert abs(res.fidelity - 1.0) < 1e-9

    def test_matched_strength_is_default(self):
        rho = random_pure(np.random.default_rng(22))
        explicit = run_wmqmr(rho, r=0.4, p1=0.6, p2=matched_qmr_strength(0.6, 0.4))
        default = run_wmqmr(rho, r=0.4, p1=0.6)
        assert default.fidelity == pytest.approx(explicit.fidelity, abs=1e-15)

    def test_excited_state_bookkeeping(self):
        res = run_wmqmr(RHO_1, r=0.0, p1=0.5, p2=0.5)
        assert res.success_prob == pytest.approx(0.5, abs=1e-12)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_success_never_increases_with_strength(self):
        rho = state_from_angles(InitialState(alpha=0.8, phi=0.4))
        r = 0.5
        succ = [run_wmqmr(rho, r=r, p1=p1).success_prob
                for p1 in np.linspace(0, 0.95, 12)]
        assert all(a >= b - 1e-12 for a, b in zip(succ, succ[1:]))

    def test_branch_accounting(self):
        res = run_wmqmr(random_pure(np.random.default_rng(23)), r=0.3, p1=0.4)
        assert res.branches.total_weight == pytest.approx(1.0, abs=1e-12)
        assert res.branches.success_prob == pytest.approx(res.success_prob, abs=1e-14)


class TestQfbc:
    def test_do_nothing_limit_returns_damped_state(self):
        rho = state_from_angles(InitialState(alpha=0.7, phi=1.0))
        noise = ad_kraus(0.35)
        res = run_qfbc(rho, noise, theta=np.pi / 2, eta=0.0)
        from decoguard.channels import apply_channel
        assert np.abs(res.output_state - apply_channel(rho, noise)).max() < 1e-12

    def test_identity_noise_do_nothing_is_perfect(self):
        rho = state_from_angles(InitialState(alpha=0.3, phi=0.2))
        res = run_qfbc(rho, identity_channel(), theta=np.pi / 2, eta=0.0)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert res.success_prob == 1.0

    def test_trace_preserving_across_grid(self):
        rng = np.random.default_rng(24)
        grid = np.linspace(0, np.pi / 2, 7)
        rho = random_pure(rng)
        noise = pd_kraus(0.6)
        for ma in "xyz":
            for ra in "xyz":
                for theta in grid[::2]:
                    for eta in grid[::3]:
                        res = run_qfbc(rho, noise, theta=theta, eta=eta,
                                       meas_axis=ma, rot_axis=ra)
                        assert np.trace(res.output_state).real == pytest.approx(
                            1.0, abs=1e-12)

    def test_independent_angles_extend_tied_form(self):
        rho = state_from_angles(InitialState(alpha=0.5, phi=0.9))
        noise = ad_kraus(0.4)
        tied = run_qfbc(rho, noise, theta=0.4, eta=-0.3)
        via_pair = run_qfbc(rho, noise, theta=0.4, etas=(-0.3, +0.3))
        assert np.abs(tied.output_state - via_pair.output_state).max() < 1e-15

    @pytest.mark.parametrize("x", (0.3, 0.0, -0.0, np.pi / 2))
    def test_negative_eta_has_the_bits_of_swapped_etas(self, x):
        # eta = -x rotates the '+' outcome by -x and the '-' outcome by +x
        rho = state_from_angles(InitialState(alpha=0.5, phi=0.9))
        tied = run_qfbc(rho, pd_kraus(0.3), theta=0.4, eta=-x, rot_axis="x")
        via_pair = run_qfbc(rho, pd_kraus(0.3), theta=0.4, etas=(-x, x), rot_axis="x")
        assert tied.fidelity == via_pair.fidelity
        assert tied.output_state.tobytes() == via_pair.output_state.tobytes()
        assert [b.state.tobytes() for b in tied.branches.branches] == \
            [b.state.tobytes() for b in via_pair.branches.branches]

    def test_generalized_measurement_accepted(self):
        rho = state_from_angles(InitialState(alpha=0.5, phi=0.9))
        res = run_qfbc(rho, pd_kraus(0.3), theta=0.4, eta=0.2, beta=0.7)
        assert 0.0 <= res.fidelity <= 1.0

    def test_missing_eta_rejected(self):
        with pytest.raises(ValueError):
            run_qfbc(RHO_0, ad_kraus(0.1), theta=0.4)

    def test_etas_need_one_angle_per_outcome(self):
        for etas in ((0.2,), (0.2, -0.1, 0.5)):
            with pytest.raises(ValueError, match="etas"):
                run_qfbc(RHO_0, ad_kraus(0.1), theta=0.4, etas=etas)

    def test_eta_with_etas_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            run_qfbc(RHO_0, ad_kraus(0.1), theta=0.4, eta=0.3, etas=(0.2, -0.1))

    @pytest.mark.parametrize("meas_axis", ("q", "x"))
    def test_meas_axis_with_beta_rejected(self, meas_axis):
        with pytest.raises(ValueError, match="meas_axis or beta, not both"):
            run_qfbc(RHO_0, ad_kraus(0.1), theta=0.4, eta=0.3, beta=0.7, meas_axis=meas_axis)

    def test_unset_sign_binding_and_axis_are_plus_and_y(self):
        # a bare eta rotates the '+' outcome by +eta; the measurement axis defaults to y
        rho = state_from_angles(InitialState(alpha=0.5, phi=0.9))
        res = run_qfbc(rho, ad_kraus(0.4), theta=0.4, eta=0.3)
        assert res.fidelity == run_qfbc(rho, ad_kraus(0.4), theta=0.4, etas=(0.3, -0.3),
                                        meas_axis="y").fidelity


class TestQffcPs:
    def test_no_measurement_no_noise(self):
        rho = state_from_angles(InitialState(alpha=0.6, phi=0.5))
        res = run_qffc_ps(rho, r=0.0, p=0.5, p_u=0.0, p_v=0.0)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert res.success_prob == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.5, 0.7, 0.9])
    def test_matched_reversal_at_zero_noise(self, p):
        rng = np.random.default_rng(25)
        matched = matched_post_wm_strength(p)
        for _ in range(10):
            rho = random_pure(rng)
            res = run_qffc_ps(rho, r=0.0, p=p, p_u=matched, p_v=matched)
            assert abs(res.fidelity - 1.0) < 1e-9

    def test_ground_state_immune(self):
        for r in (0.2, 0.7, 1.0):
            res = run_qffc_ps(RHO_0, r=r, p=1.0, p_u=0.0, p_v=0.0)
            assert res.fidelity == pytest.approx(1.0, abs=1e-12)
            assert res.success_prob == pytest.approx(1.0, abs=1e-12)

    def test_branch_accounting(self):
        res = run_qffc_ps(random_pure(np.random.default_rng(26)), r=0.4, p=0.8)
        assert res.branches.total_weight == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= res.success_prob <= 1.0


class TestQffcRot:
    def test_no_controls_no_noise(self):
        rho = state_from_angles(InitialState(alpha=0.8, phi=0.3))
        res = run_qffc_rot(rho, identity_channel(), p=0.5, eta=0.0)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_trace_one_for_random_inputs(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            res = run_qffc_rot(random_pure(rng), ad_kraus(rng.uniform(0, 1)),
                               p=rng.uniform(0, 1), eta=rng.uniform(0, np.pi / 2),
                               signs=(rng.choice([-1, 1]), rng.choice([-1, 1])))
            assert np.trace(res.output_state).real == pytest.approx(1.0, abs=1e-12)
            assert res.success_prob == 1.0

    def test_ground_state_immune(self):
        for r in (0.1, 0.5, 0.9):
            res = run_qffc_rot(RHO_0, ad_kraus(r), p=1.0, eta=0.0)
            assert res.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_works_on_dephasing(self):
        res = run_qffc_rot(state_from_angles(InitialState(alpha=0.4, phi=0.6)),
                           pd_kraus(0.5), p=0.8, eta=0.3)
        assert 0.0 < res.fidelity <= 1.0

    def test_signs_need_one_entry_per_branch(self):
        for signs in ((1,), (1, -1, 1), (2, -1)):   # two entries, each +1 or -1
            with pytest.raises(ValueError, match="signs"):
                run_qffc_rot(RHO_0, ad_kraus(0.3), p=0.7, eta=0.2, signs=signs)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError, match=r"eta must be in \[0, pi/2\], got -0.1"):
            run_qffc_rot(RHO_0, ad_kraus(0.3), p=0.7, eta=-0.1)


class TestWmppf:
    def test_equals_rotationless_feedforward(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            rho = random_pure(rng)
            noise = ad_kraus(rng.uniform(0, 1))
            p = rng.uniform(0, 1)
            a = run_wmppf(rho, noise, p)
            b = run_qffc_rot(rho, noise, p, eta=0.0)
            assert np.abs(a.output_state - b.output_state).max() < 1e-15

    def test_success_exactly_one_on_grid(self):
        rho = state_from_angles(InitialState(alpha=1.0, phi=0.25))
        for maker in (ad_kraus, pd_kraus):
            for p in np.linspace(0, 1, 11):
                for r in np.linspace(0, 1, 11):
                    res = run_wmppf(rho, maker(r), p)
                    assert res.success_prob == 1.0  # exact, not approximate


class TestComposite:
    def test_zero_rotation_reduces_to_feedforward(self):
        rho = state_from_angles(InitialState(alpha=0.7, phi=0.8))
        a = run_composite(rho, r=0.4, p=0.8, eta=0.0)
        b = run_qffc_ps(rho, r=0.4, p=0.8)
        assert a.fidelity == pytest.approx(b.fidelity, abs=1e-14)
        assert a.success_prob == pytest.approx(b.success_prob, abs=1e-14)

    def test_weak_branch_no_loss(self):
        rho = state_from_angles(InitialState(alpha=0.7, phi=0.8))
        res = run_composite(rho, r=0.3, p=0.5, eta=0.4, p_u=0.0, p_v=0.0)
        assert res.success_prob == pytest.approx(1.0, abs=1e-12)

    def test_matched_reversal_at_zero_noise(self):
        rho = state_from_angles(InitialState(alpha=0.9, phi=1.2))
        matched = matched_post_wm_strength(0.7)
        res = run_composite(rho, r=0.0, p=0.7, eta=0.0, p_u=matched, p_v=matched)
        assert abs(res.fidelity - 1.0) < 1e-9

    def test_success_never_rounds_past_one(self):
        # the accepted weights sum to 1.0000000000000002 here; the mixture
        # is still normalized by that sum
        res = run_composite(RHO_0, r=0.0, p=0.5, eta=0.0, p_u=0.0, p_v=0.0)
        assert res.branches.success_prob > 1.0
        assert res.success_prob == 1.0
        assert np.array_equal(res.output_state, RHO_0) and res.fidelity == 1.0

    def test_signs_need_one_entry_per_branch(self):
        for signs in ((1,), (1, -1, 1), (2, -1)):   # two entries, each +1 or -1
            with pytest.raises(ValueError, match="signs"):
                run_composite(RHO_0, r=0.3, p=0.7, eta=0.2, signs=signs)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError, match=r"eta must be in \[0, pi/2\], got -0.1"):
            run_composite(RHO_0, r=0.3, p=0.7, eta=-0.1)


class TestEntWmqmr:
    def test_trivial_protection(self):
        res = run_ent_wmqmr(BELL, r1=0.0, r2=0.0, p1=0.0, p2=0.0)
        assert res.concurrence == pytest.approx(1.0, abs=1e-9)
        assert res.success_prob == pytest.approx(1.0, abs=1e-12)

    def test_full_decay_separates(self):
        res = run_ent_wmqmr(BELL, r1=1.0, r2=1.0, p1=0.0, p2=0.0)
        assert res.concurrence == pytest.approx(0.0, abs=1e-9)

    def test_protection_raises_concurrence(self):
        unprotected = run_ent_wmqmr(BELL, r1=0.6, r2=0.6, p1=0.0, p2=0.0)
        protected = run_ent_wmqmr(BELL, r1=0.6, r2=0.6, p1=0.8)
        assert protected.concurrence > unprotected.concurrence
        assert protected.success_prob < 1.0

    def test_both_sides(self):
        res = run_ent_wmqmr(BELL, r1=0.5, r2=0.5, p1=0.6, side="both")
        assert 0.0 <= res.success_prob <= 1.0
        assert res.branches.total_weight == pytest.approx(1.0, abs=1e-12)

    def test_requires_two_qubits(self):
        with pytest.raises(ValueError):
            run_ent_wmqmr(RHO_0, r1=0.1, r2=0.1, p1=0.1)

    @pytest.mark.parametrize("side", ("one", "both"))
    @pytest.mark.parametrize("p2", (None, 0.55))
    def test_metrics_are_the_public_ones_bit_for_bit(self, side, p2):
        # the call's shared decompositions give the bits of the public
        # fidelity and concurrence of its output
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
            r1, r2, p1 = rng.uniform(0, 1, 3)
            res = run_ent_wmqmr(rho, r1=r1, r2=r2, p1=p1, p2=p2, side=side)
            assert res.fidelity == qmath.fidelity(rho, res.output_state)
            assert res.concurrence == qmath.concurrence(res.output_state)

    @pytest.mark.parametrize("side", ("one", "both"))
    def test_pure_input_metrics_are_the_public_ones_bit_for_bit(self, side):
        res = run_ent_wmqmr(BELL, r1=0.4, r2=0.2, p1=0.7, side=side)
        assert res.fidelity == qmath.fidelity(BELL, res.output_state)
        assert res.concurrence == qmath.concurrence(res.output_state)

    @pytest.mark.parametrize("side", ("one", "both"))
    def test_zero_success(self, side):
        # p1 = 1 removes every |1> on qubit 1, so |11> keeps no weight
        res = run_ent_wmqmr(projector(np.array([0, 0, 0, 1], dtype=complex)), r1=0.5, r2=0.5,
                            p1=1.0, side=side)
        assert res.output_state is None and res.success_prob == 0.0
        assert res.fidelity == 0 and res.concurrence == 0.0

    # every input check, in the order run_ent_wmqmr makes them: a call with
    # one case's fault and all the later ones reports that case's message
    _FAULTS = [
        ("rho_2q", np.diag([1, 0, 0, 0]).astype(complex) + np.triu(np.ones((4, 4)), 1) * 1e-3,
         "rho is not Hermitian within 1e-12"),
        ("rho_2q", np.diag([0.5, 0.3, 0.2, 0.1]).astype(complex),
         r"rho has trace \(1.1\+0j\), expected 1"),
        ("rho_2q", np.diag([0.7, 0.4, 0.1, -0.2]).astype(complex),
         "rho has negative eigenvalue -0.2"),
        ("rho_2q", RHO_0, r"run_ent_wmqmr expects a two-qubit state \(dim 4\)"),
        ("r1", 1.5, r"r1 must be in \[0, 1\], got 1.5"),
        ("r2", -0.1, r"r2 must be in \[0, 1\], got -0.1"),
        ("p1", np.nan, r"p1 must be in \[0, 1\], got nan"),
        ("side", "left", "side must be 'one' or 'both', got 'left'"),
        ("p2", 1.2, r"p2 must be in \[0, 1\], got 1.2"),
    ]

    @pytest.mark.parametrize("case", range(len(_FAULTS)))
    def test_input_checks_in_order(self, case):
        kw = {"rho_2q": BELL, "r1": 0.3, "r2": 0.4, "p1": 0.5, "p2": 0.6, "side": "both"}
        for name, value, _ in reversed(self._FAULTS[case:]):   # the first rho fault wins
            kw[name] = value
        with pytest.raises(ValueError, match=f"^{self._FAULTS[case][2]}"):
            run_ent_wmqmr(**kw)


_MIXED = bloch_to_density((0.3, -0.2, 0.4))
_G = np.random.default_rng(5).normal(size=(2, 4, 4))
_FULL_RANK_PAIR = (_G[0] + 1j * _G[1]) @ (_G[0] + 1j * _G[1]).conj().T
_FULL_RANK_PAIR /= np.trace(_FULL_RANK_PAIR).real


def _count_solves(monkeypatch, call, args):
    """call(x) for each x in args: the eigensolves (LAPACK eigh, the 2x2 Jacobi
    branch of _eig_core) of each call, and the matrix square roots of all of them."""
    entries, lapack, roots = [], [], []
    monkeypatch.setattr(np.linalg, "eigh", _logging(lapack, np.linalg.eigh))
    monkeypatch.setattr(qmath, "_eig_core", _logging(entries, qmath._eig_core))
    monkeypatch.setattr(qmath, "_sqrtm_psd", _logging(roots, qmath._sqrtm_psd))
    solves = []
    for x in args:
        call(x)
        solves.append(len(lapack) + sum(len(a) == 2 for a, in entries))
        lapack.clear()
        entries.clear()
    return solves, len(roots)


class TestEigensolveCounts:
    # eigensolves run only where their eigenvectors produce output: a 2x2
    # state is checked and scored in closed form, the schemes' partial
    # measurements are diagonal, and a 4x4 state's check decomposition gives
    # its square root; so calls on one input cost the same every time
    @pytest.mark.parametrize("call, solves, roots", [
        (lambda x: run_wmqmr(_MIXED, r=0.3, p1=x), 0, 0),
        (lambda x: run_qffc_ps(_MIXED, r=0.3, p=x), 0, 0),
        (lambda x: run_composite(_MIXED, r=0.3, p=0.7, eta=x), 0, 0),
        # the input's check, the output's check, the fidelity and concurrence
        # spectra; the fidelity and concurrence square roots
        (lambda x: run_ent_wmqmr(_FULL_RANK_PAIR, r1=0.3, r2=0.5, p1=x, side="both"), 4, 2),
    ], ids=("wmqmr", "qffc_ps", "composite", "ent_wmqmr"))
    def test_mixed_input_call(self, call, solves, roots, monkeypatch):
        # two calls on the same input with another parameter
        assert _count_solves(monkeypatch, call, (0.6, 0.7)) == ([solves, solves], 2 * roots)

    @pytest.mark.parametrize("call, solves", [
        (lambda rho: qmath.concurrence(rho), 2),   # the check, the spectrum
        (lambda rho: qmath.fidelity(rho, BELL), 3),   # two checks, the spectrum
    ], ids=("concurrence", "fidelity"))
    def test_two_qubit_metric(self, call, solves, monkeypatch):
        # the same numbers on a repeated input: no 4x4 square root is cached
        pairs = (_FULL_RANK_PAIR, _FULL_RANK_PAIR)
        assert _count_solves(monkeypatch, call, pairs) == ([solves, solves], 2)

    def test_two_sided_ent_wmqmr_lifts_each_stage_from_its_diagonal(self, monkeypatch):
        # one 2x2 measurement per stage; each side applies the _kron-lifts of
        # its complement and op, with the bits of a PartialMeasurement built
        # on the lifted op
        p2 = matched_qmr_strength(0.4, 0.3)
        stages, expected = (wm_map(0.4).op, qmr_map(p2).op), []
        for op in stages:
            for lifted in (qmath._kron(op, ID2), qmath._kron(ID2, op)):
                pm = PartialMeasurement(op=lifted, role="lifted")
                expected += [pm.complement, pm.op]
        built, applied = [], []
        post_init = PartialMeasurement.__post_init__
        monkeypatch.setattr(PartialMeasurement, "__post_init__",
                            lambda pm: (built.append(pm.op), post_init(pm))[1])
        monkeypatch.setattr(schemes, "_conj", _logging(applied, schemes._conj))
        run_ent_wmqmr(_FULL_RANK_PAIR, r1=0.3, r2=0.5, p1=0.4, side="both")
        assert [op.tobytes() for op in built] == [op.tobytes() for op in stages]
        assert [op.tobytes() for op, _ in applied] == [op.tobytes() for op in expected]


# one call of every run_* on a mixed input
_RUNS = {
    "wmqmr": lambda: run_wmqmr(_MIXED, r=0.3, p1=0.6),
    "qffc_ps": lambda: run_qffc_ps(_MIXED, r=0.3, p=0.7),
    "composite": lambda: run_composite(_MIXED, r=0.3, p=0.7, eta=0.4),
    "qfbc": lambda: run_qfbc(_MIXED, pd_kraus(0.3), theta=0.5, eta=0.4),
    "qffc_rot": lambda: run_qffc_rot(_MIXED, pd_kraus(0.3), p=0.7, eta=0.4),
    "ent_wmqmr_one": lambda: run_ent_wmqmr(_FULL_RANK_PAIR, r1=0.3, r2=0.5, p1=0.4),
    "ent_wmqmr_both": lambda: run_ent_wmqmr(_FULL_RANK_PAIR, r1=0.3, r2=0.5, p1=0.4,
                                            side="both"),
}


class TestStageCounts:
    # each stage is applied straight to the previous stage's array: every
    # Branch is built once, with its final label, and only the input, the
    # partial measurements built per call (wm_map and qmr_map for wmqmr,
    # post_wm_ops' two for qffc_ps and composite, one wm_map and one qmr_map
    # for ent_wmqmr), the output and a 4x4 output's metric spectra are
    # checked, each once: a 2x2 by qmath._entries' scalar checks, a 4x4 by
    # as_matrix (which _entries calls for it); a qubit fidelity forms no matrix
    _COUNTS = {"wmqmr": (3, 4), "qffc_ps": (4, 4), "composite": (4, 4), "qfbc": (2, 2),
               "qffc_rot": (2, 2), "ent_wmqmr_one": (3, 6), "ent_wmqmr_both": (5, 6)}

    @pytest.mark.parametrize("kind, branches, matrices",
                             [(kind, *counts) for kind, counts in _COUNTS.items()], ids=_COUNTS)
    def test_warm_mixed_input_call(self, kind, branches, matrices, monkeypatch):
        _RUNS[kind]()   # a warm call
        built, seen = [], []
        post_init = Branch.__post_init__
        monkeypatch.setattr(Branch, "__post_init__", lambda b: (built.append(b), post_init(b))[1])
        as_matrix, entries = _logging(seen, qmath.as_matrix), qmath._entries

        def scalar_checked(m, name="matrix"):
            out = entries(m, name)
            if out[1] is not None:
                seen.append((m, name))
            return out
        for module in (qmath, measurements, channels):
            monkeypatch.setattr(module, "as_matrix", as_matrix)
        for module in (qmath, measurements):
            monkeypatch.setattr(module, "_entries", scalar_checked)
        res = _RUNS[kind]()
        assert len(built) == len(res.branches.branches) == branches
        assert len(seen) == matrices


class TestQubitCheck:
    _KW = {"wmqmr": {"r": 0.3, "p1": 0.5}, "qffc_ps": {"r": 0.3, "p": 0.7},
           "composite": {"r": 0.3, "p": 0.7, "eta": 0.2},
           "qfbc": {"theta": 0.3, "eta": 0.2}, "qffc_rot": {"p": 0.7, "eta": 0.2},
           "wmppf": {"p": 0.7}}

    @pytest.mark.parametrize("kind", sorted(_KW))
    def test_two_qubit_input_rejected(self, kind):
        kw = dict(self._KW[kind])
        if kind not in AD_ONLY_KINDS:
            kw["noise"] = ad_kraus(0.3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            globals()[f"run_{kind}"](_FULL_RANK_PAIR, **kw)

    @pytest.mark.parametrize("kind", ("qfbc", "qffc_rot", "wmppf"))
    def test_two_qubit_channel_rejected(self, kind):
        with pytest.raises(ValueError, match="dimension mismatch"):
            globals()[f"run_{kind}"](_MIXED, noise=lift_local(ad_kraus(0.3), 1),
                                     **self._KW[kind])


class TestDispatcherAndPairs:
    def test_every_scheme_perfect_at_zero_noise_zero_strength(self):
        rho = state_from_angles(InitialState(alpha=0.55, phi=0.85))
        ident = identity_channel()
        cases = [
            run_wmqmr(rho, r=0.0, p1=0.0, p2=0.0),
            run_qfbc(rho, ident, theta=np.pi / 2, eta=0.0),
            run_qffc_ps(rho, r=0.0, p=0.5, p_u=0.0, p_v=0.0),
            run_qffc_rot(rho, ident, p=0.5, eta=0.0),
            run_wmppf(rho, ident, p=0.5),
            run_composite(rho, r=0.0, p=0.5, eta=0.0, p_u=0.0, p_v=0.0),
        ]
        for res in cases:
            assert res.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_dispatcher_matches_direct_call(self):
        rho = state_from_angles(InitialState(alpha=0.35, phi=0.15))
        assert run_scheme(rho, "qffc_rot", ad_kraus(0.3), p=0.7, eta=0.2).fidelity == pytest.approx(
            run_qffc_rot(rho, ad_kraus(0.3), p=0.7, eta=0.2).fidelity, abs=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_scheme(RHO_0, "teleport")

    def test_pair_average_degenerate_at_alpha_zero(self):
        # at alpha = 0 both pair members are the same state
        avg = pair_average_fidelity(0.0, 0.3, "wmppf", ad_kraus(0.4), p=0.8)
        rho = state_from_angles(InitialState(alpha=0.0, phi=0.3))
        assert avg == pytest.approx(run_scheme(rho, "wmppf", ad_kraus(0.4), p=0.8).fidelity,
                                    abs=1e-14)

    def test_pair_average_is_mean_of_members(self):
        fids = []
        for phi in (0.7, 0.7 + np.pi):   # the pair: phi and phi + pi
            rho = state_from_angles(InitialState(alpha=0.6, phi=phi))
            fids.append(run_scheme(rho, "wmppf", ad_kraus(0.4), p=0.8).fidelity)
        assert pair_average_fidelity(0.6, 0.7, "wmppf", noise=ad_kraus(0.4), p=0.8) \
            == pytest.approx(np.mean(fids), abs=1e-14)

    def test_pair_average_wraps_the_other_member_past_two_pi(self):
        # at phi = 1.5 pi the other member sits at 0.5 pi, not at 2.5 pi
        fids = [run_scheme(state_from_angles(InitialState(alpha=0.6, phi=phi)), "qfbc",
                           pd_kraus(0.4), theta=0.3, eta=0.2).fidelity
                for phi in (1.5 * np.pi, 0.5 * np.pi)]
        assert pair_average_fidelity(0.6, 1.5 * np.pi, "qfbc", pd_kraus(0.4), theta=0.3,
                                     eta=0.2) == pytest.approx(np.mean(fids), abs=1e-14)


class TestRunScheme:
    def test_missing_parameter_is_value_error(self):
        with pytest.raises(ValueError, match="missing required parameter 'p'"):
            run_scheme(RHO_0, "qffc_rot", ad_kraus(0.3), eta=0.2)

    def test_unused_keys_rejected(self):
        with pytest.raises(ValueError, match="wmqmr does not take bogus, theta$"):
            run_scheme(RHO_0, "wmqmr", r=0.5, p1=0.8, theta=0.3, bogus=1)

    # one valid call per kind: its input state and run_scheme keywords
    _VALID = {**{kind: (RHO_0, kw) for kind, kw in TestQubitCheck._KW.items()},
              "ent_wmqmr": (BELL, {"r1": 0.3, "r2": 0.3, "p1": 0.5})}

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    def test_every_kind_rejects_an_unknown_key(self, kind):
        rho, params = self._VALID[kind]
        run_scheme(rho, kind, ad_kraus(0.3), **params)
        with pytest.raises(ValueError, match=f"^{kind} does not take bogus$"):
            run_scheme(rho, kind, ad_kraus(0.3), **params, bogus=1)

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    def test_theta_pre_is_reported_only_for_qffc_rot(self, kind):
        rho, params = self._VALID[kind]
        if kind != "qffc_rot":
            with pytest.raises(ValueError, match=f"^{kind} does not take theta_pre$"):
                run_scheme(rho, kind, ad_kraus(0.3), **params, theta_pre=1.0)
            return
        rho = state_from_angles(InitialState(alpha=0.35, phi=0.15))
        res = run_scheme(rho, kind, ad_kraus(0.3), **params, theta_pre=1.0)
        assert res.fidelity == run_qffc_rot(rho, ad_kraus(0.3), **params).fidelity

    @pytest.mark.parametrize("kind,params", [
        ("wmqmr", {"r": 0.5, "p1": 0.8}),
        ("qffc_ps", {"r": 0.5, "p": 0.8}),
        ("composite", {"r": 0.5, "p": 0.8, "eta": 0.1}),
    ])
    @pytest.mark.parametrize("noise", [pd_kraus(0.5), identity_channel()])
    def test_amplitude_damping_only_kinds_reject_other_noise(self, kind, params, noise):
        with pytest.raises(ValueError, match=f"{kind} needs an amplitude-damping"):
            run_scheme(RHO_0, kind, noise, **params)

    def test_params_r_must_match_the_channel(self):
        with pytest.raises(ValueError, match="differs from the channel"):
            run_scheme(RHO_0, "wmqmr", ad_kraus(0.9), r=0.1, p1=0.5)
        rho = state_from_angles(InitialState(alpha=0.35, phi=0.15))
        res = run_scheme(rho, "wmqmr", ad_kraus(0.1), r=0.1, p1=0.5)
        assert res.fidelity == run_wmqmr(rho, r=0.1, p1=0.5).fidelity

    @pytest.mark.parametrize("kind,params", [
        ("qfbc", {"theta": 0.3, "eta": 0.2}),
        ("qffc_rot", {"p": 0.8, "eta": 0.2}),
        ("wmppf", {"p": 0.8}),
    ])
    def test_noise_kinds_need_a_channel(self, kind, params):
        with pytest.raises(ValueError, match=f"{kind} needs a noise channel"):
            run_scheme(RHO_0, kind, **params)

    def test_runner_looked_up_at_call_time(self, monkeypatch):
        # a rebound run_* (for example a tracing wrapper) must see the call
        from decoguard import schemes
        calls = []

        def spy(rho_in, noise, p):
            calls.append(p)
            return run_wmppf(rho_in, noise, p)

        monkeypatch.setattr(schemes, "run_wmppf", spy)
        run_scheme(RHO_0, "wmppf", ad_kraus(0.4), p=0.8)
        assert calls == [0.8]

    def test_channel_by_keyword(self):
        rho = state_from_angles(InitialState(alpha=0.35, phi=0.15))
        ch = pd_kraus(0.4)
        res = run_scheme(rho, "qfbc", noise=ch, theta=0.3, eta=0.2, meas_axis="x")
        assert res.fidelity == run_qfbc(rho, ch, theta=0.3, eta=0.2, meas_axis="x").fidelity
        assert res.fidelity == run_scheme(rho, "qfbc", ch, theta=0.3, eta=0.2,
                                          meas_axis="x").fidelity


def _bloch_state(polar, azimuth, radius):
    return bloch_to_density(radius * np.array([np.sin(polar) * np.cos(azimuth),
                                               np.sin(polar) * np.sin(azimuth),
                                               np.cos(polar)]))


# pure (radius 1) and mixed states anywhere in the Bloch ball
_STATES = st.builds(_bloch_state, st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi),
                    st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
_PROB = st.floats(0.0, 1.0)
_ANGLE = st.floats(0.0, np.pi / 2)
_SIGNS = st.sampled_from(((+1, +1), (+1, -1), (-1, +1), (-1, -1)))
# random run_* keyword arguments of each single-qubit scheme kind
_PARAMS = {
    "qfbc": st.fixed_dictionaries({
        "theta": _ANGLE, "etas": st.tuples(st.floats(-np.pi / 2, np.pi / 2),
                                           st.floats(-np.pi / 2, np.pi / 2)),
        "meas_axis": st.sampled_from("xyz"), "rot_axis": st.sampled_from("xyz")}),
    "qffc_rot": st.fixed_dictionaries({"p": _PROB, "eta": _ANGLE, "signs": _SIGNS}),
    "wmppf": st.fixed_dictionaries({"p": _PROB}),
    "wmqmr": st.fixed_dictionaries({"p1": _PROB, "p2": _PROB, "no_jump_only": st.booleans()}),
    "qffc_ps": st.fixed_dictionaries({"p": _PROB, "p_u": _PROB, "p_v": _PROB}),
    "composite": st.fixed_dictionaries({"p": _PROB, "eta": _ANGLE, "signs": _SIGNS,
                                        "p_u": _PROB, "p_v": _PROB}),
}


class TestSchemeInvariantProperties:
    """Physical invariants of every single-qubit scheme on random pure and
    mixed states, channels and parameters."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.data(), _STATES, st.sampled_from(("ad", "pd", "identity")), _PROB)
    @pytest.mark.parametrize("kind", sorted(_PARAMS))
    def test_branch_weights_success_and_fidelity(self, kind, data, rho, channel, r):
        params = data.draw(_PARAMS[kind])
        if kind in AD_ONLY_KINDS:
            channel, params["r"] = "ad", r
        res = run_scheme(rho, kind, make_channel(channel, r), **params)
        # every branch, discards included, accounts for the input's weight
        assert abs(res.branches.total_weight - 1.0) <= 1e-12
        assert 0.0 <= res.success_prob <= 1.0
        assert 0.0 <= res.fidelity <= 1.0
        if kind not in AD_ONLY_KINDS:
            # deterministic: a trace-preserving map with a PSD output
            assert res.success_prob == 1.0
            assert abs(np.trace(res.output_state).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(res.output_state).min() >= -1e-12
        elif res.output_state is not None:
            # post-selected: the output is the branches' normalized accepted mixture
            assert np.array_equal(res.output_state, res.branches.accepted_state())
