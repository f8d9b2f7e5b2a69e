import dataclasses
import functools
import os
import pickle
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoguard import optimize
from decoguard.channels import (
    KrausChannel,
    ad_kraus,
    apply_channel,
    identity_channel,
    make_channel,
    pd_kraus,
)
from decoguard.measurements import flips, povm_axis, rotation
from decoguard.optimize import (
    GridSpec,
    f_diff,
    optimize_qfbc,
    optimize_qffc_rot,
    optimize_scheme,
    resolve_workers,
    sweep_fig6,
    sweep_optimal,
)
from decoguard.qmath import (
    InitialState,
    bloch_to_density,
    eig_hermitian,
    fidelity,
    projector,
    state_from_angles,
)
from decoguard.schemes import AD_ONLY_KINDS, run_qfbc, run_qffc_rot, run_scheme
from test_golden import MIXED_BLOCH

SMALL = GridSpec.default(angle_count=7, alpha_count=4, r_count=4)
TINY = GridSpec.default(angle_count=4, alpha_count=2, r_count=3)
# a tiny grid with enough alpha rows after the two timed ones for a pool of 2
POOLED = GridSpec.default(angle_count=4, alpha_count=4, r_count=3)
_DEFAULT = GridSpec.default()
# a non-uniform eta grid out of order, which GridSpec accepts
_UNORDERED = GridSpec(theta=SMALL.theta, eta=(0.0, np.pi / 4, np.pi / 60, np.pi / 2),
                      alphas=SMALL.alphas, rs=SMALL.rs)


def a_state(alpha=0.8, phi=0.6):
    return state_from_angles(InitialState(alpha=alpha, phi=phi))


def _ket(rho):
    """The ket of a pure rho, found as _optimize_row finds it."""
    return eig_hermitian(rho)[1][:, 0]


class TestGridSpec:
    def test_default_shapes(self):
        g = GridSpec.default()
        assert len(g.theta) == 31 and len(g.eta) == 31
        assert len(g.alphas) == 30 and len(g.rs) == 31

    def test_angle_steps_are_pi_over_60_multiples(self):
        g = GridSpec.default()
        for t in g.theta:
            k = t / (np.pi / 60)
            assert abs(k - round(k)) < 1e-9

    def test_endpoints(self):
        g = GridSpec.default()
        assert g.theta[0] == 0.0 and g.theta[-1] == pytest.approx(np.pi / 2)
        assert g.alphas[0] == 0.0 and g.alphas[-1] == pytest.approx(np.pi / 2)
        assert g.rs[0] == 0.0 and g.rs[-1] == 0.999
        assert g.rs[1] == pytest.approx(1 / 30)

    def test_strengths_follow_theta(self):
        g = GridSpec.default(angle_count=7)
        assert g.strengths[0] == pytest.approx(1.0)
        assert g.strengths[-1] == pytest.approx(0.5)

    def test_invalid_angle_count(self):
        with pytest.raises(ValueError):
            GridSpec.default(angle_count=10)

    def test_grid_must_span_range(self):
        with pytest.raises(ValueError):
            GridSpec(theta=(0.0, 0.3), eta=(0.0, np.pi / 2),
                     alphas=(0.0,), rs=(0.0,))


class TestOptimizers:
    def test_identity_noise_reaches_one(self):
        rho = a_state()
        ident = identity_channel()
        fb = optimize_qfbc(rho, ident, SMALL)
        ff = optimize_qffc_rot(rho, ident, SMALL)
        assert fb.f_opt == pytest.approx(1.0, abs=1e-12)
        assert ff.f_opt == pytest.approx(1.0, abs=1e-12)
        # do-nothing argmax under the tie-break: zero-strength, zero rotation
        assert fb.params["theta"] == pytest.approx(np.pi / 2)
        assert fb.params["etas"] == (0.0, 0.0)

    def test_zero_damping_reaches_one(self):
        rho = a_state(0.3, 1.1)
        for maker in (ad_kraus, pd_kraus):
            assert optimize_qfbc(rho, maker(0.0), SMALL).f_opt == pytest.approx(
                1.0, abs=1e-12)
            assert optimize_qffc_rot(rho, maker(0.0), SMALL).f_opt == pytest.approx(
                1.0, abs=1e-12)

    def test_optimum_dominates_do_nothing(self):
        rng = np.random.default_rng(31)
        from decoguard.channels import apply_channel
        for _ in range(5):
            rho = a_state(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
            noise = ad_kraus(rng.uniform(0, 1))
            do_nothing = fidelity(rho, apply_channel(rho, noise))
            assert optimize_qfbc(rho, noise, SMALL).f_opt >= do_nothing - 1e-12

    def test_params_stay_on_grid(self):
        rho = a_state(0.9, 2.0)
        noise = pd_kraus(0.7)
        fb = optimize_qfbc(rho, noise, SMALL)
        assert fb.params["theta"] in SMALL.theta
        assert abs(fb.params["etas"][0]) in SMALL.eta
        assert abs(fb.params["etas"][1]) in SMALL.eta
        assert fb.params["meas_axis"] in optimize.AXES
        assert fb.params["rot_axis"] in optimize.AXES
        ff = optimize_qffc_rot(rho, noise, SMALL)
        assert ff.params["p"] in SMALL.strengths
        assert ff.params["eta"] in SMALL.eta
        assert ff.params["signs"] in ((1, 1), (1, -1), (-1, 1), (-1, -1))

    def test_fast_path_matches_scheme_pipeline(self):
        rng = np.random.default_rng(32)
        for _ in range(4):
            rho = a_state(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
            for maker in (ad_kraus, pd_kraus):
                noise = maker(rng.uniform(0, 1))
                fb = optimize_qfbc(rho, noise, SMALL)
                check = run_qfbc(rho, noise, theta=fb.params["theta"],
                                 etas=fb.params["etas"],
                                 meas_axis=fb.params["meas_axis"],
                                 rot_axis=fb.params["rot_axis"])
                assert abs(check.fidelity - fb.f_opt) < 1e-12
                ff = optimize_qffc_rot(rho, noise, SMALL)
                check = run_qffc_rot(rho, noise, p=ff.params["p"],
                                     eta=ff.params["eta"], signs=ff.params["signs"])
                assert abs(check.fidelity - ff.f_opt) < 1e-12

    def test_refinement_never_decreases_optimum(self):
        # the 16-point angle grid is a subset of the 31-point grid
        coarse = GridSpec.default(angle_count=16, alpha_count=2, r_count=2)
        fine = GridSpec.default(angle_count=31, alpha_count=2, r_count=2)
        rho = a_state(0.7, 0.9)
        for maker in (ad_kraus, pd_kraus):
            noise = maker(0.6)
            assert (optimize_qfbc(rho, noise, fine).f_opt
                    >= optimize_qfbc(rho, noise, coarse).f_opt - 1e-15)
            assert (optimize_qffc_rot(rho, noise, fine).f_opt
                    >= optimize_qffc_rot(rho, noise, coarse).f_opt - 1e-15)

    def test_mixed_input_uses_tied_search(self):
        rho = 0.7 * a_state(0.4, 0.3) + 0.3 * np.eye(2) / 2
        noise = ad_kraus(0.5)
        got = optimize_qfbc(rho, noise, TINY)
        # the documented tie order: the first maximum over (theta, eta, meas
        # axis, rot axis, sign of eta) wins
        best, argmax = -1.0, None
        for theta in TINY.theta:
            for eta in TINY.eta:
                for ma in optimize.AXES:
                    for ra in optimize.AXES:
                        for sign in (+1, -1):
                            res = run_qfbc(rho, noise, theta=theta, eta=sign * eta,
                                           meas_axis=ma, rot_axis=ra)
                            if res.fidelity > best:
                                best, argmax = res.fidelity, {
                                    "theta": theta, "etas": (sign * eta, -sign * eta),
                                    "meas_axis": ma, "rot_axis": ra}
        assert got.f_opt == pytest.approx(best, abs=1e-12)
        assert got.params == argmax

    def test_optimize_scheme_dispatch(self):
        rho = a_state(0.6, 0.2)
        noise = ad_kraus(0.4)
        for kind in ("qfbc", "qffc_rot", "wmppf", "wmqmr"):
            res = optimize_scheme(kind, rho, noise, TINY)
            assert 0.0 <= res.f_opt <= 1.0
        with pytest.raises(ValueError):
            optimize_scheme("wmqmr", rho, pd_kraus(0.4), TINY)
        with pytest.raises(ValueError):
            optimize_scheme("unknown", rho, noise, TINY)

    def test_optimize_scheme_validates_rho_once(self, monkeypatch):
        seen = []
        monkeypatch.setattr(optimize, "check_density", _logging(seen, optimize.check_density))
        for kind in ("qfbc", "qffc_rot", "wmqmr"):
            for rho in (a_state(0.6, 0.2), bloch_to_density(MIXED_BLOCH[0])):
                seen.clear()
                optimize_scheme(kind, rho, ad_kraus(0.4), TINY)
                assert len(seen) == 1, kind

    def test_wmqmr_optimum_at_zero_noise_is_perfect(self):
        res = optimize_scheme("wmqmr", a_state(0.5, 0.5), ad_kraus(0.0), TINY)
        assert res.f_opt == pytest.approx(1.0, abs=1e-9)


class TestClosedFormOptima:
    """Optimizer values that the acceptance bounds of criterion 5c rest on."""

    def test_y_eigenstate_optima(self):
        # alpha = phi = pi/2 is |-i>: a projective z measurement and x
        # rotations of +-pi/2 restore it from either outcome, and feed-forward
        # keeps at most the damped y-coherence sqrt(1 - r), reached at
        # p = 1/2, eta = 0
        rho = a_state(np.pi / 2, np.pi / 2)
        for maker in (ad_kraus, pd_kraus):
            for r in (0.3, 0.7, 0.999):
                noise = maker(r)
                assert abs(optimize_qfbc(rho, noise, SMALL).f_opt - 1.0) < 1e-12
                want = np.sqrt((1 + np.sqrt(1 - r)) / 2)
                assert abs(optimize_qffc_rot(rho, noise, SMALL).f_opt - want) < 1e-12

    def test_feedforward_never_below_half_overlap(self):
        # p = 1/2, eta = 0 scales the Bloch vector componentwise by
        # nonnegative factors, so <psi|rho_out|psi> >= 1/2 on any pure input
        rng = np.random.default_rng(33)
        worst = 1.0
        for _ in range(40):
            ket = rng.normal(size=2) + 1j * rng.normal(size=2)
            rho = projector(ket / np.linalg.norm(ket))
            for maker in (ad_kraus, pd_kraus):
                res = optimize_qffc_rot(rho, maker(rng.uniform(0, 1)), SMALL)
                worst = min(worst, res.f_opt)
        assert worst >= np.sqrt(0.5) - 1e-12


class TestFDiff:
    def test_identity_noise_is_zero(self):
        assert abs(f_diff(a_state(), identity_channel(), SMALL)) < 1e-12

    def test_zero_damping_is_zero(self):
        for maker in (ad_kraus, pd_kraus):
            assert abs(f_diff(a_state(0.4, 1.0), maker(0.0), SMALL)) < 1e-12

    def test_grows_with_damping_at_quarter_angles(self):
        # heavier damping widens the feedback advantage for phi = pi/4
        grid = GridSpec.default(angle_count=31, alpha_count=2, r_count=2)
        rho = a_state(np.pi / 4, np.pi / 4)
        for maker in (ad_kraus, pd_kraus):
            low = f_diff(rho, maker(0.1), grid)
            high = f_diff(rho, maker(0.9), grid)
            assert high > low


class TestSweeps:
    def test_fig6_row_count_and_order(self):
        table = sweep_fig6(np.pi / 4, "ad", TINY, workers=1)
        assert len(table.rows) == len(TINY.alphas) * len(TINY.rs)
        alphas = [row[0] for row in table.rows]
        assert alphas == sorted(alphas)  # alpha-major order
        rs = [row[2] for row in table.rows[:len(TINY.rs)]]
        assert rs == sorted(rs)          # r-minor order

    def test_fig6_csv_deterministic(self):
        a = sweep_fig6(0.0, "pd", TINY, workers=1).to_csv()
        b = sweep_fig6(0.0, "pd", TINY, workers=1).to_csv()
        assert a == b

    def test_parallel_matches_serial(self, monkeypatch, pools):
        # a pool forced by a zero threshold writes the bytes of the serial run
        monkeypatch.setattr(optimize, "_POOL_MIN_S", 0.0)
        a = sweep_fig6(np.pi / 2, "ad", POOLED, workers=1).to_csv()
        b = sweep_fig6(np.pi / 2, "ad", POOLED, workers=2).to_csv()
        assert pools == [2]
        assert a == b

    def test_sweep_optimal_pooled_matches_serial(self, monkeypatch, pools):
        monkeypatch.setattr(optimize, "_POOL_MIN_S", 0.0)
        a = sweep_optimal("composite", np.pi / 4, "ad", POOLED, workers=1).to_csv()
        b = sweep_optimal("composite", np.pi / 4, "ad", POOLED, workers=2).to_csv()
        assert pools == [2]
        assert a == b

    def test_fig6_zero_damping_column(self):
        table = sweep_fig6(np.pi / 4, "ad", TINY, workers=1)
        for row in table.rows:
            if row[2] == 0.0:
                assert abs(row[6]) < 1e-12  # f_diff at r = 0

    def test_csv_header(self):
        text = sweep_fig6(0.0, "ad", TINY, workers=1).to_csv()
        header = text.splitlines()[0]
        assert header == ("alpha,phi,r,noise,f_qfbc,f_qffc,f_diff,"
                          "theta_opt,eta_opt,meas_axis,rot_axis,p_opt")
        assert text.endswith("\n") and "\r" not in text

    def test_csv_rows_render_as_fmt(self):
        # signed zero, nan, inf, a numpy float, bool, None, a packed tuple and text
        table = optimize.SweepResult(("a", "b", "c"), ((-0.0, np.nan, np.inf),
                                                       (np.float64(0.1), True, None),
                                                       ((1.0, -2), 1e-13, "x")))
        assert table.to_csv() == "a,b,c\n-0,nan,inf\n0.1,True,None\n1|-2,1e-13,x\n"

    def test_sweep_optimal_rows(self):
        table = sweep_optimal("wmppf", 0.0, "ad", TINY, workers=1)
        assert len(table.rows) == len(TINY.alphas) * len(TINY.rs)
        for row in table.rows:
            assert row[4] == "wmppf"
            assert row[6] == 1.0  # wmppf success probability is exactly 1

    def test_sweep_optimal_kind_is_case_insensitive(self):
        upper = sweep_optimal("WMQMR", 0.0, "ad", TINY, workers=1)
        lower = sweep_optimal("wmqmr", 0.0, "ad", TINY, workers=1)
        assert {row[4] for row in upper.rows} == {"WMQMR"}
        assert [row[:4] + row[5:] for row in upper.rows] == \
            [row[:4] + row[5:] for row in lower.rows]


class TestWorkers:
    def test_explicit_count(self):
        assert resolve_workers(3, 100) == 3
        assert resolve_workers(8, 2) == 2

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            resolve_workers(0, 10)

    def test_default_counts_the_cpus_this_process_may_use(self, monkeypatch):
        # pinned to one CPU (taskset -c 0) on a many-core host
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_workers(None, 180) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert resolve_workers(None, 180) == 3
        assert resolve_workers(None, 2) == 2


# the fake clock of TestPoolDecision and the seconds each next _clocked_row moves it on by
_FAKE_TIME = {"now": 0.0, "costs": []}


def _clocked_row(rho, noises, grid):
    """A row that computes nothing and moves the fake clock on by its planned
    seconds; module-level, so that a pool can run it."""
    costs = _FAKE_TIME["costs"]
    _FAKE_TIME["now"] += costs.pop(0) if costs else 0.0
    return [()] * len(noises)


class TestPoolDecision:
    SURFACES = ((0.0, "ad"), (np.pi / 4, "pd"))

    def _expected_rows(self):
        return [(alpha, phi, r, kind) for phi, kind in self.SURFACES
                for alpha in POOLED.alphas for r in POOLED.rs]

    @pytest.mark.parametrize("workers", (1, 2))
    def test_serial_run_computes_each_row_once(self, monkeypatch, pools, workers):
        # below the real threshold every row runs here, once, in surface order
        ran = []
        monkeypatch.setattr(optimize, "_alpha_row", _logging(ran, optimize._alpha_row))
        tables = list(optimize.sweep_fig6_surfaces(self.SURFACES, POOLED, workers))
        assert pools == []
        assert [args[1:4] for (args,) in ran] == [
            (phi, kind, alpha) for phi, kind in self.SURFACES for alpha in POOLED.alphas]
        assert [row[:4] for table in tables for row in table.rows] == self._expected_rows()

    def test_pooled_run_keeps_row_count_and_order(self, monkeypatch, pools):
        monkeypatch.setattr(optimize, "_POOL_MIN_S", 0.0)
        tables = list(optimize.sweep_fig6_surfaces(self.SURFACES, POOLED, 2))
        assert pools == [2]
        assert [row[:4] for table in tables for row in table.rows] == self._expected_rows()

    # (first row's seconds, second row's seconds): a cold first row (the grid
    # tables' build) predicts nothing; the second row's pace x the 6 rows left does
    @pytest.mark.parametrize("costs, pooled", (((60.0, 0.01), False), ((0.0, 0.1), True)),
                             ids=("cold-first", "slow-second"))
    def test_second_row_predicts_the_rest(self, monkeypatch, pools, costs, pooled):
        monkeypatch.setattr(optimize, "time",
                            types.SimpleNamespace(perf_counter=lambda: _FAKE_TIME["now"]))
        monkeypatch.setitem(_FAKE_TIME, "costs", list(costs))
        tables = list(optimize._run_surfaces(_clocked_row, self.SURFACES, POOLED, 2))
        assert pools == ([2] if pooled else [])
        assert [row for table in tables for row in table] == self._expected_rows()

    def test_no_surfaces_no_rows(self, pools):
        assert list(optimize.sweep_fig6_surfaces((), POOLED, 2)) == []
        assert pools == []

    def test_unpooled_run_never_loads_the_pool_module(self):
        script = ("import sys; from decoguard import optimize; optimize.sweep_optimal("
                  "'wmqmr', 0.0, 'ad', optimize.GridSpec.default(4, 2, 3), workers=2); print("
                  "sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
        src = str(Path(optimize.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"


class TestSearchLoop:
    def test_loop_calls_rebound_runners(self, monkeypatch):
        # every verified candidate goes through the module's current run_*
        # binding; the kernel screens the other candidates out, so fewer than
        # the 16 of the exhaustive loop are run
        import functools

        from decoguard import schemes
        seen = []
        real = schemes.run_wmqmr

        @functools.wraps(real)
        def spy(rho_in, **kwargs):
            seen.append(kwargs)
            return real(rho_in, **kwargs)

        monkeypatch.setattr(schemes, "run_wmqmr", spy)
        rho, noise = a_state(), ad_kraus(0.3)
        res = optimize_scheme("wmqmr", rho, noise, TINY)
        assert 1 <= len(seen) <= len(TINY.strengths) ** 2
        assert res.params in seen
        assert res == optimize._optimize_by_loop(rho, "wmqmr", noise,
                                                 _candidates("wmqmr", noise, TINY))

    def test_noise_channel_required(self):
        for kind in ("qfbc", "qffc_rot", "wmppf"):
            with pytest.raises(ValueError, match="needs a noise channel"):
                optimize_scheme(kind, a_state(), None, TINY)


def _logging(log, fn):
    """fn, appending its positional arguments to log on every call."""
    def wrapper(*args, **kwargs):
        log.append(args)
        return fn(*args, **kwargs)
    return wrapper


_GRID_CACHES = (optimize._qfbc_tables, optimize._qffc_tables)


class TestGridAndKetTables:
    """The pure fast paths keep grid tables per grid and find a row's ket
    once; no table may leak into a result computed for other inputs."""

    def test_memo_results_equal_fresh_results(self):
        kets = (a_state(0.8, 0.6), a_state(0.3, 2.1))
        # runs of one (ket, grid) with the channel changing, then another ket,
        # grid or both, each computed on warm tables and again on fresh ones
        cells = ((0, TINY, "ad", 0.3), (0, TINY, "pd", 0.6), (1, TINY, "ad", 0.3),
                 (1, SMALL, "pd", 0.5), (0, SMALL, "ad", 0.7), (0, SMALL, "ad", 0.2),
                 (1, TINY, "pd", 0.9), (1, TINY, "ad", 0.4), (1, SMALL, "pd", 0.5),
                 (0, TINY, "pd", 0.6))
        calls = [(fn, kets[k], make_channel(kind, r), grid)
                 for k, grid, kind, r in cells for fn in (optimize_qfbc, optimize_qffc_rot)]
        memoized = [fn(rho, noise, grid) for fn, rho, noise, grid in calls]
        for (fn, rho, noise, grid), got in zip(calls, memoized):
            for cache in _GRID_CACHES:
                cache.cache_clear()
            assert fn(rho, noise, grid) == got

    def test_warm_row_finds_each_ket_once(self, monkeypatch):
        # the row's state is fixed, so the row kernel diagonalizes it once
        # for both paths and every cell
        optimize._alpha_row((optimize._fig6_row, np.pi / 4, "ad", 0.5, TINY))
        found = []
        monkeypatch.setattr(optimize, "eig_hermitian", _logging(found, optimize.eig_hermitian))
        optimize._alpha_row((optimize._fig6_row, np.pi / 4, "ad", 0.9, TINY))
        assert len(found) == 1

    @pytest.mark.parametrize("grid", (SMALL, _DEFAULT), ids=("small", "default"))
    def test_fig6_validates_each_row_state_once(self, grid, monkeypatch):
        validated = []
        monkeypatch.setattr(optimize, "check_density",
                            _logging(validated, optimize.check_density))
        sweep_fig6(np.pi / 2, "pd", dataclasses.replace(grid, alphas=grid.alphas[1:3]),
                   workers=1)
        assert len(validated) == 2

    def test_pickled_grid_hits_the_grid_tables(self):
        # pool workers receive each task's GridSpec pickled
        grid = pickle.loads(pickle.dumps(SMALL))
        assert grid is not SMALL
        for cache in _GRID_CACHES:
            assert cache(grid) is cache(SMALL)

    def test_pickled_grid_hits_the_loop_tables(self):
        grid = pickle.loads(pickle.dumps(SMALL))
        for kind in optimize.OPTIMIZABLE_KINDS:
            assert optimize._loop_tables(kind, grid) is optimize._loop_tables(kind, SMALL)

    @pytest.mark.parametrize("kind", ("wmppf", "wmqmr", "qffc_ps", "composite"))
    def test_warm_sweep_row_builds_no_table(self, kind):
        # a sweep row of a loop kind builds its kind's table once per grid
        row = functools.partial(optimize._sweep_row, kind)
        optimize._loop_tables.cache_clear()
        optimize._alpha_row((row, 0.3, "ad", 0.5, TINY))
        assert optimize._loop_tables.cache_info().misses == 1
        optimize._alpha_row((row, 1.1, "ad", 0.9, TINY))
        assert optimize._loop_tables.cache_info().misses == 1

    @pytest.mark.parametrize("grid", (SMALL, _DEFAULT), ids=("small", "default"))
    def test_qfbc_blocks_equal_stacked_build(self, grid):
        # the blocks filled in place hold the bytes of the stacked per-pair einsums
        se = optimize._signed_etas(grid.eta)
        meas = [np.stack([np.stack(povm_axis(ma, t).ops) for t in grid.theta])
                for ma in optimize.AXES]
        rots = [np.stack([rotation(ra, e) for e in se]) for ra in optimize.AXES]
        stacked = np.stack([np.einsum("eij,tmjk->tmeik", r, m) for m in meas for r in rots]).conj()
        blocks = optimize._qfbc_tables(grid)["blocks"]
        assert (blocks.shape, blocks.dtype) == (stacked.shape, stacked.dtype)
        assert blocks.tobytes() == stacked.tobytes()

    def test_warm_calls_build_no_rotations(self, monkeypatch):
        made = []
        monkeypatch.setattr(optimize, "rotation", _logging(made, optimize.rotation))
        for grid in (TINY, SMALL):
            optimize_qfbc(a_state(0.2, 0.1), ad_kraus(0.1), grid)
            optimize_qffc_rot(a_state(0.2, 0.1), ad_kraus(0.1), grid)
        made.clear()
        for grid in (TINY, SMALL):
            for alpha, phi, r in ((0.5, 0.4, 0.35), (1.1, 2.9, 0.85)):
                for maker in (ad_kraus, pd_kraus):
                    optimize_qfbc(a_state(alpha, phi), maker(r), grid)
                    optimize_qffc_rot(a_state(alpha, phi), maker(r), grid)
        assert made == []


_ANGLES = st.tuples(st.floats(0.0, np.pi / 2), st.floats(0.0, 2 * np.pi, exclude_max=True))
_CELL = st.tuples(st.integers(0, 2), st.floats(0.0, 1.0), st.sampled_from(("ad", "pd")))


class TestFastPathProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.lists(_ANGLES, min_size=1, max_size=3), st.lists(_CELL, min_size=2, max_size=6))
    def test_fast_paths_match_pipelines_at_argmax(self, angles, cells):
        # cells index into the few kets, so a sequence revisits them
        for k, r, kind in cells:
            rho = a_state(*angles[k % len(angles)])
            noise = make_channel(kind, r)
            fb = optimize_qfbc(rho, noise, SMALL)
            check = run_qfbc(rho, noise, theta=fb.params["theta"], etas=fb.params["etas"],
                             meas_axis=fb.params["meas_axis"], rot_axis=fb.params["rot_axis"])
            assert abs(check.fidelity - fb.f_opt) < 1e-12
            ff = optimize_qffc_rot(rho, noise, SMALL)
            check = run_qffc_rot(rho, noise, p=ff.params["p"], eta=ff.params["eta"],
                                 signs=ff.params["signs"])
            assert abs(check.fidelity - ff.f_opt) < 1e-12


def _candidates(kind, noise, grid):
    """The params of every candidate of a loop search, in C order."""
    shape, params = optimize._search_space(kind, noise, grid)
    return [params(*index) for index in np.ndindex(shape)]


def _loop_channels(kind):
    """Every channel a loop kind accepts, at r in {0, 0.45, 0.999, 1}; identity
    for the kinds that take any channel."""
    kinds = ("ad",) if kind in AD_ONLY_KINDS else ("ad", "pd")
    chans = [make_channel(k, r) for k in kinds for r in (0.0, 0.45, 0.999, 1.0)]
    return chans if kinds == ("ad",) else chans + [identity_channel()]


# r = 1 and |1><1| add cells with candidates that score 0 or never succeed; under
# wmqmr with r = 1 damping every candidate scores 0 for |1><1|
_LOOP_INPUTS = (tuple(a_state(alpha, 0.6) for alpha in (0.0, np.pi / 2, 0.8))
                + (projector(np.array([0.0, 1.0])),)
                + tuple(bloch_to_density(b) for b in MIXED_BLOCH))


class TestScreenedSearch:
    """The kernel only screens: the screened search returns exactly what the
    exhaustive loop through run_scheme returns."""

    @pytest.mark.parametrize("grid", (TINY, SMALL), ids=("tiny", "small"))
    @pytest.mark.parametrize("kind", optimize.OPTIMIZABLE_KINDS)
    def test_screened_equals_exhaustive(self, kind, grid):
        for noise in _loop_channels(kind):
            candidates = _candidates(kind, noise, grid)
            for rho in _LOOP_INPUTS:
                assert len(optimize._loop_scores(rho, kind, noise, grid)[0]) == len(candidates)
                exhaustive = optimize._optimize_by_loop(rho, kind, noise, candidates)
                assert optimize._loop_row(rho, kind, (noise,), grid) == [exhaustive]


_BLOCH = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi),
                   st.one_of(st.just(1.0), st.floats(0.0, 1 - 1e-9)))


class TestScreenKernelAccuracy:
    """The margin the screen's exactness rests on: every kernel score is within
    SCREEN_ATOL / 100 of its run_scheme fidelity."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.sampled_from(optimize.OPTIMIZABLE_KINDS), _BLOCH,
           st.sampled_from(("ad", "pd", "identity")), st.floats(0.0, 1.0),
           st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6),
           st.sampled_from((SMALL, _DEFAULT)))
    def test_kernel_matches_pipeline(self, kind, bloch, channel, r, picks, grid):
        polar, azimuth, radius = bloch
        rho = bloch_to_density(radius * np.array([np.sin(polar) * np.cos(azimuth),
                                                  np.sin(polar) * np.sin(azimuth),
                                                  np.cos(polar)]))
        if kind in AD_ONLY_KINDS:
            channel = "ad"
        noise = make_channel(channel, r)
        candidates = _candidates(kind, noise, grid)
        fid, success = optimize._loop_scores(rho, kind, noise, grid)
        for pick in picks:
            i = pick % len(candidates)
            res = run_scheme(rho, kind, noise, **candidates[i])
            assert abs(fid[i] - res.fidelity) <= optimize.SCREEN_ATOL / 100
            assert abs(success[i] - res.success_prob) <= 1e-12


# tie-heavy pure inputs: every eta ties at p = 1/2 for the y eigenstate;
# |+> (alpha = 0) and |0> sit on symmetry axes of the grids; at
# (pi/3, pi/2) under ad noise, (p, eta) and the swapped pair tie on TINY
_PURE_INPUTS = (a_state(np.pi / 2, np.pi / 2), a_state(0.0, 0.0),
                projector(np.array([1.0, 0.0])), a_state(np.pi / 3, np.pi / 2), a_state())


def _full_qfbc_kets(rho, grid):
    """v = conj(K) psi of every (t, m, e), per axis pair: the whole table, of
    which the row kernel builds only the near-best entries of its shortlist."""
    psi = _ket(rho)
    return [np.einsum("tmeji,j->tmei", k, psi) for k in optimize._qfbc_tables(grid)["blocks"]]


def _qfbc_scores(v, rho_e):
    """F^2 = <v|rho_e|v> of one axis pair's kets, (t, m, e): the per-block
    einsum whose round-off the row kernel's tie-breaks follow."""
    return np.real(np.einsum("tmei,ij,tmej->tme", v.conj(), rho_e, v))


def _qffc_scores(u_i, w_sign, ops):
    """The branch fidelity sum_k |<psi| R_y(sign e) F_i A_k F_i M_i(p) |psi>|^2
    of one (i, sign) and one channel, ops = (F_i A_k F_i)_k, over the rows of
    u_i, (p, e): the per-cell einsums whose round-off the row kernel's
    tie-breaks follow."""
    acc = np.zeros((len(u_i), len(w_sign)))
    for a in ops:
        acc += np.abs(np.einsum("ei,ij,pj->pe", w_sign, a, u_i)) ** 2
    return acc


def _unscreened(rho, noise, grid):
    """Both pure searches without a screen, written out from the einsums
    whose round-off the fast paths' tie-breaks follow: every theta slice is
    scored, and the smallest (-F^2, t, ...) key wins."""
    rho_e = apply_channel(rho, noise)
    vs = _full_qfbc_kets(rho, grid)
    se, keys = optimize._qfbc_tables(grid)["signed_etas"], []
    for pair, v in enumerate(vs):  # pairs run meas-major over AXES
        f = _qfbc_scores(v, rho_e)
        e = np.argmax(f, axis=2)
        tot = np.take_along_axis(f, e[:, :, None], axis=2)[:, :, 0].sum(axis=1)
        t = int(np.argmax(tot))
        keys.append((-tot[t], t, e[t, 0], e[t, 1], *divmod(pair, len(optimize.AXES))))
    f2, t, e0, e1, ma, ra = min(keys)
    fb = optimize.OptResult(
        f_opt=float(np.sqrt(np.clip(-f2, 0.0, 1.0))), success_prob=1.0,
        params={"theta": grid.theta[t], "etas": (float(se[e0]), float(se[e1])),
                "meas_axis": optimize.AXES[ma], "rot_axis": optimize.AXES[ra]})
    u, w = optimize._qffc_ket(grid, _ket(rho))
    branch = {(i, sign): _qffc_scores(u[i], w[sign], [flip @ a @ flip for a in noise.ops])
              for i, flip in enumerate(flips()) for sign in (+1, -1)}
    keys = []
    for c, (s1, s2) in enumerate(optimize._SIGN_COMBOS):
        tot = branch[(0, s1)] + branch[(1, s2)]
        t, e = divmod(int(np.argmax(tot)), tot.shape[1])
        keys.append((-tot[t, e], t, e, c))
    f2, t, e, c = min(keys)
    ff = optimize.OptResult(
        f_opt=float(np.sqrt(np.clip(-f2, 0.0, 1.0))), success_prob=1.0,
        params={"p": grid.strengths[t], "theta_pre": grid.theta[t],
                "eta": grid.eta[e], "signs": optimize._SIGN_COMBOS[c]})
    return fb, ff


def _pure_optima(cells, grid):
    return [(optimize_qfbc(rho, noise, grid), optimize_qffc_rot(rho, noise, grid))
            for rho, noise in cells]


def _row_optima(rho, noises, grid):
    """The row kernel's (qfbc, qffc_rot) optima, one pair per channel."""
    return list(zip(*optimize._optimize_row(rho, noises, grid)))


class TestPureScreen:
    """The row kernel screens every cell of a row at once and scores exactly
    only the theta slices (p rows) it shortlists; each cell's result is the
    one of the row-of-1 public calls and the unscreened one, tie-breaks
    included, however many slices are verified at once. SCREEN_ATOL = inf
    shortlists every slice."""

    @staticmethod
    def _check_rows(rows, grid, monkeypatch):
        kernel = [_row_optima(rho, noises, grid) for rho, noises in rows]
        assert kernel == [_pure_optima([(rho, noise) for noise in noises], grid)
                          for rho, noises in rows]
        assert kernel == [[_unscreened(rho, noise, grid) for noise in noises]
                          for rho, noises in rows]
        # every slice shortlisted; one slice verified at a time; a whole row at once
        most = max(len(noises) for _, noises in rows) * len(optimize.AXES) ** 2 * len(grid.theta)
        for name, value in (("SCREEN_ATOL", np.inf), ("_VERIFY_SLICES", 1),
                            ("_VERIFY_SLICES", most + 1)):
            with monkeypatch.context() as patch:
                patch.setattr(optimize, name, value)
                assert kernel == [_row_optima(rho, noises, grid) for rho, noises in rows]

    @pytest.mark.parametrize("grid", (TINY, SMALL, _UNORDERED), ids=("tiny", "small", "unordered"))
    def test_screened_equals_exhaustive(self, grid, monkeypatch):
        rows = [(rho, [make_channel(kind, r) for r in (0.0, 0.45, 0.75, 0.999)])
                for rho in _PURE_INPUTS for kind in ("ad", "pd")]
        self._check_rows(rows, grid, monkeypatch)

    # |0> (pi/2, 0) ties the most: every cell of its rows shortlists the most slices
    @pytest.mark.parametrize("angles", ((np.pi / 2, np.pi / 2), (np.pi / 3, np.pi / 2),
                                        (np.pi / 2, 0.0)))
    def test_default_grid_row_equals_exhaustive(self, angles, monkeypatch):
        rows = [(a_state(*angles), [make_channel(kind, r) for r in _DEFAULT.rs])
                for kind in ("ad", "pd")]
        self._check_rows(rows, _DEFAULT, monkeypatch)

    def test_tie_heaviest_row_memory(self):
        # the row's near-best entries are verified in batches of at most
        # _VERIFY_SLICES slices, so the row's peak stays near one batch's gather
        # (2.0 MB); gathering all of the row's 31 x 159 shortlisted slices, every
        # eta tied, at once peaks at 35 MB
        rho, noises = a_state(np.pi / 2, 0.0), [make_channel("ad", r) for r in _DEFAULT.rs]
        optimize._optimize_row(rho, noises, _DEFAULT)
        tracemalloc.start()
        try:
            optimize._optimize_row(rho, noises, _DEFAULT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20


def _qffc_exact(rho, noise, grid) -> np.ndarray:
    """The exact feed-forward F^2 of every (sign combination, p, eta), summed
    by the einsums that settle the qffc_rot tie-breaks."""
    u, w = optimize._qffc_ket(grid, _ket(rho))
    t_ops = [[f @ a @ f for a in noise.ops] for f in flips()]
    return np.stack([_qffc_scores(u[0], w[s1], t_ops[0]) + _qffc_scores(u[1], w[s2], t_ops[1])
                     for s1, s2 in optimize._SIGN_COMBOS])


# a Y flip, the unitary channel rho -> Y rho Y
_Y_FLIP = KrausChannel(ops=(np.array([[0, -1], [1, 0]], dtype=complex),))


class TestPureScreenProperties:
    """What the screen's exactness rests on: each maximum of the row screens
    (the qfbc one over eta in closed form, the qffc_rot one over eta and
    signs), and each qfbc sinusoid value, is within SCREEN_ATOL / 100 of the
    same exact score, on any eta grid, and an exact score computed on a
    gathered entry or (cell, p) pair has the bits of the full computation."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(_ANGLES, st.lists(st.tuples(st.sampled_from(("ad", "pd")), st.floats(0.0, 1.0)),
                             min_size=1, max_size=3),
           st.sampled_from((SMALL, _DEFAULT, _UNORDERED)))
    def test_screen_matches_exact_scores(self, angles, cells, grid):
        # the qfbc verify scores only the signed etas whose sinusoid is within
        # SCREEN_ATOL of their outcome's best, so every sinusoid value, not
        # only each slice's maximum, must be this close to its exact score
        rho = a_state(*angles)
        noises = [make_channel(kind, r) for kind, r in cells]
        rho_es = [apply_channel(rho, noise) for noise in noises]
        vs = _full_qfbc_kets(rho, grid)
        se = optimize._qfbc_tables(grid)["signed_etas"]
        coef = optimize._qfbc_row_screen(rho, rho_es, grid)
        a, b, c = coef[..., None]
        fb = a + b * np.cos(se) + c * np.sin(se)  # (cell, pair, t, m, e)
        fb_max = optimize._eta_max(coef, optimize._qfbc_tables(grid)["folded_etas"])
        ff = optimize._qffc_row_screen(rho, noises, grid)
        for noise, rho_e, fb_all, fb_best, ff_max in zip(noises, rho_es, fb, fb_max, ff):
            exact = np.stack([_qfbc_scores(v, rho_e) for v in vs])
            assert np.abs(fb_all - exact).max() <= optimize.SCREEN_ATOL / 100
            assert np.abs(fb_best - exact.max(axis=3)).max() <= optimize.SCREEN_ATOL / 100
            exact = _qffc_exact(rho, noise, grid).max(axis=(0, 2))
            assert np.abs(ff_max - exact).max() <= optimize.SCREEN_ATOL / 100

    def test_feedforward_peak_behind_the_grid_start(self):
        # under a Y flip some (signs, p) sinusoids of |+> peak in (-pi, -3pi/4):
        # on the circle pi/2 is the nearer end of [0, pi/2], and it is the
        # grid maximum; clamping the peak to [0, pi/2] would pick eta = 0
        rho = a_state(0.0, 0.0)
        exact = _qffc_exact(rho, _Y_FLIP, SMALL)
        design = np.stack([np.ones(len(SMALL.eta)), np.cos(SMALL.eta), np.sin(SMALL.eta)], 1)
        _, b, c = np.linalg.lstsq(design, exact.reshape(-1, len(SMALL.eta)).T, rcond=None)[0]
        peak = np.arctan2(c, b).reshape(exact.shape[:2])
        behind = (peak > -np.pi) & (peak < -3 * np.pi / 4)
        assert (behind & (exact[:, :, -1] > exact[:, :, 0] + 0.1)).any()
        screen = optimize._qffc_row_screen(rho, [_Y_FLIP], SMALL)[0]
        assert np.abs(screen - exact.max(axis=(0, 2))).max() <= optimize.SCREEN_ATOL / 100

    @pytest.mark.parametrize("eta", (
        np.array(SMALL.eta), optimize._qfbc_tables(SMALL)["folded_etas"], np.sort(_UNORDERED.eta),
    ), ids=("quarter", "folded", "unordered"))
    def test_eta_max_equals_brute_force(self, eta):
        # the maximum over the signed grid +-eta, each sign's sinusoid evaluated
        # at every grid point (c sin(-eta) is -c sin(eta) bit for bit); peaks all
        # round the circle, among them (-pi, -3pi/4), behind the start of
        # [-pi/2, pi/2], where the grid maximum is at the far end -pi/2
        peak, size = (x.ravel() for x in np.meshgrid(np.linspace(-np.pi, np.pi, 73),
                                                     (0.1, 1.0, 3.0)))
        a, b, c = 0.25 * size, size * np.cos(peak), size * np.sin(peak)
        cos, sin = np.cos(eta), np.sin(eta)
        brute = np.maximum(*(a[:, None] + b[:, None] * cos + sign * c[:, None] * sin
                             for sign in (+1, -1))).max(axis=1)
        assert np.array_equal(optimize._eta_max((a, b, c), eta), brute)
        behind = (peak > -np.pi) & (peak < -3 * np.pi / 4)
        assert (brute[behind] == (a + b * cos[-1] - c * sin[-1])[behind]).all()

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(_ANGLES, st.lists(st.tuples(st.sampled_from(("ad", "pd")), st.floats(0.0, 1.0)),
                             min_size=1, max_size=3),
           st.sampled_from((SMALL, _DEFAULT)), st.lists(st.sets(st.integers(0, 10 ** 6),
                                                                min_size=2), min_size=3, max_size=3))
    def test_slice_scores_equal_full_rows(self, angles, cells, grid, picks):
        # the row kernel scores the near-best (cell, axis pair, theta, m, eta)
        # entries of many cells in one einsum, on kets gathered entry by entry,
        # and every shortlisted (cell, p) pair of a row in one einsum per
        # (branch, sign, Kraus operator); each ket and score must have the bits
        # of the same entry of the per-block and per-cell einsums. The kernel
        # scores both outcomes of a slice in one call, so a call holds at least
        # two entries (a lone entry's einsum is a scalar sum, rounded otherwise)
        rho, noises = a_state(*angles), [make_channel(kind, r) for kind, r in cells]
        n_t, vs = len(grid.theta), _full_qfbc_kets(rho, grid)
        rho_es = np.stack([apply_channel(rho, noise) for noise in noises])
        shape = (len(vs), *vs[0].shape[:3])  # (pair, t, m, e)
        cell, entry = np.array([(c, k % np.prod(shape)) for c, picked in
                                enumerate(picks[:len(noises)]) for k in sorted(picked)]).T
        pair, t, m, e = np.unravel_index(entry, shape)
        kets = optimize._qfbc_kets(optimize._qfbc_tables(grid)["blocks"][pair, t, m, e], _ket(rho))
        got = optimize._qfbc_entry_scores(kets, rho_es[cell])
        full = [[_qfbc_scores(v, rho_e) for v in vs] for rho_e in rho_es]
        for n in range(len(cell)):
            assert kets[n].tobytes() == vs[pair[n]][t[n], m[n], e[n]].tobytes()
            assert got[n].tobytes() == full[cell[n]][pair[n]][t[n], m[n], e[n]].tobytes()
        (u, w), fl = optimize._qffc_ket(grid, _ket(rho)), np.stack(flips())
        fa = fl[:, None] @ np.stack([noise.stack for noise in noises])[:, None] @ fl[:, None]
        mask = np.zeros((len(noises), n_t), dtype=bool)
        mask.flat[[k % mask.size for k in picks[0]]] = True
        cell, t = np.nonzero(mask)
        for i, flip in enumerate(flips()):
            for sign in (+1, -1):
                got = optimize._qffc_pair_scores(u[i][t], w[sign], fa[cell, i])
                full = [_qffc_scores(u[i], w[sign], [flip @ a @ flip for a in noise.ops])
                        for noise in noises]
                for n in range(len(t)):
                    assert got[n].tobytes() == full[cell[n]][t[n]].tobytes()


# nested angle grids: every angle of a coarser grid is one of the next finer
# grid, up to the rounding of linspace
_NESTED = tuple(GridSpec.default(angle_count=n, alpha_count=2, r_count=2) for n in (4, 7, 31))


class TestRowKernelProperties:
    """Properties of the row kernel's qfbc and qffc_rot optima on random pure
    states under both channels."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(_ANGLES, st.sampled_from(("ad", "pd")),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    def test_idle_floor_and_refinement(self, angles, kind, rs):
        rho = a_state(*angles)
        noises = [make_channel(kind, r) for r in rs]
        previous = None
        for grid in _NESTED:
            fb, ff = optimize._optimize_row(rho, noises, grid)
            for noise, fb_opt, ff_opt in zip(noises, fb, ff):
                # theta = pi/2 with both etas 0 leaves the noisy state as it is
                do_nothing = fidelity(rho, apply_channel(rho, noise))
                assert fb_opt.f_opt >= do_nothing - 1e-12
                # p = 1/2, eta = 0 keeps both branches, the second one flipped
                # around the channel: do-nothing under dephasing, which commutes
                # with the flip, but not under damping (see the test below)
                idle = run_qffc_rot(rho, noise, p=grid.strengths[-1], eta=0.0,
                                    signs=(+1, +1)).fidelity
                assert ff_opt.f_opt >= idle - 1e-12
                if kind == "pd":
                    assert ff_opt.f_opt >= do_nothing - 1e-12
            optima = [res.f_opt for res in fb + ff]
            if previous is not None:
                assert all(f >= g - 1e-12 for f, g in zip(optima, previous))
            previous = optima

    def test_feedforward_can_fall_below_do_nothing_under_damping(self):
        # deterministic feed-forward always flips one branch around the
        # channel, so under damping its optimum can lie below doing nothing
        rho, noise = a_state(1.2, 0.3), make_channel("ad", 0.5)
        do_nothing = fidelity(rho, apply_channel(rho, noise))
        for grid in _NESTED:
            assert optimize_qffc_rot(rho, noise, grid).f_opt < do_nothing - 1e-3


class TestOptimumRefinement:
    """No search's optimum falls when its grid is refined, on random pure and
    mixed inputs: the finer grid holds every candidate of the coarser one."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.sampled_from(optimize.OPTIMIZABLE_KINDS), _BLOCH,
           st.sampled_from(("ad", "pd", "identity")), st.floats(0.0, 1.0))
    def test_optimum_never_falls(self, kind, bloch, channel, r):
        polar, azimuth, radius = bloch
        rho = bloch_to_density(radius * np.array([np.sin(polar) * np.cos(azimuth),
                                                  np.sin(polar) * np.sin(azimuth),
                                                  np.cos(polar)]))
        noise = make_channel("ad" if kind in AD_ONLY_KINDS else channel, r)
        coarse, fine = (optimize_scheme(kind, rho, noise, grid).f_opt for grid in _NESTED[:2])
        assert fine >= coarse - 1e-12
