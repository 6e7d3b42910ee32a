"""Flow solver tests: grid construction, closed-form linear oracles, the
backtracking step rule, and the batch/trace contracts."""

import numpy as np
import pytest

from flowenc import data as dd
from flowenc import diffcore as dc
from flowenc import flow as fl
from flowenc.diffcore import Tensor
from flowenc.models import DecoderParams, LossKind


def linear_decoder(A, b):
    return DecoderParams([Tensor(A, requires_grad=True)],
                         [Tensor(b, requires_grad=True)],
                         [A.shape[1], A.shape[0]], output_mode="identity")


def quad_objective(center, curv=1.0):
    """l(z) = 0.5 * curv * |z - center|^2 as a taped objective."""
    c = np.asarray(center, dtype=np.float64)

    def obj(z):
        d = dc.sub(z, dc.constant(c))
        return dc.scale(dc.dot(d, d), 0.5 * curv)

    return obj


class TestLogGrid:
    def test_endpoints_and_monotonicity(self):
        ts = fl.log_time_grid(20.0, 100)
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(20.0, abs=0.0)
        assert np.all(np.diff(ts) > 0)

    def test_denser_near_zero(self):
        ts = fl.log_time_grid(20.0, 100)
        dts = np.diff(ts)
        assert dts[0] < dts[-1] / 10

    def test_slices_sum_to_tau(self):
        for tau, n in [(20.0, 100), (5.0, 37), (300.0, 1500)]:
            dts = np.diff(fl.log_time_grid(tau, n))
            assert abs(dts.sum() - tau) < 1e-12 * max(1.0, tau)

    def test_grid_deterministic(self):
        a = fl.log_time_grid(7.0, 50)
        b = fl.log_time_grid(7.0, 50)
        np.testing.assert_array_equal(a, b)


class TestRK4Fixed:
    def test_identity_oracle_reaches_target(self):
        # l = |z - y|^2 (A=I, b=0): z(t) = (1 - e^(-2t)) y, so
        # |z(tau) - y| = e^(-2 tau) |y| <= e^-tau |y| + integration error.
        y = np.array([1.0, 1.0])
        dec = linear_decoder(np.eye(2), np.zeros(2))
        cfg = fl.FlowConfig(tau=10.0, solver=fl.SolverKind.RK4_FIXED,
                            n_slices=100)
        state, _ = fl.solve_rk4_fixed(y, dec, cfg, LossKind.L2)
        assert np.linalg.norm(state.z - y) <= 1e-3

    def test_matches_closed_form_trajectory(self):
        oracle = dd.make_linear_oracle(4, 8, seed=3)
        y = oracle.ys[0]
        dec = linear_decoder(oracle.A, oracle.b)
        cfg = fl.FlowConfig(tau=20.0, solver=fl.SolverKind.RK4_FIXED,
                            n_slices=200)
        _, trace = fl.solve_rk4_fixed(y, dec, cfg, LossKind.L2)
        for k in (50, 120, 200):
            expected = oracle.flow_z(trace.ts[k], y)
            assert np.linalg.norm(trace.zs[k] - expected) < 1e-5

    def test_stationary_point_is_fixed(self):
        state, _ = fl.integrate_rk4(
            quad_objective(np.ones(3), curv=0.0), np.ones(3),
            fl.FlowConfig(tau=5.0, solver=fl.SolverKind.RK4_FIXED,
                          n_slices=10))
        np.testing.assert_array_equal(state.z, np.ones(3))

    def test_model_calls_four_per_slice(self):
        cfg = fl.FlowConfig(tau=5.0, solver=fl.SolverKind.RK4_FIXED,
                            n_slices=37)
        state, _ = fl.integrate_rk4(quad_objective(np.zeros(2)), np.zeros(2),
                                    cfg)
        assert state.model_calls == 4 * 37

    def test_alpha_exp_decay_slows_late_progress(self):
        y = np.array([2.0, -1.0])
        dec = linear_decoder(np.eye(2), np.zeros(2))
        cfg1 = fl.FlowConfig(tau=10.0, solver=fl.SolverKind.RK4_FIXED,
                             n_slices=100)
        cfg2 = fl.FlowConfig(tau=10.0, solver=fl.SolverKind.RK4_FIXED,
                             n_slices=100,
                             alpha_schedule=fl.AlphaSchedule.EXP_DECAY)
        s1, _ = fl.solve_rk4_fixed(y, dec, cfg1, LossKind.L2)
        s2, _ = fl.solve_rk4_fixed(y, dec, cfg2, LossKind.L2)
        assert np.linalg.norm(s1.z - y) < np.linalg.norm(s2.z - y)

    def test_divergence_carries_time_and_norm(self):
        # Stiff quadratic far beyond the RK4 stability limit explodes.
        obj = quad_objective(np.zeros(1), curv=1e4)
        cfg = fl.FlowConfig(tau=20.0, solver=fl.SolverKind.RK4_FIXED,
                            n_slices=20)
        with pytest.raises(fl.FlowDivergedError) as exc_info:
            fl.integrate_rk4(obj, np.ones(1), cfg)
        assert exc_info.value.t > 0.0


class TestNesterov:
    def test_zero_gradient_keeps_state(self):
        state, _ = fl.integrate_nesterov(
            quad_objective(np.ones(2), curv=0.0), np.ones(2),
            fl.FlowConfig(tau=5.0, solver=fl.SolverKind.NESTEROV2,
                          n_slices=20))
        np.testing.assert_array_equal(state.z, np.ones(2))
        np.testing.assert_array_equal(state.v, np.zeros(2))

    def test_self_refinement_convergence(self):
        # 1-D quadratic l = z^2/2: the N-slice solution must match a 10x
        # finer reference within 1e-3 at tau=5.
        obj = quad_objective(np.zeros(1))
        coarse, _ = fl.integrate_nesterov(
            obj, np.array([1.0]),
            fl.FlowConfig(tau=5.0, solver=fl.SolverKind.NESTEROV2,
                          n_slices=40))
        fine, _ = fl.integrate_nesterov(
            obj, np.array([1.0]),
            fl.FlowConfig(tau=5.0, solver=fl.SolverKind.NESTEROV2,
                          n_slices=400))
        assert abs(coarse.z[0] - fine.z[0]) < 1e-3

    def test_model_calls_match_rk4_structure(self):
        cfg = fl.FlowConfig(tau=5.0, solver=fl.SolverKind.NESTEROV2,
                            n_slices=25)
        state, _ = fl.integrate_nesterov(quad_objective(np.zeros(2)),
                                         np.zeros(2), cfg)
        assert state.model_calls == 4 * 25

    def test_acceleration_on_slow_quadratic(self):
        # With a slow mode, the damped 2nd-order flow is ahead of the plain
        # flow by the end of the first grid quarter.
        oracle_rng = np.random.default_rng(0)
        n, lam = 2, np.array([0.03, 0.05])
        q, _ = np.linalg.qr(oracle_rng.normal(size=(n, n)))
        A = q @ np.diag(np.sqrt(lam)) @ q.T
        dec = linear_decoder(A, np.zeros(n))
        y = oracle_rng.normal(size=n)
        N = 120
        s1, _ = fl.solve_rk4_fixed(y, dec, fl.FlowConfig(
            tau=200.0, solver=fl.SolverKind.RK4_FIXED, n_slices=N),
            LossKind.L2)
        s2, _ = fl.solve_nesterov(y, dec, fl.FlowConfig(
            tau=200.0, solver=fl.SolverKind.NESTEROV2, n_slices=N),
            LossKind.L2)
        k = N // 4
        assert s2.loss_history[k][1] <= s1.loss_history[k][1]


class TestAMD:
    def test_hand_computed_first_step(self):
        # l = (z-3)^2/2 from z0=0: gradient -3, first proposal dt = s0 = 1
        # lands exactly on 3 with loss 4.5 -> 0, accepted at m = 0.
        state, trace = fl.integrate_amd(
            quad_objective(np.array([3.0])), np.zeros(1),
            fl.FlowConfig(tau=20.0, solver=fl.SolverKind.AMD))
        assert state.loss_history[0] == (0.0, 4.5)
        assert trace.dts[0] == 1.0
        assert state.z[0] == 3.0
        assert state.loss_history[1][1] == 0.0

    def test_already_optimal_stops_immediately(self):
        state, trace = fl.integrate_amd(
            quad_objective(np.zeros(3)), np.zeros(3),
            fl.FlowConfig(tau=20.0, solver=fl.SolverKind.AMD))
        np.testing.assert_array_equal(state.z, np.zeros(3))
        assert trace.n_slices == 0
        assert state.early_stopped and not state.stalled

    def test_strict_descent_over_random_draws(self):
        from flowenc import models as md
        rng = np.random.default_rng(100)
        for trial in range(15):
            dec = md.init_decoder([4, 8, 16],
                                  np.random.default_rng(1000 + trial))
            y = rng.uniform(0.05, 0.95, size=16)
            cfg = fl.FlowConfig(tau=30.0, solver=fl.SolverKind.AMD,
                                early_stop_tol=1e-4)
            state, _ = fl.solve_amd(y, dec, cfg)
            losses = [l for _, l in state.loss_history]
            assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_step_sizes_bounded_and_time_clamped(self):
        state, trace = fl.integrate_amd(
            quad_objective(np.array([5.0, -2.0]), curv=0.3),
            np.zeros(2),
            fl.FlowConfig(tau=8.0, solver=fl.SolverKind.AMD, s_max=10.0,
                          early_stop_tol=0.0))
        assert all(dt <= 10.0 + 1e-15 for dt in trace.dts)
        assert state.t <= 8.0 + 1e-12
        assert state.t == pytest.approx(8.0, abs=1e-12)  # reaches tau exactly

    def test_clamped_candidate_comes_first(self):
        # l = 5(z-1)^2 from z0 = 0, tau = 0.5.  Steps 1 and 2 overshoot
        # tau - t: that candidate is tried first and rejected, then beta^m * s
        # for the m whose step fits, until beta^6 * s is accepted.  Step 3
        # accepts its first candidate, tau - t, and ends exactly at tau.
        state, trace = fl.integrate_amd(
            quad_objective(np.array([1.0]), curv=10.0), np.zeros(1),
            fl.FlowConfig(tau=0.5, solver=fl.SolverKind.AMD,
                          early_stop_tol=0.0))
        assert trace.dts == [0.75 ** 6, 1.1 * 0.75 ** 6, 0.5 - trace.ts[2]]
        assert state.t == 0.5
        assert state.model_calls == 10  # 1 initial gradient + 5 + 3 + 1 trials

    def test_early_stop_on_relative_improvement(self):
        # Near-flat quadratic around the start: tiny relative improvements.
        state, _ = fl.integrate_amd(
            quad_objective(np.array([1e-4]), curv=1e-4), np.zeros(1),
            fl.FlowConfig(tau=1e7, solver=fl.SolverKind.AMD,
                          early_stop_tol=0.01))
        assert state.early_stopped
        losses = [l for _, l in state.loss_history]
        if len(losses) >= 2:  # the triggering step improved < 1 percent
            assert (losses[-2] - losses[-1]) / losses[-2] < 0.01

    def test_stalled_flag_on_flat_float_landscape(self):
        # Loss dominated by a huge constant: every candidate step rounds to
        # the same float, so backtracking exhausts and flags a stall.
        def obj(z):
            return dc.add_scalar(dc.scale(dc.dot(z, z), 0.5), 1e16)

        state, _ = fl.integrate_amd(
            obj, np.ones(2),
            fl.FlowConfig(tau=50.0, solver=fl.SolverKind.AMD))
        assert state.stalled
        np.testing.assert_array_equal(state.z, np.ones(2))

    def test_alpha_is_irrelevant_for_amd(self):
        y = np.array([0.5, 0.25])
        dec = linear_decoder(np.eye(2), np.zeros(2))
        s1, _ = fl.solve_amd(y, dec, fl.FlowConfig(
            tau=20.0, solver=fl.SolverKind.AMD), LossKind.L2)
        s2, _ = fl.solve_amd(y, dec, fl.FlowConfig(
            tau=20.0, solver=fl.SolverKind.AMD,
            alpha_schedule=fl.AlphaSchedule.EXP_DECAY), LossKind.L2)
        np.testing.assert_array_equal(s1.z, s2.z)


class TestAMDForwardReuse:
    """Each AMD trial is one forward pass, and an accepted trial's forward
    pass serves the gradient the flow continues with."""

    CFG = fl.FlowConfig(tau=100.0, solver=fl.SolverKind.AMD,
                        early_stop_tol=1e-4)

    def _cli_decoder_and_image(self):
        from flowenc import models as md
        dec = md.init_decoder([16, 32, 64, 128, 784],
                              np.random.default_rng(70))
        return dec, dd.synth_digits(4, seed=71).images[0]

    def test_one_forward_per_unit_and_backward_per_continued_step(
            self, monkeypatch):
        from flowenc import models as md
        dec, y = self._cli_decoder_and_image()
        forwards, backwards = [], []
        real_forward, real_backward = md._loss_forward, md._loss_backward

        def counted_forward(y, z, decoder, kind):
            forwards.append(np.asarray(z, dtype=np.float64).tobytes())
            return real_forward(y, z, decoder, kind)

        def counted_backward(y, forward, decoder, wrt_z, wrt_theta):
            backwards.append(forward[1][0].tobytes())  # the layer-0 input, z
            return real_backward(y, forward, decoder, wrt_z, wrt_theta)

        monkeypatch.setattr(md, "_loss_forward", counted_forward)
        monkeypatch.setattr(md, "_loss_backward", counted_backward)
        state, trace = fl.encode_sample(y, dec, self.CFG)
        assert trace.n_slices > 5 and not state.stalled
        assert len(forwards) == state.model_calls
        assert len(set(forwards)) == len(forwards)
        # The start, then every accepted step except the last, which ended
        # the flow: no rejected trial and no final point is differentiated.
        assert backwards == [z.tobytes() for z in trace.zs[:-1]]

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_kernel_and_tape_flows_bit_equal(self, kind):
        dec, y = self._cli_decoder_and_image()
        obj = fl.reconstruction_objective(y, dec, kind)
        z0 = np.zeros(dec.latent_dim)
        ks, kt = fl.integrate_amd(obj, z0, self.CFG)
        ts, tt = fl.integrate_amd(lambda z: obj(z), z0, self.CFG)
        assert kt.n_slices > 5 and len(kt.zs) == len(tt.zs)
        np.testing.assert_array_equal(ks.z, ts.z)
        for a, b in zip(kt.zs + kt.grads, tt.zs + tt.grads, strict=True):
            np.testing.assert_array_equal(a, b)
        assert ks.loss_history == ts.loss_history
        assert ks.model_calls == ts.model_calls


class TestConvergenceAcrossSolvers:
    def test_all_three_reach_least_squares_solution(self):
        oracle = dd.make_linear_oracle(4, 8, seed=7)
        y = oracle.ys[1]
        zstar = oracle.z_star(y)
        dec = linear_decoder(oracle.A, oracle.b)

        s_rk4, _ = fl.solve_rk4_fixed(y, dec, fl.FlowConfig(
            tau=20.0, solver=fl.SolverKind.RK4_FIXED, n_slices=200),
            LossKind.L2)
        s_nag, _ = fl.solve_nesterov(y, dec, fl.FlowConfig(
            tau=300.0, solver=fl.SolverKind.NESTEROV2, n_slices=1500),
            LossKind.L2)
        s_amd, _ = fl.solve_amd(y, dec, fl.FlowConfig(
            tau=20.0, solver=fl.SolverKind.AMD, early_stop_tol=0.0),
            LossKind.L2)
        for state in (s_rk4, s_nag, s_amd):
            assert np.linalg.norm(state.z - zstar) / np.linalg.norm(zstar) \
                < 1e-3


class TestBatchAndTrace:
    def _decoder(self):
        from flowenc import models as md
        return md.init_decoder([4, 8, 16], np.random.default_rng(50))

    def test_identical_samples_identical_latents(self):
        dec = self._decoder()
        y = np.random.default_rng(0).uniform(0.1, 0.9, size=16)
        cfg = fl.FlowConfig(tau=20.0, solver=fl.SolverKind.AMD)
        results = fl.encode_batch([y, y.copy(), y.copy()], dec, cfg)
        z0 = results[0][0].z
        for state, _ in results[1:]:
            np.testing.assert_array_equal(state.z, z0)

    def test_batch_matches_single_solves_bitwise(self):
        dec = self._decoder()
        rng = np.random.default_rng(4)
        batch = [rng.uniform(0.1, 0.9, size=16) for _ in range(2)]
        cfg = fl.FlowConfig(tau=20.0, solver=fl.SolverKind.AMD)
        batched = fl.encode_batch(batch, dec, cfg)
        for y, (state, _) in zip(batch, batched):
            single, _ = fl.encode_sample(y, dec, cfg)
            np.testing.assert_array_equal(state.z, single.z)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fl.encode_batch([], self._decoder(),
                            fl.FlowConfig(solver=fl.SolverKind.AMD))

    def test_failure_carries_sample_index(self):
        A = np.eye(1) * 100.0  # stiff: RK4 at this grid diverges
        dec = linear_decoder(A, np.zeros(1))
        good = np.zeros(1)
        bad = np.array([1.0])
        cfg = fl.FlowConfig(tau=20.0, solver=fl.SolverKind.RK4_FIXED,
                            n_slices=10)
        with pytest.raises(fl.FlowError, match="sample 1"):
            fl.encode_batch([good, bad], dec, cfg, LossKind.L2)

    def test_trace_times_strictly_increase_to_final(self):
        dec = self._decoder()
        y = np.random.default_rng(2).uniform(0.1, 0.9, size=16)
        for cfg in (fl.FlowConfig(tau=20.0, solver=fl.SolverKind.AMD),
                    fl.FlowConfig(tau=5.0, solver=fl.SolverKind.RK4_FIXED,
                                  n_slices=30)):
            state, trace = fl.encode_sample(y, dec, cfg)
            assert trace.complete
            assert all(b > a for a, b in zip(trace.ts, trace.ts[1:]))
            assert trace.ts[-1] == pytest.approx(state.t)
            assert len(trace.zs) == trace.n_slices + 1
            assert len(trace.grads) == trace.n_slices

    def test_bit_reproducible_across_runs(self):
        dec = self._decoder()
        y = np.random.default_rng(9).uniform(0.1, 0.9, size=16)
        for solver, kwargs in ((fl.SolverKind.AMD, {}),
                               (fl.SolverKind.RK4_FIXED, {"n_slices": 40}),
                               (fl.SolverKind.NESTEROV2, {"n_slices": 40})):
            cfg = fl.FlowConfig(tau=10.0, solver=solver, **kwargs)
            a, _ = fl.encode_sample(y, dec, cfg)
            b, _ = fl.encode_sample(y, dec, cfg)
            np.testing.assert_array_equal(a.z, b.z)

    def test_trace_csv_dump(self, tmp_path):
        dec = self._decoder()
        rng = np.random.default_rng(4)
        batch = [rng.uniform(0.1, 0.9, size=16) for _ in range(2)]
        cfg = fl.FlowConfig(tau=20.0, solver=fl.SolverKind.AMD)
        results = fl.encode_batch(batch, dec, cfg)
        path = tmp_path / "trace.csv"
        fl.dump_trace_csv(path, results)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sample_id,step,t,dt,loss,grad_norm"
        expected_rows = sum(trace.n_slices for _, trace in results)
        assert len(lines) == 1 + expected_rows


class TestTapeBoundary:
    """Reconstruction objectives take the closed-form kernels; generic
    objectives, and every typed error, stay as they were."""

    def _no_grad(self, monkeypatch):
        def no_tape(*args, **kwargs):
            raise AssertionError("dc.grad called")
        monkeypatch.setattr(dc, "grad", no_tape)

    def test_reconstruction_flows_make_no_gradient_sweep(self, monkeypatch):
        from flowenc import models as md
        from flowenc import training as tr
        dec = md.init_decoder([4, 8, 16], np.random.default_rng(60))
        y = np.random.default_rng(61).uniform(0.1, 0.9, size=16)
        self._no_grad(monkeypatch)
        for solver in fl.SolverKind:
            for kind in LossKind:
                cfg = fl.FlowConfig(tau=5.0, solver=solver, n_slices=5)
                state, _ = fl.encode_sample(y, dec, cfg, kind)
                tr.grad_theta_approximate(y, state.z, dec, kind)

    def test_generic_objective_still_sweeps(self, monkeypatch):
        self._no_grad(monkeypatch)
        with pytest.raises(AssertionError, match="dc.grad called"):
            fl.integrate_amd(quad_objective(np.ones(2)), np.zeros(2),
                             fl.FlowConfig(solver=fl.SolverKind.AMD))

    def test_hidden_pre_activations_at_minus_inf_diverge(self):
        # Layer 0 overflows to -inf everywhere; ELU maps that to a finite -1,
        # so only a check of each pre-activation sees it.
        from flowenc import models as md
        dec = md.init_decoder([4, 8, 16], np.random.default_rng(62))
        params = dec.tensors()
        params[0] = Tensor(np.full((8, 4), -1e300), requires_grad=True)
        dec.replace_tensors(params)
        y = np.random.default_rng(63).uniform(0.1, 0.9, size=16)
        z0 = np.full(4, 1e10)
        for solver in fl.SolverKind:
            cfg = fl.FlowConfig(tau=5.0, solver=solver, n_slices=5, z0=z0)
            with pytest.raises(fl.FlowDivergedError):
                fl.encode_sample(y, dec, cfg)
        obj = fl.reconstruction_objective(y, dec)
        with pytest.raises(fl.FlowDivergedError):
            fl.loss_value(obj, z0, lambda msg: fl.FlowDivergedError(0.0, 0.0))

    def test_loss_at_raises_a_gradient_error_only_when_asked(self):
        # At z = 0 with zero biases every pre-activation is 0, so the forward
        # pass is finite, but W_0^T (W_1^T g) overflows.
        from flowenc import models as md
        dec = md.init_decoder([4, 8, 16], np.random.default_rng(64))
        dec.replace_tensors([Tensor(np.full(t.shape, 1e200),
                                    requires_grad=True)
                             if t.data.ndim == 2 else t
                             for t in dec.tensors()])
        obj = fl.reconstruction_objective(np.zeros(16), dec)
        def error(msg):
            return fl.FlowDivergedError(1.5, 0.0)

        for objective in (obj, lambda z: obj(z)):
            value, grad = fl.loss_at(objective, np.zeros(4), error)
            assert value == fl.loss_value(obj, np.zeros(4), RuntimeError)
            with pytest.raises(fl.FlowDivergedError):
                grad()


class TestConfigValidation:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            fl.FlowConfig(beta=1.5)
        with pytest.raises(ValueError, match="s0"):
            fl.FlowConfig(s0=20.0, s_max=10.0)
        with pytest.raises(ValueError, match="tau"):
            fl.FlowConfig(tau=-1.0)
        with pytest.raises(ValueError, match="n_slices"):
            fl.FlowConfig(n_slices=1)

    def test_z0_shape_checked(self):
        from flowenc import models as md
        dec = md.init_decoder([4, 8], np.random.default_rng(0))
        cfg = fl.FlowConfig(tau=5.0, solver=fl.SolverKind.AMD,
                            z0=np.zeros(7))
        with pytest.raises(ValueError, match="z0"):
            fl.encode_sample(np.zeros(8), dec, cfg)
