"""Optimizers, both parameter-gradient routes, training loops, evaluation."""

import gc

import numpy as np
import pytest

from flowenc import data as dd
from flowenc import diffcore as dc
from flowenc import flow as fl
from flowenc import models as md
from flowenc import training as tr
from flowenc.diffcore import Tensor
from flowenc.models import DecoderParams, LossKind


def small_decoder(seed=5, widths=(4, 8, 16)):
    return md.init_decoder(list(widths), np.random.default_rng(seed))


def synth_splits(n=160, seed=11, n_val=40, n_test=40):
    ds = dd.synth_digits(n, seed=seed)
    cut1 = n - n_val - n_test
    cut2 = n - n_test
    return (dd.Dataset(ds.images[:cut1], ds.labels[:cut1], "synth", "train"),
            dd.Dataset(ds.images[cut1:cut2], ds.labels[cut1:cut2], "synth",
                       "validation"),
            dd.Dataset(ds.images[cut2:], ds.labels[cut2:], "synth", "test"))


class TestOptimizers:
    def test_rmsprop_hand_value(self):
        p = [Tensor(np.array([1.0]), requires_grad=True)]
        opt = tr.rmsprop_state(p, lr=5e-4, alpha=0.9, eps=1e-6)
        (p1,) = tr.optimizer_step(opt, p, [np.array([1.0])])
        # accum = 0.1; dp = -5e-4 / (sqrt(0.1) + 1e-6)
        expect = -5e-4 / (np.sqrt(0.1) + 1e-6)
        assert p1.data[0] - 1.0 == pytest.approx(expect, rel=1e-12)
        assert p1.data[0] - 1.0 == pytest.approx(-1.5811e-3, abs=1e-7)

    def test_adam_first_step_bias_corrected(self):
        p = [Tensor(np.array([0.0]), requires_grad=True)]
        opt = tr.adam_state(p, lr=1e-3)
        (p1,) = tr.optimizer_step(opt, p, [np.array([1.0])])
        assert p1.data[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_zero_gradient_keeps_params(self):
        for make in (tr.rmsprop_state, tr.adam_state):
            p = [Tensor(np.array([2.5, -1.0]), requires_grad=True)]
            opt = make(p)
            (p1,) = tr.optimizer_step(opt, p, [np.zeros(2)])
            np.testing.assert_array_equal(p1.data, p[0].data)

    def test_shape_mismatch_rejected(self):
        p = [Tensor(np.zeros(3), requires_grad=True)]
        opt = tr.rmsprop_state(p)
        with pytest.raises(ValueError, match="shape"):
            tr.optimizer_step(opt, p, [np.zeros(4)])

    def test_step_counter_increases(self):
        p = [Tensor(np.zeros(2), requires_grad=True)]
        opt = tr.adam_state(p)
        for k in range(3):
            tr.optimizer_step(opt, p, [np.ones(2)])
            assert opt.step_count == k + 1


class TestApproximateGradient:
    def test_zero_at_perfect_reconstruction_l2(self):
        dec = small_decoder()
        z = np.random.default_rng(0).normal(size=4)
        y = md.decode(dc.constant(z), dec).data  # exact reconstruction
        grads, calls = tr.grad_theta_approximate(y, z, dec, LossKind.L2)
        assert calls == 1
        for g in grads:
            np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_matches_fd_with_z_fixed(self):
        dec = small_decoder(seed=9)
        rng = np.random.default_rng(1)
        z = rng.normal(size=4)
        y = rng.uniform(0.1, 0.9, size=16)
        grads, _ = tr.grad_theta_approximate(y, z, dec,
                                             LossKind.CROSS_ENTROPY)
        h = 1e-5
        W0 = dec.weights[0].data
        fd = np.zeros_like(W0)
        for i in range(W0.shape[0]):
            for j in range(W0.shape[1]):
                Wp, Wm = W0.copy(), W0.copy()
                Wp[i, j] += h
                Wm[i, j] -= h
                d_p = md.DecoderParams(
                    [Tensor(Wp)] + [Tensor(w.data) for w in dec.weights[1:]],
                    [Tensor(b.data) for b in dec.biases], dec.widths)
                d_m = md.DecoderParams(
                    [Tensor(Wm)] + [Tensor(w.data) for w in dec.weights[1:]],
                    [Tensor(b.data) for b in dec.biases], dec.widths)
                lp = md.reconstruction_loss(y, dc.constant(z), d_p,
                                            LossKind.CROSS_ENTROPY).item()
                lm = md.reconstruction_loss(y, dc.constant(z), d_m,
                                            LossKind.CROSS_ENTROPY).item()
                fd[i, j] = (lp - lm) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[0])), 1e-8)
        assert (np.abs(grads[0] - fd) / denom).max() < 1e-5

    def test_flow_plus_update_cost_structure(self):
        # Flow O(N) decoder calls (4 per RK4 slice), update O(1).
        dec = small_decoder()
        y = np.random.default_rng(2).uniform(0.1, 0.9, size=16)
        cfg = fl.FlowConfig(tau=5.0, solver=fl.SolverKind.RK4_FIXED,
                            n_slices=50)
        state, _ = fl.solve_rk4_fixed(y, dec, cfg)
        grads, calls = tr.grad_theta_approximate(y, state.z, dec)
        assert state.model_calls == 4 * 50
        assert calls == 1


class TestFullAdjoint:
    def test_one_dimensional_closed_form(self):
        # D(z, th) = z + th with l = (z + th - y)^2 / 2 gives
        # dJ/dth = (th - y) e^(-2 tau) for the exact flow from z(0) = 0.
        th_v, y_v, tau = 1.7, 0.4, 2.0
        th = Tensor([th_v], requires_grad=True)

        def obj(z):
            d = dc.sub(dc.add(z, th), dc.constant([y_v]))
            return dc.scale(dc.dot(d, d), 0.5)

        cfg = fl.FlowConfig(tau=tau, solver=fl.SolverKind.RK4_FIXED,
                            n_slices=200)
        _, trace = fl.integrate_rk4(obj, np.zeros(1), cfg)
        grads, _ = tr.full_adjoint_gradient(obj, [th], trace, lambda t: 1.0)
        expect = (th_v - y_v) * np.exp(-2 * tau)
        assert grads[0][0] == pytest.approx(expect, rel=2e-3)

    def test_linear_decoder_against_explicit_solution(self):
        # FD over the closed-form map theta -> loss(z(tau; theta)) is an
        # oracle fully independent of the solver and the adjoint code.
        rng = np.random.default_rng(11)
        m, n, tau = 2, 3, 10.0
        A0 = rng.normal(size=(m, n)) * 0.7
        b0 = rng.normal(size=m)
        y = rng.normal(size=m)
        At = Tensor(A0, requires_grad=True)
        bt = Tensor(b0, requires_grad=True)

        def obj(z):
            r = dc.sub(dc.affine(At, z, bt), dc.constant(y))
            return dc.dot(r, r)

        def z_tau(Af, bf):
            w, q = np.linalg.eigh(Af.T @ Af)
            zs = np.linalg.pinv(Af) @ (y - bf)
            return q @ (-np.expm1(-2 * np.maximum(w, 0) * tau)
                        * (q.T @ zs))

        def endloss(Af, bf):
            r = Af @ z_tau(Af, bf) + bf - y
            return r @ r

        h = 1e-6
        fd_A = np.zeros_like(A0)
        fd_b = np.zeros_like(b0)
        for i in range(m):
            for j in range(n):
                Ap, Am = A0.copy(), A0.copy()
                Ap[i, j] += h
                Am[i, j] -= h
                fd_A[i, j] = (endloss(Ap, b0) - endloss(Am, b0)) / (2 * h)
            bp, bm = b0.copy(), b0.copy()
            bp[i] += h
            bm[i] -= h
            fd_b[i] = (endloss(A0, bp) - endloss(A0, bm)) / (2 * h)

        cfg = fl.FlowConfig(tau=tau, solver=fl.SolverKind.RK4_FIXED,
                            n_slices=200)
        _, trace = fl.integrate_rk4(obj, np.zeros(n), cfg)
        grads, _ = tr.full_adjoint_gradient(obj, [At, bt], trace,
                                            lambda t: 1.0)
        assert np.abs(grads[0] - fd_A).max() / np.abs(fd_A).max() < 1e-3
        assert np.abs(grads[1] - fd_b).max() / np.abs(fd_b).max() < 1e-3

    def test_terminal_costate_is_negative_gradient(self):
        dec = small_decoder(seed=3)
        y = np.random.default_rng(3).uniform(0.1, 0.9, size=16)
        cfg = fl.FlowConfig(tau=5.0, solver=fl.SolverKind.RK4_FIXED,
                            n_slices=40)
        _, trace = fl.solve_rk4_fixed(y, dec, cfg)
        obj = fl.reconstruction_objective(y, dec)
        costates = []
        tr.full_adjoint_gradient(obj, dec.tensors(), trace,
                                 lambda t: 1.0, costate_out=costates)
        t_end, lam_end = costates[0]
        assert t_end == pytest.approx(trace.ts[-1])
        with dc.recording():
            zt = Tensor(trace.zs[-1], requires_grad=True)
            (g,) = dc.grad(obj(zt), [zt])
        np.testing.assert_allclose(lam_end, -g.data, atol=1e-12)

    def test_correction_vanishes_when_mixed_term_is_zero(self):
        # l(z, th) = |z - y1|^2/2 + |th - y2|^2/2 has d_th grad_z l = 0,
        # so the integral term vanishes and full == approximate exactly.
        rng = np.random.default_rng(7)
        y1, y2 = rng.normal(size=3), rng.normal(size=3)
        th = Tensor(rng.normal(size=3), requires_grad=True)

        def obj(z):
            dz = dc.sub(z, dc.constant(y1))
            dth = dc.sub(th, dc.constant(y2))
            return dc.add(dc.scale(dc.dot(dz, dz), 0.5),
                          dc.scale(dc.dot(dth, dth), 0.5))

        cfg = fl.FlowConfig(tau=4.0, solver=fl.SolverKind.RK4_FIXED,
                            n_slices=60)
        _, trace = fl.integrate_rk4(obj, np.zeros(3), cfg)
        full, _ = tr.full_adjoint_gradient(obj, [th], trace, lambda t: 1.0)
        with dc.recording():
            z_end = dc.constant(trace.zs[-1])
            (approx,) = dc.grad(obj(z_end), [th])
        np.testing.assert_allclose(full[0], approx.data, atol=1e-12)

    def test_theta_change_invalidates_trace(self):
        dec = small_decoder()
        y = np.random.default_rng(0).uniform(0.1, 0.9, size=16)
        cfg = fl.FlowConfig(tau=5.0, solver=fl.SolverKind.RK4_FIXED,
                            n_slices=20)
        _, trace = fl.solve_rk4_fixed(y, dec, cfg)
        opt = tr.rmsprop_state(dec.tensors())
        grads, _ = tr.grad_theta_approximate(y, trace.final_z(), dec)
        dec.replace_tensors(tr.optimizer_step(opt, dec.tensors(), grads))
        with pytest.raises(ValueError, match="mismatch"):
            tr.grad_theta_full_adjoint(y, trace, dec, cfg)

    def test_nesterov_trace_rejected(self):
        dec = small_decoder()
        y = np.random.default_rng(0).uniform(0.1, 0.9, size=16)
        cfg = fl.FlowConfig(tau=5.0, solver=fl.SolverKind.NESTEROV2,
                            n_slices=10)
        _, trace = fl.solve_nesterov(y, dec, cfg)
        assert trace.solver == fl.SolverKind.NESTEROV2
        with pytest.raises(ValueError, match="Nesterov"):
            tr.grad_theta_full_adjoint(y, trace, dec, cfg)

    def test_incomplete_trace_rejected(self):
        th = Tensor([1.0], requires_grad=True)
        trace = fl.FlowTrace(ts=[0.0], zs=[np.zeros(1)], complete=False)
        with pytest.raises(ValueError, match="complete"):
            tr.full_adjoint_gradient(lambda z: dc.dot(z, z), [th], trace,
                                     lambda t: 1.0)


def _trained_cli_decoder():
    train, val, _ = synth_splits(n=40, seed=29, n_val=8, n_test=8)
    dec = md.init_decoder([16, 32, 64, 128, 784], np.random.default_rng(30))
    tr.train_gfe(train, val, dec,
                 fl.FlowConfig(tau=20.0, solver=fl.SolverKind.AMD),
                 tr.AdjointMode.APPROXIMATE,
                 tr.rmsprop_state(dec.tensors(), lr=5e-3),
                 tr.TrainSchedule(iterations=6, batch_size=1, val_size=2),
                 np.random.default_rng(31))
    return dec, val.images[0]


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestKernelAdjoint:
    """The full adjoint on closed-form kernels against the taped one."""

    @pytest.mark.parametrize("cfg", [
        fl.FlowConfig(tau=5.0, solver=fl.SolverKind.RK4_FIXED, n_slices=12),
        fl.FlowConfig(tau=5.0, solver=fl.SolverKind.RK4_FIXED, n_slices=12,
                      alpha_schedule=fl.AlphaSchedule.EXP_DECAY),
        fl.FlowConfig(tau=10.0, solver=fl.SolverKind.AMD)],
        ids=["rk4-one", "rk4-exp-decay", "amd"])
    def test_matches_taped_adjoint(self, cfg, monkeypatch):
        dec, y = _trained_cli_decoder()
        obj = fl.reconstruction_objective(y, dec)
        _, trace = fl.encode_sample(y, dec, cfg)
        alpha = (fl._alpha_fn(cfg) if cfg.solver != fl.SolverKind.AMD
                 else (lambda t: 1.0))
        want_lam, got_lam = [], []
        want, want_calls = tr.full_adjoint_gradient(
            lambda z: obj(z), dec.tensors(), trace, alpha, want_lam)

        def no_tape(*args, **kwargs):
            raise AssertionError("the kernel path opened a second-order tape")

        monkeypatch.setattr(dc, "hvp", no_tape)
        monkeypatch.setattr(dc, "mixed_vjp", no_tape)
        got, got_calls = tr.full_adjoint_gradient(obj, dec.tensors(), trace,
                                                  alpha, got_lam)
        assert got_calls == want_calls == 15 * trace.n_slices + 4
        for a, b in zip(got, want):
            assert _rel(a, b) <= 1e-12
        assert [t for t, _ in got_lam] == [t for t, _ in want_lam]
        for (_, a), (_, b) in zip(got_lam, want_lam):
            assert _rel(a, b) <= 1e-12

    def test_generic_objective_stays_taped(self, monkeypatch):
        dec = small_decoder(seed=3)
        y = np.random.default_rng(3).uniform(0.1, 0.9, size=16)
        obj = fl.reconstruction_objective(y, dec)
        cfg = fl.FlowConfig(tau=5.0, solver=fl.SolverKind.RK4_FIXED,
                            n_slices=4)
        _, trace = fl.encode_sample(y, dec, cfg)

        def no_tape(*args, **kwargs):
            raise AssertionError("taped")

        monkeypatch.setattr(dc, "hvp", no_tape)
        with pytest.raises(AssertionError, match="taped"):
            tr.full_adjoint_gradient(lambda z: obj(z), dec.tensors(), trace,
                                     lambda t: 1.0)
        # Another parameter list is not the kernel's either.
        with pytest.raises(AssertionError, match="taped"):
            tr.full_adjoint_gradient(obj, dec.weights, trace, lambda t: 1.0)


class TestTapeBoundary:
    @pytest.mark.parametrize("taped", [False, True])
    def test_overflow_at_a_costate_point_is_typed(self, taped):
        # Layer 0's pre-activations overflow to -inf at zs[0], which only
        # the costate visits; ELU would map them to a finite -1.
        dec = small_decoder(seed=4)
        params = dec.tensors()
        params[0] = Tensor(np.full((8, 4), -1e300), requires_grad=True)
        dec.replace_tensors(params)
        y = np.random.default_rng(1).uniform(0.1, 0.9, size=16)
        obj = fl.reconstruction_objective(y, dec)
        zs = [np.full(4, 1e10), np.full(4, 1e-10), np.full(4, 1e-10)]
        trace = fl.FlowTrace(ts=[0.0, 1.0, 2.0], zs=zs, dts=[1.0, 1.0],
                             complete=True, solver=fl.SolverKind.RK4_FIXED)
        objective = (lambda z: obj(z)) if taped else obj
        gc.collect()
        gc.disable()
        try:
            with pytest.raises(tr.TrainDivergedError):
                tr.full_adjoint_gradient(objective, dec.tensors(), trace,
                                         lambda t: 1.0)
        finally:
            gc.enable()

    def test_tapes_need_no_cyclic_collector(self):
        # Tapes are freed by reference counting alone: with the collector
        # off, a value+grad and a full adjoint leave it nothing to find.
        dec = small_decoder(seed=3)
        y = np.random.default_rng(3).uniform(0.1, 0.9, size=16)
        cfg = fl.FlowConfig(tau=5.0, solver=fl.SolverKind.RK4_FIXED,
                            n_slices=5)
        gc.collect()
        gc.disable()
        try:
            state, trace = fl.encode_sample(y, dec, cfg)
            tr.grad_theta_approximate(y, state.z, dec)
            tr.grad_theta_full_adjoint(y, trace, dec, cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_non_finite_parameter_gradient_is_typed(self):
        dec = small_decoder(seed=2)
        big = md.DecoderParams([Tensor(w.data * 1e200, requires_grad=True)
                                for w in dec.weights],
                               dec.biases, dec.widths)
        z = np.random.default_rng(0).normal(size=4)
        y = np.random.default_rng(1).uniform(0.1, 0.9, size=16)
        with pytest.raises(tr.TrainDivergedError):
            tr.grad_theta_approximate(y, z, big)

    def test_hidden_pre_activations_at_minus_inf_are_typed(self):
        # ELU maps the -inf pre-activations of layer 0 to a finite -1.
        dec = small_decoder(seed=4)
        params = dec.tensors()
        params[0] = Tensor(np.full((8, 4), -1e300), requires_grad=True)
        dec.replace_tensors(params)
        y = np.random.default_rng(1).uniform(0.1, 0.9, size=16)
        with pytest.raises(tr.TrainDivergedError):
            tr.grad_theta_approximate(y, np.full(4, 1e10), dec)

    def test_overflowing_optimizer_step_is_typed(self):
        train, val, _ = synth_splits(n=40, seed=23, n_val=8, n_test=8)
        dec = md.init_decoder([6, 12, 784], np.random.default_rng(4))
        cfg = fl.FlowConfig(tau=10.0, solver=fl.SolverKind.AMD)
        opt = tr.rmsprop_state(dec.tensors(), lr=1e308)
        sched = tr.TrainSchedule(iterations=2, batch_size=1, val_size=2)
        with np.errstate(over="ignore"), \
                pytest.raises(tr.TrainDivergedError, match="iteration 1"):
            tr.train_gfe(train, val, dec, cfg, tr.AdjointMode.APPROXIMATE,
                         opt, sched, np.random.default_rng(0))


class TestCostStructure:
    def test_full_to_approximate_call_ratio(self):
        dec = small_decoder(seed=21, widths=(6, 12, 24))
        y = np.random.default_rng(4).uniform(0.1, 0.9, size=24)
        n_slices = 100
        cfg = fl.FlowConfig(tau=5.0, solver=fl.SolverKind.RK4_FIXED,
                            n_slices=n_slices)
        state, trace = fl.solve_rk4_fixed(y, dec, cfg)
        _, approx_calls = tr.grad_theta_approximate(y, state.z, dec)
        _, full_calls = tr.grad_theta_full_adjoint(y, trace, dec, cfg)
        approx_total = state.model_calls + approx_calls
        full_total = state.model_calls + full_calls
        assert approx_total == 4 * n_slices + 1
        ratio = full_total / approx_total
        assert 4.5 <= ratio <= 5.5


class TestTrainLoops:
    def test_one_gfe_iteration_reduces_training_loss(self):
        oracle = dd.make_linear_oracle(3, 6, seed=2, n_samples=12)
        images = (oracle.ys - oracle.ys.min()) / np.ptp(oracle.ys)
        train = dd.Dataset(images[:8], np.zeros(8, dtype=np.uint8), "lin",
                           "train")
        val = dd.Dataset(images[8:], np.zeros(4, dtype=np.uint8), "lin",
                         "validation")
        dec = md.init_decoder([3, 6], np.random.default_rng(0),
                              output_mode="sigmoid")
        cfg = fl.FlowConfig(tau=20.0, solver=fl.SolverKind.AMD)
        opt = tr.rmsprop_state(dec.tensors(), lr=5e-3)
        sched = tr.TrainSchedule(iterations=6, batch_size=4,
                                 validate_every=6, val_size=4)
        report = tr.train_gfe(train, val, dec, cfg,
                              tr.AdjointMode.APPROXIMATE, opt, sched,
                              np.random.default_rng(0))
        train_rows = [r.loss for r in report.metrics if r.split == "train"]
        assert train_rows[-1] < train_rows[0]

    def test_full_vs_approximate_curves_stay_close(self):
        # Matched seeds and iteration counts: validation curves of the two
        # adjoint modes differ by < 20 percent relative.
        train, val, _ = synth_splits(n=120, seed=31)
        widths = [6, 12, 24, 784]
        cfg = fl.FlowConfig(tau=10.0, solver=fl.SolverKind.RK4_FIXED,
                            n_slices=24)
        curves = {}
        for mode in (tr.AdjointMode.APPROXIMATE, tr.AdjointMode.FULL):
            dec = md.init_decoder(widths, np.random.default_rng(8))
            opt = tr.rmsprop_state(dec.tensors(), lr=2e-3)
            sched = tr.TrainSchedule(iterations=20, batch_size=2,
                                     validate_every=5, val_size=12)
            report = tr.train_gfe(train, val, dec, cfg, mode, opt, sched,
                                  np.random.default_rng(77))
            curves[mode] = [r.loss for r in report.metrics
                            if r.split == "val"]
        a = np.array(curves[tr.AdjointMode.APPROXIMATE])
        f = np.array(curves[tr.AdjointMode.FULL])
        assert (np.abs(a - f) / np.maximum(a, f)).max() < 0.20

    def test_ae_loss_decreases_over_first_iterations(self):
        train, val, _ = synth_splits(n=160, seed=13)
        dec = md.init_decoder([8, 16, 32, 784], np.random.default_rng(1))
        enc = md.init_encoder(dec, np.random.default_rng(2))
        opt = tr.rmsprop_state(enc.tensors() + dec.tensors())
        sched = tr.TrainSchedule(iterations=100, batch_size=8,
                                 validate_every=50, val_size=24)
        report = tr.train_ae(train, val, enc, dec, opt, sched,
                             np.random.default_rng(3))
        vals = [r.loss for r in report.metrics if r.split == "val"]
        assert vals[-1] < vals[0]

    def test_ae_deterministic_given_seed(self):
        train, val, _ = synth_splits(n=80, seed=17, n_val=16, n_test=16)

        def run():
            dec = md.init_decoder([6, 12, 784], np.random.default_rng(4))
            enc = md.init_encoder(dec, np.random.default_rng(5))
            opt = tr.rmsprop_state(enc.tensors() + dec.tensors())
            sched = tr.TrainSchedule(iterations=10, batch_size=4,
                                     validate_every=5, val_size=8)
            report = tr.train_ae(train, val, enc, dec, opt, sched,
                                 np.random.default_rng(6))
            return [r.loss for r in report.metrics]

        assert run() == run()

    def test_images_seen_accounting_exact(self):
        train, val, _ = synth_splits(n=80, seed=19, n_val=16, n_test=16)
        dec = md.init_decoder([6, 12, 784], np.random.default_rng(4))
        cfg = fl.FlowConfig(tau=10.0, solver=fl.SolverKind.AMD)
        opt = tr.rmsprop_state(dec.tensors())
        sched = tr.TrainSchedule(iterations=7, batch_size=3,
                                 validate_every=3, val_size=8)
        report = tr.train_gfe(train, val, dec, cfg,
                              tr.AdjointMode.APPROXIMATE, opt, sched,
                              np.random.default_rng(0))
        assert report.images_seen == 21
        train_rows = [r for r in report.metrics if r.split == "train"]
        assert [r.images_seen for r in train_rows] == [3 * k for k in
                                                       range(1, 8)]

    def test_divergence_guard_fires(self):
        train, val, _ = synth_splits(n=80, seed=23, n_val=16, n_test=16)
        dec = md.init_decoder([6, 12, 784], np.random.default_rng(4))
        cfg = fl.FlowConfig(tau=10.0, solver=fl.SolverKind.AMD)
        opt = tr.rmsprop_state(dec.tensors())
        sched = tr.TrainSchedule(iterations=5, batch_size=2,
                                 validate_every=1, val_size=8,
                                 divergence_factor=0.5)
        with pytest.raises(tr.TrainDivergedError, match="exceeded"):
            tr.train_gfe(train, val, dec, cfg, tr.AdjointMode.APPROXIMATE,
                         opt, sched, np.random.default_rng(0))

    @pytest.mark.parametrize("field, value", [
        ("iterations", -1), ("batch_size", 0), ("validate_every", 0),
        ("val_size", 0)])
    def test_malformed_schedule_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            tr.TrainSchedule(**{"iterations": 1, field: value})


class TestEvaluate:
    def _trained_ae(self):
        train, val, test = synth_splits(n=160, seed=29)
        dec = md.init_decoder([8, 16, 32, 784], np.random.default_rng(1))
        enc = md.init_encoder(dec, np.random.default_rng(2))
        opt = tr.rmsprop_state(enc.tensors() + dec.tensors())
        sched = tr.TrainSchedule(iterations=60, batch_size=8,
                                 validate_every=30, val_size=24)
        report = tr.train_ae(train, val, enc, dec, opt, sched,
                             np.random.default_rng(3))
        return train, val, test, dec, enc, report

    def test_encoder_eval_reproduces_training_metric(self):
        _, val, _, dec, enc, report = self._trained_ae()
        loss, _ = tr.evaluate(val, dec, tr.EvalMode.AE_ENCODER, encoder=enc,
                              limit=24)
        assert loss == pytest.approx(report.final_val_loss(), rel=1e-12)

    def test_degenerate_flow_reproduces_z0_loss(self):
        _, _, test, dec, _, _ = self._trained_ae()
        cfg = fl.FlowConfig(tau=1e-12, solver=fl.SolverKind.AMD)
        loss, _ = tr.evaluate(test, dec, tr.EvalMode.GFE_FLOW, cfg=cfg,
                              limit=10)
        z0 = dc.constant(np.zeros(dec.latent_dim))
        ref = np.mean([md.reconstruction_loss(test.images[i], z0, dec,
                                              LossKind.CROSS_ENTROPY).item()
                       for i in range(10)])
        assert loss == pytest.approx(ref, rel=1e-9)

    def test_warm_start_never_worse_than_encoder(self):
        _, _, test, dec, enc, _ = self._trained_ae()
        enc_loss, _ = tr.evaluate(test, dec, tr.EvalMode.AE_ENCODER,
                                  encoder=enc, limit=16)
        cfg = fl.FlowConfig(tau=50.0, solver=fl.SolverKind.AMD,
                            early_stop_tol=1e-4)
        flow_loss, _ = tr.evaluate(test, dec, tr.EvalMode.GFE_FLOW, cfg=cfg,
                                   encoder=enc, limit=16,
                                   warm_start_encoder=True)
        assert flow_loss <= enc_loss + 1e-12

    def test_empty_split_rejected(self):
        dec = small_decoder()
        empty = dd.Dataset(np.zeros((0, 16)), np.zeros(0, dtype=np.uint8))
        with pytest.raises(ValueError, match="empty"):
            tr.evaluate(empty, dec, tr.EvalMode.GFE_FLOW)

    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_below_one_rejected(self, limit):
        ds = dd.Dataset(np.full((2, 16), 0.5), np.zeros(2, dtype=np.uint8))
        with pytest.raises(ValueError, match="empty"):
            tr.evaluate(ds, small_decoder(), tr.EvalMode.GFE_FLOW, limit=limit)

    def test_overflowing_encoder_is_typed(self):
        # Encoder weights x1e200 overflow in its second layer; evaluate
        # reports that as a training divergence, in both modes that run it.
        dec = small_decoder(seed=1)
        enc = md.init_encoder(dec, np.random.default_rng(2))
        big = md.EncoderParams([Tensor(w.data * 1e200, requires_grad=True)
                                for w in enc.weights],
                               enc.biases, enc.widths, "identity")
        images = np.random.default_rng(3).uniform(0.1, 0.9, size=(3, 16))
        ds = dd.Dataset(images, np.zeros(3, dtype=np.uint8))
        with pytest.raises(tr.TrainDivergedError):
            tr.evaluate(ds, dec, tr.EvalMode.AE_ENCODER, encoder=big)
        with pytest.raises(tr.TrainDivergedError):
            tr.evaluate(ds, dec, tr.EvalMode.GFE_FLOW,
                        cfg=fl.FlowConfig(tau=5.0), encoder=big,
                        warm_start_encoder=True)

    def test_checkpoint_round_trip_preserves_evaluation(self, tmp_path):
        _, _, test, dec, enc, _ = self._trained_ae()
        before, _ = tr.evaluate(test, dec, tr.EvalMode.AE_ENCODER,
                                encoder=enc, limit=12)
        md.save_checkpoint(tmp_path / "m.npz", dec, enc)
        dec2, enc2, _ = md.load_checkpoint(tmp_path / "m.npz")
        after, _ = tr.evaluate(test, dec2, tr.EvalMode.AE_ENCODER,
                               encoder=enc2, limit=12)
        assert before == after
