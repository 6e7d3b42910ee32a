"""Tensor/tape engine tests: primitive backward rules against central
finite differences, second-order ops against independent oracles, and the
tape's error contracts."""

import numpy as np
import pytest

from flowenc import diffcore as dc
from flowenc.diffcore import Tensor


def fd_grad(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at x (the oracle)."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = g.reshape(-1)
    for i in range(x.size):
        xp = x.copy().reshape(-1)
        xm = x.copy().reshape(-1)
        xp[i] += h
        xm[i] -= h
        flat[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2 * h)
    return g


def rel_err(a, b, floor=1e-10):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


class TestForwardOps:
    def test_elu_fixes_origin(self):
        assert dc.elu(Tensor([0.0])).data[0] == 0.0

    def test_elu_negative_closed_form(self):
        out = dc.elu(Tensor([-1.0])).data[0]
        assert out == pytest.approx(np.exp(-1.0) - 1.0, abs=1e-12)
        assert out == pytest.approx(-0.63212, abs=1e-5)

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=3)
        out = dc.matmul(Tensor(np.eye(3)), Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(dc.ShapeError, match=r"\(2,\).*\(3,\)"):
            dc.add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))
        with pytest.raises(dc.ShapeError, match=r"\(2, 2\) @ \(3,\)"):
            dc.matmul(Tensor(np.zeros((2, 2))), Tensor(np.zeros(3)))

    def test_sigmoid_stable_at_extremes(self):
        out = dc.sigmoid(Tensor([800.0, -800.0])).data
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0)

    def test_nonfinite_surfaces_as_error(self):
        with pytest.raises(dc.NonFiniteError, match="exp"):
            dc.exp(Tensor([1000.0]))
        with pytest.raises(dc.NonFiniteError):
            dc.log(Tensor([0.5, -1.0]))

    def test_ops_do_not_mutate_inputs(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=4))
        a0, b0 = a.data.copy(), b.data.copy()
        dc.matmul(a, b)
        dc.elu(b)
        dc.tmatvec(a, dc.matmul(a, b))
        np.testing.assert_array_equal(a.data, a0)
        np.testing.assert_array_equal(b.data, b0)


class TestFirstOrderGradients:
    def test_quadratic_hand_value(self):
        with dc.recording():
            z = Tensor([1.0, 2.0], requires_grad=True)
            (g,) = dc.grad(dc.dot(z, z), [z])
        np.testing.assert_allclose(g.data, [2.0, 4.0], atol=1e-14)

    def test_sigmoid_bce_logit_zero_target_one(self):
        with dc.recording():
            x = Tensor([0.0], requires_grad=True)
            loss = dc.bce_with_logits(x, np.array([1.0]))
            (g,) = dc.grad(loss, [x])
        assert g.data[0] == pytest.approx(-0.5, abs=1e-12)

    def test_two_layer_mlp_matches_fd(self):
        rng = np.random.default_rng(7)
        W1, b1 = rng.normal(size=(5, 3)), rng.normal(size=5)
        W2, b2 = rng.normal(size=(4, 5)), rng.normal(size=4)
        y = rng.uniform(0.1, 0.9, size=4)
        x0 = rng.normal(size=3)

        def loss_np(x):
            a1 = W1 @ x + b1
            h = np.where(a1 > 0, a1, np.expm1(np.minimum(a1, 0)))
            lo = W2 @ h + b2
            return (np.maximum(lo, 0) - lo * y
                    + np.log1p(np.exp(-np.abs(lo)))).mean()

        with dc.recording():
            xt = Tensor(x0, requires_grad=True)
            h = dc.elu(dc.affine(Tensor(W1), xt, Tensor(b1)))
            loss = dc.bce_with_logits(dc.affine(Tensor(W2), h, Tensor(b2)), y)
            (g,) = dc.grad(loss, [xt])
        fd = fd_grad(loss_np, x0)
        assert rel_err(g.data, fd, floor=1e-8).max() < 1e-6

    @pytest.mark.parametrize("name", [
        "add", "sub", "mul", "div", "neg", "scale", "smul", "dot",
        "matvec", "matmat", "affine", "tmatvec", "outer", "sum", "mean",
        "exp", "log", "sigmoid", "elu", "select", "bce"])
    def test_primitive_backward_matches_fd(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        v4 = rng.normal(size=4)
        w4 = rng.normal(size=4) + 3.0  # keep div/log away from zero
        m34 = rng.normal(size=(3, 4))
        probe = rng.normal(size=3)

        builders = {
            "add": (lambda t: dc.dot(dc.add(t, Tensor(w4)), Tensor(v4 + 1)), v4),
            "sub": (lambda t: dc.dot(dc.sub(t, Tensor(w4)), Tensor(v4 + 1)), v4),
            "mul": (lambda t: dc.dot(dc.mul(t, Tensor(w4)), Tensor(v4 + 1)), v4),
            "div": (lambda t: dc.dot(dc.div(t, Tensor(w4)), Tensor(v4 + 1)), v4),
            "neg": (lambda t: dc.dot(dc.neg(t), Tensor(v4 + 1)), v4),
            "scale": (lambda t: dc.dot(dc.scale(t, 1.7), Tensor(v4 + 1)), v4),
            "smul": (lambda t: dc.tsum(dc.smul(dc.dot(t, t), Tensor(w4))), v4),
            "dot": (lambda t: dc.dot(t, dc.mul(t, Tensor(w4))), v4),
            "matvec": (lambda t: dc.dot(dc.matmul(Tensor(m34), t),
                                        Tensor(probe)), v4),
            "matmat": (lambda t: dc.tsum(dc.matmul(Tensor(m34),
                                                   dc.outer(t, Tensor(probe)))
                                         ) if t.shape == (4,) else None, v4),
            "affine": (lambda t: dc.dot(dc.affine(Tensor(m34), t,
                                                  Tensor(probe)),
                                        Tensor(probe * 2)), v4),
            "tmatvec": (lambda t: dc.dot(dc.tmatvec(Tensor(m34.T), t),
                                         Tensor(probe)), v4),
            "outer": (lambda t: dc.tsum(dc.outer(t, Tensor(probe))), v4),
            "sum": (lambda t: dc.tsum(dc.mul(t, t)), v4),
            "mean": (lambda t: dc.tmean(dc.mul(t, t)), v4),
            "exp": (lambda t: dc.tsum(dc.exp(t)), v4),
            "log": (lambda t: dc.tsum(dc.log(t)), w4),
            "sigmoid": (lambda t: dc.tsum(dc.sigmoid(t)), v4),
            "elu": (lambda t: dc.tsum(dc.elu(t)), v4),
            "select": (lambda t: dc.tsum(dc.select(v4 > 0, dc.mul(t, t), t)),
                       v4),
            "bce": (lambda t: dc.bce_with_logits(
                t, np.clip(np.abs(v4) / 4, 0, 1)), v4),
        }
        build, x0 = builders[name]

        def f_np(x):
            out = build(Tensor(x))
            return out.item()

        with dc.recording():
            t = Tensor(x0, requires_grad=True)
            (g,) = dc.grad(build(t), [t])
        fd = fd_grad(f_np, x0)
        assert rel_err(g.data, fd, floor=1e-7).max() < 1e-5

    def test_grad_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x0 = rng.normal(size=5)
            a, b = rng.normal(), rng.normal()
            with dc.recording():
                x = Tensor(x0, requires_grad=True)
                f = dc.dot(x, dc.elu(x))
                g = dc.tsum(dc.sigmoid(x))
                combined = dc.add(dc.scale(f, a), dc.scale(g, b))
                (gc,) = dc.grad(combined, [x])
                (gf,) = dc.grad(f, [x])
                (gg,) = dc.grad(g, [x])
            np.testing.assert_allclose(gc.data, a * gf.data + b * gg.data,
                                       rtol=1e-12, atol=1e-12)

    def test_shared_subexpression_accumulates_once(self):
        # f = x.x + x.x must give exactly 4x, not 2x or 8x.
        with dc.recording():
            x = Tensor([1.0, -2.0], requires_grad=True)
            q = dc.dot(x, x)
            (g,) = dc.grad(dc.add(q, q), [x])
        np.testing.assert_allclose(g.data, [4.0, -8.0], atol=1e-14)

    def test_off_tape_tensor_returns_zeros(self):
        with dc.recording():
            x = Tensor([1.0], requires_grad=True)
            other = Tensor([5.0], requires_grad=True)
            loss = dc.dot(x, x)
            (g,) = dc.grad(loss, [other])
            np.testing.assert_array_equal(g.data, [0.0])
            with pytest.raises(dc.GradError):
                dc.grad(loss, [other], allow_unreached=False)

    def test_non_scalar_output_rejected(self):
        with dc.recording():
            x = Tensor([1.0, 2.0], requires_grad=True)
            with pytest.raises(dc.GradError, match="scalar"):
                dc.grad(dc.elu(x), [x])

    def test_grad_requires_live_tape(self):
        with dc.recording():
            x = Tensor([1.0], requires_grad=True)
            loss = dc.dot(x, x)
        with pytest.raises(dc.GradError, match="tape"):
            dc.grad(loss, [x])


class TestSecondOrder:
    def test_identity_hessian(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=4)
        with dc.recording():
            z = Tensor(rng.normal(size=4), requires_grad=True)
            loss = dc.scale(dc.dot(z, z), 0.5)
            h = dc.hvp(loss, z, Tensor(v))
        np.testing.assert_allclose(h.data, v, atol=1e-12)

    def test_analytic_symmetrized_hessian(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        with dc.recording():
            z = Tensor([0.4, -0.2], requires_grad=True)
            loss = dc.scale(dc.dot(z, dc.matmul(Tensor(A), z)), 0.5)
            h = dc.hvp(loss, z, Tensor([1.0, 0.0]))
        np.testing.assert_allclose(h.data, [2.0, 1.0], atol=1e-12)

    def _mlp_loss(self, params, x):
        W1, b1, W2, b2, y = params
        h = dc.elu(dc.affine(W1, x, b1))
        return dc.bce_with_logits(dc.affine(W2, h, b2), y)

    def test_hvp_matches_fd_of_gradients(self):
        rng = np.random.default_rng(12)
        W1 = Tensor(rng.normal(size=(6, 4)) * 0.7)
        b1 = Tensor(rng.normal(size=6))
        W2 = Tensor(rng.normal(size=(5, 6)) * 0.7)
        b2 = Tensor(rng.normal(size=5))
        y = rng.uniform(0.1, 0.9, size=5)
        z0 = rng.normal(size=4)
        v = rng.normal(size=4)

        def grad_at(z):
            with dc.recording():
                zt = Tensor(z, requires_grad=True)
                (g,) = dc.grad(self._mlp_loss((W1, b1, W2, b2, y), zt), [zt])
            return g.data

        with dc.recording():
            zt = Tensor(z0, requires_grad=True)
            hv = dc.hvp(self._mlp_loss((W1, b1, W2, b2, y), zt), zt, Tensor(v))
        h = 1e-5
        fd = (grad_at(z0 + h * v) - grad_at(z0 - h * v)) / (2 * h)
        assert rel_err(hv.data, fd, floor=1e-8).max() < 1e-4

    def test_hvp_bilinear_symmetry(self):
        rng = np.random.default_rng(21)
        W1 = Tensor(rng.normal(size=(6, 4)) * 0.7)
        b1 = Tensor(rng.normal(size=6))
        W2 = Tensor(rng.normal(size=(5, 6)) * 0.7)
        b2 = Tensor(rng.normal(size=5))
        y = rng.uniform(0.1, 0.9, size=5)
        for _ in range(5):
            z0, u, v = rng.normal(size=(3, 4))
            with dc.recording():
                zt = Tensor(z0, requires_grad=True)
                loss = self._mlp_loss((W1, b1, W2, b2, y), zt)
                hu = dc.hvp(loss, zt, Tensor(u))
            with dc.recording():
                zt = Tensor(z0, requires_grad=True)
                loss = self._mlp_loss((W1, b1, W2, b2, y), zt)
                hv = dc.hvp(loss, zt, Tensor(v))
            assert abs(float(v @ hu.data) - float(u @ hv.data)) < 1e-8

    def test_hvp_needs_live_tape(self):
        with dc.recording():
            z = Tensor([1.0], requires_grad=True)
            loss = dc.dot(z, z)
        with pytest.raises(dc.GradError, match="second-order"):
            dc.hvp(loss, z, Tensor([1.0]))

    def test_mixed_vjp_scalar_model_closed_form(self):
        # D(z, th) = th*z, l = 0.5 (D - y)^2:
        # grad_z l = th (th z - y);  d/dth <grad_z l, lam> = lam (2 th z - y)
        th_v, z_v, y_v, lam_v = 1.0, 1.0, 0.0, 1.0
        with dc.recording():
            th = Tensor([th_v], requires_grad=True)
            z = Tensor([z_v], requires_grad=True)
            r = dc.sub(dc.mul(th, z), Tensor([y_v]))
            loss = dc.scale(dc.dot(r, r), 0.5)
            (gth,) = dc.mixed_vjp(loss, z, [th], Tensor([lam_v]))
        expect = lam_v * (2 * th_v * z_v - y_v)
        assert gth.data[0] == pytest.approx(expect, abs=1e-12)

    def test_mixed_vjp_zero_lam_gives_zero(self):
        rng = np.random.default_rng(5)
        with dc.recording():
            th = Tensor(rng.normal(size=3), requires_grad=True)
            z = Tensor(rng.normal(size=3), requires_grad=True)
            r = dc.sub(dc.mul(th, z), Tensor(rng.normal(size=3)))
            loss = dc.dot(r, r)
            (gth,) = dc.mixed_vjp(loss, z, [th], Tensor(np.zeros(3)))
        np.testing.assert_allclose(gth.data, 0.0, atol=1e-14)

    def test_mixed_vjp_matches_fd_on_decoder(self):
        rng = np.random.default_rng(9)
        W1d = rng.normal(size=(6, 4)) * 0.7
        b1d = rng.normal(size=6)
        W2d = rng.normal(size=(5, 6)) * 0.7
        b2d = rng.normal(size=5)
        y = rng.uniform(0.1, 0.9, size=5)
        z0 = rng.normal(size=4)
        lam = rng.normal(size=4)

        def grad_z_at(W1v):
            with dc.recording():
                zt = Tensor(z0, requires_grad=True)
                h = dc.elu(dc.affine(Tensor(W1v), zt, Tensor(b1d)))
                loss = dc.bce_with_logits(dc.affine(Tensor(W2d), h,
                                                    Tensor(b2d)), y)
                (g,) = dc.grad(loss, [zt])
            return g.data

        with dc.recording():
            W1 = Tensor(W1d, requires_grad=True)
            zt = Tensor(z0, requires_grad=True)
            h = dc.elu(dc.affine(W1, zt, Tensor(b1d)))
            loss = dc.bce_with_logits(dc.affine(Tensor(W2d), h, Tensor(b2d)), y)
            (gW1,) = dc.mixed_vjp(loss, zt, [W1], Tensor(lam))

        h_fd = 1e-5
        fd = np.zeros_like(W1d)
        for i in range(W1d.shape[0]):
            for j in range(W1d.shape[1]):
                Wp, Wm = W1d.copy(), W1d.copy()
                Wp[i, j] += h_fd
                Wm[i, j] -= h_fd
                fd[i, j] = lam @ (grad_z_at(Wp) - grad_z_at(Wm)) / (2 * h_fd)
        assert rel_err(gW1.data, fd, floor=1e-7).max() < 1e-3


class TestTape:
    def test_execution_order_is_topological(self):
        with dc.recording() as tape:
            x = Tensor([1.0, 2.0], requires_grad=True)
            a = dc.elu(x)
            b = dc.mul(a, a)
            dc.tsum(b)
            # Every tape tensor stays alive here, so ids are unique.
            produced = {id(node.out) for node in tape.ops}
            seen = set()
            checked = 0
            for node in tape.ops:
                for parent in node.parents:
                    if id(parent) in produced:
                        assert id(parent) in seen, "parent recorded after child"
                        checked += 1
                seen.add(id(node.out))
            assert checked >= 3  # elu -> mul (twice) -> sum

    def test_retained_tape_supports_second_differentiation(self):
        with dc.recording() as tape:
            x = Tensor([0.3, -0.4], requires_grad=True)
            loss = dc.dot(dc.elu(x), dc.elu(x))
            n_first = len(tape)
            (g,) = dc.grad(loss, [x], create_graph=True)
            assert len(tape) > n_first  # backward ops recorded for reuse
            (h,) = dc.grad(dc.dot(g, Tensor([1.0, 0.0])), [x])
        assert h.shape == (2,)

    def test_tensor_invariant_shape_matches_data(self):
        t = Tensor(np.zeros((2, 3)))
        assert int(np.prod(t.shape)) == t.data.size
