"""Decoder/encoder MLPs, loss conventions, and checkpoint round-trips."""

import numpy as np
import pytest

from flowenc import data as dd
from flowenc import diffcore as dc
from flowenc import flow as fl
from flowenc import models as md
from flowenc.diffcore import Tensor

from test_diffcore import fd_grad, rel_err


def zero_decoder(widths, output_mode="sigmoid"):
    return md.DecoderParams(
        [Tensor(np.zeros((widths[i + 1], widths[i])), requires_grad=True)
         for i in range(len(widths) - 1)],
        [Tensor(np.zeros(widths[i + 1]), requires_grad=True)
         for i in range(len(widths) - 1)],
        list(widths), output_mode)


class TestDecoder:
    def test_zero_params_give_half_gray(self):
        dec = zero_decoder([4, 8, 16])
        out = md.decode(dc.constant(np.zeros(4)), dec)
        np.testing.assert_allclose(out.data, 0.5, atol=1e-15)

    def test_single_linear_layer_identity_mode(self):
        rng = np.random.default_rng(3)
        A, b = rng.normal(size=(6, 4)), rng.normal(size=6)
        dec = md.DecoderParams([Tensor(A, requires_grad=True)],
                               [Tensor(b, requires_grad=True)],
                               [4, 6], output_mode="identity")
        z = rng.normal(size=4)
        np.testing.assert_array_equal(md.decode(dc.constant(z), dec).data,
                                      A @ z + b)

    def test_deterministic_golden_snapshot(self):
        rng = np.random.default_rng(2024)
        dec = md.init_decoder([4, 8, 16, 32], rng)
        out = md.decode(dc.constant(np.linspace(-1.0, 1.0, 4)), dec).data
        np.testing.assert_allclose(
            out[:6],
            [0.69608694, 0.69083215, 0.65959424, 0.59951565, 0.45156945,
             0.76088825], atol=1e-8)
        assert float(out.sum()) == pytest.approx(17.097819488541454, abs=1e-9)

    def test_dimension_mismatch(self):
        dec = zero_decoder([4, 8])
        with pytest.raises(dc.ShapeError):
            md.decode(dc.constant(np.zeros(5)), dec)

    def test_widths_must_not_decrease(self):
        with pytest.raises(ValueError, match="decrease"):
            zero_decoder([8, 4, 16])

    def test_output_in_open_unit_interval(self):
        rng = np.random.default_rng(1)
        dec = md.init_decoder([4, 8, 16], rng)
        out = md.decode(dc.constant(rng.normal(size=4) * 5), dec).data
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_param_count(self):
        dec = zero_decoder([4, 8, 16])
        assert dec.count() == 4 * 8 + 8 + 8 * 16 + 16


class TestEncoder:
    def test_zero_params_give_zero_latent(self):
        rng = np.random.default_rng(0)
        dec = zero_decoder([4, 8, 16])
        enc = md.EncoderParams(
            [Tensor(np.zeros((8, 16))), Tensor(np.zeros((4, 8)))],
            [Tensor(np.zeros(8)), Tensor(np.zeros(4))],
            [16, 8, 4], output_mode="identity")
        assert enc.matches_decoder(dec)
        out = md.encode(dc.constant(rng.normal(size=16)), enc)
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_mirrored_widths(self):
        rng = np.random.default_rng(5)
        dec = md.init_decoder([3, 6, 12], rng)
        enc = md.init_encoder(dec, rng)
        assert enc.widths == [12, 6, 3]
        assert enc.matches_decoder(dec)

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(5)
        enc = md.init_encoder(md.init_decoder([3, 6, 12], rng), rng)
        with pytest.raises(dc.ShapeError):
            md.encode(dc.constant(np.zeros(5)), enc)


class TestLoss:
    def test_l2_zero_at_equality(self):
        y = np.array([0.2, 0.7])
        assert md.loss(dc.constant(y), dc.constant(y.copy()),
                       md.LossKind.L2).item() == 0.0

    def test_l2_squared_norm_convention(self):
        out = md.loss(dc.constant([1.0, 0.0]), dc.constant([0.0, 0.0]),
                      md.LossKind.L2)
        assert out.item() == pytest.approx(1.0, abs=1e-15)

    def test_ce_half_everywhere_is_ln2(self):
        y = np.full(10, 0.5)
        out = md.loss(dc.constant(y), dc.constant(y.copy()),
                      md.LossKind.CROSS_ENTROPY)
        assert out.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_ce_rejects_out_of_range_targets(self):
        with pytest.raises(ValueError):
            md.loss(dc.constant([1.5]), dc.constant([0.5]),
                    md.LossKind.CROSS_ENTROPY)

    def test_ce_minimized_at_target(self):
        y = np.array([0.3, 0.8, 0.1])
        at_target = md.loss(dc.constant(y), dc.constant(y.copy()),
                            md.LossKind.CROSS_ENTROPY).item()
        rng = np.random.default_rng(0)
        for _ in range(20):
            other = np.clip(y + rng.normal(scale=0.1, size=3), 0.01, 0.99)
            assert md.loss(dc.constant(y), dc.constant(other),
                           md.LossKind.CROSS_ENTROPY).item() >= at_target

    def test_reconstruction_loss_matches_prob_space_ce(self):
        rng = np.random.default_rng(8)
        dec = md.init_decoder([4, 8, 16], rng)
        z = rng.normal(size=4)
        y = rng.uniform(0.05, 0.95, size=16)
        fused = md.reconstruction_loss(y, dc.constant(z), dec,
                                       md.LossKind.CROSS_ENTROPY).item()
        probs = md.decode(dc.constant(z), dec)
        unfused = md.loss(dc.constant(y), probs,
                          md.LossKind.CROSS_ENTROPY).item()
        assert fused == pytest.approx(unfused, rel=1e-10)


class TestGradients:
    def test_loss_decode_grads_match_fd(self):
        rng = np.random.default_rng(17)
        dec = md.init_decoder([4, 8, 16], rng)
        y = rng.uniform(0.1, 0.9, size=16)
        z0 = rng.normal(size=4)

        def f_z(z):
            return md.reconstruction_loss(y, dc.constant(z), dec,
                                          md.LossKind.CROSS_ENTROPY).item()

        with dc.recording():
            zt = Tensor(z0, requires_grad=True)
            loss = md.reconstruction_loss(y, zt, dec,
                                          md.LossKind.CROSS_ENTROPY)
            (gz,) = dc.grad(loss, [zt])
        assert rel_err(gz.data, fd_grad(f_z, z0), floor=1e-8).max() < 1e-5

        W0 = dec.weights[0].data

        def f_w(w):
            d2 = md.DecoderParams(
                [Tensor(w, requires_grad=True)] +
                [Tensor(t.data, requires_grad=True) for t in dec.weights[1:]],
                [Tensor(t.data, requires_grad=True) for t in dec.biases],
                dec.widths)
            return md.reconstruction_loss(y, dc.constant(z0), d2,
                                          md.LossKind.CROSS_ENTROPY).item()

        with dc.recording():
            loss = md.reconstruction_loss(y, dc.constant(z0), dec,
                                          md.LossKind.CROSS_ENTROPY)
            (gw,) = dc.grad(loss, [dec.weights[0]])
        assert rel_err(gw.data, fd_grad(f_w, W0), floor=1e-8).max() < 1e-5


def assert_bitwise(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def kink_latent(dec, rng):
    """A random latent, with the biases of ``dec`` set so that two layer-0
    pre-activations are exactly 0 there (the ELU kink)."""
    z = rng.normal(size=dec.latent_dim)
    params = dec.tensors()
    b0 = params[1].data.copy()
    b0[:2] = -(params[0].data @ z)[:2]
    params[1] = Tensor(b0, requires_grad=True)
    dec.replace_tensors(params)
    assert (dec.weights[0].data @ z + dec.biases[0].data)[:2].tolist() == [0, 0]
    return z


def kernel_cases():
    """(name, decoder, target, kind, latents) on which kernel == tape."""
    rng = np.random.default_rng(31)
    cli = md.init_decoder([16, 32, 64, 128, 784], np.random.default_rng(32))
    # init biases are zero, so at z = 0 every pre-activation is exactly 0.
    ce_zs = [np.zeros(16), kink_latent(cli, rng)] + [
        rng.normal(scale=s, size=16) for s in (0.5, 1.0, 3.0)]
    sig = md.init_decoder([4, 8, 16], np.random.default_rng(33))
    l2_zs = [np.zeros(4), kink_latent(sig, rng)] + [
        rng.normal(scale=s, size=4) for s in (0.5, 2.0)]
    oracle = dd.make_linear_oracle(4, 8, seed=42)
    linear = md.DecoderParams([Tensor(oracle.A, requires_grad=True)],
                              [Tensor(oracle.b, requires_grad=True)],
                              [4, 8], output_mode="identity")
    return [
        ("ce-cli-widths", cli, rng.uniform(0.0, 1.0, size=784),
         md.LossKind.CROSS_ENTROPY, ce_zs),
        ("l2-sigmoid", sig, rng.uniform(0.0, 1.0, size=16), md.LossKind.L2,
         l2_zs),
        ("l2-identity", linear, oracle.ys[0], md.LossKind.L2,
         [np.zeros(4)] + [rng.normal(size=4) for _ in range(3)]),
    ]


class TestKernels:
    """The closed-form kernels behind the tape boundary equal the tape."""

    @pytest.mark.parametrize("case", range(3))
    def test_kernel_equals_tape_bitwise(self, case, monkeypatch):
        name, dec, y, kind, zs = kernel_cases()[case]
        obj = fl.reconstruction_objective(y, dec, kind)
        taped = lambda z: obj(z)  # a plain callable takes the tape
        requests = [((), True), (dec.tensors(), False), (dec.tensors(), True)]

        def run(objective):
            out = []
            for z in zs:
                out.append(fl.loss_value(objective, z, RuntimeError))
                for params, wrt_x in requests:
                    out.append(fl.value_and_grad(objective, z, params,
                                                 RuntimeError, wrt_x=wrt_x))
            return out

        want = run(taped)

        def no_tape(*args, **kwargs):
            raise AssertionError("the kernel path opened a gradient sweep")

        monkeypatch.setattr(dc, "grad", no_tape)
        got = run(obj)
        assert len(got) == len(want) == 4 * len(zs)
        for g, w in zip(got, want):
            if isinstance(w, float):
                assert_bitwise(g, w)
                continue
            assert_bitwise(g[0], w[0])
            assert len(g[1]) == len(w[1])
            for a, b in zip(g[1], w[1]):
                assert_bitwise(a, b)

    def test_other_params_stay_on_the_tape(self, monkeypatch):
        dec = md.init_decoder([4, 8, 16], np.random.default_rng(34))
        y = np.random.default_rng(35).uniform(0.1, 0.9, size=16)
        obj = fl.reconstruction_objective(y, dec)
        z = np.random.default_rng(36).normal(size=4)
        want = fl.value_and_grad(lambda x: obj(x), z, dec.weights[:1],
                                 RuntimeError)
        calls = []
        grad = dc.grad
        monkeypatch.setattr(dc, "grad",
                            lambda *a, **k: calls.append(1) or grad(*a, **k))
        got = fl.value_and_grad(obj, z, dec.weights[:1], RuntimeError)
        assert calls == [1]
        assert_bitwise(got[0], want[0])
        for a, b in zip(got[1], want[1]):
            assert_bitwise(a, b)

    def test_ce_target_checked_when_the_objective_is_built(self):
        dec = md.init_decoder([4, 8, 16], np.random.default_rng(37))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            fl.reconstruction_objective(np.full(16, 1.5), dec)
        with pytest.raises(dc.ShapeError):
            fl.reconstruction_objective(np.full(15, 0.5), dec)
        with pytest.raises(dc.ShapeError):
            fl.reconstruction_objective(np.full(15, 0.5), dec, md.LossKind.L2)

    def test_latent_of_wrong_shape(self):
        dec = md.init_decoder([4, 8, 16], np.random.default_rng(38))
        obj = fl.reconstruction_objective(np.full(16, 0.5), dec)
        with pytest.raises(dc.ShapeError):
            fl.value_and_grad(obj, np.zeros(5), (), RuntimeError)
        with pytest.raises(dc.ShapeError):
            fl.loss_value(obj, np.zeros(5), RuntimeError)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(23)
        dec = md.init_decoder([4, 8, 16], rng)
        enc = md.init_encoder(dec, rng)
        path = tmp_path / "ckpt.npz"
        md.save_checkpoint(path, dec, enc, extra={"note": "test"})
        dec2, enc2, extra = md.load_checkpoint(path)
        assert extra == {"note": "test"}
        assert dec2.widths == dec.widths and enc2.widths == enc.widths
        for a, b in zip(dec.tensors() + enc.tensors(),
                        dec2.tensors() + enc2.tensors()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_decoder_only_checkpoint(self, tmp_path):
        rng = np.random.default_rng(23)
        dec = md.init_decoder([4, 8, 16], rng)
        path = tmp_path / "d.npz"
        md.save_checkpoint(path, dec)
        dec2, enc2, _ = md.load_checkpoint(path)
        assert enc2 is None
        np.testing.assert_array_equal(dec2.weights[1].data,
                                      dec.weights[1].data)

    def test_version_check(self, tmp_path):
        rng = np.random.default_rng(23)
        dec = md.init_decoder([4, 8], rng)
        path = tmp_path / "d.npz"
        md.save_checkpoint(path, dec)
        import json
        with np.load(path) as z:
            meta = json.loads(bytes(z["meta"]).decode())
            arrays = {k: z[k] for k in z.files if k != "meta"}
        meta["version"] = 99
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(),
                                          dtype=np.uint8), **arrays)
        with pytest.raises(ValueError, match="version"):
            md.load_checkpoint(path)

    def test_missing_array_is_a_value_error(self, tmp_path):
        dec = md.init_decoder([4, 8, 16], np.random.default_rng(23))
        path = tmp_path / "d.npz"
        md.save_checkpoint(path, dec)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files if k != "dec_w1"}
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="dec_w1"):
            md.load_checkpoint(path)

    def test_non_finite_array_is_a_value_error(self, tmp_path):
        dec = md.init_decoder([4, 8, 16], np.random.default_rng(23))
        path = tmp_path / "d.npz"
        md.save_checkpoint(path, dec)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        arrays["dec_w1"][0, 0] = np.nan
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="dec_w1"):
            md.load_checkpoint(path)


class TestSecondOrderKernels:
    """The linearization's hvp and mixed term equal the tape's to rounding."""

    @pytest.mark.parametrize("case", range(3))
    def test_hvp_and_mixed_term_match_the_tape(self, case):
        name, dec, y, kind, zs = kernel_cases()[case]
        obj = fl.reconstruction_objective(y, dec, kind)
        taped = lambda z: obj(z)
        rng = np.random.default_rng(40 + case)
        for z in zs:
            lam = rng.normal(size=z.shape)
            lin = obj.linearize(z)
            want = fl.hvp_at(taped, z, lam, RuntimeError)
            got = lin.hvp(lam)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            want_m = fl.mixed_vjp_at(taped, z, dec.tensors(), lam, RuntimeError)
            h_dots, g_dots = lin.tangent(lam)
            got_m = []
            for h, h_dot, g, g_dot in zip(lin.inputs, h_dots, lin.grads,
                                          g_dots):
                got_m += [np.outer(g_dot, h) + np.outer(g, h_dot), g_dot]
            for a, b in zip(got_m, want_m):
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b) + 1e-300
