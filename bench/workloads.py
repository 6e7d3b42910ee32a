"""The four benchmark workloads: inputs, one round of work, output checks.

A workload builds its inputs from the run seed in ``setup`` (synthetic
digits and seeded model initialisation; for ``encode-test`` also a short
training run of its decoder).  A *round* is a fixed amount of work that
starts from the same state every time, so rounds repeat bit for bit and the
losses they report do not depend on how many rounds fit in a run.  The
benchmark calls the program through module attributes (``training.train_gfe``
rather than a bound name) so that a traced run's wrappers see every call.

Checks compare the program's outputs with properties of the method and with
the numpy reference in ``reference.py``; none compares with stored output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import reference as ref
from flowenc import data, diffcore, flow, models, training
from flowenc.flow import FlowConfig, SolverKind

#: Decoder widths of the CLI (latent 16, output 28x28).
WIDTHS = [16, 32, 64, 128, 784]
LR = 5e-4

#: Relative tolerances against the numpy reference (float64 throughout).
LOSS_RTOL = 1e-10
GRAD_RTOL = 1e-8

#: Operations a round can fail with; each counts its round's images as failed.
FAILURES = (flow.FlowError, training.TrainDivergedError)


@dataclass(frozen=True)
class Sizes:
    n_train: int
    n_val: int
    n_test: int
    amd_runs: int
    amd_iterations: int
    rk4_slices: int
    rk4_iterations: int
    rk4_val: int
    encode_decoders: int
    encode_batch: int
    encode_batches: int
    encode_setup_iterations: int
    ae_iterations: int
    ae_batch: int
    ae_validate_every: int


FULL = Sizes(n_train=480, n_val=48, n_test=256,
             amd_runs=4, amd_iterations=100,
             rk4_slices=100, rk4_iterations=8, rk4_val=8,
             encode_decoders=2, encode_batch=64, encode_batches=4,
             encode_setup_iterations=400,
             ae_iterations=100, ae_batch=16, ae_validate_every=50)

SMOKE = Sizes(n_train=32, n_val=4, n_test=8,
              amd_runs=2, amd_iterations=6,
              rk4_slices=12, rk4_iterations=2, rk4_val=2,
              encode_decoders=2, encode_batch=4, encode_batches=2,
              encode_setup_iterations=40,
              ae_iterations=4, ae_batch=4, ae_validate_every=2)


def train_amd_config() -> FlowConfig:
    """The CLI's training flow for gfe-amd: tau 50, early stop 1e-3."""
    return FlowConfig(tau=50.0, solver=SolverKind.AMD, early_stop_tol=1e-3)


def eval_amd_config() -> FlowConfig:
    """The CLI's test-time flow: AMD, tau 100, early stop 1e-4."""
    return FlowConfig(tau=100.0, solver=SolverKind.AMD, early_stop_tol=1e-4)


def rk4_config(n_slices: int) -> FlowConfig:
    return FlowConfig(tau=50.0, solver=SolverKind.RK4_FIXED, n_slices=n_slices)


def split_seeds(seed: int) -> tuple[int, int]:
    """(corpus seed, model seed) from the run seed."""
    a, b = np.random.SeedSequence(seed).generate_state(2)
    return int(a), int(b)


def make_splits(n_train: int, n_val: int, n_test: int, corpus_seed: int):
    pool = data.synth_digits(n_train + n_val + n_test, seed=corpus_seed)
    cut1, cut2 = n_train, n_train + n_val
    return (data.Dataset(pool.images[:cut1], pool.labels[:cut1], "synth", "train"),
            data.Dataset(pool.images[cut1:cut2], pool.labels[cut1:cut2], "synth",
                         "validation"),
            data.Dataset(pool.images[cut2:], pool.labels[cut2:], "synth", "test"))


def arrays_of(params) -> tuple[list[np.ndarray], list[np.ndarray]]:
    return [w.data for w in params.weights], [b.data for b in params.biases]


def val_losses(report) -> list[float]:
    return [r.loss for r in report.metrics if r.split == "val"]


# ---------------------------------------------------------------------------
# Checks shared by the workloads.  Each returns a list of failure messages.
# ---------------------------------------------------------------------------

def check_descends(report, label: str) -> list[str]:
    vals = val_losses(report)
    if not vals[-1] < vals[0]:
        return [f"{label}: final validation loss {vals[-1]:.6g} is not below "
                f"the initial {vals[0]:.6g}"]
    return []


def check_flows(ys, results, decoder, amd: bool, n_slices: int | None,
                label: str) -> tuple[list[str], list[float]]:
    """Reference loss at every latent, gradients at three trace points,
    strict descent (AMD) or 4N units (RK4).  Returns (failures, losses)."""
    ws, bs = arrays_of(decoder)
    errs: list[str] = []
    losses = []
    for i, (y, (state, trace)) in enumerate(zip(ys, results)):
        l_ref = ref.loss(ws, bs, state.z, y)
        losses.append(l_ref)
        if amd:
            l_prog = state.loss_history[-1][1]
            if ref.rel_err(l_prog, l_ref) > LOSS_RTOL:
                errs.append(f"{label} image {i}: flow loss {l_prog!r} vs "
                            f"reference {l_ref!r}")
            hist = [l for _, l in state.loss_history]
            if not all(b < a for a, b in zip(hist, hist[1:])):
                errs.append(f"{label} image {i}: an accepted AMD step did not "
                            "lower the loss")
        elif state.model_calls != 4 * n_slices:
            errs.append(f"{label} image {i}: RK4 flow cost {state.model_calls} "
                        f"units, expected 4N = {4 * n_slices}")
        last = trace.n_slices - 1
        for k in sorted({0, last // 2, last}) if last >= 0 else []:
            l_ref_k, gz, _, _ = ref.value_and_grads(ws, bs, trace.zs[k], y)
            if ref.rel_err(trace.grads[k], gz) > GRAD_RTOL:
                errs.append(f"{label} image {i}: stored gradient at trace point "
                            f"{k} differs from the reference "
                            f"(rel {ref.rel_err(trace.grads[k], gz):.2e})")
            if ref.rel_err(state.loss_history[k][1], l_ref_k) > LOSS_RTOL:
                errs.append(f"{label} image {i}: loss at trace point {k} "
                            "differs from the reference")
    return errs, losses


def check_grad_theta(y, z, decoder, label: str) -> list[str]:
    """numpy d loss/d theta at a fixed z against grad_theta_approximate."""
    ws, bs = arrays_of(decoder)
    _, _, gw, gb = ref.value_and_grads(ws, bs, z, y)
    grads, calls = training.grad_theta_approximate(y, z, decoder)
    want = [g for pair in zip(gw, gb) for g in pair]
    errs = []
    if calls != 1:
        errs.append(f"{label}: approximate gradient cost {calls} units, not 1")
    for k, (g, w) in enumerate(zip(grads, want)):
        if ref.rel_err(g, w) > GRAD_RTOL:
            errs.append(f"{label}: d/d theta block {k} differs from the "
                        f"reference (rel {ref.rel_err(g, w):.2e})")
    return errs


def check_mean(label: str, reported: float, losses) -> list[str]:
    mean = float(np.mean(losses))
    if ref.rel_err(reported, mean) > LOSS_RTOL:
        return [f"{label}: reported loss {reported!r} is not the reference "
                f"mean {mean!r}"]
    return []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    images_per_round = 0

    def __init__(self, seed: int, sizes: Sizes):
        self.sizes = sizes
        self.corpus_seed, self.model_seed = split_seeds(seed)

    def init_decoder(self, stream: int = 0) -> models.DecoderParams:
        rng = np.random.default_rng([self.model_seed, stream])
        return models.init_decoder(WIDTHS, rng)

    def sampler_rng(self, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.model_seed, stream, 1])

    def setup(self) -> None:
        s = self.sizes
        self.train, self.val, self.test = make_splits(
            s.n_train, s.n_val, s.n_test, self.corpus_seed)

    def run_round(self):
        raise NotImplementedError

    def final_loss(self, out) -> float:
        return out.final_val_loss()

    def signature(self, out):
        """What must repeat bit for bit from round to round."""
        return val_losses(out)

    def check(self, out) -> list[str]:
        raise NotImplementedError


class TrainGfe(Workload):
    """``runs`` training runs per round, each from its own seeded decoder."""

    solver: SolverKind
    mode: training.AdjointMode
    runs = 1

    def flow_config(self) -> FlowConfig:
        raise NotImplementedError

    def schedule(self) -> training.TrainSchedule:
        raise NotImplementedError

    @property
    def images_per_round(self):
        return self.runs * self.schedule().iterations

    def setup(self) -> None:
        super().setup()
        self.decoders0 = [self.init_decoder(stream=k) for k in range(self.runs)]
        self.cfg = self.flow_config()

    def run_round(self):
        reports = []
        for k, dec0 in enumerate(self.decoders0):
            dec = dec0.copy()
            opt = training.rmsprop_state(dec.tensors(), lr=LR)
            reports.append(training.train_gfe(
                self.train, self.val, dec, self.cfg, self.mode, opt,
                self.schedule(), self.sampler_rng(stream=k)))
        return reports

    def final_loss(self, out) -> float:
        return float(np.mean([r.final_val_loss() for r in out]))

    def signature(self, out):
        return [val_losses(r) for r in out]

    def check(self, out) -> list[str]:
        errs = []
        amd = self.solver == SolverKind.AMD
        n = self.schedule().val_size
        ys = list(self.val.images[:n])
        for k, report in enumerate(out):
            label = f"{self.name} run {k}"
            errs += check_descends(report, label)
            # Re-run the validation flows on the final decoder (untimed).
            results = [flow.encode_sample(y, report.decoder, self.cfg) for y in ys]
            flow_errs, losses = check_flows(ys, results, report.decoder, amd,
                                            self.cfg.n_slices, label)
            errs += flow_errs
            errs += check_mean(f"{label} final validation",
                               report.final_val_loss(), losses)
            errs += check_grad_theta(ys[0], results[0][0].z, report.decoder, label)
        return errs


class TrainGfeAmd(TrainGfe):
    name = "train-gfe-amd"
    solver = SolverKind.AMD
    mode = training.AdjointMode.APPROXIMATE

    @property
    def runs(self):
        return self.sizes.amd_runs

    def flow_config(self):
        return train_amd_config()

    def schedule(self):
        s = self.sizes
        return training.TrainSchedule(iterations=s.amd_iterations, batch_size=1,
                                      validate_every=s.amd_iterations,
                                      val_size=s.n_val)


class TrainGfeRk4Full(TrainGfe):
    name = "train-gfe-rk4-full"
    solver = SolverKind.RK4_FIXED
    mode = training.AdjointMode.FULL

    def flow_config(self):
        return rk4_config(self.sizes.rk4_slices)

    def schedule(self):
        s = self.sizes
        return training.TrainSchedule(iterations=s.rk4_iterations, batch_size=1,
                                      validate_every=s.rk4_iterations,
                                      val_size=s.rk4_val)

    def check(self, out) -> list[str]:
        return super().check(out) + self.check_adjoint(out[0].decoder)

    def check_adjoint(self, decoder) -> list[str]:
        """15N+4 units, and a central finite difference of the endpoint loss
        through the RK4 flow sides with the full adjoint over the
        approximate gradient."""
        y = self.val.images[0]
        n = self.cfg.n_slices
        state, trace = flow.encode_sample(y, decoder, self.cfg)
        full, calls = training.grad_theta_full_adjoint(y, trace, decoder, self.cfg)
        approx, _ = training.grad_theta_approximate(y, state.z, decoder)
        errs = []
        if calls != 15 * n + 4:
            errs.append(f"{self.name}: full adjoint cost {calls} units, expected "
                        f"15N+4 = {15 * n + 4}")
        rng = np.random.default_rng([self.model_seed, 99])
        ds = [rng.normal(size=g.shape) for g in full]
        norm = np.sqrt(sum(float((d * d).sum()) for d in ds))
        ds = [d / norm for d in ds]
        eps = 1e-4

        def endpoint_loss(sign: float) -> float:
            arrays = [p.data + sign * eps * d
                      for p, d in zip(decoder.tensors(), ds)]
            k = decoder.n_layers
            dec = models.DecoderParams(
                [diffcore.Tensor(arrays[2 * i], requires_grad=True) for i in range(k)],
                [diffcore.Tensor(arrays[2 * i + 1], requires_grad=True)
                 for i in range(k)], decoder.widths)
            st, _ = flow.encode_sample(y, dec, self.cfg)
            ws, bs = arrays_of(dec)
            return ref.loss(ws, bs, st.z, y)

        fd = (endpoint_loss(1.0) - endpoint_loss(-1.0)) / (2 * eps)
        d_full = sum(float((g * d).sum()) for g, d in zip(full, ds))
        d_approx = sum(float((g * d).sum()) for g, d in zip(approx, ds))
        self.fd_report = (fd, d_full, d_approx)
        if not abs(fd - d_full) < abs(fd - d_approx):
            errs.append(f"{self.name}: finite difference {fd:.6e} is closer to "
                        f"the approximate gradient ({d_approx:.6e}) than to the "
                        f"full adjoint ({d_full:.6e})")
        return errs


class EncodeTest(Workload):
    """Every test batch encoded against each of the decoders trained at set-up.

    Two decoders from two seeded initialisations, because how long the flows
    run depends more on the decoder than on the images.
    """

    name = "encode-test"

    @property
    def images_per_round(self):
        s = self.sizes
        return s.encode_decoders * s.encode_batch * s.encode_batches

    def setup(self) -> None:
        super().setup()
        s = self.sizes
        self.decoders, self.setup_reports = [], []
        for k in range(s.encode_decoders):
            dec = self.init_decoder(stream=k)
            opt = training.rmsprop_state(dec.tensors(), lr=LR)
            schedule = training.TrainSchedule(
                iterations=s.encode_setup_iterations, batch_size=1,
                validate_every=s.encode_setup_iterations, val_size=s.n_val)
            self.setup_reports.append(training.train_gfe(
                self.train, self.val, dec, train_amd_config(),
                training.AdjointMode.APPROXIMATE, opt, schedule,
                self.sampler_rng(stream=k)))
            self.decoders.append(dec)
        self.cfg = eval_amd_config()
        b = s.encode_batch
        self.batches = [self.test.images[k * b:(k + 1) * b]
                        for k in range(s.encode_batches)]

    def run_round(self):
        """One list of (state, trace) per decoder, in test-image order."""
        out = []
        for dec in self.decoders:
            results = []
            for batch in self.batches:
                results.extend(flow.encode_batch(batch, dec, self.cfg))
            out.append(results)
        return out

    def final_loss(self, out) -> float:
        return float(np.mean([state.loss_history[-1][1]
                              for results in out for state, _ in results]))

    def signature(self, out):
        return [state.z.tobytes() for results in out for state, _ in results]

    def check(self, out) -> list[str]:
        errs = []
        ys = [y for batch in self.batches for y in batch]
        losses = []
        for k, (dec, report, results) in enumerate(
                zip(self.decoders, self.setup_reports, out)):
            label = f"{self.name} decoder {k}"
            errs += check_descends(report, f"{label} set-up")
            flow_errs, dec_losses = check_flows(ys, results, dec, True, None,
                                                label)
            errs += flow_errs
            losses += dec_losses
            for i, y in enumerate(ys[:8]):
                state, _ = flow.encode_sample(y, dec, self.cfg)
                if state.z.tobytes() != results[i][0].z.tobytes():
                    errs.append(f"{label} image {i}: encode_batch differs from "
                                "encode_sample bit for bit")
        errs += check_mean(f"{self.name} mean encoded", self.final_loss(out),
                           losses)
        return errs


class TrainAe(Workload):
    name = "train-ae"

    @property
    def images_per_round(self):
        return self.sizes.ae_iterations * self.sizes.ae_batch

    def setup(self) -> None:
        super().setup()
        rng = np.random.default_rng([self.model_seed, 0])
        self.decoder0 = models.init_decoder(WIDTHS, rng)
        self.encoder0 = models.init_encoder(self.decoder0, rng)

    def schedule(self):
        s = self.sizes
        return training.TrainSchedule(iterations=s.ae_iterations,
                                      batch_size=s.ae_batch,
                                      validate_every=s.ae_validate_every,
                                      val_size=s.n_val)

    def run_round(self):
        enc, dec = self.encoder0.copy(), self.decoder0.copy()
        opt = training.rmsprop_state(enc.tensors() + dec.tensors(), lr=LR)
        return training.train_ae(self.train, self.val, enc, dec, opt,
                                 self.schedule(), self.sampler_rng())

    def check(self, out) -> list[str]:
        errs = check_descends(out, self.name)
        n = self.sizes.n_val
        ew, eb = arrays_of(out.encoder)
        dw, db = arrays_of(out.decoder)
        losses = [ref.autoencoder_loss(ew, eb, dw, db, y)
                  for y in self.val.images[:n]]
        loss, calls = training.evaluate(self.val, out.decoder,
                                        training.EvalMode.AE_ENCODER,
                                        encoder=out.encoder, limit=n)
        errs += check_mean(f"{self.name} evaluate(AE_ENCODER)", loss, losses)
        errs += check_mean(f"{self.name} final validation", out.final_val_loss(),
                           losses)
        if calls != n:
            errs.append(f"{self.name}: encoder evaluation cost {calls} units, "
                        f"expected {n}")
        y = self.val.images[0]
        z = ref.forward(ew, eb, y)[1]
        errs += check_grad_theta(y, z, out.decoder, self.name)
        return errs


WORKLOADS = {w.name: w for w in (TrainGfeAmd, TrainGfeRk4Full, EncodeTest, TrainAe)}


def probe(w: Workload) -> int:
    """A tiny pass through every traced layer; returns the images it used.

    A traced run executes it after the workload's rounds, so that a layer the
    workload never calls still gets a measured per-layer figure.
    """
    s = w.sizes
    train, val = w.train, w.val
    images = 0
    for cfg, mode, iterations in (
            (rk4_config(s.rk4_slices), training.AdjointMode.FULL, 1),
            (train_amd_config(), training.AdjointMode.APPROXIMATE, 2)):
        dec = w.init_decoder(stream=7)
        opt = training.rmsprop_state(dec.tensors(), lr=LR)
        schedule = training.TrainSchedule(iterations=iterations, batch_size=1,
                                          validate_every=iterations, val_size=1)
        training.train_gfe(train, val, dec, cfg, mode, opt, schedule,
                           w.sampler_rng(stream=7))
        images += iterations
    flow.encode_batch(val.images[:2], dec, eval_amd_config())
    images += 2
    rng = np.random.default_rng([w.model_seed, 7])
    dec = models.init_decoder(WIDTHS, rng)
    enc = models.init_encoder(dec, rng)
    opt = training.rmsprop_state(enc.tensors() + dec.tensors(), lr=LR)
    schedule = training.TrainSchedule(iterations=1, batch_size=2,
                                      validate_every=1, val_size=2)
    training.train_ae(train, val, enc, dec, opt, schedule, w.sampler_rng(stream=7))
    return images + 2
