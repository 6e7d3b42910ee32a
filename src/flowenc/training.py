"""Decoder updates from flow-encoded batches, plus the conventional AE path.

Two ways to differentiate the per-sample loss l(y, D(z*, theta)) w.r.t. the
decoder parameters:

* ``APPROXIMATE`` ignores the dependence of z* on theta and takes the
  partial derivative at the flow endpoint (cheap, one model call).
* ``FULL`` integrates the costate lambda backward along the cached forward
  trajectory and accumulates the mixed-derivative integral correction.

The backward system implemented here is the self-consistent one

    lambda(tau) = -grad_z l(z(tau)),   dlambda/dt = +alpha(t) H lambda,
    d_theta J   = partial_theta l + int_0^tau alpha lambda^T d_theta grad_z l dt,

verified against closed-form linear flows and end-to-end finite
differences (see tests).

Model-call accounting: one unit per decoder evaluation (forward build, with
or without its first-order gradient); a second-order sweep (hvp or
mixed-vjp) adds two units since it re-traverses a graph roughly twice the
decoder's size.  The flow itself counts 4 units per RK4 slice.  The units
stay the same when the full adjoint runs on closed-form kernels; there the
mixed term at each grid point is weighted by its trapezoid weight and the
integral is contracted once per layer, with one GEMM per weight matrix.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .flow import (FlowConfig, FlowDivergedError, FlowTrace, SolverKind,
                   _alpha_fn, _has_kernel, _nonfinite_as, encode_sample,
                   forward_value, hvp_at, loss_value, mixed_vjp_at,
                   reconstruction_objective, rk4_step, value_and_grad)
from .models import DecoderParams, EncoderParams, LossKind, encode, \
    reconstruction_loss
from .data import Dataset, SamplerState


class AdjointMode(Enum):
    FULL = "full"
    APPROXIMATE = "approx"


class TrainDivergedError(RuntimeError):
    """A non-finite parameter gradient, optimizer step or training loss, a
    flow that diverged during training, or validation loss past the
    divergence guard."""


class OptimizerKind(Enum):
    RMSPROP = "rmsprop"
    ADAM = "adam"


@dataclass
class OptimizerState:
    kind: OptimizerKind
    lr: float
    alpha: float = 0.9          # rmsprop decay
    beta1: float = 0.9          # adam
    beta2: float = 0.999
    eps: float = 1e-6
    sq_avg: list = field(default_factory=list)
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step_count: int = 0


def rmsprop_state(params: list[Tensor], lr: float = 5e-4, alpha: float = 0.9,
                  eps: float = 1e-6) -> OptimizerState:
    """Momentum-free RMSprop with the reference hyperparameters."""
    return OptimizerState(OptimizerKind.RMSPROP, lr, alpha=alpha, eps=eps,
                          sq_avg=[np.zeros_like(p.data) for p in params])


def adam_state(params: list[Tensor], lr: float = 1e-3, beta1: float = 0.9,
               beta2: float = 0.999, eps: float = 1e-8) -> OptimizerState:
    return OptimizerState(OptimizerKind.ADAM, lr, beta1=beta1, beta2=beta2,
                          eps=eps,
                          m=[np.zeros_like(p.data) for p in params],
                          v=[np.zeros_like(p.data) for p in params])


def optimizer_step(opt: OptimizerState, params: list[Tensor],
                   grads: list[np.ndarray]) -> list[Tensor]:
    """One update; returns fresh parameter tensors (inputs stay immutable)."""
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    for p, g in zip(params, grads):
        if p.data.shape != g.shape:
            raise ValueError(f"shape mismatch: param {p.data.shape} vs "
                             f"grad {g.shape}")
    opt.step_count += 1
    out = []
    if opt.kind == OptimizerKind.RMSPROP:
        for i, (p, g) in enumerate(zip(params, grads)):
            opt.sq_avg[i] = opt.alpha * opt.sq_avg[i] + (1 - opt.alpha) * g * g
            step = opt.lr * g / (np.sqrt(opt.sq_avg[i]) + opt.eps)
            out.append(Tensor(p.data - step, requires_grad=True))
    else:
        t = opt.step_count
        bc1 = 1.0 - opt.beta1 ** t
        bc2 = 1.0 - opt.beta2 ** t
        for i, (p, g) in enumerate(zip(params, grads)):
            opt.m[i] = opt.beta1 * opt.m[i] + (1 - opt.beta1) * g
            opt.v[i] = opt.beta2 * opt.v[i] + (1 - opt.beta2) * g * g
            step = opt.lr * (opt.m[i] / bc1) / (np.sqrt(opt.v[i] / bc2) + opt.eps)
            out.append(Tensor(p.data - step, requires_grad=True))
    return out


# ---------------------------------------------------------------------------
# Parameter gradients
# ---------------------------------------------------------------------------

def grad_theta_approximate(y, zstar: np.ndarray, theta: DecoderParams,
                           kind: LossKind = LossKind.CROSS_ENTROPY
                           ) -> tuple[list[np.ndarray], int]:
    """partial_theta l(y, D(z*, theta)) with z* held fixed; one model call."""
    _, grads = value_and_grad(reconstruction_objective(y, theta, kind), zstar,
                              theta.tensors(), TrainDivergedError, wrt_x=False)
    return grads, 1


class _TapedSecondOrder:
    """The full adjoint's second-order terms from diffcore tapes: one tape
    per hvp and per mixed term, and the mixed integral summed into the
    partial derivative slice by slice with the trapezoid rule."""

    def __init__(self, objective, thetas, trace, alpha_fn, err, partial):
        self.objective, self.thetas, self.err = objective, thetas, err
        self.trace, self.alpha_fn = trace, alpha_fn
        self.total, self.right = partial, None

    def hvp(self, t, z, v):
        return hvp_at(self.objective, z, v, self.err)

    def mixed(self, k, lam):
        """Add the mixed term at grid point k, where the costate is lam."""
        m = mixed_vjp_at(self.objective, self.trace.zs[k], self.thetas, lam,
                         self.err)
        if self.right is not None:
            ts, dt, alpha = self.trace.ts, self.trace.dts[k], self.alpha_fn
            self.total = [acc + 0.5 * dt * (alpha(ts[k]) * ml
                                            + alpha(ts[k + 1]) * mr)
                          for acc, ml, mr in zip(self.total, m, self.right)]
        self.right = m


class _KernelSecondOrder:
    """The same terms from the objective's closed-form linearizations.

    There is one linearization per distinct point the costate visits: the
    midpoint of each slice (its k2 and k3 stages) and each grid point (k4,
    the mixed term there, and the next slice's k1, whose direction is the
    mixed term's, so one tangent sweep serves both).  The mixed integral's
    trapezoid weight c_k per grid point scales the factors g_i' and g_i
    that the sweep in direction lambda_k gives; they are written, with h_i
    and h_i', into rows allocated once, and :attr:`total` contracts them
    with one GEMM per weight matrix and one weighted sum per bias.
    """

    def __init__(self, objective, thetas, trace, alpha_fn, err, partial):
        self.objective, self.trace, self.partial = objective, trace, partial
        n, ts, dts = trace.n_slices, trace.ts, trace.dts
        self.weights = [0.5 * alpha_fn(ts[k])
                        * ((dts[k - 1] if k > 0 else 0.0)
                           + (dts[k] if k < n else 0.0))
                        for k in range(n + 1)]
        widths = objective.decoder.widths
        # Rows k and n+1+k hold (c_k g_i', h_i) and (c_k g_i, h_i').
        self.outs = [np.empty((2 * (n + 1), w)) for w in widths[1:]]
        self.ins = [np.empty((2 * (n + 1), w)) for w in widths[:-1]]
        self.points = {}

    def _point(self, t, z):
        # Keyed by time: inside a slice z is a function of t, and a grid
        # point's linearization, built from the grid latent, also serves the
        # slice below, whose interpolated z there differs only by rounding.
        lin = self.points.get(t)
        if lin is None:
            lin = self.points[t] = self.objective.linearize(z)
        return lin

    def hvp(self, t, z, v):
        return self._point(t, z).hvp(v)

    def mixed(self, k, lam):
        t = self.trace.ts[k]
        lin = self._point(t, self.trace.zs[k])
        self.points = {t: lin}  # the next slice down shares only this point
        h_dots, g_dots = lin.tangent(lam)
        c, r = self.weights[k], self.trace.n_slices + 1 + k
        for out, inp, g_dot, g, h, h_dot in zip(
                self.outs, self.ins, g_dots, lin.grads, lin.inputs, h_dots):
            np.multiply(g_dot, c, out=out[k])
            np.multiply(g, c, out=out[r])
            inp[k] = h
            inp[r] = h_dot

    @property
    def total(self):
        n = self.trace.n_slices
        total = []
        for i, (out, inp) in enumerate(zip(self.outs, self.ins)):
            total.append(self.partial[2 * i] + out.T @ inp)
            total.append(self.partial[2 * i + 1] + out[:n + 1].sum(axis=0))
        return total


def full_adjoint_gradient(objective, thetas: list[Tensor], trace: FlowTrace,
                          alpha_fn, costate_out: list | None = None
                          ) -> tuple[list[np.ndarray], int]:
    """Total d/d theta of the endpoint loss along a cached trajectory.

    ``objective`` maps a latent Tensor to the taped loss and closes over
    ``thetas``.  The costate is advanced backward by ``rk4_step`` on each
    cached slice (latent linearly interpolated inside a slice); the integral
    term uses the trapezoid rule on the grid points.  A reconstruction
    objective over its decoder's tensors takes its hvps and mixed terms from
    closed-form linearizations and contracts the integral once per layer at
    the end; any other objective, from one tape each.  If ``costate_out`` is
    a list, (t, lambda) pairs are appended in backward order.
    """
    if not trace.complete:
        raise ValueError("full adjoint needs a complete flow trace")
    if trace.solver == SolverKind.NESTEROV2:
        raise ValueError("full adjoint of a Nesterov flow is not implemented: "
                         "its costate lives on the (z, v) state; use the "
                         "approximate gradient")
    err = TrainDivergedError
    n = trace.n_slices
    ts, zs = trace.ts, trace.zs

    # Terminal condition and the partial derivative, from one shared graph.
    _, gs = value_and_grad(objective, zs[-1], thetas, err)
    lam = -gs[0]
    if costate_out is not None:
        costate_out.append((ts[-1], lam.copy()))

    second = (_KernelSecondOrder if _has_kernel(objective, thetas)
              else _TapedSecondOrder)(objective, thetas, trace, alpha_fn, err,
                                      [g.copy() for g in gs[1:]])
    with _nonfinite_as(err, taped=False):
        second.mixed(n, lam)
        for j in range(n - 1, -1, -1):
            t_hi, t_lo = ts[j + 1], ts[j]
            dt = trace.dts[j]
            z_lo, z_hi = zs[j], zs[j + 1]

            def rhs(t, lam_val):
                w = 0.0 if dt == 0.0 else (t - t_lo) / dt
                z = z_lo + w * (z_hi - z_lo)
                return alpha_fn(t) * second.hvp(t, z, lam_val)

            lam = rk4_step(rhs, t_hi, t_lo, lam, rhs(t_hi, lam))
            if costate_out is not None:
                costate_out.append((t_lo, lam.copy()))
            second.mixed(j, lam)
        total = second.total

    for g in total:
        if not np.isfinite(g).all():
            raise TrainDivergedError("non-finite full-adjoint gradient")
    # One value+grad, n + 1 mixed-vjps and 4n hvps; second order costs 3.
    return total, 1 + 3 * (n + 1) + 3 * 4 * n


def grad_theta_full_adjoint(y, trace: FlowTrace, theta: DecoderParams,
                            cfg: FlowConfig,
                            kind: LossKind = LossKind.CROSS_ENTROPY
                            ) -> tuple[list[np.ndarray], int]:
    """Full-adjoint total derivative for a decoder reconstruction loss."""
    if trace.theta_version is not None and trace.theta_version != theta.version:
        raise ValueError("trace/theta mismatch: decoder parameters changed "
                         "since the forward flow")
    alpha_fn = _alpha_fn(cfg) if cfg.solver != SolverKind.AMD else (lambda t: 1.0)
    return full_adjoint_gradient(reconstruction_objective(y, theta, kind),
                                 theta.tensors(), trace, alpha_fn)


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

@dataclass
class MetricsRow:
    wall_ms: float
    iteration: int
    images_seen: int
    split: str
    loss: float
    model_calls: int


@dataclass
class TrainSchedule:
    iterations: int
    batch_size: int = 32
    validate_every: int = 20
    val_size: int = 64
    divergence_factor: float = 10.0

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        for name in ("batch_size", "validate_every", "val_size"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class TrainReport:
    metrics: list[MetricsRow]
    decoder: DecoderParams
    encoder: EncoderParams | None
    total_model_calls: int
    images_seen: int

    def final_val_loss(self) -> float:
        vals = [r.loss for r in self.metrics if r.split == "val"]
        if not vals:
            raise ValueError("no validation rows recorded")
        return vals[-1]


def write_metrics_csv(path, rows: list[MetricsRow]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["wall_ms", "iteration", "images_seen", "split", "loss",
                    "model_calls"])
        for r in rows:
            w.writerow([f"{r.wall_ms:.3f}", r.iteration, r.images_seen,
                        r.split, f"{r.loss:.9g}", r.model_calls])


class EvalMode(Enum):
    AE_ENCODER = "ae-encoder"
    GFE_FLOW = "gfe-flow"


def eval_latent(y, decoder: DecoderParams, mode: EvalMode, cfg: FlowConfig,
                encoder: EncoderParams | None = None,
                kind: LossKind = LossKind.CROSS_ENTROPY,
                warm_start_encoder: bool = False) -> tuple[np.ndarray, int]:
    """The latent ``mode`` assigns to image y, and the model calls it took.

    AE_ENCODER takes the encoder's output (no decoder call).  GFE_FLOW
    encodes with the flow under frozen parameters, from zero, or with
    ``warm_start_encoder`` and an encoder available, from the encoder's
    latent, so the flow can only refine it.
    """
    if mode == EvalMode.AE_ENCODER or (warm_start_encoder
                                       and encoder is not None):
        if encoder is None:
            raise ValueError("ae-encoder mode needs an encoder; use gfe-flow")
        z = forward_value(lambda x: encode(x, encoder), y, TrainDivergedError)
        if mode == EvalMode.AE_ENCODER:
            return z, 0
        cfg = replace(cfg, z0=z)
    state, _ = encode_sample(y, decoder, cfg, kind)
    return state.z, state.model_calls


def evaluate(ds: Dataset, decoder: DecoderParams, mode: EvalMode,
             cfg: FlowConfig | None = None,
             encoder: EncoderParams | None = None,
             kind: LossKind = LossKind.CROSS_ENTROPY,
             limit: int | None = None,
             warm_start_encoder: bool = False) -> tuple[float, int]:
    """Mean reconstruction loss over a split; returns (loss, model calls).

    Each image is encoded by :func:`eval_latent`, and its loss costs one
    more model call.  A non-finite encoder output or loss raises
    ``TrainDivergedError``; a diverging flow, ``FlowDivergedError``; an
    empty split or a ``limit`` below 1, ``ValueError``.
    """
    n = len(ds) if limit is None else min(limit, len(ds))
    if n < 1:
        raise ValueError(f"evaluate: empty selection ({len(ds)} images in "
                         f"the split, limit {limit})")
    cfg = cfg if cfg is not None else FlowConfig()
    calls = 0
    total = 0.0
    for i in range(n):
        y = ds.images[i]
        z, c = eval_latent(y, decoder, mode, cfg, encoder, kind,
                           warm_start_encoder)
        total += loss_value(reconstruction_objective(y, decoder, kind), z,
                            TrainDivergedError)
        calls += c + 1
    return total / n, calls


def _train(train: Dataset, val: Dataset, decoder: DecoderParams,
           encoder: EncoderParams | None, cfg: FlowConfig | None,
           kind: LossKind, opt: OptimizerState, schedule: TrainSchedule,
           rng: np.random.Generator, sample_grad) -> TrainReport:
    """The loop both trainers share.

    ``sample_grad(y)`` returns (parameter gradients, loss, model calls) for
    one image under the current parameters, gradients ordered as the
    encoder's tensors (if any) followed by the decoder's.  Validation runs
    ``evaluate`` through the encoder if there is one, else through the flow.
    """
    if len(train) == 0:
        raise ValueError("empty training set")
    nets = [m for m in (encoder, decoder) if m is not None]
    params = [t for m in nets for t in m.tensors()]
    mode = EvalMode.GFE_FLOW if encoder is None else EvalMode.AE_ENCODER
    sampler = SamplerState(rng=rng, batch_size=schedule.batch_size)
    t0 = time.perf_counter()
    rows: list[MetricsRow] = []
    total_calls = 0

    def validate(it: int) -> float:
        nonlocal total_calls
        vloss, c = evaluate(val, decoder, mode, cfg=cfg, encoder=encoder,
                            kind=kind, limit=schedule.val_size)
        total_calls += c
        rows.append(MetricsRow((time.perf_counter() - t0) * 1e3, it,
                               it * schedule.batch_size, "val", vloss,
                               total_calls))
        return vloss

    it = 0
    try:
        val0 = validate(0)
        for it in range(1, schedule.iterations + 1):
            idx = sampler.sample(len(train))
            batch_grads = None
            batch_loss = 0.0
            for i in idx:
                gs, loss, c = sample_grad(train.images[i])
                total_calls += c
                batch_loss += loss
                if batch_grads is None:
                    batch_grads = gs
                else:
                    batch_grads = [a + b for a, b in zip(batch_grads, gs)]
            batch_grads = [g / len(idx) for g in batch_grads]
            params = optimizer_step(opt, params, batch_grads)
            k = 0
            for m in nets:
                m.replace_tensors(params[k:k + 2 * m.n_layers])
                k += 2 * m.n_layers

            rows.append(MetricsRow((time.perf_counter() - t0) * 1e3, it,
                                   it * schedule.batch_size, "train",
                                   batch_loss / len(idx), total_calls))
            if it % schedule.validate_every == 0 or it == schedule.iterations:
                vloss = validate(it)
                if vloss > schedule.divergence_factor * max(val0, 1e-12):
                    raise TrainDivergedError(
                        f"validation loss {vloss:.4g} exceeded "
                        f"{schedule.divergence_factor}x its initial value "
                        f"{val0:.4g} at iteration {it}")
    except (dc.NonFiniteError, FlowDivergedError) as exc:
        raise TrainDivergedError(f"iteration {it}: {exc}") from exc
    return TrainReport(rows, decoder, encoder, total_calls,
                       schedule.iterations * schedule.batch_size)


def train_gfe(train: Dataset, val: Dataset, decoder: DecoderParams,
              cfg: FlowConfig, mode: AdjointMode, opt: OptimizerState,
              schedule: TrainSchedule, rng: np.random.Generator,
              kind: LossKind = LossKind.CROSS_ENTROPY) -> TrainReport:
    """Flow-encode each batch sample, update theta per the adjoint mode."""

    def sample_grad(y):
        state, trace = encode_sample(y, decoder, cfg, kind)
        if mode == AdjointMode.APPROXIMATE:
            gs, c = grad_theta_approximate(y, state.z, decoder, kind)
        else:
            gs, c = grad_theta_full_adjoint(y, trace, decoder, cfg, kind)
        loss = loss_value(reconstruction_objective(y, decoder, kind), state.z,
                          TrainDivergedError)
        return gs, loss, state.model_calls + c + 1

    return _train(train, val, decoder, None, cfg, kind, opt, schedule, rng,
                  sample_grad)


def train_ae(train: Dataset, val: Dataset, encoder: EncoderParams,
             decoder: DecoderParams, opt: OptimizerState,
             schedule: TrainSchedule, rng: np.random.Generator,
             kind: LossKind = LossKind.CROSS_ENTROPY) -> TrainReport:
    """Standard encoder+decoder loop with the same logging."""
    if not encoder.matches_decoder(decoder):
        raise ValueError("encoder widths must mirror the decoder's")

    def sample_grad(y):
        loss, gs = value_and_grad(
            lambda x: reconstruction_loss(y, encode(x, encoder), decoder, kind),
            y, encoder.tensors() + decoder.tensors(), TrainDivergedError,
            wrt_x=False)
        return gs, loss, 1

    return _train(train, val, decoder, encoder, None, kind, opt, schedule, rng,
                  sample_grad)
