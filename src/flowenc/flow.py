"""Latent encoding by integrating the gradient flow dz/dt = -alpha(t) grad_z l.

Three interchangeable integrators:

* fixed-grid 4th-order Runge-Kutta on a logarithmic time grid,
* the damped second-order system (dv/dt = -3/(t+eps) v - grad, dz/dt = v)
  that models accelerated gradient descent, solved on the same grid,
* an adaptive step integrator (AMD) that backtracks each step until the
  reconstruction loss strictly decreases, with a multiplicative step-scale
  schedule and early stopping on stagnation.

There are two integrator bodies: AMD, and one log-grid driver for the other
two (Nesterov on the stacked state (z, v)) that steps with :func:`rk4_step`,
as the full adjoint in ``training`` does for its costate.

Solvers are pure: given (sample, parameters, config) they always produce
the same trajectory.  Every decoder evaluation is counted in
``FlowState.model_calls``.

Every evaluation of an objective, here and in ``training``, and every
untaped forward pass there and in ``cli``, goes through the tape-boundary
helpers below (:func:`forward_value`, :func:`loss_value`,
:func:`value_and_grad`, :func:`hvp_at`, :func:`mixed_vjp_at`).  They turn
``NonFiniteError`` into the caller's typed error.  :func:`loss_value` and
:func:`value_and_grad` serve a :class:`ReconstructionObjective` from the
closed-form kernel in ``models`` when the requested parameters are none or
exactly the decoder's tensors; every other request, and the second-order
helpers, open a diffcore tape.  Kernel and tape give the same bits.  The
full adjoint in ``training`` takes its second-order terms for such an
objective from :meth:`ReconstructionObjective.linearize` instead, under the
same error mapping; its model-call units do not change.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .models import (DecoderParams, LinearizedLoss, LossKind,
                     reconstruction_grads, reconstruction_loss,
                     reconstruction_target)


class SolverKind(Enum):
    RK4_FIXED = "rk4"
    NESTEROV2 = "nesterov"
    AMD = "amd"


class AlphaSchedule(Enum):
    ONE = "one"
    EXP_DECAY = "exp_decay"


class FlowError(RuntimeError):
    pass


class FlowDivergedError(FlowError):
    """Non-finite gradient during integration; carries (t, grad norm)."""

    def __init__(self, t: float, grad_norm: float):
        self.t = t
        self.grad_norm = grad_norm
        super().__init__(f"flow diverged at t={t:.6g} (|grad|={grad_norm:.6g})")


@dataclass
class FlowConfig:
    tau: float = 20.0
    solver: SolverKind = SolverKind.AMD
    n_slices: int = 100
    alpha_schedule: AlphaSchedule = AlphaSchedule.ONE
    beta: float = 0.75
    s0: float = 1.0
    s_max: float = 10.0
    kappa: float = 1.1
    epsilon: float = 1e-3
    early_stop_tol: float = 0.01
    z0: np.ndarray | None = None

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must be in (0,1), got {self.beta}")
        if self.s0 > self.s_max:
            raise ValueError(f"s0={self.s0} exceeds s_max={self.s_max}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.n_slices < 2:
            raise ValueError(f"n_slices must be >= 2, got {self.n_slices}")


@dataclass
class FlowState:
    """End state of one flow: latent, bookkeeping, and loss history."""

    z: np.ndarray
    v: np.ndarray | None = None
    t: float = 0.0
    loss_history: list[tuple[float, float]] = field(default_factory=list)
    model_calls: int = 0
    early_stopped: bool = False
    stalled: bool = False


@dataclass
class FlowTrace:
    """Cached trajectory consumed by the full-adjoint backward pass.

    ``ts`` has one entry per grid point (n_steps + 1); ``dts`` and ``grads``
    have one entry per slice, with grads evaluated at the slice's left
    endpoint.  ``solver`` is the integrator that produced it;
    ``theta_version`` is the decoder's ``version`` the flow ran under.
    """

    ts: list[float] = field(default_factory=list)
    zs: list[np.ndarray] = field(default_factory=list)
    dts: list[float] = field(default_factory=list)
    grads: list[np.ndarray] = field(default_factory=list)
    complete: bool = False
    solver: SolverKind | None = None
    theta_version: int | None = None

    @property
    def n_slices(self) -> int:
        return len(self.dts)

    def final_z(self) -> np.ndarray:
        return self.zs[-1]


Objective = Callable[[Tensor], Tensor]


#: Density of the log time grid: slice i ends at tau*(e^(ci/N)-1)/(e^c-1).
GRID_C = 3.0

#: AMD shrinks a rejected step (by beta) at most this many times.
BACKTRACK_CAP = 50


def log_time_grid(tau: float, n_slices: int) -> np.ndarray:
    """Monotone grid on [0, tau], denser near zero (see ``GRID_C``)."""
    i = np.arange(n_slices + 1, dtype=np.float64)
    return tau * np.expm1(GRID_C * i / n_slices) / np.expm1(GRID_C)


def _alpha_fn(cfg: FlowConfig) -> Callable[[float], float]:
    if cfg.alpha_schedule == AlphaSchedule.EXP_DECAY:
        tau = cfg.tau
        return lambda t: float(np.exp(-2.0 * t / tau))
    return lambda t: 1.0


# ---------------------------------------------------------------------------
# Tape boundary: the only place objectives are evaluated and differentiated.
# ``error`` maps diffcore's message to the caller's typed exception.
# ---------------------------------------------------------------------------

ErrorFactory = Callable[[str], Exception]


@contextmanager
def _nonfinite_as(error: ErrorFactory, taped: bool = True):
    try:
        with np.errstate(over="ignore", invalid="ignore"), \
                (dc.recording() if taped else nullcontext()):
            yield
    except dc.NonFiniteError as exc:
        raise error(str(exc)) from None


def forward_value(fn: Callable[[Tensor], Tensor], x: np.ndarray,
                  error: ErrorFactory) -> np.ndarray:
    """fn(x) as an array, with x held constant; no tape is opened."""
    with _nonfinite_as(error, taped=False):
        return fn(dc.constant(x)).data


def _has_kernel(objective: Objective, params: Sequence[Tensor]) -> bool:
    """Whether the objective's closed-form kernel serves a request for
    ``params``: a reconstruction objective, and either no parameters or
    exactly its decoder's tensors, in order."""
    if not isinstance(objective, ReconstructionObjective):
        return False
    if not params:
        return True
    own = objective.decoder.tensors()
    return len(params) == len(own) and all(p is q
                                           for p, q in zip(params, own))


def loss_value(objective: Objective, x: np.ndarray,
               error: ErrorFactory) -> float:
    """objective(x) as a float, with x held constant; no tape is opened."""
    if _has_kernel(objective, ()):
        with _nonfinite_as(error, taped=False):
            return objective.kernel(x, False, False)[0]
    return forward_value(objective, x, error).item()


def value_and_grad(objective: Objective, x: np.ndarray,
                   params: Sequence[Tensor], error: ErrorFactory,
                   wrt_x: bool = True) -> tuple[float, list[np.ndarray]]:
    """objective(x) and its gradients: w.r.t. x (first, unless ``wrt_x`` is
    false) and then each of ``params``, all from one evaluation: the
    objective's kernel where it has one for ``params``, else the tape."""
    if _has_kernel(objective, params):
        with _nonfinite_as(error, taped=False):
            return objective.kernel(x, wrt_x, bool(params))
    with _nonfinite_as(error):
        xt = Tensor(x, requires_grad=wrt_x)
        loss = objective(xt)
        gs = dc.grad(loss, [xt, *params] if wrt_x else list(params))
    return loss.item(), [g.data for g in gs]


def hvp_at(objective: Objective, z: np.ndarray, vec: np.ndarray,
           error: ErrorFactory) -> np.ndarray:
    """Hessian of the objective in z, at z, applied to ``vec``."""
    with _nonfinite_as(error):
        zt = Tensor(z, requires_grad=True)
        return dc.hvp(objective(zt), zt, dc.constant(vec)).data


def mixed_vjp_at(objective: Objective, z: np.ndarray,
                 params: Sequence[Tensor], lam: np.ndarray,
                 error: ErrorFactory) -> list[np.ndarray]:
    """Gradient w.r.t. each of ``params`` of <d objective/dz (z), lam>."""
    with _nonfinite_as(error):
        zt = Tensor(z, requires_grad=True)
        ms = dc.mixed_vjp(objective(zt), zt, params, dc.constant(lam))
        return [m.data for m in ms]


def _diverged_at(t: float) -> ErrorFactory:
    return lambda _: FlowDivergedError(t, float("nan"))


class ReconstructionObjective:
    """z -> l(y, D(z)) under the decoder's current parameters.

    Called on a Tensor it builds the taped loss, for the second-order
    helpers; :meth:`kernel` is the closed-form first-order path that
    :func:`loss_value` and :func:`value_and_grad` take instead of the tape,
    and :meth:`linearize` the second-order one the full adjoint takes.
    The target is validated once, here.
    """

    def __init__(self, y, decoder: DecoderParams, kind: LossKind):
        self.y = reconstruction_target(y, decoder, kind)
        self.decoder = decoder
        self.kind = kind

    def __call__(self, z: Tensor) -> Tensor:
        return reconstruction_loss(self.y, z, self.decoder, self.kind)

    def kernel(self, z: np.ndarray, wrt_z: bool, wrt_theta: bool
               ) -> tuple[float, list[np.ndarray]]:
        return reconstruction_grads(self.y, z, self.decoder, self.kind,
                                    wrt_z, wrt_theta)

    def linearize(self, z: np.ndarray) -> LinearizedLoss:
        return LinearizedLoss(self.y, z, self.decoder, self.kind)


def reconstruction_objective(y, decoder: DecoderParams,
                             kind: LossKind = LossKind.CROSS_ENTROPY
                             ) -> ReconstructionObjective:
    return ReconstructionObjective(y, decoder, kind)


def _default_z0(cfg: FlowConfig, dim: int) -> np.ndarray:
    if cfg.z0 is not None:
        z0 = np.asarray(cfg.z0, dtype=np.float64)
        if z0.shape != (dim,):
            raise ValueError(f"z0 shape {z0.shape} does not match latent ({dim},)")
        return z0.copy()
    return np.zeros(dim)


# ---------------------------------------------------------------------------
# Integrators (objective-generic; the solve_* wrappers below bind a decoder)
# ---------------------------------------------------------------------------

def rk4_step(f: Callable[[float, np.ndarray], np.ndarray], t0: float,
             t1: float, y: np.ndarray, k1: np.ndarray) -> np.ndarray:
    """One classical RK4 step of dy/dt = f(t, y) from t0 to t1 (either
    direction), given k1 = f(t0, y).  The last stage is taken at exactly t1."""
    h = t1 - t0
    t_mid = t0 + 0.5 * h
    k2 = f(t_mid, y + 0.5 * h * k1)
    k3 = f(t_mid, y + 0.5 * h * k2)
    k4 = f(t1, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate_log_grid(objective: Objective, y: np.ndarray, n_z: int,
                        cfg: FlowConfig, solver: SolverKind, rhs
                        ) -> tuple[FlowState, FlowTrace]:
    """RK4 over the log time grid of dy/dt = rhs(t, y, grad_z l(z)).

    The latent z is ``y[:n_z]``; the rest of y, if any, ends in ``state.v``.
    """
    ts = log_time_grid(cfg.tau, cfg.n_slices).tolist()
    state = FlowState(z=y[:n_z], t=ts[-1])
    trace = FlowTrace(ts=ts, solver=solver)

    def f(t, yc):
        _, (g,) = value_and_grad(objective, yc[:n_z], (), _diverged_at(t))
        return rhs(t, yc, g)

    for t0, t1 in zip(ts, ts[1:]):
        l0, (g0,) = value_and_grad(objective, y[:n_z], (), _diverged_at(t0))
        trace.zs.append(y[:n_z].copy())
        trace.dts.append(t1 - t0)
        trace.grads.append(g0)
        state.loss_history.append((t0, l0))
        y = rk4_step(f, t0, t1, y, rhs(t0, y, g0))
        state.model_calls += 4
        if not np.isfinite(y).all():
            raise FlowDivergedError(t1, float(np.linalg.norm(g0)))
    trace.zs.append(y[:n_z].copy())
    trace.complete = True
    state.z, state.v = y[:n_z], (y[n_z:] if y.size > n_z else None)
    return state, trace


def integrate_rk4(objective: Objective, z0: np.ndarray,
                  cfg: FlowConfig) -> tuple[FlowState, FlowTrace]:
    """dz/dt = -alpha(t) grad l on the log grid."""
    alpha = _alpha_fn(cfg)
    z = np.array(z0, dtype=np.float64)
    return _integrate_log_grid(objective, z, z.size, cfg, SolverKind.RK4_FIXED,
                               lambda t, zc, g: -alpha(t) * g)


def integrate_nesterov(objective: Objective, z0: np.ndarray,
                       cfg: FlowConfig) -> tuple[FlowState, FlowTrace]:
    """Coupled first-order form of z'' + 3/(t+eps) z' + grad l = 0, on the
    stacked state (z, v) with v(0) = 0."""
    eps = cfg.epsilon
    z = np.array(z0, dtype=np.float64)
    d = z.size

    def rhs(t, y, g):
        return np.concatenate((y[d:], -(3.0 / (t + eps)) * y[d:] - g))

    return _integrate_log_grid(objective, np.concatenate((z, np.zeros(d))),
                               d, cfg, SolverKind.NESTEROV2, rhs)


_GRAD_FLOOR = 1e-15


def _trial_steps(s: float, beta: float, remaining: float) -> Iterator[float]:
    """AMD's candidate steps, in trial order: ``remaining`` first if s
    overshoots it, then beta^m * s for m = 0..BACKTRACK_CAP within it."""
    if s > remaining:
        yield remaining
    for m in range(BACKTRACK_CAP + 1):
        dt = beta ** m * s
        if dt <= remaining:
            yield dt


def integrate_amd(objective: Objective, z0: np.ndarray,
                  cfg: FlowConfig) -> tuple[FlowState, FlowTrace]:
    """Backtracking explicit steps; every accepted step strictly lowers l.

    The step is the first candidate that lowers l: tau - t if s_n
    overshoots it, then dt = beta^m * s_n (m = 0..BACKTRACK_CAP) for those
    that stay within tau - t; s_n follows
    s_n = min(max(kappa*s_{n-1}, s0), s_max).  Alpha is fixed to 1 (the step
    size takes over its role).  Stops at tau, on relative improvement below
    early_stop_tol, or with ``stalled`` set when no candidate lowers l
    (converged to machine precision).
    """
    state = FlowState(z=np.array(z0, dtype=np.float64))
    trace = FlowTrace(solver=SolverKind.AMD)
    z, t = state.z, 0.0
    s = cfg.s0
    l_cur, (g,) = value_and_grad(objective, z, (), _diverged_at(t))
    state.model_calls += 1
    state.loss_history.append((t, l_cur))

    while t < cfg.tau:
        gnorm = float(np.linalg.norm(g))
        if gnorm < _GRAD_FLOOR:
            state.early_stopped = True
            break

        for dt in _trial_steps(s, cfg.beta, cfg.tau - t):
            z_try = z - dt * g
            l_try = loss_value(objective, z_try, _diverged_at(t + dt))
            state.model_calls += 1
            if l_try < l_cur:
                break
        else:
            state.stalled = True
            break

        trace.ts.append(t)
        trace.zs.append(z.copy())
        trace.dts.append(dt)
        trace.grads.append(g)
        z, t = z_try, t + dt
        state.loss_history.append((t, l_try))
        improvement = (l_cur - l_try) / max(l_cur, 1e-12)
        l_cur = l_try
        if improvement < cfg.early_stop_tol:
            state.early_stopped = True
            break
        if t >= cfg.tau:
            break
        s = min(max(cfg.kappa * s, cfg.s0), cfg.s_max)
        l_cur, (g,) = value_and_grad(objective, z, (), _diverged_at(t))
        state.model_calls += 1

    trace.ts.append(t)
    trace.zs.append(z.copy())
    trace.complete = True
    state.z = z
    state.t = t
    return state, trace


# ---------------------------------------------------------------------------
# Decoder-bound entry points
# ---------------------------------------------------------------------------

_SOLVE = {
    SolverKind.RK4_FIXED: integrate_rk4,
    SolverKind.NESTEROV2: integrate_nesterov,
    SolverKind.AMD: integrate_amd,
}


def _solve_with(solver: SolverKind):
    """``encode_sample``, after checking that the config selects ``solver``."""
    def solve(y, theta: DecoderParams, cfg: FlowConfig,
              kind: LossKind = LossKind.CROSS_ENTROPY):
        if cfg.solver != solver:
            raise ValueError("config selects a different solver")
        return encode_sample(y, theta, cfg, kind)
    return solve


solve_rk4_fixed = _solve_with(SolverKind.RK4_FIXED)
solve_nesterov = _solve_with(SolverKind.NESTEROV2)
solve_amd = _solve_with(SolverKind.AMD)


def encode_sample(y, theta: DecoderParams, cfg: FlowConfig,
                  kind: LossKind = LossKind.CROSS_ENTROPY):
    """One flow solve with the solver selected by the config."""
    obj = reconstruction_objective(y, theta, kind)
    state, trace = _SOLVE[cfg.solver](obj, _default_z0(cfg, theta.latent_dim), cfg)
    trace.theta_version = theta.version
    return state, trace


def encode_batch(batch, theta: DecoderParams, cfg: FlowConfig,
                 kind: LossKind = LossKind.CROSS_ENTROPY
                 ) -> list[tuple[FlowState, FlowTrace]]:
    """Independent per-sample flows, order-aligned with the batch."""
    samples = list(batch)
    if len(samples) == 0:
        raise ValueError("encode_batch: empty batch")
    results = []
    for i, y in enumerate(samples):
        try:
            results.append(encode_sample(y, theta, cfg, kind))
        except FlowError as exc:
            raise FlowError(f"sample {i}: {exc}") from exc
    return results


def dump_trace_csv(path, results, sample_ids=None) -> None:
    """Solver diagnostics: one row per slice with loss and gradient norm."""
    if sample_ids is None:
        sample_ids = list(range(len(results)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "step", "t", "dt", "loss", "grad_norm"])
        for sid, (state, trace) in zip(sample_ids, results):
            # Every solver records loss_history[k] at trace.ts[k].
            for k in range(trace.n_slices):
                writer.writerow([
                    sid, k, f"{trace.ts[k]:.9g}", f"{trace.dts[k]:.9g}",
                    f"{state.loss_history[k][1]:.9g}",
                    f"{np.linalg.norm(trace.grads[k]):.9g}",
                ])
