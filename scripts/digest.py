"""Print a SHA-256 digest of the program's results on fixed, seeded cases.

Usage: python scripts/digest.py SRC_DIR

Imports ``flowenc`` from SRC_DIR (the ``src`` directory of a checkout) and
prints one line per case: its name, a SHA-256 of every float, integer and
array the program returned, and a SHA-256 of the model-call unit counts it
returned.  The counts are every ``model_calls``/``total_model_calls`` field
and the call count that ``evaluate``, ``grad_theta_*`` and
``full_adjoint_gradient`` return; the first hash leaves them out, and both
leave out wall-clock fields and parameter version stamps.  Run it on two
checkouts and diff the output to check that a change keeps results
bit-identical, and whether it moved the unit accounting.  It takes well
under a minute.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import struct
import sys

import numpy as np

#: Fields that follow the clock or a process-wide counter, not the numbers.
SKIPPED_FIELDS = {"wall_ms", "theta_version"}

#: Fields that hold model-call unit counts; they go to the second hash.
UNIT_FIELDS = {"model_calls", "total_model_calls"}

WIDTHS = [16, 32, 64, 128, 784]


class Units(int):
    """A model-call count the program returned."""


def counted(result):
    """A ``(value, calls)`` return with its call count marked as units."""
    value, calls = result
    return value, Units(calls)


def feed(h, units, obj) -> None:
    """Hash ``obj`` recursively into ``h``, with type tags so values cannot
    alias; unit counts go to ``units`` and leave a tag in ``h``."""
    if isinstance(obj, Units):
        h.update(b"U")
        units.update(b"I" + str(int(obj)).encode())
    elif obj is None:
        h.update(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"I" + str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        h.update(b"S" + obj.encode())
    elif isinstance(obj, enum.Enum):
        h.update(b"E" + str(obj.value).encode())
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"A" + arr.dtype.str.encode() + repr(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"L" + str(len(obj)).encode())
        for item in obj:
            feed(h, units, item)
    elif dataclasses.is_dataclass(obj):
        h.update(b"D" + type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if f.name in UNIT_FIELDS:
                feed(h, units, Units(value))
            elif f.name not in SKIPPED_FIELDS:
                feed(h, units, value)
    elif hasattr(obj, "tensors") and hasattr(obj, "widths"):
        h.update(b"P")
        feed(h, units, obj.widths)
        feed(h, units, [t.data for t in obj.tensors()])
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj) -> str:
    """The numbers hash and the units hash of ``obj``, space-separated."""
    h, units = hashlib.sha256(), hashlib.sha256()
    feed(h, units, obj)
    return f"{h.hexdigest()} {units.hexdigest()}"


def cases(fe):
    """(name, thunk) pairs; each thunk returns what the program returned."""
    fl, tr, md, dd = fe.flow, fe.training, fe.models, fe.data
    corpus = dd.synth_digits(40, seed=977)
    train = dd.Dataset(corpus.images[:24], corpus.labels[:24], "synth", "train")
    val = dd.Dataset(corpus.images[24:32], corpus.labels[24:32], "synth", "val")
    test = dd.Dataset(corpus.images[32:], corpus.labels[32:], "synth", "test")
    y = test.images[0]

    def decoder(seed):
        return md.init_decoder(WIDTHS, np.random.default_rng(seed))

    # A decoder with some training behind it, so flows do real work.
    trained = decoder(1)
    tr.train_gfe(train, val, trained,
                 fl.FlowConfig(tau=50.0, solver=fl.SolverKind.AMD,
                               early_stop_tol=1e-3),
                 tr.AdjointMode.APPROXIMATE,
                 tr.rmsprop_state(trained.tensors(), lr=5e-3),
                 tr.TrainSchedule(iterations=12, batch_size=1,
                                  validate_every=12, val_size=2),
                 np.random.default_rng(2))
    ae_dec = decoder(3)
    ae_enc = md.init_encoder(ae_dec, np.random.default_rng(4))
    tr.train_ae(train, val, ae_enc, ae_dec,
                tr.rmsprop_state(ae_enc.tensors() + ae_dec.tensors(), lr=5e-3),
                tr.TrainSchedule(iterations=20, batch_size=4,
                                 validate_every=20, val_size=2),
                np.random.default_rng(5))

    rk4, nes, amd = (fl.SolverKind.RK4_FIXED, fl.SolverKind.NESTEROV2,
                     fl.SolverKind.AMD)
    one, decay = fl.AlphaSchedule.ONE, fl.AlphaSchedule.EXP_DECAY
    grids = [(20.0, 100), (50.0, 6)]
    out = []

    for solver in (rk4, nes, amd):
        for alpha in (one, decay):
            for tau, n in (grids if solver != amd else [(50.0, 100)]):
                cfg = fl.FlowConfig(tau=tau, solver=solver, n_slices=n,
                                    alpha_schedule=alpha, early_stop_tol=1e-3)
                out.append((f"flow/{solver.value}/{alpha.value}/tau{tau:g}-n{n}",
                            lambda cfg=cfg: fl.encode_sample(y, trained, cfg)))

    # With no early stop these end on a step clamped to tau; at tau 0.8 and
    # 4 a clamped candidate is also rejected before a beta^m * s step.
    for tau in (0.8, 3.0, 4.0):
        cfg = fl.FlowConfig(tau=tau, solver=amd, early_stop_tol=0.0)
        out.append((f"flow/amd/to-tau/tau{tau:g}",
                    lambda cfg=cfg: fl.encode_sample(y, trained, cfg)))

    def full_adjoint(cfg):
        state, trace = fl.encode_sample(y, trained, cfg)
        return state, trace, counted(
            tr.grad_theta_full_adjoint(y, trace, trained, cfg))

    for name, cfg in [
            ("rk4/one/tau5-n20", fl.FlowConfig(tau=5.0, solver=rk4, n_slices=20)),
            ("rk4/exp_decay/tau5-n20",
             fl.FlowConfig(tau=5.0, solver=rk4, n_slices=20,
                           alpha_schedule=decay)),
            ("rk4/one/tau50-n6", fl.FlowConfig(tau=50.0, solver=rk4, n_slices=6)),
            ("rk4/exp_decay/tau50-n6",
             fl.FlowConfig(tau=50.0, solver=rk4, n_slices=6,
                           alpha_schedule=decay)),
            ("amd/tau20", fl.FlowConfig(tau=20.0, solver=amd,
                                        early_stop_tol=1e-2))]:
        out.append((f"full-adjoint/{name}", lambda cfg=cfg: full_adjoint(cfg)))

    # A fresh decoder has zero biases, so from z0 = 0 every first-layer
    # pre-activation sits exactly at the ELU kink.
    def full_adjoint_at_kink():
        dec = decoder(12)
        cfg = fl.FlowConfig(tau=5.0, solver=rk4, n_slices=20)
        state, trace = fl.encode_sample(y, dec, cfg)
        return state, trace, counted(
            tr.grad_theta_full_adjoint(y, trace, dec, cfg))

    out.append(("full-adjoint/kink/rk4/tau5-n20", full_adjoint_at_kink))

    # L2: criterion 1's one-layer identity decoder through each solver and
    # through a full adjoint, and the trained sigmoid decoder through AMD
    # with both parameter gradients.
    l2 = md.LossKind.L2
    oracle = dd.make_linear_oracle(4, 8, seed=42)
    linear = md.DecoderParams([fe.diffcore.Tensor(oracle.A, requires_grad=True)],
                              [fe.diffcore.Tensor(oracle.b, requires_grad=True)],
                              [4, 8], output_mode="identity")

    def l2_identity_full_adjoint():
        cfg = fl.FlowConfig(tau=5.0, solver=rk4, n_slices=20)
        state, trace = fl.encode_sample(oracle.ys[0], linear, cfg, l2)
        return state, trace, counted(tr.grad_theta_full_adjoint(
            oracle.ys[0], trace, linear, cfg, l2))

    out.append(("l2/identity/rk4-full-adjoint/tau5-n20",
                l2_identity_full_adjoint))
    for name, cfg in [
            ("rk4", fl.FlowConfig(tau=20.0, solver=rk4, n_slices=200)),
            ("nesterov", fl.FlowConfig(tau=300.0, solver=nes, n_slices=1500)),
            ("amd", fl.FlowConfig(tau=20.0, solver=amd, early_stop_tol=0.0))]:
        out.append((f"l2/identity/{name}", lambda cfg=cfg: fl.encode_sample(
            oracle.ys[0], linear, cfg, l2)))

    def l2_sigmoid_amd():
        cfg = fl.FlowConfig(tau=20.0, solver=amd, early_stop_tol=1e-2)
        state, trace = fl.encode_sample(y, trained, cfg, l2)
        return (state, trace,
                counted(tr.grad_theta_approximate(y, state.z, trained, l2)),
                counted(tr.grad_theta_full_adjoint(y, trace, trained, cfg,
                                                   l2)))

    out.append(("l2/sigmoid/amd-approx-full", l2_sigmoid_amd))

    eval_cfg = fl.FlowConfig(tau=100.0, solver=amd, early_stop_tol=1e-4)
    out.append(("evaluate/ae-encoder", lambda: counted(tr.evaluate(
        test, ae_dec, tr.EvalMode.AE_ENCODER, encoder=ae_enc, limit=4))))
    out.append(("evaluate/gfe-flow", lambda: counted(tr.evaluate(
        test, trained, tr.EvalMode.GFE_FLOW, cfg=eval_cfg, limit=4))))
    out.append(("evaluate/gfe-flow-warm-start", lambda: counted(tr.evaluate(
        test, ae_dec, tr.EvalMode.GFE_FLOW, cfg=eval_cfg, encoder=ae_enc,
        limit=4, warm_start_encoder=True))))

    def train_gfe(cfg, mode):
        dec = decoder(6)
        return tr.train_gfe(train, val, dec, cfg, mode,
                            tr.rmsprop_state(dec.tensors()),
                            tr.TrainSchedule(iterations=4, batch_size=2,
                                             validate_every=2, val_size=2),
                            np.random.default_rng(7))

    out.append(("train-gfe/amd/approx", lambda: train_gfe(
        fl.FlowConfig(tau=50.0, solver=amd, early_stop_tol=1e-3),
        tr.AdjointMode.APPROXIMATE)))
    out.append(("train-gfe/nesterov/approx", lambda: train_gfe(
        fl.FlowConfig(tau=20.0, solver=nes, n_slices=16),
        tr.AdjointMode.APPROXIMATE)))
    out.append(("train-gfe/rk4/full/tau50-n6", lambda: train_gfe(
        fl.FlowConfig(tau=50.0, solver=rk4, n_slices=6),
        tr.AdjointMode.FULL)))

    def train_ae():
        dec = decoder(8)
        enc = md.init_encoder(dec, np.random.default_rng(9))
        return tr.train_ae(train, val, enc, dec,
                           tr.rmsprop_state(enc.tensors() + dec.tensors()),
                           tr.TrainSchedule(iterations=6, batch_size=3,
                                            validate_every=3, val_size=2),
                           np.random.default_rng(10))

    out.append(("train-ae", train_ae))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.path.insert(0, argv[1])
    import flowenc
    for name, thunk in cases(flowenc):
        try:
            result = digest(thunk())
        except Exception as exc:  # a failing case is a result too
            result = f"raised {type(exc).__name__}: {exc}"
        print(f"{name} {result}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
