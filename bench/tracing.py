"""In-memory span tracer, the wrappers of a traced run, and per-layer metrics.

A traced run replaces the public functions of each layer by wrappers, at
the names their callers look up at call time (``dc.grad`` inside flow and
training, ``reconstruction_loss`` as imported into ``flowenc.flow``, and so
on), and puts the originals back afterwards.  Nothing in ``src/`` changes:
the untraced run executes the program exactly as shipped.

Each span is (name, parent, start, end), appended to flat arrays.  Spans
are opened in call order and nest properly, so the descendants of span i
are the spans recorded after it that start before it ends.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

from flowenc import data, diffcore, flow, models, training

#: Span names, in the order they are reported.
SPAN_GRAD = "diffcore.grad"
SPAN_GRAD_NESTED = "diffcore.grad.nested"   # the sweeps inside hvp/mixed_vjp
SPAN_HVP = "diffcore.hvp"
SPAN_MIXED = "diffcore.mixed_vjp"
SPAN_LOSS = "models.reconstruction_loss"
SPAN_ENCODE = "models.encode"
SPAN_ENC_AFFINE = "models.encoder_affine"
SPAN_ENC_ELU = "models.encoder_elu"
SPAN_SAMPLE = "flow.encode_sample"
SPAN_BATCH = "flow.encode_batch"
SPAN_APPROX = "training.grad_theta_approximate"
SPAN_FULL = "training.grad_theta_full_adjoint"
SPAN_OPT = "training.optimizer_step"
SPAN_EVAL = "training.evaluate"
SPAN_TRAIN_GFE = "training.train_gfe"
SPAN_TRAIN_AE = "training.train_ae"
SPAN_SYNTH = "data.synth_digits"

#: Adjoint calls whose inputs are kept for the correction ratio.
ADJOINT_SAMPLES = 8

#: Per-layer metrics of a traced run: (name, unit, which direction is better).
PER_LAYER = [
    ("data.synth_digits_s", "s", "lower"),
    ("diffcore.grad_calls", "calls/image", "lower"),
    ("diffcore.grad_us", "us", "lower"),
    ("diffcore.hvp_calls", "calls/image", "lower"),
    ("diffcore.hvp_us", "us", "lower"),
    ("diffcore.mixed_vjp_calls", "calls/image", "lower"),
    ("diffcore.mixed_vjp_us", "us", "lower"),
    ("models.reconstruction_loss_us", "us", "lower"),
    ("models.encode_us", "us", "lower"),
    ("models.affine0_us", "us", "lower"),
    ("models.affine1_us", "us", "lower"),
    ("models.affine2_us", "us", "lower"),
    ("models.affine3_us", "us", "lower"),
    ("models.elu0_us", "us", "lower"),
    ("models.elu1_us", "us", "lower"),
    ("models.elu2_us", "us", "lower"),
    ("flow.encode_sample_ms", "ms", "lower"),
    ("flow.encode_batch_ms", "ms", "lower"),
    ("flow.us_per_model_call", "us", "lower"),
    ("flow.model_calls_per_image", "calls/image", "lower"),
    ("flow.amd_steps_per_image", "steps/image", "lower"),
    ("flow.amd_trials_per_step", "trials/step", "lower"),
    ("flow.amd_early_stops", "count/round", "higher"),
    ("flow.amd_stalls", "count/round", "lower"),
    ("flow.rk4_slice_us", "us", "lower"),
    ("training.grad_theta_approximate_us", "us", "lower"),
    ("training.grad_theta_full_adjoint_ms", "ms", "lower"),
    ("training.adjoint_slice_us", "us", "lower"),
    ("training.adjoint_model_calls", "calls", "lower"),
    ("training.optimizer_step_us", "us", "lower"),
    ("training.loop_self_s", "s/round", "lower"),
    ("training.evaluate_s", "s/round", "lower"),
    ("training.flow_share", "ratio", "lower"),
    ("training.adjoint_share", "ratio", "lower"),
    ("training.adjoint_correction_ratio", "ratio", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
]


class Tracer:
    """Flat, append-only span store plus the per-call facts wrappers see."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        # (span, solver value, model calls, accepted slices, early, stalled)
        self.flows: list[tuple] = []
        # (span, model calls, slices)
        self.adjoints: list[tuple] = []
        # (y, z*, parameter arrays, widths, full-adjoint gradients, loss kind)
        self.adjoint_samples: list[tuple] = []
        self.last_layer = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        i = len(self.name_of)
        self.name_of.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        popped = self.stack.pop()
        if popped != i:
            raise RuntimeError(f"span {i} closed out of order (top {popped})")

    def __len__(self) -> int:
        return len(self.name_of)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def write(self, path: Path) -> None:
        """Spans as npz: name ids, parent index (-1 = none), start/end ns."""
        arrs = self.arrays()
        t0 = int(arrs["start_ns"].min()) if len(self) else 0
        arrs["start_ns"] -= t0
        arrs["end_ns"] -= t0
        np.savez(path, names=np.array(self.names), **arrs)


class Instrumentation:
    """Installs and removes the wrappers of a traced run."""

    def __init__(self, tracer: Tracer, widths: list[int]):
        self.tracer = tracer
        self.widths = list(widths)
        self._saved: list[tuple] = []

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _plain(self, fn, name: str):
        tr = self.tracer
        nid = tr.name_id(name)
        name_of, parent, start, end, stack = (tr.name_of, tr.parent, tr.start,
                                              tr.end, tr.stack)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def install_setup(self) -> None:
        """Only the data layer: the traced run's set-up."""
        self._patch(data, "synth_digits",
                    self._plain(data.synth_digits, SPAN_SYNTH))

    def install(self) -> None:
        tr = self.tracer
        # diffcore: gradients; sweeps nested in hvp/mixed_vjp get their own name.
        # The hot wrappers below inline the span bookkeeping of _plain
        # instead of calling a helper: they run millions of times per run.
        grad = diffcore.grad
        grad_id, nested_id = tr.name_id(SPAN_GRAD), tr.name_id(SPAN_GRAD_NESTED)
        second = {tr.name_id(SPAN_HVP), tr.name_id(SPAN_MIXED)}
        name_of, parent, start, end, stack = (tr.name_of, tr.parent, tr.start,
                                              tr.end, tr.stack)
        clock = time.perf_counter_ns

        def grad_wrapper(*args, **kwargs):
            top = stack[-1]
            nid = nested_id if top >= 0 and name_of[top] in second else grad_id
            i = len(name_of)
            name_of.append(nid)
            parent.append(top)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return grad(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        self._patch(diffcore, "grad", grad_wrapper)
        self._patch(diffcore, "hvp", self._plain(diffcore.hvp, SPAN_HVP))
        self._patch(diffcore, "mixed_vjp",
                    self._plain(diffcore.mixed_vjp, SPAN_MIXED))
        self._install_layers()

        # models, at the names flow and training imported them under.
        self._patch(flow, "reconstruction_loss",
                    self._plain(flow.reconstruction_loss, SPAN_LOSS))
        self._patch(training, "reconstruction_loss",
                    self._plain(training.reconstruction_loss, SPAN_LOSS))
        self._patch(training, "encode", self._plain(training.encode, SPAN_ENCODE))

        # flow
        sample_wrapper = self._encode_sample_wrapper(flow.encode_sample)
        self._patch(flow, "encode_sample", sample_wrapper)
        self._patch(training, "encode_sample", sample_wrapper)
        self._patch(flow, "encode_batch",
                    self._plain(flow.encode_batch, SPAN_BATCH))

        # training
        self._patch(training, "grad_theta_approximate",
                    self._plain(training.grad_theta_approximate, SPAN_APPROX))
        self._patch(training, "grad_theta_full_adjoint",
                    self._full_adjoint_wrapper(training.grad_theta_full_adjoint))
        self._patch(training, "optimizer_step",
                    self._plain(training.optimizer_step, SPAN_OPT))
        self._patch(training, "evaluate", self._plain(training.evaluate, SPAN_EVAL))
        self._patch(training, "train_gfe",
                    self._plain(training.train_gfe, SPAN_TRAIN_GFE))
        self._patch(training, "train_ae",
                    self._plain(training.train_ae, SPAN_TRAIN_AE))

    def _install_layers(self) -> None:
        """dc.affine / dc.elu as models._forward calls them, named per layer.

        A decoder layer is recognised by its weight shape; an ELU belongs to
        the affine layer that ran just before it.  Encoder layers (mirrored
        shapes) get one shared name each.
        """
        tr = self.tracer
        w = self.widths
        n = len(w) - 1
        affine_ids = {(w[k + 1], w[k]): (k, tr.name_id(f"models.affine{k}"))
                      for k in range(n)}
        elu_ids = [tr.name_id(f"models.elu{k}") for k in range(n - 1)]
        enc_affine, enc_elu = tr.name_id(SPAN_ENC_AFFINE), tr.name_id(SPAN_ENC_ELU)
        enc_layer = (-1, enc_affine)
        name_of, parent, start, end, stack = (tr.name_of, tr.parent, tr.start,
                                              tr.end, tr.stack)
        clock = time.perf_counter_ns
        affine, elu = diffcore.affine, diffcore.elu

        def affine_wrapper(wt, x, b):
            k, nid = affine_ids.get(wt.shape, enc_layer)
            tr.last_layer = k
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return affine(wt, x, b)
            finally:
                end[i] = clock()
                stack.pop()

        def elu_wrapper(a):
            k = tr.last_layer
            nid = elu_ids[k] if 0 <= k < len(elu_ids) else enc_elu
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return elu(a)
            finally:
                end[i] = clock()
                stack.pop()

        self._patch(diffcore, "affine", affine_wrapper)
        self._patch(diffcore, "elu", elu_wrapper)

    def _encode_sample_wrapper(self, fn):
        tr = self.tracer
        inner = self._plain(fn, SPAN_SAMPLE)

        def wrapper(y, theta, cfg, *args, **kwargs):
            i = len(tr.name_of)
            state, trace = inner(y, theta, cfg, *args, **kwargs)
            tr.flows.append((i, cfg.solver.value, state.model_calls,
                             trace.n_slices, state.early_stopped, state.stalled))
            return state, trace

        return wrapper

    def _full_adjoint_wrapper(self, fn):
        tr = self.tracer
        inner = self._plain(fn, SPAN_FULL)

        def wrapper(y, trace, theta, cfg, *args, **kwargs):
            i = len(tr.name_of)
            grads, calls = inner(y, trace, theta, cfg, *args, **kwargs)
            tr.adjoints.append((i, calls, trace.n_slices))
            if len(tr.adjoint_samples) < ADJOINT_SAMPLES:
                # Tensors are immutable values, so keeping them is a snapshot.
                kind = args[0] if args else kwargs.get(
                    "kind", models.LossKind.CROSS_ENTROPY)
                tr.adjoint_samples.append(
                    (y, trace.final_z(), [t.data for t in theta.tensors()],
                     list(theta.widths), grads, kind))
            return grads, calls

        return wrapper


def correction_ratios(samples) -> list[float]:
    """||full - approx|| / ||approx|| for each kept full-adjoint call.

    Runs after the wrappers are removed, so it adds nothing to any span.
    """
    out = []
    for y, zstar, arrays, widths, full, kind in samples:
        n = len(widths) - 1
        dec = models.DecoderParams(
            [diffcore.Tensor(arrays[2 * k], requires_grad=True) for k in range(n)],
            [diffcore.Tensor(arrays[2 * k + 1], requires_grad=True)
             for k in range(n)], widths)
        approx, _ = training.grad_theta_approximate(y, zstar, dec, kind)
        a = np.concatenate([g.ravel() for g in approx])
        f = np.concatenate([g.ravel() for g in full])
        out.append(float(np.linalg.norm(f - a) / np.linalg.norm(a)))
    return out


def span_total_ns(tracer: Tracer, lo: int, hi: int, span_name: str) -> float:
    """Summed duration of the spans named ``span_name`` in [lo, hi)."""
    arrs = tracer.arrays()
    if span_name not in tracer.names:
        return 0.0
    sel = arrs["name"][lo:hi] == tracer.names.index(span_name)
    return float((arrs["end_ns"][lo:hi] - arrs["start_ns"][lo:hi])[sel].sum())


def _mean(x) -> float | None:
    return float(np.mean(x)) if len(x) else None


def layer_metrics(tracer: Tracer, lo: int, hi: int, images: int,
                  runs: int, widths: list[int]) -> dict[str, float | None]:
    """Per-layer metrics over the spans with index in [lo, hi).

    ``images`` is the number of images trained on or encoded there, ``runs``
    the number of rounds.  A metric the spans cannot define (no call of that
    layer) is None.
    """
    arrs = tracer.arrays()
    name = arrs["name"][lo:hi]
    parent = arrs["parent"][lo:hi] - lo
    start = arrs["start_ns"][lo:hi]
    dur = (arrs["end_ns"][lo:hi] - start).astype(np.float64)
    ids = {n: i for i, n in enumerate(tracer.names)}

    def mask(span_name):
        return name == ids.get(span_name, -1)

    def durs(span_name):
        return dur[mask(span_name)]

    def mean_us(span_name):
        d = durs(span_name)
        return _mean(d) / 1e3 if len(d) else None

    m: dict[str, float | None] = {}
    m["diffcore.grad_calls"] = int(mask(SPAN_GRAD).sum()) / images
    m["diffcore.grad_us"] = mean_us(SPAN_GRAD)
    m["diffcore.hvp_calls"] = int(mask(SPAN_HVP).sum()) / images
    m["diffcore.hvp_us"] = mean_us(SPAN_HVP)
    m["diffcore.mixed_vjp_calls"] = int(mask(SPAN_MIXED).sum()) / images
    m["diffcore.mixed_vjp_us"] = mean_us(SPAN_MIXED)
    m["models.reconstruction_loss_us"] = mean_us(SPAN_LOSS)
    m["models.encode_us"] = mean_us(SPAN_ENCODE)
    n = len(widths) - 1
    for k in range(n):
        m[f"models.affine{k}_us"] = mean_us(f"models.affine{k}")
    for k in range(n - 1):
        m[f"models.elu{k}_us"] = mean_us(f"models.elu{k}")

    # flow: facts the encode_sample wrapper saw, joined to span durations.
    flows = [f for f in tracer.flows if lo <= f[0] < hi]
    fdur = np.array([dur[f[0] - lo] for f in flows])
    fcalls = np.array([f[2] for f in flows], dtype=np.float64)
    m["flow.encode_sample_ms"] = _mean(fdur) / 1e6 if flows else None
    batch = durs(SPAN_BATCH)
    m["flow.encode_batch_ms"] = _mean(batch) / 1e6 if len(batch) else None
    m["flow.us_per_model_call"] = (float(fdur.sum() / fcalls.sum()) / 1e3
                                   if flows else None)
    m["flow.model_calls_per_image"] = _mean(fcalls) if flows else None
    amd = [f for f in flows if f[1] == flow.SolverKind.AMD.value]
    if amd:
        gmask = mask(SPAN_GRAD) & (parent >= 0)
        grad_children = np.bincount(parent[gmask], minlength=hi - lo)
        steps = np.array([f[3] for f in amd], dtype=np.float64)
        trials = np.array([f[2] - grad_children[f[0] - lo] for f in amd],
                          dtype=np.float64)
        m["flow.amd_steps_per_image"] = float(steps.mean())
        m["flow.amd_trials_per_step"] = (float(trials.sum() / steps.sum())
                                         if steps.sum() else None)
    else:
        m["flow.amd_steps_per_image"] = None
        m["flow.amd_trials_per_step"] = None
    m["flow.amd_early_stops"] = sum(1 for f in amd if f[4]) / runs
    m["flow.amd_stalls"] = sum(1 for f in amd if f[5]) / runs
    rk4 = [f for f in flows if f[1] == flow.SolverKind.RK4_FIXED.value]
    m["flow.rk4_slice_us"] = (
        float(sum(dur[f[0] - lo] for f in rk4) / sum(f[3] for f in rk4)) / 1e3
        if rk4 else None)

    # training
    m["training.grad_theta_approximate_us"] = mean_us(SPAN_APPROX)
    adj = [a for a in tracer.adjoints if lo <= a[0] < hi]
    adur = np.array([dur[a[0] - lo] for a in adj])
    m["training.grad_theta_full_adjoint_ms"] = _mean(adur) / 1e6 if adj else None
    m["training.adjoint_slice_us"] = (
        float(adur.sum() / sum(a[2] for a in adj)) / 1e3 if adj else None)
    m["training.adjoint_model_calls"] = (_mean([a[1] for a in adj])
                                         if adj else None)
    m["training.optimizer_step_us"] = mean_us(SPAN_OPT)

    train_idx = np.flatnonzero(mask(SPAN_TRAIN_GFE) | mask(SPAN_TRAIN_AE))
    if len(train_idx):
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=hi - lo)
        train_total = float(dur[train_idx].sum())
        self_total = float((dur[train_idx] - child_sum[train_idx]).sum())
        inside = np.zeros(hi - lo, dtype=bool)
        ends = arrs["end_ns"][lo:hi]
        for i in train_idx:
            j = np.searchsorted(start, ends[i], side="left")
            inside[i + 1:j] = True
        grads_theta = (mask(SPAN_APPROX) | mask(SPAN_FULL)) & inside
        m["training.loop_self_s"] = self_total / 1e9 / runs
        m["training.evaluate_s"] = (float(dur[mask(SPAN_EVAL) & inside].sum())
                                    / 1e9 / runs)
        m["training.flow_share"] = (float(dur[mask(SPAN_SAMPLE) & inside].sum())
                                    / train_total)
        m["training.adjoint_share"] = float(dur[grads_theta].sum()) / train_total
    else:
        for key in ("loop_self_s", "evaluate_s", "flow_share", "adjoint_share"):
            m[f"training.{key}"] = None
    return m
