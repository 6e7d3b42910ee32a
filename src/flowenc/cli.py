"""Experiment driver: train / eval / compare / dump-recons.

Every run archives its exact configuration next to its outputs, so a run
directory can be replayed byte-for-byte.  All randomness flows from the
single --seed value recorded in the manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np

from . import data as dd
from . import diffcore as dc
from . import models as md
from . import training as tr
from .flow import (AlphaSchedule, FlowConfig, FlowError, SolverKind,
                   forward_value)


@dataclass
class ExperimentConfig:
    dataset: str = "synth"
    data_dir: str = "data"
    dataset_seed: int = 977
    subset: int = 0              # 0 = full training split
    seg: bool = False            # train labels 0-4, test labels 5-9
    seed: int = 1
    method: str = "gfe-amd"      # ae | gfe-rk4 | gfe-nesterov | gfe-amd
    adjoint: str = "approx"      # full | approx
    loss: str = "ce"             # ce | l2
    widths: str = "16,32,64,128,784"
    iterations: int = 1000
    batch_size: int = 1
    validate_every: int = 100
    val_size: int = 48
    optimizer: str = "rmsprop"   # rmsprop | adam
    lr: float = 5e-4
    tau: float = 50.0
    n_slices: int = 100
    alpha_schedule: str = "one"  # one | exp_decay
    beta: float = 0.75
    s0: float = 1.0
    s_max: float = 10.0
    kappa: float = 1.1
    epsilon: float = 1e-3
    early_stop_tol: float = 1e-3
    eval_limit: int = 500
    eval_tau: float = 100.0
    eval_early_stop_tol: float = 1e-4
    warm_start: bool = False     # gfe-flow eval starts at encoder output
    out: str = "runs/run"

    def flow_config(self, for_eval: bool = False) -> FlowConfig:
        solver = {"gfe-rk4": SolverKind.RK4_FIXED,
                  "gfe-nesterov": SolverKind.NESTEROV2,
                  "gfe-amd": SolverKind.AMD,
                  "ae": SolverKind.AMD}[self.method]
        if for_eval:
            solver = SolverKind.AMD
        return FlowConfig(
            tau=self.eval_tau if for_eval else self.tau,
            solver=solver, n_slices=self.n_slices,
            alpha_schedule=AlphaSchedule(self.alpha_schedule),
            beta=self.beta, s0=self.s0, s_max=self.s_max, kappa=self.kappa,
            epsilon=self.epsilon,
            early_stop_tol=self.eval_early_stop_tol if for_eval
            else self.early_stop_tol)

    def loss_kind(self) -> md.LossKind:
        return md.LossKind.CROSS_ENTROPY if self.loss == "ce" else md.LossKind.L2

    def width_list(self) -> list[int]:
        return [int(w) for w in self.widths.split(",")]


def parse_config_file(path) -> dict:
    """Flat `key = value` lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = val
    return out


def _coerce(cfg_fields: dict, overrides: dict) -> dict:
    coerced = {}
    for key, val in overrides.items():
        if key not in cfg_fields:
            raise ValueError(f"unknown config key {key!r}")
        typ = cfg_fields[key]
        if typ is bool:
            coerced[key] = val if isinstance(val, bool) else \
                str(val).lower() in ("1", "true", "yes", "on")
        else:
            coerced[key] = typ(val)
    return coerced


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg_fields = {f.name: f.type if isinstance(f.type, type) else
                  {"int": int, "float": float, "str": str, "bool": bool}[f.type]
                  for f in fields(ExperimentConfig)}
    merged: dict = {}
    if getattr(args, "config", None):
        merged.update(_coerce(cfg_fields, parse_config_file(args.config)))
    cli_overrides = {k: v for k, v in vars(args).items()
                     if k in cfg_fields and v is not None}
    merged.update(_coerce(cfg_fields, cli_overrides))
    return ExperimentConfig(**merged)


def write_config(path, cfg: ExperimentConfig) -> None:
    lines = [f"{k} = {v}" for k, v in asdict(cfg).items()]
    Path(path).write_text("\n".join(lines) + "\n")


def load_splits(cfg: ExperimentConfig):
    """(train, val, test) datasets for the configured source."""
    if cfg.dataset == "synth":
        pool = dd.synth_digits(5500, seed=cfg.dataset_seed)
        train = dd.Dataset(pool.images[:4000], pool.labels[:4000], "synth", "train")
        val = dd.Dataset(pool.images[4000:4500], pool.labels[4000:4500],
                         "synth", "validation")
        test = dd.Dataset(pool.images[4500:], pool.labels[4500:], "synth", "test")
    elif cfg.dataset in ("mnist", "fmnist"):
        root = Path(cfg.data_dir) / cfg.dataset
        full = dd.load_idx(root / "train-images-idx3-ubyte",
                           root / "train-labels-idx1-ubyte", name=cfg.dataset)
        train, val = dd.train_val_split(full, val_size=10000)
        test = dd.load_idx(root / "t10k-images-idx3-ubyte",
                           root / "t10k-labels-idx1-ubyte", name=cfg.dataset)
        test.split = "test"
    else:
        raise ValueError(f"unknown dataset {cfg.dataset!r}")
    if cfg.seg:
        train = dd.seg_split(train)[0]
        val = dd.seg_split(val)[0]
        test = dd.seg_split(test)[1]
    if cfg.subset:
        train = train.subset(cfg.subset)
    return train, val, test


def _init_models(cfg: ExperimentConfig, rng: np.random.Generator):
    decoder = md.init_decoder(cfg.width_list(), rng)
    encoder = md.init_encoder(decoder, rng) if cfg.method == "ae" else None
    return decoder, encoder


def _optimizer(cfg: ExperimentConfig, params) -> tr.OptimizerState:
    if cfg.optimizer == "rmsprop":
        return tr.rmsprop_state(params, lr=cfg.lr)
    if cfg.optimizer == "adam":
        return tr.adam_state(params, lr=cfg.lr)
    raise ValueError(f"unknown optimizer {cfg.optimizer!r}")


def cmd_train(args) -> int:
    cfg = build_config(args)
    if cfg.method == "gfe-nesterov" and cfg.adjoint == "full":
        raise ValueError("--adjoint full is not implemented for gfe-nesterov; "
                         "use --adjoint approx")
    schedule = tr.TrainSchedule(iterations=cfg.iterations,
                                batch_size=cfg.batch_size,
                                validate_every=cfg.validate_every,
                                val_size=cfg.val_size)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_config(out / "config.txt", cfg)
    t0 = time.perf_counter()

    train, val, test = load_splits(cfg)
    rng_master = np.random.default_rng(cfg.seed)
    init_rng, sample_rng = rng_master.spawn(2)
    decoder, encoder = _init_models(cfg, init_rng)
    kind = cfg.loss_kind()
    if cfg.method == "ae":
        opt = _optimizer(cfg, encoder.tensors() + decoder.tensors())
        report = tr.train_ae(train, val, encoder, decoder, opt, schedule,
                             sample_rng, kind)
    else:
        opt = _optimizer(cfg, decoder.tensors())
        mode = tr.AdjointMode.FULL if cfg.adjoint == "full" \
            else tr.AdjointMode.APPROXIMATE
        report = tr.train_gfe(train, val, decoder, cfg.flow_config(), mode,
                              opt, schedule, sample_rng, kind)

    md.save_checkpoint(out / "checkpoint.npz", decoder, encoder,
                       extra={"method": cfg.method, "seed": cfg.seed})
    tr.write_metrics_csv(out / "metrics.csv", report.metrics)
    final_val = report.final_val_loss()
    manifest = {
        "command": "train", "config": asdict(cfg),
        "metrics_schema": 1,
        "final_val_loss": final_val,
        "images_seen": report.images_seen,
        "total_model_calls": report.total_model_calls,
        "runtime_s": round(time.perf_counter() - t0, 3),
        "artifacts": ["config.txt", "checkpoint.npz", "metrics.csv"],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"final validation loss: {final_val:.6f}")
    return 0


def cmd_eval(args) -> int:
    cfg = build_config(args)
    ckpt = Path(args.checkpoint)
    decoder, encoder, _ = md.load_checkpoint(ckpt)
    _, val, test = load_splits(cfg)
    split = {"validation": val, "test": test}[args.split]
    loss, calls = tr.evaluate(
        split, decoder, tr.EvalMode(args.mode),
        cfg=cfg.flow_config(for_eval=True),
        encoder=encoder, kind=cfg.loss_kind(), limit=cfg.eval_limit or None,
        warm_start_encoder=cfg.warm_start)
    print(f"mean loss ({args.split}, {args.mode}): {loss:.6f}")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "eval.csv", "a", newline="") as fh:
            fh.write(f"{ckpt},{args.split},{args.mode},{loss:.9g},{calls}\n")
    return 0


def _read_val_rows(run_dir: Path) -> dict[int, float]:
    rows = {}
    path = run_dir / "metrics.csv"
    if not path.exists():
        raise FileNotFoundError(f"missing metrics: {path}")
    import csv as _csv
    with open(path) as fh:
        for row in _csv.DictReader(fh):
            if row["split"] == "val":
                rows[int(row["images_seen"])] = float(row["loss"])
    return rows


def cmd_compare(args) -> int:
    a, b = Path(args.run_a), Path(args.run_b)
    rows_a, rows_b = _read_val_rows(a), _read_val_rows(b)
    shared = sorted(set(rows_a) & set(rows_b))
    if not shared:
        raise ValueError("runs share no images-seen checkpoints")
    name_a, name_b = a.name or "A", b.name or "B"
    print(f"{'images_seen':>12} {name_a:>12} {name_b:>12} {'lower':>8}")
    out_rows = []
    for k in shared:
        winner = name_a if rows_a[k] < rows_b[k] else (
            name_b if rows_b[k] < rows_a[k] else "tie")
        print(f"{k:>12} {rows_a[k]:>12.5f} {rows_b[k]:>12.5f} {winner:>8}")
        out_rows.append((k, rows_a[k], rows_b[k], winner))
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "compare.csv", "w") as fh:
            fh.write("images_seen,loss_a,loss_b,lower\n")
            for k, la, lb, w in out_rows:
                fh.write(f"{k},{la:.9g},{lb:.9g},{w}\n")
    return 0


def write_pgm(path, image: np.ndarray) -> None:
    """Binary 28x28 PGM (P5), 8-bit, from a [0,1] float image."""
    img = np.clip(np.round(image.reshape(28, 28) * 255.0), 0, 255)
    with open(path, "wb") as fh:
        fh.write(b"P5\n28 28\n255\n")
        fh.write(img.astype(np.uint8).tobytes())


def cmd_dump_recons(args) -> int:
    cfg = build_config(args)
    decoder, encoder, _ = md.load_checkpoint(args.checkpoint)
    _, _, test = load_splits(cfg)
    mode = tr.EvalMode(args.mode)
    n = args.n
    if not 0 <= n <= len(test):
        raise ValueError(f"-n must be in 0..{len(test)} (the test split's "
                         f"size), got {n}")
    outdir = Path(args.out or "recons")
    outdir.mkdir(parents=True, exist_ok=True)
    index = []
    flow_cfg = cfg.flow_config(for_eval=True)
    for i in range(n):
        y = test.images[i]
        z, _ = tr.eval_latent(y, decoder, mode, flow_cfg, encoder,
                              cfg.loss_kind(), cfg.warm_start)
        recon = forward_value(lambda x: md.decode(x, decoder), z,
                              tr.TrainDivergedError)
        p_in, p_out = f"recon_{i:03d}_in.pgm", f"recon_{i:03d}_out.pgm"
        write_pgm(outdir / p_in, y)
        write_pgm(outdir / p_out, recon)
        index.append({"sample": i, "label": int(test.labels[i]),
                      "input": p_in, "reconstruction": p_out})
    (outdir / "index.json").write_text(json.dumps(index, indent=2))
    print(f"wrote {2 * n} PGM files to {outdir}")
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    for f in fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type is bool or f.type == "bool":
            p.add_argument(flag, action="store_const", const=True,
                           default=None, dest=f.name)
        else:
            p.add_argument(flag, default=None, dest=f.name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flowenc",
        description="Gradient-flow latent encoding experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model, write artifacts")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_config_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--mode", choices=[m.value for m in tr.EvalMode],
                        default="gfe-flow")
    p_eval.add_argument("--split", choices=["validation", "test"],
                        default="test")
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="compare two runs by images seen")
    p_cmp.add_argument("--run-a", required=True)
    p_cmp.add_argument("--run-b", required=True)
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_dump = sub.add_parser("dump-recons",
                            help="write input/reconstruction PGM pairs")
    _add_config_flags(p_dump)
    p_dump.add_argument("--checkpoint", required=True)
    p_dump.add_argument("--mode", choices=[m.value for m in tr.EvalMode],
                        default="gfe-flow")
    p_dump.add_argument("-n", type=int, default=8)
    p_dump.set_defaults(func=cmd_dump_recons)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, dd.IdxFormatError, FlowError,
            tr.TrainDivergedError, dc.NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
