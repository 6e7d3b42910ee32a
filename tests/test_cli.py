"""End-to-end CLI runs: artifacts, determinism, config round-trips."""

import csv
import json

import numpy as np

from flowenc import cli
from flowenc import models as md


FAST = ["--dataset", "synth", "--subset", "60", "--iterations", "12",
        "--batch-size", "2", "--validate-every", "6", "--val-size", "6",
        "--eval-limit", "12", "--widths", "8,16,784", "--tau", "20",
        "--n-slices", "16"]


def run_cli(args):
    return cli.main([str(a) for a in args])


def read_metrics(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestTrain:
    def test_gfe_run_produces_artifacts(self, tmp_path):
        out = tmp_path / "run"
        rc = run_cli(["train", "--method", "gfe-amd", "--seed", "1",
                      "--out", out] + FAST)
        assert rc == 0
        assert (out / "checkpoint.npz").exists()
        rows = read_metrics(out / "metrics.csv")
        assert len(rows) > 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 1
        assert manifest["images_seen"] == 24
        cfg = cli.parse_config_file(out / "config.txt")
        assert cfg["method"] == "gfe-amd"

    def test_identical_seed_identical_metrics(self, tmp_path):
        rows = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = run_cli(["train", "--method", "gfe-amd", "--seed", "7",
                          "--out", out] + FAST)
            assert rc == 0
            rows.append(read_metrics(out / "metrics.csv"))
        strip = lambda rs: [{k: v for k, v in r.items() if k != "wall_ms"}
                            for r in rs]
        assert strip(rows[0]) == strip(rows[1])

    def test_ae_then_flow_eval_mixed_protocol(self, tmp_path, capsys):
        out = tmp_path / "ae"
        rc = run_cli(["train", "--method", "ae", "--seed", "2",
                      "--out", out] + FAST)
        assert rc == 0
        rc = run_cli(["eval", "--checkpoint", out / "checkpoint.npz",
                      "--mode", "gfe-flow", "--warm-start",
                      "--split", "test"] + FAST)
        assert rc == 0
        flow_loss = float(capsys.readouterr().out.split(":")[-1])
        rc = run_cli(["eval", "--checkpoint", out / "checkpoint.npz",
                      "--mode", "ae-encoder", "--split", "test"] + FAST)
        assert rc == 0
        enc_loss = float(capsys.readouterr().out.split(":")[-1])
        assert flow_loss <= enc_loss + 1e-12

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("method = ae\nseed = 5\niterations = 4\n"
                            "batch_size = 2\nsubset = 40  # tiny\n"
                            "widths = 8,16,784\nval_size = 4\n"
                            "validate_every = 2\n")
        out = tmp_path / "run"
        rc = run_cli(["train", "--config", cfg_file, "--seed", "9",
                      "--out", out])
        assert rc == 0
        saved = cli.parse_config_file(out / "config.txt")
        assert saved["seed"] == "9"        # flag wins
        assert saved["method"] == "ae"     # file value kept

    def test_unknown_config_key_errors(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("not_a_key = 1\n")
        rc = run_cli(["train", "--config", cfg_file])
        assert rc == 1

    def test_diverging_run_fails_cleanly(self, tmp_path, capsys):
        rc = run_cli(["train", "--method", "ae", "--seed", "1", "--lr", "1e30",
                      "--out", tmp_path / "run"] + FAST)
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_nesterov_full_adjoint_rejected_before_loading(self, tmp_path,
                                                         capsys):
        out = tmp_path / "run"
        rc = run_cli(["train", "--method", "gfe-nesterov", "--adjoint", "full",
                      "--dataset", "mnist", "--data-dir", tmp_path / "none",
                      "--out", out])
        assert rc == 1
        assert "gfe-nesterov" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_schedule_fails_before_writing(self, tmp_path, capsys):
        for flag, value in (("--batch-size", 0), ("--validate-every", 0),
                            ("--val-size", 0), ("--iterations", -1)):
            out = tmp_path / "run"
            rc = run_cli(["train", "--out", out] + FAST + [flag, value])
            assert rc == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error:"), flag
            assert not out.exists()

    def test_seg_flag_restricts_labels(self):
        cfg = cli.ExperimentConfig(seg=True, subset=50)
        train, val, test = cli.load_splits(cfg)
        assert train.labels.max() <= 4
        assert val.labels.max() <= 4
        assert test.labels.min() >= 5


class TestEval:
    def test_missing_checkpoint_fails_cleanly(self, tmp_path):
        rc = run_cli(["eval", "--checkpoint", tmp_path / "nope.npz"] + FAST)
        assert rc == 1

    def test_checkpoint_missing_array_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "d.npz"
        md.save_checkpoint(path, md.init_decoder([8, 16, 784]))
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files if k != "dec_w1"}
        np.savez(path, **arrays)
        rc = run_cli(["eval", "--checkpoint", path] + FAST)
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestCompare:
    def _train(self, tmp_path, name, method, seed):
        out = tmp_path / name
        assert run_cli(["train", "--method", method, "--seed", seed,
                        "--out", out] + FAST) == 0
        return out

    def test_self_comparison_all_ties(self, tmp_path, capsys):
        a = self._train(tmp_path, "a", "gfe-amd", 3)
        rc = run_cli(["compare", "--run-a", a, "--run-b", a,
                      "--out", tmp_path / "cmp"])
        assert rc == 0
        rows = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        assert all(line.endswith(",tie") for line in rows[1:])

    def test_comparison_declares_lower_per_row(self, tmp_path, capsys):
        a = self._train(tmp_path, "a", "gfe-amd", 3)
        b = self._train(tmp_path, "b", "ae", 3)
        rc = run_cli(["compare", "--run-a", a, "--run-b", b])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lower" in out and ("a" in out or "b" in out)

    def test_missing_run_errors(self, tmp_path, capsys):
        rc = run_cli(["compare", "--run-a", tmp_path / "ghost",
                      "--run-b", tmp_path / "ghost2"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: missing metrics")

    def test_disjoint_runs_error(self, tmp_path, capsys):
        for name, seen in (("a", 32), ("b", 64)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "metrics.csv").write_text(
                "wall_ms,iteration,images_seen,split,loss,model_calls\n"
                f"1.0,1,{seen},val,0.5,10\n")
        rc = run_cli(["compare", "--run-a", tmp_path / "a",
                      "--run-b", tmp_path / "b"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: runs share no images-seen checkpoints"]


class TestDumpRecons:
    def test_pgm_pairs_and_index(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["train", "--method", "gfe-amd", "--seed", "4",
                        "--out", out] + FAST) == 0
        recs = tmp_path / "recs"
        rc = run_cli(["dump-recons", "--checkpoint", out / "checkpoint.npz",
                      "-n", "8", "--out", recs] + FAST)
        assert rc == 0
        pgms = sorted(recs.glob("*.pgm"))
        assert len(pgms) == 16
        index = json.loads((recs / "index.json").read_text())
        assert len(index) == 8
        header = pgms[0].read_bytes()[:15]
        assert header.startswith(b"P5\n28 28\n255\n")

    def test_ae_encoder_mode_without_encoder_fails_cleanly(self, tmp_path,
                                                          capsys):
        out = tmp_path / "run"
        assert run_cli(["train", "--method", "gfe-amd", "--seed", "4",
                        "--out", out] + FAST) == 0
        capsys.readouterr()
        rc = run_cli(["dump-recons", "--checkpoint", out / "checkpoint.npz",
                      "--mode", "ae-encoder", "-n", "2",
                      "--out", tmp_path / "recs"] + FAST)
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_count_outside_test_split_fails_before_writing(self, tmp_path,
                                                           capsys):
        ckpt = tmp_path / "d.npz"
        md.save_checkpoint(ckpt, md.init_decoder([8, 16, 784]))
        for n in (1001, -3):  # the synth test split holds 1,000 images
            recs = tmp_path / "recs"
            rc = run_cli(["dump-recons", "--checkpoint", ckpt, "-n", n,
                          "--out", recs] + FAST)
            assert rc == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error:"), n
            assert not recs.exists()

    def test_warm_start_flag_starts_flow_at_encoder_latent(self, tmp_path):
        out = tmp_path / "ae"
        assert run_cli(["train", "--method", "ae", "--seed", "2",
                        "--out", out] + FAST) == 0
        for name, flags in (("cold", []), ("warm", ["--warm-start"])):
            assert run_cli(["dump-recons", "--checkpoint",
                            out / "checkpoint.npz", "--mode", "gfe-flow",
                            "-n", "4", "--out", tmp_path / name]
                           + flags + FAST) == 0
        # Reconstructions by hand from the warm-started flow.
        from dataclasses import replace
        from flowenc import diffcore as dc
        from flowenc import flow as fl
        dec, enc, _ = md.load_checkpoint(out / "checkpoint.npz")
        cfg = cli.ExperimentConfig()   # FAST changes no eval setting
        _, _, test = cli.load_splits(cfg)
        flow_cfg = cfg.flow_config(for_eval=True)
        differs = False
        for i in range(4):
            y = test.images[i]
            z0 = md.encode(dc.constant(y), enc).data
            state, _ = fl.encode_sample(y, dec, replace(flow_cfg, z0=z0))
            cli.write_pgm(tmp_path / "expected.pgm",
                          md.decode(dc.constant(state.z), dec).data)
            name = f"recon_{i:03d}_out.pgm"
            warm = (tmp_path / "warm" / name).read_bytes()
            assert warm == (tmp_path / "expected.pgm").read_bytes()
            differs |= warm != (tmp_path / "cold" / name).read_bytes()
        assert differs

    def test_pgm_values_in_byte_range(self, tmp_path):
        path = tmp_path / "img.pgm"
        cli.write_pgm(path, np.linspace(0, 1, 784))
        payload = path.read_bytes().split(b"255\n", 1)[1]
        vals = np.frombuffer(payload, dtype=np.uint8)
        assert vals.min() >= 0 and vals.max() <= 255 and len(vals) == 784

    def test_trained_recon_beats_dataset_mean_ce(self, tmp_path):
        # A training image reconstructed under the converged decoder must
        # score below the dataset-level mean CE of unseen images.
        out = tmp_path / "run"
        assert run_cli(["train", "--method", "gfe-amd", "--seed", "5",
                        "--iterations", "500", "--batch-size", "1",
                        "--dataset", "synth", "--subset", "60",
                        "--validate-every", "250", "--val-size", "6",
                        "--widths", "8,16,32,784", "--tau", "30",
                        "--early-stop-tol", "0.001", "--out", out]) == 0
        from flowenc import diffcore as dc
        from flowenc import flow as fl
        from flowenc import training as trn
        dec, _, _ = md.load_checkpoint(out / "checkpoint.npz")
        train, _, test = cli.load_splits(cli.ExperimentConfig(subset=60))
        eval_cfg = fl.FlowConfig(tau=100.0, solver=fl.SolverKind.AMD,
                                 early_stop_tol=1e-4)
        y = train.images[0]
        state, _ = fl.encode_sample(y, dec, eval_cfg)
        recon_ce = md.reconstruction_loss(
            y, dc.constant(state.z), dec, md.LossKind.CROSS_ENTROPY).item()
        dataset_mean_ce, _ = trn.evaluate(test, dec, trn.EvalMode.GFE_FLOW,
                                          cfg=eval_cfg, limit=24)
        assert recon_ce < dataset_mean_ce
