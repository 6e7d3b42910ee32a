"""IDX parsing, the label-split protocol, sampling, and test oracles."""

import os
import struct
from pathlib import Path

import numpy as np
import pytest

from flowenc import data as dd


def two_image_fixture(tmp_path):
    """Hand-built IDX pair: one all-black and one all-white 4x4 image."""
    images = np.stack([np.zeros((4, 4), dtype=np.uint8),
                       np.full((4, 4), 255, dtype=np.uint8)])
    labels = np.array([3, 7], dtype=np.uint8)
    ip, lp = tmp_path / "imgs", tmp_path / "labels"
    dd.write_idx(ip, lp, images, labels)
    return ip, lp


class TestIdx:
    def test_round_trip_exact_values(self, tmp_path):
        ip, lp = two_image_fixture(tmp_path)
        ds = dd.load_idx(ip, lp)
        assert len(ds) == 2
        np.testing.assert_array_equal(ds.images[0], np.zeros(16))
        np.testing.assert_array_equal(ds.images[1], np.ones(16))
        np.testing.assert_array_equal(ds.labels, [3, 7])

    def test_wrong_magic_names_expected_and_found(self, tmp_path):
        ip, lp = two_image_fixture(tmp_path)
        raw = bytearray(ip.read_bytes())
        raw[:4] = struct.pack(">I", 0x00000777)
        ip.write_bytes(bytes(raw))
        with pytest.raises(dd.IdxFormatError,
                           match="0x00000803.*0x00000777"):
            dd.load_idx(ip, lp)

    def test_truncated_payload(self, tmp_path):
        ip, lp = two_image_fixture(tmp_path)
        ip.write_bytes(ip.read_bytes()[:-5])
        with pytest.raises(dd.IdxFormatError, match="truncated"):
            dd.load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, lp = two_image_fixture(tmp_path)
        images = np.zeros((3, 4, 4), dtype=np.uint8)
        dd.write_idx(ip, tmp_path / "other", images,
                     np.zeros(3, dtype=np.uint8))
        with pytest.raises(dd.IdxFormatError, match="match"):
            dd.load_idx(ip, lp)

    def test_loading_is_bit_stable(self, tmp_path):
        ip, lp = two_image_fixture(tmp_path)
        a = dd.load_idx(ip, lp)
        b = dd.load_idx(ip, lp)
        np.testing.assert_array_equal(a.images, b.images)

    def test_exact_byte_layout(self, tmp_path):
        # Pin the container format itself so a symmetric writer/reader bug
        # cannot cancel out: big-endian magic, counts, dims, raw payload.
        ip, lp = tmp_path / "i", tmp_path / "l"
        img = np.arange(4, dtype=np.uint8).reshape(1, 2, 2)
        dd.write_idx(ip, lp, img, np.array([9], dtype=np.uint8))
        assert ip.read_bytes() == (
            b"\x00\x00\x08\x03"              # images magic 2051
            b"\x00\x00\x00\x01"              # one image
            b"\x00\x00\x00\x02\x00\x00\x00\x02"  # 2 x 2
            b"\x00\x01\x02\x03")
        assert lp.read_bytes() == (
            b"\x00\x00\x08\x01"              # labels magic 2049
            b"\x00\x00\x00\x01"
            b"\x09")

    @pytest.mark.skipif(
        not (Path(os.environ.get("MNIST_DIR", "data/mnist"))
             / "train-images-idx3-ubyte").exists(),
        reason="real MNIST files not present")
    def test_real_mnist_dimensions(self):
        root = Path(os.environ.get("MNIST_DIR", "data/mnist"))
        ds = dd.load_idx(root / "train-images-idx3-ubyte",
                         root / "train-labels-idx1-ubyte")
        assert len(ds) == 60000
        assert ds.images.shape[1] == 784


class TestSegSplit:
    def test_small_fixture_partition(self):
        images = np.zeros((4, 16))
        labels = np.array([0, 5, 4, 9], dtype=np.uint8)
        train, test = dd.seg_split(dd.Dataset(images, labels))
        np.testing.assert_array_equal(train.labels, [0, 4])
        np.testing.assert_array_equal(test.labels, [5, 9])

    def test_partition_is_exhaustive(self):
        ds = dd.synth_digits(500, seed=3)
        train, test = dd.seg_split(ds)
        assert len(train) + len(test) == len(ds)

    def test_no_high_label_in_train(self):
        ds = dd.synth_digits(800, seed=5)
        train, test = dd.seg_split(ds)
        assert train.labels.max() <= 4
        assert test.labels.min() >= 5

    def test_rejects_non_digit_labels(self):
        ds = dd.Dataset(np.zeros((1, 4)), np.array([12], dtype=np.uint8))
        with pytest.raises(ValueError):
            dd.seg_split(ds)


class TestSampler:
    def test_deterministic_given_seed(self):
        ds = dd.synth_digits(50, seed=1)
        a = dd.SamplerState(np.random.default_rng(9), batch_size=8)
        b = dd.SamplerState(np.random.default_rng(9), batch_size=8)
        for _ in range(5):
            np.testing.assert_array_equal(a.sample(len(ds)),
                                          b.sample(len(ds)))

    def test_uniformity_within_five_sigma(self):
        ds = dd.Dataset(np.zeros((10, 4)), np.zeros(10, dtype=np.uint8))
        sampler = dd.SamplerState(np.random.default_rng(123), batch_size=1000)
        counts = np.zeros(10)
        for _ in range(100):
            idx = sampler.sample(len(ds))
            counts += np.bincount(idx, minlength=10)
        n_draws = 100_000
        expect = n_draws / 10
        sigma = np.sqrt(n_draws * 0.1 * 0.9)
        assert np.abs(counts - expect).max() < 5 * sigma
        assert sampler.draws == n_draws

    def test_subset_restricted_sampling(self):
        ds = dd.synth_digits(600, seed=2).subset(480)
        sampler = dd.SamplerState(np.random.default_rng(0), batch_size=64)
        for _ in range(50):
            idx = sampler.sample(len(ds))
            assert idx.max() < 480

    def test_empty_dataset_rejected(self):
        sampler = dd.SamplerState(np.random.default_rng(0), batch_size=4)
        with pytest.raises(ValueError):
            sampler.sample(0)

    def test_subset_takes_first_k(self):
        ds = dd.synth_digits(100, seed=7)
        sub = ds.subset(30)
        np.testing.assert_array_equal(sub.images, ds.images[:30])
        with pytest.raises(ValueError):
            ds.subset(101)


class TestTrainValSplit:
    def test_carves_tail(self):
        ds = dd.synth_digits(100, seed=1)
        train, val = dd.train_val_split(ds, val_size=25)
        assert len(train) == 75 and len(val) == 25
        np.testing.assert_array_equal(val.images, ds.images[75:])
        assert val.split == "validation"


class TestLinearOracle:
    def test_identity_map_optimum(self):
        oracle = dd.make_linear_oracle(4, 4, seed=0)
        oracle.A = np.eye(4)
        oracle.__post_init__()
        y = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(oracle.z_star(y), y - oracle.b,
                                   atol=1e-12)

    def test_conditioning_reported_and_bounded(self):
        oracle = dd.make_linear_oracle(4, 8, seed=3)
        assert oracle.cond < 1e6
        gram_cond = np.linalg.cond(oracle.A.T @ oracle.A)
        assert oracle.cond == pytest.approx(gram_cond, rel=1e-6)

    def test_gradient_vanishes_at_optimum(self):
        oracle = dd.make_linear_oracle(5, 9, seed=11)
        for y in oracle.ys:
            zs = oracle.z_star(y)
            g = 2 * oracle.A.T @ (oracle.A @ zs + oracle.b - y)
            assert np.linalg.norm(g) < 1e-10

    def test_flow_solution_limits(self):
        oracle = dd.make_linear_oracle(3, 6, seed=2)
        y = oracle.ys[0]
        np.testing.assert_allclose(oracle.flow_z(0.0, y), np.zeros(3),
                                   atol=1e-15)
        np.testing.assert_allclose(oracle.flow_z(200.0, y),
                                   oracle.z_star(y), atol=1e-10)

    def test_dims_validated(self):
        with pytest.raises(ValueError):
            dd.make_linear_oracle(0, 4, seed=1)


class TestSynthDigits:
    def test_deterministic(self):
        a = dd.synth_digits(40, seed=6)
        b = dd.synth_digits(40, seed=6)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_range_and_labels(self):
        ds = dd.synth_digits(120, seed=8)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert set(np.unique(ds.labels)) <= set(range(10))
        assert ds.images.shape == (120, 784)

    def test_classes_are_distinguishable(self):
        # Mean images of distinct classes differ far more than mean images
        # of two halves of the same class.
        ds = dd.synth_digits(600, seed=10)
        means = np.stack([ds.images[ds.labels == k].mean(axis=0)
                          for k in range(10)])
        across = np.linalg.norm(means[0] - means[1])
        one = ds.images[ds.labels == 0]
        within = np.linalg.norm(one[:len(one) // 2].mean(axis=0)
                                - one[len(one) // 2:].mean(axis=0))
        assert across > 3 * within
