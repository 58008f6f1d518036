import numpy as np
import pytest

from balancelab.datagen import SyntheticSpec, batches, generate, load, read_header, save, split
from balancelab.errors import FormatError, SpecError

from oracles import bayes_accuracy, class_means

SPEC = SyntheticSpec(2, 4, (12, 12), (3.0, 1.0), 1.0, 400, 7)


class TestSpecValidation:
    def test_bad_modalities(self):
        with pytest.raises(SpecError):
            SyntheticSpec(4, 4, (3, 3, 3, 3), (1, 1, 1, 1), 1.0, 100, 0)

    def test_too_few_samples(self):
        with pytest.raises(SpecError):
            SyntheticSpec(2, 5, (3, 3), (1, 1), 1.0, 4, 0)

    def test_bad_sigma(self):
        with pytest.raises(SpecError):
            SyntheticSpec(2, 2, (3, 3), (1, 1), 0.0, 100, 0)

    def test_negative_signal(self):
        with pytest.raises(SpecError):
            SyntheticSpec(2, 2, (3, 3), (-1, 1), 1.0, 100, 0)

    def test_dims_mismatch(self):
        with pytest.raises(SpecError):
            SyntheticSpec(2, 2, (3,), (1, 1), 1.0, 100, 0)


class TestGenerate:
    def test_deterministic(self):
        a = generate(SPEC)
        b = generate(SPEC)
        assert a.labels.tobytes() == b.labels.tobytes()
        for fa, fb in zip(a.features, b.features):
            assert fa.tobytes() == fb.tobytes()

    def test_every_class_appears(self):
        tight = SyntheticSpec(2, 8, (2, 2), (1.0, 1.0), 1.0, 8, 11)
        data = generate(tight)
        assert set(np.unique(data.labels)) == set(range(8))

    def test_pure_noise_is_chance_level(self):
        spec = SyntheticSpec(2, 4, (12, 12), (0.0, 0.0), 1.0, 10_000, 3)
        acc = bayes_accuracy(spec, n_samples=10_000)
        assert abs(acc - 0.25) <= 0.03

    def test_signal_orders_oracle_accuracy(self):
        acc1 = bayes_accuracy(SPEC, modalities=[0], n_samples=10_000)
        acc2 = bayes_accuracy(SPEC, modalities=[1], n_samples=10_000)
        assert acc1 > acc2

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_class_conditional_means(self, seed):
        spec = SyntheticSpec(2, 4, (3, 3), (3.0, 1.0), 1.0, 4000, seed)
        data = generate(spec)
        means = class_means(spec)
        bound = 3.0 * spec.sigma / np.sqrt(spec.samples / spec.num_classes)
        for i in range(2):
            for h in range(4):
                emp = data.features[i][data.labels == h].mean(axis=0)
                err = np.linalg.norm(emp - spec.signal[i] * means[i][h])
                assert err < bound


class TestSplit:
    def test_exact_sizes(self):
        spec = SyntheticSpec(2, 4, (3, 3), (1.0, 1.0), 1.0, 100, 1)
        tr, va, te = split(generate(spec), (0.8, 0.1, 0.1), 9)
        assert (tr.num_samples, va.num_samples, te.num_samples) == (80, 10, 10)

    def test_empty_split_rejected(self):
        with pytest.raises(SpecError):
            split(generate(SPEC), (1.0, 0.0, 0.0), 0)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(SpecError):
            split(generate(SPEC), (0.5, 0.2, 0.2), 0)

    def test_disjoint_cover(self):
        data = generate(SPEC)
        # tag each sample by its original feature row to verify the partition
        tr, va, te = split(data, (0.6, 0.2, 0.2), 4)
        rows = np.vstack([tr.features[0], va.features[0], te.features[0]])
        orig = np.sort(data.features[0].view([("", data.features[0].dtype)] * 12), axis=0)
        got = np.sort(rows.view([("", rows.dtype)] * 12), axis=0)
        assert np.array_equal(orig, got)

    def test_deterministic(self):
        data = generate(SPEC)
        a = split(data, (0.8, 0.1, 0.1), 42)
        b = split(data, (0.8, 0.1, 0.1), 42)
        for da, db in zip(a, b):
            assert da.labels.tobytes() == db.labels.tobytes()
            assert da.features[0].tobytes() == db.features[0].tobytes()

    def test_stratified(self):
        spec = SyntheticSpec(2, 4, (3, 3), (1.0, 1.0), 1.0, 400, 2)
        data = generate(spec)
        class_counts = np.bincount(data.labels, minlength=4)
        parts = split(data, (0.8, 0.1, 0.1), 3)
        for part, frac in zip(parts, (0.8, 0.1, 0.1)):
            counts = np.bincount(part.labels, minlength=4)
            assert counts.min() > 0
            # every split mirrors the dataset's class proportions closely
            assert np.abs(counts - frac * class_counts).max() <= 2.0


class TestBatches:
    def test_partition(self):
        spec = SyntheticSpec(2, 2, (2, 2), (1.0, 1.0), 1.0, 10, 0)
        data = generate(spec)
        got = batches(data, 4, 17)
        assert [len(b) for b in got] == [4, 4, 2]
        assert sorted(np.concatenate(got).tolist()) == list(range(10))

    def test_uniform_weights_chi_square(self):
        spec = SyntheticSpec(2, 2, (2, 2), (1.0, 1.0), 1.0, 10, 0)
        data = generate(spec)
        counts = np.zeros(10)
        for epoch in range(200):
            for idx in batches(data, 4, epoch, weights=np.ones(10)):
                np.add.at(counts, idx, 1)
        expected = 200.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 35.0  # df=9, far beyond the 99.9% quantile

    def test_degenerate_weights(self):
        spec = SyntheticSpec(2, 2, (2, 2), (1.0, 1.0), 1.0, 10, 0)
        data = generate(spec)
        w = np.zeros(10)
        w[3] = 1.0
        for idx in batches(data, 4, 5, weights=w):
            assert (idx == 3).all()

    def test_zero_weight_never_drawn(self):
        spec = SyntheticSpec(2, 2, (2, 2), (1.0, 1.0), 1.0, 50, 1)
        data = generate(spec)
        w = np.ones(50)
        w[::2] = 0.0
        for epoch in range(20):
            for idx in batches(data, 16, epoch, weights=w):
                assert (idx % 2 == 1).all()

    def test_all_zero_weights(self):
        data = generate(SPEC)
        with pytest.raises(SpecError):
            batches(data, 4, 0, weights=np.zeros(data.num_samples))

    def test_bad_batch_size(self):
        with pytest.raises(SpecError):
            batches(generate(SPEC), 0, 0)


class TestSaveLoad:
    def test_round_trip_bitwise(self, tmp_path):
        data = generate(SPEC)
        path = tmp_path / "d.mmds"
        save(data, path)
        back = load(path)
        assert back.labels.tobytes() == data.labels.tobytes()
        for fa, fb in zip(data.features, back.features):
            assert fa.tobytes() == fb.tobytes()
        assert back.num_classes == data.num_classes

    def test_row_width_mismatch(self, tmp_path):
        path = tmp_path / "bad.mmds"
        path.write_text("MMDS v1\nm=2 H=2 N=1 dims=4,2\n0|1 2 3|5 6\n")
        with pytest.raises(FormatError) as err:
            load(path)
        assert "modality 0" in str(err.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.mmds"
        path.write_text("")
        with pytest.raises(FormatError):
            load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mmds"
        path.write_text("MMXX v9\n")
        with pytest.raises(FormatError):
            load(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.mmds"
        path.write_text("MMDS v1\nm=2 H=2 N=1 dims=1,1\n5|1|2\n")
        with pytest.raises(FormatError):
            load(path)

    def test_record_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.mmds"
        path.write_text("MMDS v1\nm=2 H=2 N=3 dims=1,1\n0|1|2\n")
        with pytest.raises(FormatError):
            load(path)

    @pytest.mark.parametrize("header", ["m=2 H=2 N=1", "m=2 H=2 N=1 dims=1,1 junk",
                                        "m=3 H=2 N=1 dims=1,1", "m=two H=2 N=1 dims=1,1"])
    def test_read_header_raises_as_load_does(self, tmp_path, header):
        path = tmp_path / "bad.mmds"
        path.write_text(f"MMDS v1\n{header}\n0|1|2\n")
        with pytest.raises(FormatError) as from_load:
            load(path)
        with pytest.raises(FormatError) as from_header:
            read_header(path)
        assert from_header.value.line == from_load.value.line == 2
        assert str(from_header.value) == str(from_load.value)

    def test_read_header_reads_the_saved_shape(self, tmp_path):
        path = tmp_path / "d.mmds"
        save(generate(SPEC), path)
        assert read_header(path) == (SPEC.num_modalities, SPEC.num_classes, SPEC.samples, SPEC.dims)


def test_select_modalities():
    data = generate(SPEC)
    solo = data.select_modalities([1])
    assert solo.num_modalities == 1
    assert solo.dims == (12,)
    assert np.array_equal(solo.features[0], data.features[1])
