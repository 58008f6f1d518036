import hashlib
import os
import threading

import numpy as np
import pytest

from balancelab import cli, datagen
from balancelab.datagen import (Dataset, SyntheticSpec, batches, generate, load, read_header,
                                save, split)
from balancelab.errors import FormatError, SpecError

from oracles import bayes_accuracy, mmds_load, mmds_save, split_lists

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
        means = datagen.class_means(spec)
        bound = 3.0 * spec.sigma / np.sqrt(spec.samples / spec.num_classes)
        for i in range(2):
            assert np.allclose(np.linalg.norm(means[i], axis=1), 1.0, rtol=0, atol=1e-12)
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

    @pytest.mark.parametrize("n", [7, 13, 37, 100, 4000, 10_000])
    def test_matches_the_list_oracle(self, n):
        """Same rows in the same order, or the same error, over H, fractions and seeds."""
        topped_up = 0
        for h in range(2, 11):
            for seed in (0, 1, 2):
                rng = np.random.default_rng([n, h, seed])
                labels = rng.choice(h, size=n, p=rng.dirichlet(np.ones(h)))
                # column 0 holds each row's index, so equal bytes mean equal index order
                data = Dataset([np.arange(n, dtype=np.float64)[:, None],
                                rng.standard_normal((n, 2))], labels, h)
                for fractions in ((0.8, 0.1, 0.1), (0.98, 0.01, 0.01), (0.6, 0.2, 0.2),
                                  (1 / 3, 1 / 3, 1 / 3), (0.5, 0.3, 0.2)):
                    try:
                        want = split_lists(data, fractions, seed)
                    except SpecError as error:
                        with pytest.raises(SpecError) as got:
                            split(data, fractions, seed)
                        assert str(got.value) == str(error)
                        continue
                    got = split(data, fractions, seed)
                    for a, b in zip(got, want, strict=True):
                        assert a.num_classes == b.num_classes
                        assert (a.labels.dtype, a.labels.tobytes()) == (b.labels.dtype,
                                                                       b.labels.tobytes())
                        for fa, fb in zip(a.features, b.features, strict=True):
                            assert (fa.shape, fa.tobytes()) == (fb.shape, fb.tobytes())
                    counts = np.bincount(labels, minlength=h)
                    topped_up += sum(int(np.floor(f * c)) for f in fractions for c in counts) < n
        assert topped_up  # some cases take rows from the leftover pool


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
                                        "m=3 H=2 N=1 dims=1,1", "m=two H=2 N=1 dims=1,1",
                                        "m=2 H=2 N=1 dims=0,1", "m=2 H=0 N=1 dims=1,1",
                                        f"m=2 H={2**63} N=1 dims=1,1"])
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

    def test_save_writes_the_reference_bytes(self, tmp_path):
        """Unequal dims, signed zero, subnormal, huge and tiny values, every label up to H - 1."""
        features = [np.arange(20.0).reshape(4, 5), np.array([[-0.0], [5e-324], [1e308], [-1e-300]]),
                    np.linspace(-1.0, 1.0, 28).reshape(4, 7) / 3.0]
        features[2][1, :4] = [-0.0, 5e-324, 1e308, -1e-300]
        features[2][3, 6] = np.inf
        data = Dataset(features, np.array([0, 1, 2, 2]), 3)
        save(data, tmp_path / "new.mmds")
        mmds_save(data, tmp_path / "old.mmds")
        assert (tmp_path / "new.mmds").read_bytes() == (tmp_path / "old.mmds").read_bytes()
        back = load(tmp_path / "new.mmds")
        assert back.labels.tolist() == [0, 1, 2, 2]
        for fa, fb in zip(data.features, back.features):
            assert fa.tobytes() == fb.tobytes()

    def test_save_load_save_is_byte_identical(self, tmp_path):
        spec = SyntheticSpec(3, 5, (5, 1, 7), (2.0, 1.0, 0.5), 1.0, datagen.CHUNK_LINES + 9, 3)
        save(generate(spec), tmp_path / "a.mmds")
        back = load(tmp_path / "a.mmds")
        save(back, tmp_path / "b.mmds")
        mmds_save(back, tmp_path / "c.mmds")
        text = (tmp_path / "a.mmds").read_bytes()
        assert (tmp_path / "b.mmds").read_bytes() == text == (tmp_path / "c.mmds").read_bytes()
        assert set(back.labels.tolist()) == set(range(5))

    @pytest.mark.parametrize("fault", ["bad float", "field count", "bad label"])
    @pytest.mark.parametrize("record", [0, 1], ids=["last-of-chunk-1", "first-of-chunk-2"])
    def test_fault_names_its_line_across_chunks(self, tmp_path, fault, record):
        n = datagen.CHUNK_LINES + 3
        path = tmp_path / "d.mmds"
        save(generate(SyntheticSpec(2, 2, (1, 2), (1.0, 1.0), 1.0, n, 0)), path)
        lines = path.read_text().splitlines(keepends=True)
        k = datagen.CHUNK_LINES + 1 + record  # the record's index in lines
        label, first, second = lines[k].split("|")
        lines[k] = {"bad float": f"{label}|x|{second}", "field count": f"{label}|{first}\n",
                    "bad label": f"1.0|{first}|{second}"}[fault]
        path.write_text("".join(lines))
        with pytest.raises(FormatError) as err:
            load(path)
        assert err.value.line == k + 1
        assert str(err.value) == f"line {k + 1}: " + {
            "bad float": "bad float in modality 0", "field count": "expected 3 '|'-fields, got 2",
            "bad label": "bad label '1.0'"}[fault]

    @pytest.mark.parametrize("dims, body, line, message", [
        # loadtxt's defaults would read "2#" as 2 and skip the comment, and skip blank lines
        ("1,1", "0|1|2#\n1|3|4\n", 3, "bad float in modality 1"),
        ("1,1", "0|1|2\n# 1|3|4\n", 4, "bad label '# 1'"),
        ("1,1", "0|1|2\n\n1|3|4\n", 4, "expected 3 '|'-fields, got 1"),
        ("1,1", "0|1|2\n  \n1|3|4\n", 4, "expected 3 '|'-fields, got 1"),
        # str.splitlines() would end the line at the form feed
        ("1,1", "0|1|2\x0c1|3|4\n\n", 3, "control character inside the record"),
        # a tab and a double space: the row holds 1 + 6 values, only field 0's width is wrong
        ("3,3", "0|1\t2 3 4|5  6\n", 3, "modality 0 has 4 values, header declares 3"),
        # the chunk's only row, so no other row sets the field's width
        ("3,1", "0|1  2|3\n", 3, "modality 0 has 2 values, header declares 3"),
        # loadtxt skips a blank row, so the widths alone would pass this record
        ("1,1", "0|1|2\n1| | \n", 4, "modality 0 has 0 values, header declares 1"),
        # loadtxt splits at \x0b as str.split does, with the field count right
        ("2,1", "0|1\x0b2|3\n1|4 5|6\n", 3, "control character inside the record"),
    ])
    def test_faults_the_one_call_parse_alone_would_miss(self, tmp_path, dims, body, line,
                                                        message):
        path = tmp_path / "d.mmds"
        path.write_text(f"MMDS v1\nm=2 H=2 N={body.count(chr(10))} dims={dims}\n" + body)
        with pytest.raises(FormatError) as err:
            load(path)
        assert str(err.value) == f"line {line}: {message}"

    @pytest.mark.parametrize("chunk_lines", [datagen.CHUNK_LINES, 5])
    def test_other_layouts_take_the_bulk_parse(self, tmp_path, monkeypatch, chunk_lines):
        """Tabs, runs of blanks, blanks around fields, CRLF and no final newline load in bulk."""
        monkeypatch.setattr(datagen, "CHUNK_LINES", chunk_lines)
        calls = []
        record = datagen._record
        monkeypatch.setattr(datagen, "_record", lambda *args: calls.append(1) or record(*args))
        saved = tmp_path / "saved.mmds"
        save(generate(SyntheticSpec(3, 3, (3, 1, 2), (2.0, 1.0, 1.0), 1.0, 14, 5)), saved)
        lines = saved.read_text().splitlines()
        for k in range(2, len(lines)):
            blank, pad = ("\t", "  ", " \t ")[k % 3], ("", " ", "\t ")[k % 2]
            lines[k] = "|".join(pad + blank.join(f.split(" ")) + pad for f in lines[k].split("|"))
        path = tmp_path / "d.mmds"
        path.write_bytes("\r\n".join(lines).encode("ascii"))
        back, expected = load(path), mmds_load(path)
        assert calls == []
        assert back.labels.tobytes() == expected.labels.tobytes()
        for fa, fb in zip(back.features, expected.features):
            assert fa.tobytes() == fb.tobytes()


def _counted_parses(monkeypatch) -> list[int]:
    """A list that grows by one at each ``datagen._parse_chunk`` call from now on."""
    calls = []
    parse = datagen._parse_chunk
    monkeypatch.setattr(datagen, "_parse_chunk", lambda *args: calls.append(1) or parse(*args))
    return calls


def _one_digit_changed(text: str) -> str:
    """``text`` with the first digit after its first '|' changed, so its length stays."""
    k = next(j for j in range(text.index("|"), len(text)) if text[j].isdigit())
    return text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1:]


class TestSidecar:
    SPEC = SyntheticSpec(3, 3, (3, 1, 2), (2.0, 1.0, 1.0), 1.0, 40, 5)

    def _saved(self, directory, sidecar=True):
        """``d.mmds`` saved in ``directory``; without the sidecar that ``save`` leaves
        unless ``sidecar``, so that the first load parses and writes its own."""
        path = directory / "d.mmds"
        save(generate(self.SPEC), path)
        if not sidecar:
            os.remove(directory / "d.mmds.cache")
        return path

    def test_second_load_reads_the_sidecar(self, tmp_path, monkeypatch):
        path = self._saved(tmp_path, sidecar=False)
        expected = _outcome(mmds_load, path)
        assert _outcome(load, path) == expected
        calls = _counted_parses(monkeypatch)
        assert _outcome(load, path) == expected
        assert calls == []
        assert sorted(os.listdir(tmp_path)) == ["d.mmds", "d.mmds.cache"]

    def test_a_changed_value_of_the_same_size_is_parsed_again(self, tmp_path, monkeypatch):
        path = self._saved(tmp_path)
        before = _outcome(load, path)
        cache = tmp_path / "d.mmds.cache"
        old_cache = cache.read_bytes()
        text = path.read_text()
        path.write_text(_one_digit_changed(text))
        assert len(path.read_text()) == len(text)
        calls = _counted_parses(monkeypatch)
        after = _outcome(load, path)
        assert calls and after == _outcome(mmds_load, path) != before
        assert cache.read_bytes() != old_cache
        calls.clear()
        assert _outcome(load, path) == after and calls == []

    def test_a_file_changed_during_its_parse_is_not_cached(self, tmp_path, monkeypatch):
        path = self._saved(tmp_path, sidecar=False)
        expected = _outcome(mmds_load, path)
        text = path.read_text()
        parse = datagen._parse_chunk

        def rewrite_then_parse(*args):
            path.write_text(_one_digit_changed(text))
            return parse(*args)

        monkeypatch.setattr(datagen, "_parse_chunk", rewrite_then_parse)
        assert _outcome(load, path) == expected  # the whole file was read before the rewrite
        assert not (tmp_path / "d.mmds.cache").exists()

    @pytest.mark.parametrize("damage", ["truncated", "random bytes", "unrelated npy",
                                        "transposed arrays", "32-bit arrays"])
    def test_a_bad_sidecar_is_ignored_and_rewritten(self, tmp_path, monkeypatch, damage):
        """The last two record the file's own digest, so only the dtype and shape check
        rejects them."""
        path = self._saved(tmp_path)
        expected = _outcome(load, path)
        cache = tmp_path / "d.mmds.cache"
        good = cache.read_bytes()
        if damage == "truncated":
            cache.write_bytes(good[:len(good) // 2])
        elif damage == "random bytes":
            cache.write_bytes(np.random.default_rng(0).bytes(len(good)))
        elif damage == "unrelated npy":
            with open(cache, "wb") as fh:
                np.save(fh, np.arange(12.0).reshape(3, 4))
        else:
            digest = np.frombuffer(hashlib.sha256(path.read_bytes()).digest(), np.uint8)
            data = generate(self.SPEC)
            with open(cache, "wb") as fh:
                np.save(fh, digest)
                if damage == "transposed arrays":
                    for array in (data.labels, *(np.ascontiguousarray(f.T)
                                                 for f in data.features)):
                        np.save(fh, array)
                else:
                    for array in (data.labels.astype(np.int32), *data.features):
                        np.save(fh, array.astype(np.float32) if array.ndim == 2 else array)
        calls = _counted_parses(monkeypatch)
        assert _outcome(load, path) == expected == _outcome(mmds_load, path)
        assert calls
        assert cache.read_bytes() == good

    def test_an_unwritable_sidecar_location_is_skipped(self, tmp_path):
        """A directory where the sidecar would go: the load still parses, raises nothing, and
        leaves no temporary file (this holds when tests run as root, unlike a read-only mode)."""
        path = self._saved(tmp_path, sidecar=False)
        (tmp_path / "d.mmds.cache").mkdir()
        expected = _outcome(mmds_load, path)
        assert _outcome(load, path) == expected
        assert _outcome(load, path) == expected
        assert sorted(os.listdir(tmp_path)) == ["d.mmds", "d.mmds.cache"]
        assert os.listdir(tmp_path / "d.mmds.cache") == []

    def test_an_interrupted_sidecar_write_leaves_no_file(self, tmp_path, monkeypatch):
        """An interrupt between two of the sidecar's arrays leaves neither the sidecar nor its
        temporary file, and the next load parses and writes it whole."""
        path = self._saved(tmp_path, sidecar=False)
        save_array = np.save
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return save_array(*args, **kwargs)

        monkeypatch.setattr(np, "save", interrupted)
        with pytest.raises(KeyboardInterrupt):
            load(path)
        assert os.listdir(tmp_path) == ["d.mmds"]
        monkeypatch.setattr(np, "save", save_array)
        assert _outcome(load, path) == _outcome(mmds_load, path)
        assert sorted(os.listdir(tmp_path)) == ["d.mmds", "d.mmds.cache"]

    def test_a_file_that_fails_to_parse_is_never_cached(self, tmp_path):
        path = self._saved(tmp_path)
        load(path)
        cache = tmp_path / "d.mmds.cache"
        old_cache = cache.read_bytes()
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[6].split("|")
        fields[2] = "abc"  # modality 1's one value
        lines[6] = "|".join(fields)
        path.write_text("".join(lines))
        never_valid = tmp_path / "bad.mmds"
        never_valid.write_text("".join(lines))
        for bad in (path, never_valid):
            for _ in range(2):
                with pytest.raises(FormatError) as err:
                    load(bad)
                assert str(err.value) == "line 7: bad float in modality 1"
                assert _outcome(mmds_load, bad) == ("rejected", 7, str(err.value))
        assert cache.read_bytes() == old_cache
        assert sorted(os.listdir(tmp_path)) == ["bad.mmds", "d.mmds", "d.mmds.cache"]

    def test_equal_files_get_byte_identical_sidecars(self, tmp_path):
        caches = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            path = self._saved(tmp_path / name, sidecar=False)
            load(path)
            caches.append((tmp_path / name / "d.mmds.cache").read_bytes())
        assert caches[0] == caches[1]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_fifo_loads_as_today_and_is_never_cached(self, tmp_path):
        saved = self._saved(tmp_path)
        fifo = tmp_path / "pipe.mmds"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(saved.read_bytes(),),
                                  daemon=True)
        writer.start()
        assert _outcome(load, fifo) == _outcome(mmds_load, saved)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert not (tmp_path / "pipe.mmds.cache").exists()


def _spec(m: int, n: int, seed: int = 5) -> SyntheticSpec:
    return SyntheticSpec(m, 3, (3, 1, 2)[:m], (2.0, 1.0, 1.0)[:m], 1.0, n, seed)


def _with_bits(data: Dataset, bits: dict[tuple[int, int, int], int]) -> Dataset:
    """``data`` with the value at each (modality, row, column) key set to the float64 of
    the given bit pattern."""
    features = [f.copy() for f in data.features]
    for (i, row, col), pattern in bits.items():
        features[i][row, col] = np.array(pattern, np.uint64).view(np.float64)
    return Dataset(features, data.labels, data.num_classes)


@pytest.mark.parametrize("m", [2, 3])
class TestSaveLeavesTheSidecar:
    """``save`` leaves the sidecar that the first ``load`` would write."""

    @pytest.mark.parametrize("n", [0, datagen.CHUNK_LINES + 9])
    def test_a_saved_file_loads_with_no_parse(self, tmp_path, monkeypatch, m, n):
        """Infinities, signed zeros and subnormals keep the sidecar too."""
        dims = _spec(m, 3).dims
        data = (Dataset([np.empty((0, d)) for d in dims], np.empty(0, np.int64), 3) if n == 0
                else _with_bits(generate(_spec(m, n)), {
                    (0, 0, 0): 0x7FF0000000000000, (0, 0, 1): 0xFFF0000000000000,
                    (m - 1, 1, 0): 0x8000000000000000, (m - 1, n - 1, 0): 0x0000000000000001}))
        path = tmp_path / "d.mmds"
        save(data, path)
        assert sorted(os.listdir(tmp_path)) == ["d.mmds", "d.mmds.cache"]
        calls = _counted_parses(monkeypatch)
        back = _outcome(load, path)
        assert calls == []
        assert back == _outcome(mmds_load, path) == _outcome(lambda _: data, path)

    def test_the_saved_sidecar_is_the_one_load_writes(self, tmp_path, monkeypatch, m):
        path = tmp_path / "d.mmds"
        save(generate(_spec(m, datagen.CHUNK_LINES + 9)), path)
        cache = tmp_path / "d.mmds.cache"
        saved = cache.read_bytes()
        cache.unlink()
        calls = _counted_parses(monkeypatch)
        load(path)
        assert calls
        assert cache.read_bytes() == saved

    def test_a_directory_at_the_sidecar_path_is_skipped(self, tmp_path, m):
        """``save`` writes the text, raises nothing and leaves no temporary file."""
        data = generate(_spec(m, 40))
        (tmp_path / "d.mmds.cache").mkdir()
        save(data, tmp_path / "d.mmds")
        mmds_save(data, tmp_path / "ref.mmds")
        assert (tmp_path / "d.mmds").read_bytes() == (tmp_path / "ref.mmds").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["d.mmds", "d.mmds.cache", "ref.mmds"]
        assert os.listdir(tmp_path / "d.mmds.cache") == []

    def test_an_interrupted_sidecar_write_keeps_the_whole_text(self, tmp_path, monkeypatch, m):
        """An interrupt between two of the sidecar's arrays leaves the complete text file
        and neither the sidecar nor its temporary file."""
        data = generate(_spec(m, datagen.CHUNK_LINES + 9))
        save_array = np.save
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return save_array(*args, **kwargs)

        monkeypatch.setattr(np, "save", interrupted)
        with pytest.raises(KeyboardInterrupt):
            save(data, tmp_path / "d.mmds")
        monkeypatch.setattr(np, "save", save_array)
        assert os.listdir(tmp_path) == ["d.mmds"]
        mmds_save(data, tmp_path / "ref.mmds")
        assert (tmp_path / "d.mmds").read_bytes() == (tmp_path / "ref.mmds").read_bytes()

    def test_an_interrupt_while_the_records_are_written_leaves_no_sidecar(self, tmp_path,
                                                                         monkeypatch, m):
        data = generate(_spec(m, datagen.CHUNK_LINES + 9))
        hstack = np.hstack
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:  # the second chunk
                raise KeyboardInterrupt
            return hstack(*args, **kwargs)

        monkeypatch.setattr(np, "hstack", interrupted)
        with pytest.raises(KeyboardInterrupt):
            save(data, tmp_path / "d.mmds")
        assert os.listdir(tmp_path) == ["d.mmds"]

    def test_a_stale_sidecar_is_replaced(self, tmp_path, monkeypatch, m):
        path = tmp_path / "d.mmds"
        save(generate(_spec(m, 40, seed=1)), path)
        before = _outcome(load, path)
        save(generate(_spec(m, 40, seed=2)), path)
        calls = _counted_parses(monkeypatch)
        after = _outcome(load, path)
        assert calls == []
        assert after == _outcome(mmds_load, path) != before

    def test_a_nan_is_read_as_the_parse_reads_it(self, tmp_path, monkeypatch, m):
        """``nan`` on disk reads as the default quiet NaN, whatever the saved NaN's sign and
        payload; so ``save`` leaves no sidecar, and both the parse and the sidecar that the
        parse writes give the reference reader's bits."""
        data = _with_bits(generate(_spec(m, 40)), {(0, 3, 1): 0xFFF8000000000000,
                                                   (m - 1, 5, 0): 0x7FF8000000000123})
        path = tmp_path / "d.mmds"
        save(data, path)
        assert os.listdir(tmp_path) == ["d.mmds"]
        expected = _outcome(mmds_load, path)
        assert expected != _outcome(lambda _: data, path)
        calls = _counted_parses(monkeypatch)
        for parsed in (True, False):
            calls.clear()
            assert _outcome(load, path) == expected
            assert bool(calls) == parsed
        assert sorted(os.listdir(tmp_path)) == ["d.mmds", "d.mmds.cache"]


MUTANT_LABELS = ("-1", "3", "1.0", "x")  # the file has H = 3
MUTANT_TOKENS = ("abc", "#", "1_0", "nan")


def _mutate_record(record: str, kind: str, rng) -> str:
    """One fault of ``kind`` in one record line (without its line end)."""
    fields = record.split("|")
    bars = [j for j, c in enumerate(record) if c == "|"]
    spaces = [j for j, c in enumerate(record) if c == " "]
    i = int(rng.integers(1, len(fields)))
    tokens = fields[i].split(" ")
    j = int(rng.integers(len(tokens)))
    if kind == "drop |":
        b = bars[rng.integers(len(bars))]
        return record[:b] + record[b + 1:]
    if kind == "double |":
        b = bars[rng.integers(len(bars))]
        return record[:b] + "|" + record[b:]
    if kind == "move |":
        b, s = bars[rng.integers(len(bars))], spaces[rng.integers(len(spaces))]
        chars = list(record)
        chars[b], chars[s] = " ", "|"
        return "".join(chars)
    if kind == "extra value":
        tokens.insert(j, "0.25")
    elif kind == "missing value":
        del tokens[j]
    elif kind == "label":
        fields[0] = MUTANT_LABELS[rng.integers(len(MUTANT_LABELS))]
    elif kind == "token":
        tokens[j] = MUTANT_TOKENS[rng.integers(len(MUTANT_TOKENS))]
    elif kind == "tab":
        s = spaces[rng.integers(len(spaces))]
        return record[:s] + "\t" + record[s + 1:]
    elif kind == "trailing spaces":
        return record + "  "
    fields[i] = " ".join(tokens)
    return "|".join(fields)


RECORD_FAULTS = ("drop |", "double |", "move |", "extra value", "missing value", "label",
                 "token", "tab", "trailing spaces")
FILE_FAULTS = ("blank line", "crlf", "no final newline", "N off by one")


def _mutant(lines: list[str], seed: int) -> str:
    """A seeded mutant of a file given as its lines without line ends."""
    rng = np.random.default_rng(seed)
    kinds = RECORD_FAULTS + FILE_FAULTS
    kind = kinds[seed % len(kinds)]
    lines = list(lines)
    k = int(rng.integers(2, len(lines)))
    if kind in RECORD_FAULTS:
        lines[k] = _mutate_record(lines[k], kind, rng)
    elif kind == "blank line":
        lines.insert(k, "")
        if rng.integers(2):  # else the record count is off as well
            lines[1] = lines[1].replace(f"N={len(lines) - 3}", f"N={len(lines) - 2}")
    elif kind == "N off by one":
        n = len(lines) - 2
        lines[1] = lines[1].replace(f"N={n}", f"N={n + (1 if rng.integers(2) else -1)}")
    end = "\r\n" if kind == "crlf" else "\n"
    return end.join(lines) + ("" if kind == "no final newline" else end)


def _outcome(load_fn, path):
    try:
        data = load_fn(path)
    except FormatError as exc:
        return ("rejected", exc.line, str(exc))
    return ("loaded", data.num_classes, data.labels.tobytes(),
            *(f.tobytes() for f in data.features))


@pytest.mark.parametrize("chunk_lines", [datagen.CHUNK_LINES, 5])
def test_load_matches_the_reference_reader_on_mutants(tmp_path, monkeypatch, capsys, chunk_lines):
    """Each mutant loads to the reference reader's bits or fails as it does, naming its line.

    A rejected mutant also exits 1 through the CLI with that message and no traceback.
    """
    monkeypatch.setattr(datagen, "CHUNK_LINES", chunk_lines)
    base = tmp_path / "base.mmds"
    save(generate(SyntheticSpec(3, 3, (3, 1, 2), (2.0, 1.0, 1.0), 1.0, 14, 5)), base)
    lines = base.read_text().splitlines()
    path = tmp_path / "mutant.mmds"
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f'dataset.path = "{path}"\n')
    calls = _counted_parses(monkeypatch)
    seen = set()
    for seed in range(312):
        path.write_text(_mutant(lines, seed), newline="")
        expected = _outcome(mmds_load, path)
        # an accepted mutant is parsed, then read from its sidecar; a rejected one never is
        for parsed in (True, expected[0] == "rejected"):
            calls.clear()
            assert _outcome(load, path) == expected, (seed, path.read_text())
            assert bool(calls) == parsed, seed
        seen.add(expected[0])
        if expected[0] == "rejected":
            rc = cli.main(["evaluate", "--config", str(cfg_path), "--checkpoint", "unread.mmck"])
            assert (rc, capsys.readouterr().err) == (
                1, f"error: dataset.path {str(path)!r}: {expected[2]}\n"), seed
    assert seen == {"loaded", "rejected"}


def test_select_modalities():
    data = generate(SPEC)
    solo = data.select_modalities([1])
    assert solo.num_modalities == 1
    assert solo.dims == (12,)
    assert np.array_equal(solo.features[0], data.features[1])
