import numpy as np
import pytest

from advlab import data, rng
from conftest import write_dataset_csv


class TestLoadCsv:
    def test_direct_parse(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        ds = data.load_csv(p)
        assert len(ds) == 2 and ds.dim == 2
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.labels.tolist() == [0, 1]
        assert ds.num_classes == 2

    def test_non_numeric_feature_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0\nbogus,4.0,1\n")
        with pytest.raises(data.CsvFormatError, match="line 2"):
            data.load_csv(p)

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e400"])
    def test_non_finite_feature_names_file_and_line(self, tmp_path, value):
        p = tmp_path / "d.csv"
        p.write_text(f"1.0,2.0,0\n3.0,{value},1\n")
        with pytest.raises(data.CsvFormatError, match="line 2: non-finite") as err:
            data.load_csv(p)
        assert str(p) in str(err.value)

    def test_non_integer_label_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0.7\n")
        with pytest.raises(data.CsvFormatError, match="line 1"):
            data.load_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(data.CsvFormatError, match="no data"):
            data.load_csv(p)

    def test_header_flag(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,f2,label\n1.0,2.0,0\n")
        assert len(data.load_csv(p, header=True)) == 1

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0\n1.0,1\n")
        with pytest.raises(data.CsvFormatError, match="line 2"):
            data.load_csv(p)

    def test_not_utf8_names_the_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"1.0,2.0,0\n\xff3.0,4.0,1\n")
        with pytest.raises(data.CsvFormatError, match="not UTF-8") as err:
            data.load_csv(p)
        assert str(p) in str(err.value)

    def test_negative_label_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,0\n2.0,-1\n")
        with pytest.raises(data.CsvFormatError, match="negative label") as err:
            data.load_csv(p)
        assert str(err.value).startswith(f"{p}: ")

    def test_row_without_a_feature_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0\n1\n")
        with pytest.raises(data.CsvFormatError, match="line 1: need at least one feature"):
            data.load_csv(p)

    def test_blank_lines_are_skipped_and_later_lines_keep_their_numbers(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,0\n\n  \n2.0,1\n3.0,x\n")
        with pytest.raises(data.CsvFormatError, match="line 5: non-integer label 'x'"):
            data.load_csv(p)
        p.write_text("1.0,0\n\n  \n2.0,1\n")
        assert data.load_csv(p).labels.tolist() == [0, 1]

    def test_classes_are_the_largest_label_plus_one(self, tmp_path):
        # a label that no row carries still counts as a class below the largest
        p = tmp_path / "d.csv"
        p.write_text("1.0,0\n2.0,3\n3.0, 3 \n")
        ds = data.load_csv(p)
        assert ds.num_classes == 4 and ds.labels.tolist() == [0, 3, 3]

    def test_save_load_round_trip_exact(self, tmp_path):
        ds = data.synth_blobs(7, 3, 5, 1.3, seed=2)
        p = tmp_path / "r.csv"
        write_dataset_csv(ds, p)
        back = data.load_csv(p)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)


class TestWriteCsv:
    def test_one_cell_format_for_python_and_numpy_numbers(self, tmp_path):
        p = tmp_path / "t.csv"
        data.write_csv(p, ("a", "b", "c", "d", "e", "f"), [
            (3, np.int64(-4), True, np.bool_(False), np.float64(-10.0), 0.1),
            (0, np.uint8(7), False, np.bool_(True), np.float32(0.5), float("nan"))])
        assert p.read_text() == "a,b,c,d,e,f\n3,-4,1,0,-10.0,0.1\n0,7,0,1,0.5,nan\n"

    def test_no_columns_means_no_header(self, tmp_path):
        p = tmp_path / "t.csv"
        data.write_csv(p, (), [(1.5, 2)])
        assert p.read_text() == "1.5,2\n"


class TestWriteAtomic:
    def test_missing_directory_names_the_target_and_leaves_no_file(self, tmp_path):
        target = tmp_path / "nodir" / "x.csv"
        with pytest.raises(OSError) as exc:
            data.write_atomic(target, "a\n")
        assert exc.value.filename == str(target) and ".tmp" not in str(exc.value)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", ["", ".", "/"])
    def test_path_with_no_file_name_is_named_and_leaves_no_file(
            self, tmp_path, monkeypatch, target):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(OSError) as exc:
            data.write_atomic(target, "a\n")
        assert repr(target) in str(exc.value) and ".tmp" not in str(exc.value)
        assert list(tmp_path.iterdir()) == []


    def test_replaces_an_existing_file_whole(self, tmp_path):
        target = tmp_path / "x.csv"
        target.write_text("an older and longer content\n")
        data.write_atomic(target, "new\n")
        assert target.read_bytes() == b"new\n"
        assert [f.name for f in tmp_path.iterdir()] == ["x.csv"]

    def test_text_is_utf8_and_bytes_are_written_as_they_are(self, tmp_path):
        text, blob = tmp_path / "t.txt", tmp_path / "b.bin"
        data.write_atomic(text, "\u03c1=0.35\n")
        data.write_atomic(blob, b"\xff\x00RPG1")
        assert text.read_bytes() == "\u03c1=0.35\n".encode("utf-8")
        assert blob.read_bytes() == b"\xff\x00RPG1"

    def test_directory_target_is_named_and_left_alone(self, tmp_path):
        target = tmp_path / "run"
        target.mkdir()
        (target / "keep.csv").write_text("a\n")
        with pytest.raises(OSError) as exc:
            data.write_atomic(target, "a\n")
        assert exc.value.filename == str(target) and ".tmp" not in str(exc.value)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["run"]
        assert [f.name for f in target.iterdir()] == ["keep.csv"]

    def test_failed_replace_keeps_the_old_file_and_names_the_target(self, tmp_path, monkeypatch):
        target = tmp_path / "x.csv"
        target.write_text("old\n")

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", str(src))

        monkeypatch.setattr(data.os, "replace", refuse)
        with pytest.raises(OSError) as exc:
            data.write_atomic(target, "new\n")
        assert exc.value.filename == str(target) and exc.value.errno == 13
        assert target.read_text() == "old\n"
        assert [f.name for f in tmp_path.iterdir()] == ["x.csv"]

    def test_interrupt_before_the_replace_leaves_the_old_file_and_no_temporary(
            self, tmp_path, monkeypatch):
        target = tmp_path / "x.csv"
        target.write_text("old\n")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(data.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            data.write_atomic(target, "new\n")
        assert target.read_text() == "old\n"
        assert [f.name for f in tmp_path.iterdir()] == ["x.csv"]


class TestSynthBlobs:
    def test_zero_spread_hits_centers_exactly(self):
        ds = data.synth_blobs(3, 4, 6, spread=0.0, seed=1)
        for x, y in zip(ds.features, ds.labels):
            assert np.array_equal(x, data.blob_center(int(y), 6))

    def test_seed_repeat_bitwise(self):
        a = data.synth_blobs(10, 3, 4, 0.8, seed=11)
        b = data.synth_blobs(10, 3, 4, 0.8, seed=11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_features_are_centers_plus_spread_times_the_blobs_stream(self):
        ds = data.synth_blobs(4, 3, 2, 0.7, seed=13)
        noise = rng.stream(13, rng.DOMAIN_BLOBS).standard_normal((12, 2))
        centers = np.stack([data.blob_center(k, 2) for k in np.repeat(np.arange(3), 4)])
        assert ds.labels.tolist() == [0] * 4 + [1] * 4 + [2] * 4
        assert ds.features.tobytes() == (noise * 0.7 + centers).tobytes()

    def test_center_layout_pairwise_distances(self):
        # recompute the documented layout: axis k%d, magnitude scale*(1 + k//d)
        dim, classes = 3, 5
        centers = [data.blob_center(k, dim) for k in range(classes)]
        s = data.BLOB_CENTER_SCALE
        for i in range(classes):
            for j in range(classes):
                mi, mj = s * (1 + i // dim), s * (1 + j // dim)
                if i == j:
                    expected = 0.0
                elif i % dim == j % dim:
                    expected = abs(mi - mj)
                else:
                    expected = np.hypot(mi, mj)
                assert np.linalg.norm(centers[i] - centers[j]) == pytest.approx(expected)


class TestBatchSchedule:
    def test_exhaustive_batch_is_permutation(self):
        ds = data.synth_blobs(5, 2, 3, 1.0, seed=3)
        sched = data.BatchSchedule(seed=4, batch_size=len(ds))
        batch = ds.subset(sched.indices(1, len(ds)))
        assert sorted(sched.indices(1, len(ds)).tolist()) == list(range(len(ds)))
        assert np.array_equal(np.sort(batch.labels), np.sort(ds.labels))

    def test_batch_is_the_head_of_the_iterations_philox_permutation(self):
        sched = data.BatchSchedule(seed=31, batch_size=7)
        for t in (1, 2, 1000):
            want = rng.stream(31, rng.DOMAIN_BATCH, t).permutation(40)[:7]
            assert sched.indices(t, 40).tolist() == want.tolist()

    def test_same_iteration_identical(self):
        sched = data.BatchSchedule(seed=9, batch_size=4)
        assert np.array_equal(sched.indices(7, 20), sched.indices(7, 20))

    def test_different_iterations_differ(self):
        sched = data.BatchSchedule(seed=9, batch_size=10)
        assert not np.array_equal(sched.indices(1, 100), sched.indices(2, 100))

    def test_replay_full_schedule(self):
        sched = data.BatchSchedule(seed=123, batch_size=6)
        a = [sched.indices(t, 30) for t in range(1, 50)]
        b = [sched.indices(t, 30) for t in range(1, 50)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_selection_frequency_uniform(self):
        # Monte Carlo: over many batches each index appears ~ tau/n of the time;
        # fixed seed makes this a frozen check, 3 sigma of the binomial
        n, tau, trials = 20, 5, 100_000
        sched = data.BatchSchedule(seed=77, batch_size=tau)
        counts = np.zeros(n)
        for t in range(1, trials + 1):
            counts[sched.indices(t, n)] += 1
        p = tau / n
        sigma = np.sqrt(trials * p * (1 - p))
        assert np.abs(counts - trials * p).max() <= 3 * sigma


class TestSplit:
    def test_partition_disjoint_and_complete(self):
        ds = data.synth_blobs(20, 3, 4, 1.0, seed=5)
        train, test = data.split(ds, 25, seed=6)
        assert len(train) == 25 and len(test) == len(ds) - 25
        rows = {tuple(x) for x in ds.features}
        got = [tuple(x) for x in np.vstack([train.features, test.features])]
        assert len(got) == len(ds)
        assert set(got) == rows

    def test_train_rows_are_the_head_of_the_split_permutation(self):
        ds = data.synth_blobs(6, 2, 3, 1.0, seed=5)
        train, test = data.split(ds, 5, seed=8)
        perm = rng.stream(8, rng.DOMAIN_SPLIT).permutation(len(ds))
        assert train.features.tobytes() == ds.features[perm[:5]].tobytes()
        assert test.labels.tolist() == ds.labels[perm[5:]].tolist()

    def test_split_deterministic(self):
        ds = data.synth_blobs(10, 2, 3, 1.0, seed=5)
        a, _ = data.split(ds, 8, seed=42)
        b, _ = data.split(ds, 8, seed=42)
        assert np.array_equal(a.features, b.features)


class TestLabeledSetInvariants:
    def test_misaligned_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            data.LabeledSet(np.zeros((3, 2)), np.zeros(2, dtype=int), 1)

    def test_label_range_enforced(self):
        with pytest.raises(ValueError, match="labels outside"):
            data.LabeledSet(np.zeros((2, 2)), np.array([0, 3]), 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, value):
        x = np.zeros((2, 2))
        x[1, 0] = value
        with pytest.raises(ValueError, match="non-finite feature"):
            data.LabeledSet(x, np.array([0, 1]), 2)

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ValueError, match="labels must be integers"):
            data.LabeledSet(np.zeros((2, 2)), np.array([0.0, 1.0]), 2)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="at least one example"):
            data.LabeledSet(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2)

    def test_read_only_after_construction(self):
        ds = data.synth_blobs(2, 2, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_keeps_a_read_only_array_it_can_own_and_copies_any_other(self):
        x, y = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]), np.array([0, 1, 0])
        writable = data.LabeledSet(x, y, 2)
        view = x[:]
        view.setflags(write=False)  # read-only, but x can still change it
        x.setflags(write=False)
        y.setflags(write=False)
        owned = data.LabeledSet(x, y, 2)
        assert np.shares_memory(owned.features, x) and np.shares_memory(owned.labels, y)
        for ds in (writable, data.LabeledSet(view, y, 2)):
            assert not np.shares_memory(ds.features, x)
        x.setflags(write=True)
        x[0, 0] = 99.0
        assert writable.features[0, 0] == 0.0

    def test_datasets_are_built_without_a_feature_copy(self, tmp_path):
        ds = data.synth_blobs(5, 2, 3, 1.0, seed=0)
        p = tmp_path / "d.csv"
        write_dataset_csv(ds, p)
        for built in (ds, data.load_csv(p)):
            rewrapped = data.LabeledSet(built.features, built.labels, 4)  # as load_datasets does
            assert np.shares_memory(built.features, rewrapped.features)

    def test_subset_rows_in_index_order_read_only_int64(self):
        ds = data.LabeledSet(np.arange(10.0).reshape(5, 2),
                             np.array([1, 0, 1, 0, 1], dtype=np.int32), 2)
        idx = np.array([4, 0, 4, 2])
        sub = ds.subset(idx)
        assert np.array_equal(sub.features, ds.features[idx])
        assert np.array_equal(sub.labels, ds.labels[idx])
        assert sub.features.dtype == np.float64 and sub.labels.dtype == np.int64
        assert sub.num_classes == 2
        for a in (sub.features, sub.labels, ds.subset(slice(1, 3)).features):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_subset_rejects_empty_or_scalar_selection(self):
        ds = data.synth_blobs(2, 2, 2, 1.0, seed=0)
        with pytest.raises(ValueError, match="at least one"):
            ds.subset(np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="misaligned"):
            ds.subset(0)
