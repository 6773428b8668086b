import numpy as np
import pytest

from advlab import data


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

    def test_save_load_round_trip_exact(self, tmp_path):
        ds = data.synth_blobs(7, 3, 5, 1.3, seed=2)
        p = tmp_path / "r.csv"
        data.save_csv(ds, p)
        back = data.load_csv(p)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)


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

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            data.synth_blobs(0, 2, 2, 1.0, seed=0)


class TestBatchSchedule:
    def test_exhaustive_batch_is_permutation(self):
        ds = data.synth_blobs(5, 2, 3, 1.0, seed=3)
        sched = data.BatchSchedule(seed=4, batch_size=len(ds))
        batch = data.next_batch(ds, sched, 1)
        assert sorted(sched.indices(1, len(ds)).tolist()) == list(range(len(ds)))
        assert np.array_equal(np.sort(batch.labels), np.sort(ds.labels))

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

    def test_batch_too_large_rejected(self):
        ds = data.synth_blobs(2, 2, 2, 1.0, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            data.next_batch(ds, data.BatchSchedule(seed=0, batch_size=5), 1)

    def test_iteration_starts_at_one(self):
        with pytest.raises(ValueError, match="starts at 1"):
            data.BatchSchedule(seed=0, batch_size=1).indices(0, 10)

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

    def test_split_deterministic(self):
        ds = data.synth_blobs(10, 2, 3, 1.0, seed=5)
        a, _ = data.split(ds, 8, seed=42)
        b, _ = data.split(ds, 8, seed=42)
        assert np.array_equal(a.features, b.features)

    def test_bad_n_train(self):
        ds = data.synth_blobs(5, 2, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            data.split(ds, len(ds), seed=0)


class TestLabeledSetInvariants:
    def test_misaligned_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            data.LabeledSet(np.zeros((3, 2)), np.zeros(2, dtype=int), 1)

    def test_label_range_enforced(self):
        with pytest.raises(ValueError, match="labels outside"):
            data.LabeledSet(np.zeros((2, 2)), np.array([0, 3]), 2)

    def test_read_only_after_construction(self):
        ds = data.synth_blobs(2, 2, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

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
