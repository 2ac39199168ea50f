from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dvwu import (
    Dataset,
    DataLoadError,
    InvalidArgumentError,
    LossKind,
    SynthConfig,
    evaluate,
    gen_synthetic,
    load_csv,
    norm_bound,
    split,
    standardize,
    train,
)
from dvwu.data_io import (
    SYNTH_PRESETS,
    load_dataset_from_manifest,
    load_manifest,
    max_row_norm,
    save_csv,
)


class TestDataset:
    def test_auto_ids(self, rng):
        d = Dataset(features=rng.normal(size=(6, 2)),
                    labels=np.ones(6))
        assert np.array_equal(d.ids, np.arange(6))

    def test_rejects_bad_labels(self, rng):
        with pytest.raises(InvalidArgumentError):
            Dataset(features=rng.normal(size=(3, 2)),
                    labels=np.array([1.0, 0.0, -1.0]))

    def test_rejects_duplicate_ids(self, rng):
        with pytest.raises(InvalidArgumentError):
            Dataset(features=rng.normal(size=(3, 2)),
                    labels=np.array([1.0, 1.0, -1.0]),
                    ids=np.array([5, 5, 6]))

    @pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
    def test_rejects_non_finite_features(self, bad):
        features = np.array([[0.0, 1.0], [bad, 1.0], [2.0, 3.0]])
        with pytest.raises(InvalidArgumentError, match="finite; row 1"):
            Dataset(features=features, labels=np.ones(3))

    def test_select_drop_partition(self, rng):
        d = Dataset(features=rng.normal(size=(8, 2)),
                    labels=np.where(rng.normal(size=8) > 0, 1.0, -1.0),
                    ids=np.array([3, 1, 4, 15, 9, 2, 6, 5]))
        gone = [4, 2]
        sel, rest = d.select(gone), d.drop(gone)
        assert sorted(sel.ids) == sorted(gone)
        assert set(rest.ids) | set(sel.ids) == set(d.ids)
        assert set(rest.ids) & set(sel.ids) == set()
        # row order of the source is preserved
        assert list(rest.ids) == [i for i in [3, 1, 4, 15, 9, 2, 6, 5]
                                  if i not in gone]

    def test_select_missing_id(self, rng):
        d = Dataset(features=rng.normal(size=(4, 2)),
                    labels=np.ones(4))
        with pytest.raises(InvalidArgumentError):
            d.select([99])

    def test_arrays_read_only(self, rng):
        d = Dataset(features=rng.normal(size=(4, 2)), labels=np.ones(4))
        with pytest.raises(ValueError):
            d.features[0, 0] = 7.0
        with pytest.raises(ValueError):
            d.labels[0] = -1.0


class TestSyntheticGenerator:
    def test_shapes_and_ids(self):
        cfg = SynthConfig(n=200, d_informative=4, d_redundant=3, seed=1)
        data = gen_synthetic(cfg)
        assert data.features.shape == (200, 7)
        assert set(np.unique(data.labels)) == {-1.0, 1.0}
        assert np.array_equal(data.ids, np.arange(200))

    def test_deterministic_per_seed(self):
        cfg = SynthConfig(n=100, d_informative=3, d_redundant=1, seed=5)
        d1, d2 = gen_synthetic(cfg), gen_synthetic(cfg)
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.labels, d2.labels)
        d3 = gen_synthetic(SynthConfig(n=100, d_informative=3, d_redundant=1, seed=6))
        assert not np.array_equal(d1.features, d3.features)

    def test_class_balance_without_noise(self):
        cfg = SynthConfig(n=1000, d_informative=2, positive_ratio=0.25, seed=2)
        data = gen_synthetic(cfg)
        assert int(np.sum(data.labels > 0)) == 250

    def test_noise_flips_exact_count(self):
        base = SynthConfig(n=400, d_informative=5, d_redundant=2,
                           noise_ratio=0.0, seed=9)
        noisy = SynthConfig(n=400, d_informative=5, d_redundant=2,
                            noise_ratio=0.1, seed=9)
        d0, d1 = gen_synthetic(base), gen_synthetic(noisy)
        assert np.array_equal(d0.features, d1.features)
        flipped = d0.labels != d1.labels
        assert int(flipped.sum()) == 40
        assert np.array_equal(d1.labels[flipped], -d0.labels[flipped])

    def test_four_clusters_at_cube_vertices(self):
        cfg = SynthConfig(n=402, d_informative=3, d_redundant=1,
                          positive_ratio=0.5, cube_side=20.0, seed=7)
        data = gen_synthetic(cfg)
        informative = data.features[:, :3]
        patterns = [tuple(row) for row in (informative > 0).astype(int)]
        pos = Counter(p for p, y in zip(patterns, data.labels) if y > 0)
        neg = Counter(p for p, y in zip(patterns, data.labels) if y < 0)
        assert len(pos) == 2 and len(neg) == 2
        assert not (set(pos) & set(neg))
        assert sorted(pos.values()) == [100, 101]   # (n_pos+1)//2 and n_pos//2
        assert sorted(neg.values()) == [100, 101]
        for pattern, count in (pos | neg).items():
            rows = informative[[p == pattern for p in patterns]]
            center = (2.0 * np.array(pattern) - 1.0) * 10.0
            assert np.all(np.abs(rows.mean(axis=0) - center) < 0.5)

    def test_redundant_columns_in_informative_span(self):
        cfg = SynthConfig(n=300, d_informative=6, d_redundant=4, seed=11)
        data = gen_synthetic(cfg)
        informative = data.features[:, :6]
        redundant = data.features[:, 6:]
        _, residual, _, _ = np.linalg.lstsq(informative, redundant, rcond=None)
        assert np.all(residual < 1e-18)

    def test_noise_free_data_mostly_separable(self):
        cfg = SynthConfig(n=2000, d_informative=18, d_redundant=2,
                          noise_ratio=0.0, seed=3)
        data, _ = standardize(gen_synthetic(cfg))
        data = norm_bound(data)
        model = train(data, 1e-4, LossKind.logistic())
        assert evaluate(model, data).accuracy >= 0.93

    def test_presets(self):
        assert set(SYNTH_PRESETS) == {"sy1", "sy2", "sy3", "sy4", "sy5", "sy6"}
        assert SYNTH_PRESETS["sy1"].d == 20
        assert SYNTH_PRESETS["sy5"].n == 60000
        assert SYNTH_PRESETS["sy5"].d == 40
        assert SYNTH_PRESETS["sy3"].noise_ratio == 0.25
        assert SYNTH_PRESETS["sy6"].positive_ratio == 0.25

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            SynthConfig(n=3, d_informative=2)
        with pytest.raises(InvalidArgumentError):
            SynthConfig(n=100, d_informative=1)
        with pytest.raises(InvalidArgumentError):
            SynthConfig(n=100, d_informative=2, noise_ratio=0.5)
        with pytest.raises(InvalidArgumentError):
            SynthConfig(n=100, d_informative=2, positive_ratio=1.0)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path, rng):
        data = Dataset(features=rng.normal(size=(25, 3)),
                       labels=np.where(rng.normal(size=25) > 0, 1.0, -1.0),
                       ids=rng.permutation(100)[:25])
        path = tmp_path / "data.csv"
        save_csv(data, path)
        back = load_csv(path)
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)
        assert np.array_equal(back.ids, data.ids)

    def test_custom_label_token(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,f0,outcome\n0,1.5,yes\n1,-0.5,no\n")
        data = load_csv(path, label_column="outcome", positive_token="yes")
        assert list(data.labels) == [1.0, -1.0]

    def test_missing_cells_dropped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,f0,f1,label\n0,1.0,2.0,1\n1,NA,2.0,1\n2,1.0,,0\n3,4.0,5.0,0\n")
        data = load_csv(path)
        assert data.n == 2
        assert list(data.ids) == [0, 3]

    def test_unparseable_cell_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,f0,label\n0,1.0,1\n1,abc,0\n")
        with pytest.raises(DataLoadError, match="row 1"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "1e400"])
    def test_non_finite_cell_names_file_and_row(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"id,f0,f1,label\n0,1.0,2.0,1\n1,0.5,2.0,0\n2,{cell},1.0,1\n")
        with pytest.raises(DataLoadError, match=r"d\.csv: row 2: non-finite"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,f0,f1,label\n0,1.0,2.0,1\n1,1.0,1\n")
        with pytest.raises(DataLoadError, match="row 1"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,f0\n0,1.0\n")
        with pytest.raises(DataLoadError, match="label"):
            load_csv(path)

    def test_absent_file(self, tmp_path):
        with pytest.raises(DataLoadError):
            load_csv(tmp_path / "nope.csv")

    def test_drop_columns_and_auto_ids(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("name,f0,f1,label\na,1.0,2.0,1\nb,3.0,4.0,0\n")
        data = load_csv(path, drop_columns=("name",))
        assert data.d == 2
        assert np.array_equal(data.ids, np.arange(2))


class TestManifest:
    def test_load_with_relative_path(self, tmp_path):
        (tmp_path / "d.csv").write_text("id,f0,y\n0,1.0,p\n1,2.0,n\n")
        mf = tmp_path / "data.manifest"
        mf.write_text("# toy dataset\npath = d.csv\nlabel_column = y\n"
                      "positive_token = p\n")
        data = load_dataset_from_manifest(mf)
        assert data.n == 2 and list(data.labels) == [1.0, -1.0]

    def test_manifest_parsing(self, tmp_path):
        mf = tmp_path / "m.txt"
        mf.write_text("a = 1  # trailing comment\n\n# full comment\nb=two words\n")
        assert load_manifest(mf) == {"a": "1", "b": "two words"}

    def test_missing_path_key(self, tmp_path):
        mf = tmp_path / "m.txt"
        mf.write_text("label_column = y\n")
        with pytest.raises(DataLoadError, match="path"):
            load_dataset_from_manifest(mf)

    def test_malformed_line(self, tmp_path):
        mf = tmp_path / "m.txt"
        mf.write_text("just a line\n")
        with pytest.raises(DataLoadError, match="line 1"):
            load_manifest(mf)


class TestStandardize:
    def test_zero_mean_unit_std(self, rng):
        data = Dataset(features=rng.normal(3.0, 2.5, size=(200, 4)),
                       labels=np.where(rng.normal(size=200) > 0, 1.0, -1.0))
        out, transform = standardize(data)
        assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        assert_allclose(out.features.std(axis=0), 1.0, atol=1e-12)
        assert np.array_equal(transform.apply(data).features, out.features)

    def test_constant_column_centered_only(self, rng):
        x = rng.normal(size=(50, 3))
        x[:, 1] = 4.0
        data = Dataset(features=x, labels=np.ones(50))
        out, transform = standardize(data)
        assert_allclose(out.features[:, 1], 0.0, atol=1e-12)
        assert transform.std[1] == 1.0

    def test_held_out_split_uses_training_statistics(self, rng):
        train_part = Dataset(features=rng.normal(1.0, 1.0, size=(100, 2)),
                             labels=np.ones(100))
        test_part = Dataset(features=rng.normal(5.0, 1.0, size=(100, 2)),
                            labels=np.ones(100))
        _, transform = standardize(train_part)
        mapped = transform.apply(test_part)
        # the shift between the splits survives, proving the test split was
        # not centered on its own statistics
        assert np.all(mapped.features.mean(axis=0) > 2.0)

    def test_needs_two_rows(self, rng):
        with pytest.raises(InvalidArgumentError):
            standardize(Dataset(features=np.ones((1, 2)), labels=np.ones(1)))


class TestNormBound:
    def test_caps_row_norms(self, rng):
        data = Dataset(features=rng.normal(size=(80, 5)) * 3.0,
                       labels=np.ones(80))
        out = norm_bound(data)
        assert max_row_norm(out) <= 1.0 + 1e-12

    def test_small_data_unchanged(self, rng):
        x = rng.normal(size=(10, 3)) * 0.1
        data = Dataset(features=x, labels=np.ones(10))
        out = norm_bound(data)
        assert np.array_equal(out.features, data.features)

    def test_shared_scale_across_splits(self, rng):
        train_part = Dataset(features=rng.normal(size=(50, 3)) * 2.0,
                             labels=np.ones(50))
        test_part = Dataset(features=rng.normal(size=(20, 3)) * 2.0,
                            labels=np.ones(20))
        scale = max(1.0, max_row_norm(train_part))
        mapped = norm_bound(test_part, scale=scale)
        assert np.array_equal(mapped.features, test_part.features / scale)


class TestSplit:
    def test_reference_sizes(self, rng):
        data = Dataset(features=rng.normal(size=(30000, 2)),
                       labels=np.where(rng.normal(size=30000) > 0, 1.0, -1.0))
        parts = split(data, train_fraction=0.7, seed=0, val_fraction=0.1)
        assert parts.train.n == 18900
        assert parts.validation.n == 2100
        assert parts.test.n == 9000

    def test_no_validation_split(self, rng):
        data = Dataset(features=rng.normal(size=(100, 2)), labels=np.ones(100))
        parts = split(data, train_fraction=0.7, seed=0, val_fraction=0.0)
        assert parts.validation is None
        assert parts.train.n == 70 and parts.test.n == 30

    def test_disjoint_ids_cover_everything(self, rng):
        data = Dataset(features=rng.normal(size=(200, 2)),
                       labels=np.ones(200),
                       ids=rng.permutation(1000)[:200])
        parts = split(data, seed=4)
        groups = [set(parts.train.ids), set(parts.validation.ids),
                  set(parts.test.ids)]
        assert sum(len(g) for g in groups) == 200
        assert groups[0] | groups[1] | groups[2] == set(data.ids)

    def test_deterministic_by_seed(self, rng):
        data = Dataset(features=rng.normal(size=(50, 2)), labels=np.ones(50))
        p1 = split(data, seed=9)
        p2 = split(data, seed=9)
        assert np.array_equal(p1.train.ids, p2.train.ids)
        p3 = split(data, seed=10)
        assert not np.array_equal(p1.train.ids, p3.train.ids)

    def test_validation_errors(self, rng):
        data = Dataset(features=rng.normal(size=(10, 2)), labels=np.ones(10))
        with pytest.raises(InvalidArgumentError):
            split(data, train_fraction=1.0)
        with pytest.raises(InvalidArgumentError):
            split(data, val_fraction=1.0)
        tiny = Dataset(features=np.ones((2, 1)), labels=np.ones(2))
        with pytest.raises(InvalidArgumentError):
            split(tiny, train_fraction=0.9, val_fraction=0.5)
