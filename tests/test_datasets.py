import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaksgd.datasets import (
    LabeledDataset,
    ParseError,
    SplitSpec,
    anchor_conditional,
    anchor_support_mask,
    apply_standardize,
    gen_anchor_classification,
    gen_harmonic_regression,
    gen_sin_regression,
    harmonic_target,
    parse_csv_regression,
    parse_libsvm,
    serialize_libsvm,
    sin_target,
    split,
    standardize,
)


class TestParseLibsvm:
    def test_single_row(self):
        ds = parse_libsvm("3 1:0.5 4:-1.2\n")
        assert ds.features.shape == (1, 4)
        assert np.allclose(ds.features[0], [0.5, 0.0, 0.0, -1.2], atol=0)
        assert ds.targets.tolist() == [1]
        assert ds.extra["label_values"] == [3.0]

    def test_two_rows_label_order(self):
        ds = parse_libsvm("1 2:1\n2 1:1\n")
        assert np.allclose(ds.features, [[0.0, 1.0], [1.0, 0.0]], atol=0)
        assert ds.targets.tolist() == [1, 2]
        assert ds.n_classes == 2

    def test_labels_map_in_numeric_order(self):
        ds = parse_libsvm("7 1:1\n-1 1:2\n3 1:3\n")
        assert ds.extra["label_values"] == [-1.0, 3.0, 7.0]
        assert ds.targets.tolist() == [3, 1, 2]

    def test_non_increasing_indices_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("1 3:1 2:1\n")
        assert err.value.line == 1

    def test_malformed_token(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("1 1:0.5\n2 oops\n")
        assert err.value.line == 2

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_libsvm("\n\n")

    def test_blank_lines_skipped(self):
        ds = parse_libsvm("1 1:1\n\n2 2:1\n")
        assert ds.n == 2

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        X = np.round(rng.standard_normal((10, 3)), 6)
        X[X == 0.0] = 0.25
        X[:, 2] = np.abs(X[:, 2]) + 0.1  # keep the last column nonzero to pin d
        y = rng.integers(1, 4, 10)
        ds = LabeledDataset(X, y, "classification", n_classes=3, source="synthetic")
        back = parse_libsvm(serialize_libsvm(ds))
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.targets.tolist() == ds.targets.tolist()

    @pytest.mark.parametrize("line", ["1 1:inf", "1 1:0.5 2:-inf", "1 1:nan",
                                      "inf 1:0.5", "nan 1:0.5"])
    def test_non_finite_value_rejected_with_line(self, line):
        with pytest.raises(ParseError, match="non-finite") as err:
            parse_libsvm(f"1 1:0.5\n{line}\n")
        assert err.value.line == 2

    @settings(max_examples=60, deadline=None)
    @given(raw_labels=st.lists(st.integers(-3, 3), min_size=1, max_size=8),
           d=st.integers(1, 4), data=st.data())
    def test_serialize_then_parse_is_identity(self, raw_labels, d, data):
        cell = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: v + 0.0)
        X = np.array(data.draw(st.lists(st.lists(cell, min_size=d, max_size=d),
                                        min_size=len(raw_labels), max_size=len(raw_labels))))
        if not X[:, -1].any():
            X[0, -1] = 1.0  # the parser reads d off the largest index present
        values = sorted(set(raw_labels))
        y = [values.index(v) + 1 for v in raw_labels]
        ds = LabeledDataset(X, y, "classification", n_classes=len(values),
                            extra={"label_values": [float(v) for v in values]})
        back = parse_libsvm(serialize_libsvm(ds))
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.targets.tolist() == ds.targets.tolist()
        assert back.n_classes == ds.n_classes
        assert back.extra["label_values"] == ds.extra["label_values"]

    def test_fixture_parses(self, fixtures_dir):
        with open(fixtures_dir / "blobs3.libsvm") as fh:
            ds = parse_libsvm(fh)
        assert ds.n == 200
        assert ds.n_classes == 3
        assert ds.d == 2


class TestStandardize:
    def test_two_point_column(self):
        ds = LabeledDataset(np.array([[0.0], [2.0]]), np.zeros(2), "regression")
        out, info = standardize(ds)
        assert np.allclose(out.features[:, 0], [-1.0, 1.0], atol=1e-15)
        assert not info.constant_columns[0]

    def test_constant_column_flagged_and_unchanged(self):
        ds = LabeledDataset(np.array([[5.0, 1.0], [5.0, 3.0]]), np.zeros(2), "regression")
        out, info = standardize(ds)
        assert np.allclose(out.features[:, 0], [5.0, 5.0], atol=0)
        assert info.constant_columns.tolist() == [True, False]

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        ds = LabeledDataset(rng.standard_normal((50, 3)) * 4 + 2, np.zeros(50), "regression")
        once, _ = standardize(ds)
        twice, _ = standardize(once)
        assert np.abs(twice.features - once.features).max() < 1e-12

    def test_moments(self):
        rng = np.random.default_rng(2)
        ds = LabeledDataset(rng.standard_normal((200, 4)) * 3 - 1, np.zeros(200), "regression")
        out, _ = standardize(ds)
        assert np.abs(out.features.mean(axis=0)).max() < 1e-10
        assert np.abs(out.features.var(axis=0) - 1.0).max() < 1e-8

    def test_apply_to_held_out_rows(self):
        rng = np.random.default_rng(3)
        train = LabeledDataset(rng.standard_normal((60, 2)) + 5, np.zeros(60), "regression")
        test = LabeledDataset(rng.standard_normal((20, 2)) + 5, np.zeros(20), "regression")
        _, info = standardize(train)
        out = apply_standardize(test, info)
        assert np.allclose(out.features, (test.features - info.mean) / info.scale, atol=0)

    def test_needs_two_rows(self):
        ds = LabeledDataset(np.ones((1, 2)), np.zeros(1), "regression")
        with pytest.raises(ValueError):
            standardize(ds)


class TestSinGenerator:
    def test_generator_identity(self):
        ds = gen_sin_regression(200, np.random.default_rng(4))
        assert np.abs(ds.targets[:, 0] - np.sin(2 * np.pi * ds.features[:, 0])).max() == 0.0

    def test_inputs_in_unit_interval(self):
        ds = gen_sin_regression(500, np.random.default_rng(5))
        assert ds.features.min() >= 0.0 and ds.features.max() < 1.0

    def test_seeded_determinism(self):
        a = gen_sin_regression(50, np.random.default_rng(6))
        b = gen_sin_regression(50, np.random.default_rng(6))
        assert a.features.tobytes() == b.features.tobytes()

    def test_sin_target_peak(self):
        assert sin_target(np.array([0.25]))[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_harmonic_target_shape_and_range(self):
        Y = harmonic_target(np.linspace(0, 1, 32), 4)
        assert Y.shape == (32, 4)
        assert np.abs(Y).max() <= 1.0

    def test_harmonic_generator(self):
        ds = gen_harmonic_regression(64, 3, np.random.default_rng(7))
        assert ds.targets.shape == (64, 3)
        assert np.allclose(ds.targets, harmonic_target(ds.features[:, 0], 3), atol=0)


class TestAnchorTask:
    def test_dirac_anchors(self):
        assert anchor_conditional(0.0, 5).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
        assert anchor_conditional(0.5, 5).tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]
        assert anchor_conditional(1.0, 5).tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    def test_uniform_anchors(self):
        for x in (0.25, 0.75):
            assert np.allclose(anchor_conditional(x, 4), 0.25, atol=1e-15)

    def test_interpolation_midpoint(self):
        # halfway between the Dirac at 0 and the uniform at 1/4:
        # P(Y=1) = 1/2 + 1/(2m), the others 1/(2m)
        m = 5
        p = anchor_conditional(0.125, m)
        assert p[0] == pytest.approx(0.5 + 0.5 / m, abs=1e-15)
        assert np.allclose(p[1:], 0.5 / m, atol=1e-15)

    def test_conditionals_sum_to_one(self):
        for x in np.linspace(0, 1, 33):
            assert anchor_conditional(float(x), 7).sum() == pytest.approx(1.0, abs=1e-12)

    def test_array_input_matches_pointwise_law(self):
        edges = [np.nextafter(0.25, 0.0), np.nextafter(1.0, 0.0)]
        xs = np.concatenate([np.linspace(0.0, 1.0, 97), edges])
        probs = anchor_conditional(xs, 6)
        assert probs.shape == (xs.size, 6)
        for x, row in zip(xs, probs):
            assert row.tobytes() == anchor_conditional(float(x), 6).tobytes()

    def test_array_input_errors(self):
        with pytest.raises(ValueError, match="at least 3 classes"):
            anchor_conditional(np.array([0.5]), 2)
        for bad in ([0.2, 1.5], [-0.1], [0.3, np.nan]):
            with pytest.raises(ValueError, match=r"x must lie in \[0, 1\]"):
                anchor_conditional(np.array(bad), 4)

    def test_generator_evaluates_the_law_once(self, monkeypatch):
        from weaksgd import datasets

        calls = []
        law = datasets.anchor_conditional
        monkeypatch.setattr(datasets, "anchor_conditional",
                            lambda x, m: calls.append(np.size(x)) or law(x, m))
        gen_anchor_classification(500, 4, 0.05, np.random.default_rng(3))
        assert calls == [500]

    def test_band_exclusion(self):
        ds = gen_anchor_classification(2000, 3, 0.05, np.random.default_rng(8))
        x = ds.features[:, 0]
        assert anchor_support_mask(x, 0.05).all()
        assert ds.n == 2000

    def test_zero_band_allowed(self):
        ds = gen_anchor_classification(100, 3, 0.0, np.random.default_rng(9))
        assert ds.n == 100

    def test_band_too_wide(self):
        with pytest.raises(ValueError):
            gen_anchor_classification(10, 3, 0.25, np.random.default_rng(0))

    def test_needs_three_classes(self):
        with pytest.raises(ValueError):
            gen_anchor_classification(10, 2, 0.05, np.random.default_rng(0))

    def test_empirical_conditional_near_middle_anchor(self):
        # around x = 0.5 the law concentrates on class 2
        ds = gen_anchor_classification(10**5, 3, 0.05, np.random.default_rng(10))
        x = ds.features[:, 0]
        mask = (x >= 0.45) & (x <= 0.55)
        expected = np.mean([anchor_conditional(float(v), 3)[1] for v in x[mask]])
        freq = float((ds.targets[mask] == 2).mean())
        assert freq >= 0.9 * expected


class TestCsvParser:
    def test_two_columns_one_target(self):
        ds = parse_csv_regression("a,b\n1.0,2.0\n3.0,4.0\n", ["b"])
        assert ds.d == 1 and ds.output_dim == 1
        assert np.allclose(ds.features[:, 0], [1.0, 3.0], atol=0)
        assert np.allclose(ds.targets[:, 0], [2.0, 4.0], atol=0)

    def test_missing_cell_dropped_and_counted(self):
        ds = parse_csv_regression("a,b\n1.0,2.0\n,4.0\n5.0,6.0\n", ["b"])
        assert ds.n == 2
        assert ds.extra["dropped_rows"] == 1

    def test_non_numeric_dropped(self):
        ds = parse_csv_regression("a,b\nx,2.0\n5.0,6.0\n", ["b"])
        assert ds.n == 1
        assert ds.extra["dropped_rows"] == 1

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_dropped(self, cell):
        ds = parse_csv_regression(f"a,b\n1.0,2.0\n{cell},4.0\n5.0,{cell}\n7.0,8.0\n", ["b"])
        assert ds.n == 2
        assert ds.extra["dropped_rows"] == 2
        assert np.isfinite(ds.features).all() and np.isfinite(ds.targets).all()

    def test_unknown_target_named_in_error(self):
        with pytest.raises(ValueError, match="humidity"):
            parse_csv_regression("a,b\n1,2\n", ["humidity"])

    def test_no_usable_rows(self):
        with pytest.raises(ValueError):
            parse_csv_regression("a,b\n,2\n,3\n", ["b"])

    def test_multi_target(self):
        ds = parse_csv_regression("a,b,c\n1,2,3\n4,5,6\n", ["b", "c"])
        assert ds.output_dim == 2
        assert ds.feature_names == ["a"]

    def test_fixture_parses(self, fixtures_dir):
        with open(fixtures_dir / "weather.csv") as fh:
            ds = parse_csv_regression(fh, ["apparent"])
        assert ds.extra["dropped_rows"] == 2
        assert ds.n == 20
        assert ds.d == 3


class TestSplit:
    def make(self, n=30):
        rng = np.random.default_rng(11)
        return LabeledDataset(rng.standard_normal((n, 2)), rng.standard_normal(n),
                              "regression")

    def test_sizes(self):
        ds = self.make(3)
        train, test = split(ds, SplitSpec(2.0 / 3.0, seed=0))
        assert train.n == 2 and test.n == 1

    def test_partition(self):
        ds = self.make(30)
        train, test = split(ds, SplitSpec(0.5, seed=1))
        merged = np.vstack([train.features, test.features])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, ds.features))

    def test_deterministic_per_seed(self):
        ds = self.make(30)
        a, _ = split(ds, SplitSpec(0.5, seed=2))
        b, _ = split(ds, SplitSpec(0.5, seed=2))
        assert a.features.tobytes() == b.features.tobytes()

    def test_seeds_differ(self):
        ds = self.make(100)
        a, _ = split(ds, SplitSpec(0.5, seed=3))
        b, _ = split(ds, SplitSpec(0.5, seed=4))
        assert a.features.tobytes() != b.features.tobytes()

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            SplitSpec(0.0, seed=0)
        with pytest.raises(ValueError):
            SplitSpec(1.0, seed=0)


class TestDatasetValidation:
    def test_class_range_checked(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.ones((2, 1)), [1, 4], "classification", n_classes=3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.ones((2, 1)), np.zeros(2), "ranking")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.ones((2, 1)), np.zeros(3), "regression")
