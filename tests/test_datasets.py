import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaksgd import datasets
from weaksgd.datasets import (
    LabeledDataset,
    ParseError,
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
from weaksgd.kernel import CHUNK_ROWS
from weaksgd.oracle import QueryOracle


def libsvm_outcome(parse, text):
    """What a parser makes of ``text``: the dataset's bits, or its error."""
    try:
        ds = parse(text)
    except ParseError as err:
        return "error", str(err), err.line
    return (ds.features.shape, ds.features.tobytes(), ds.targets.tolist(), ds.n_classes,
            [v.hex() for v in ds.extra["label_values"]])


def per_token(text):
    return datasets._parse_libsvm_loop(datasets._iter_lines(text))


def in_bulk(monkeypatch, text):
    """What :func:`parse_libsvm` makes of ``text`` with the per-token loop
    barred: it fails the test if a block falls back to it."""
    def no_loop(lines, first):
        raise AssertionError(f"the block from line {first} fell back to the loop")

    with monkeypatch.context() as m:
        m.setattr(datasets, "_read_libsvm_loop", no_loop)
        return libsvm_outcome(parse_libsvm, text)


def loop_blocks(monkeypatch):
    """The first line of each block the per-token loop reads, as it reads them."""
    firsts, loop = [], datasets._read_libsvm_loop
    monkeypatch.setattr(datasets, "_read_libsvm_loop",
                        lambda lines, first: firsts.append(first) or loop(lines, first))
    return firsts


# pieces the bulk reader must treat exactly as the per-token loop does
ODD_LABELS = ["-1", "0", "-0.0", "2.5", "1e1", "+3", "1_0", "nan", "inf", "x", "\u0663",
              "1:2", "0x1p3", "."]
ODD_TOKENS = ["1:2:3", "3:", ":4", ":", "x:1", "1:x", "0:1", "+3:1", "-3:1", "3_0:1", "1:1_0",
              "\u0663:1", "1:\u0663", "\uff15:2", "2:nan", "2:inf", "2:-inf", "2:1e400",
              "2:0x1p3", "2:.5", "2:5.", "2:-0.0", "2:+1e-3", "2:1e", "2:e5", "5", "00003:1",
              "0" * 20 + "7:1", f"{2**62}:1", f"{10**20}:1", f"{2**64 + 5}:1", "9" * 19 + ":1",
              "2:1:", "2::1", "2:p", "2:_1"]
SEPARATORS = [" ", " ", " ", "  ", "\t", " \t ", "\xa0", "\u3000", "\x1f"]


@st.composite
def libsvm_texts(draw):
    """Well-formed lines with varied whitespace and line ends, blank and
    label-only lines, and mostly one adversarial piece: a label, a token, or
    indices out of order."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["line"] * 6 + ["blank", "spaces", "label-only"]))
        if kind in ("blank", "spaces"):
            rows.append(("" if kind == "blank" else draw(st.sampled_from(SEPARATORS)), None))
            continue
        idx = sorted(set(draw(st.lists(st.integers(1, 40), max_size=6))))
        tokens = [f"{i}:{draw(st.floats(-1e3, 1e3))!r}" for i in idx] if kind == "line" else []
        rows.append((draw(st.sampled_from(["1", "2", "3", "-1", "0.5", "1e1"])), tokens))
    lines = [r for r in rows if r[1] is not None]
    odd = draw(st.sampled_from(["none", "label", "token", "token", "alone", "order"]))
    if lines and odd != "none":
        label, tokens = draw(st.sampled_from(lines))
        if odd == "label":
            rows[rows.index((label, tokens))] = (draw(st.sampled_from(ODD_LABELS)), tokens)
        elif odd == "alone":  # the line's only token, perhaps its block's only one
            tokens[:] = [draw(st.sampled_from(ODD_TOKENS))]
        elif tokens and odd == "token":
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(ODD_TOKENS))
        elif tokens:
            tokens.insert(draw(st.integers(0, len(tokens))),
                          draw(st.sampled_from(tokens)))  # a repeated index, maybe decreasing
    text = []
    for label, tokens in rows:
        if tokens is None:
            text.append(label)
            continue
        seps = [draw(st.sampled_from(SEPARATORS)) for _ in range(len(tokens) + 2)]
        line = seps[0] * draw(st.integers(0, 1)) + label
        line += "".join(sep + tok for sep, tok in zip(seps[1:], tokens))
        text.append(line + seps[-1] * draw(st.integers(0, 1)))
    return "".join(ln + draw(st.sampled_from(["\n", "\r\n", "\r"])) for ln in text)


def benchmark_shaped_file(tmp_path):
    """A libsvm file shaped like the benchmark's: 6000 rows, 20 features of
    which 15 are 80% zeros, 3 Gaussian classes, values written as
    repr(float). Returns its dense features and its path."""
    rng = np.random.default_rng(1)
    rows, features, classes = 6000, 20, 3
    y = rng.integers(0, classes, rows)
    X = rng.standard_normal((rows, features))
    X[np.arange(rows), y] += 2.0
    X[:, classes + 2:] *= rng.random((rows, features - classes - 2)) < 0.2
    path = tmp_path / "data.libsvm"
    with open(path, "w", encoding="utf-8") as fh:
        for r in range(rows):
            fh.write(" ".join([str(y[r] + 1)] + [f"{j + 1}:{float(X[r, j])!r}"
                                                  for j in np.flatnonzero(X[r])]) + "\n")
    return X, path


def traced_parse(source):
    """``parse_libsvm(source)`` and the peak of its traced allocations."""
    tracemalloc.start()
    try:
        ds = parse_libsvm(source)
        return ds, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        with pytest.raises(ParseError, match="feature index 0 must be >= 1") as err:
            parse_libsvm("1 1:1\n2 0:1\n")
        assert err.value.line == 2

    def test_malformed_token(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("1 1:0.5\n2 oops\n")
        assert err.value.line == 2
        with pytest.raises(ParseError, match="bad feature token '1:x'") as err:
            parse_libsvm("1 1:0.5\n\n2 1:x\n")
        assert err.value.line == 3
        with pytest.raises(ParseError, match="bad label 'x'") as err:
            parse_libsvm("x 1:0.5\n")
        assert err.value.line == 1
        # an index past int64, and one whose dense matrix cannot be allocated,
        # name their line, not a later one with a smaller index
        with pytest.raises(ParseError, match="feature index 100000000000000000000 does not "
                                             "fit in 64 bits") as err:
            parse_libsvm("1 1:0.5\n2 100000000000000000000:1\n3 2:1\n")
        assert err.value.line == 2
        for idx in (10**15, 2**62):  # past any address space, and past numpy's size limit
            with pytest.raises(ParseError, match=f"feature index {idx} needs a dense 3 x "
                                                 f"{idx} array") as err:
                parse_libsvm(f"1 1:0.5\n2 {idx}:1\n3 2:1\n")
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
        ds = LabeledDataset(X, y, n_classes=3)
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
        ds = LabeledDataset(X, y, n_classes=len(values),
                            extra={"label_values": [float(v) for v in values]})
        back = parse_libsvm(serialize_libsvm(ds))
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.targets.tolist() == ds.targets.tolist()
        assert back.n_classes == ds.n_classes
        assert back.extra["label_values"] == ds.extra["label_values"]

    @settings(max_examples=400, deadline=None)
    @given(text=libsvm_texts())
    def test_bulk_reader_matches_the_per_token_loop(self, text):
        assert libsvm_outcome(parse_libsvm, text) == libsvm_outcome(per_token, text)

    def test_bulk_reader_vouches_for_plain_files(self, fixtures_dir, monkeypatch):
        # tabs, runs of spaces, label-only and blank lines stay on the bulk path
        text = (fixtures_dir / "blobs3.libsvm").read_text()
        text = text.replace(" ", "\t", 5).replace(" ", "   ", 5) + "\n2\n  \n3 1:1\n"
        assert in_bulk(monkeypatch, text) == libsvm_outcome(per_token, text)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_block_edges(self, extra, monkeypatch):
        rng = np.random.default_rng(extra + 7)
        n = datasets._BLOCK_LINES + extra
        lines = [f"{rng.integers(1, 4)} " + " ".join(
            f"{j}:{rng.standard_normal()!r}" for j in sorted(rng.choice(30, 5, replace=False) + 1))
            for _ in range(n)]
        text = "\n".join(lines) + "\n"
        assert in_bulk(monkeypatch, text) == libsvm_outcome(per_token, text)
        # the largest index on the last line: its line goes into the dense-size error
        last = text + f"1 {2**62}:1\n"
        want = libsvm_outcome(per_token, last)
        assert want[0] == "error" and want[2] == n + 1
        assert libsvm_outcome(parse_libsvm, last) == want

    @pytest.mark.parametrize("piece", [("label", p) for p in ODD_LABELS]
                             + [("token", p) for p in ODD_TOKENS + ["2:1 1:1"]])
    def test_each_odd_piece_in_the_second_block(self, piece):
        kind, odd = piece
        lines = ["1 1:0.5 3:2"] * (datasets._BLOCK_LINES + 40)
        lines[datasets._BLOCK_LINES + 9] = f"{odd} 1:1" if kind == "label" else f"2 1:1 {odd}"
        lines[datasets._BLOCK_LINES + 30] = "2 1:x"  # a later error is not the one reported
        text = "\n".join(lines)
        assert libsvm_outcome(parse_libsvm, text) == libsvm_outcome(per_token, text)

    @pytest.mark.parametrize("text", [
        "1 5\n", "1\n2 oops\n", "\n1\n\n2  x \n",
        # a block with no ":" but one bare token, then a block that parses
        "\n".join(["1", ""] * 127 + ["2 oops", "3", "1 1:1"]) + "\n",
    ], ids=["one-line", "after-label-only", "after-blank-lines", "first-of-two-blocks"])
    def test_bare_token_without_any_colon_in_its_block(self, text):
        want = libsvm_outcome(per_token, text)
        assert want[0] == "error" and "expected idx:val" in want[1]
        assert libsvm_outcome(parse_libsvm, text) == want

    # each too large for numpy to allocate its dense row, whatever the memory
    @pytest.mark.parametrize("idx", [2**62, 2**63 - 1, 2**63, 10**20, 2**64 + 5])
    def test_large_index_alone(self, idx):
        # numpy reads an index past int64 as 2**63 - 1; the error must still
        # say so when the index's column does not fit in int64
        text = f"1 1:0.5 {idx}:1\n"
        want = libsvm_outcome(per_token, text)
        assert want[0] == "error"
        assert ("does not fit in 64 bits" in want[1]) == (idx - 1 >= 2**63)
        assert libsvm_outcome(parse_libsvm, text) == want

    def test_line_of_the_largest_index(self, monkeypatch):
        # blank and label-only lines before it, and the largest index twice:
        # the dense-size error names the first line that holds it
        lines = ["1 1:0.5 3:2"] * (datasets._BLOCK_LINES + 40)
        n = datasets._BLOCK_LINES
        lines[n + 3], lines[n + 5], lines[n + 6] = "", "   ", "2"
        lines[n + 9] = lines[n + 20] = f"2 1:1 {2**40}:1"
        assert datasets._read_libsvm_block(lines[:n], 1)[4:] == (3, 1)
        bulk = datasets._read_libsvm_block(lines[n:], n + 1)
        assert bulk is not None and bulk[4:] == (2**40, n + 10)
        text = "\n".join(lines)
        want = libsvm_outcome(per_token, text)
        assert want[0] == "error" and want[2] == n + 10
        assert in_bulk(monkeypatch, text) == want
        # one past the largest index the bulk reader takes goes to the loop
        lines[n + 30] = f"2 {2**40 + 1}:1"
        assert datasets._read_libsvm_block(lines[n:], n + 1) is None

    def test_peak_memory(self, tmp_path):
        X, path = benchmark_shaped_file(tmp_path)
        with open(path, "r", encoding="utf-8") as fh:  # as the run command opens it
            ds, peak = traced_parse(fh)
        assert np.array_equal(ds.features, X)
        # the dense matrix is 0.96 MB and the numeric buffers 0.86 MB; the
        # parse read 2.7 MB when it also held the text's lines (1.4 MB)
        assert peak <= 2.4e6

    def test_peak_memory_of_a_str(self, tmp_path):
        # the same text as a str is read in place: a parse that copied it into
        # a StringIO (4 bytes a character) peaked at 5.6 MB against 2.0 MB
        X, path = benchmark_shaped_file(tmp_path)
        with open(path, "r", encoding="utf-8") as fh:
            from_file, file_peak = traced_parse(fh)
        text = path.read_text(encoding="utf-8")
        assert len(text) > 1e6
        ds, peak = traced_parse(text)
        assert ds.features.tobytes() == from_file.features.tobytes()
        assert np.array_equal(ds.features, X)
        assert peak <= file_peak + 0.25e6

    def test_peak_memory_of_narrow_lines(self, tmp_path):
        # 50000 lines of one feature each: the text (1.2 MB) is larger than its
        # dense matrix (0.4 MB). The parse holds 32 B of numeric buffers per
        # line and, at the end, np.unique's temporaries: 3.7 MB in all. A parse
        # that also held every line as a str (72 B each here) read 5.8 MB.
        rows = 50_000
        x = np.random.default_rng(2).random(rows)
        path = tmp_path / "narrow.libsvm"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{r % 3 + 1} 1:{float(x[r])!r}\n" for r in range(rows))
        with open(path, "r", encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                ds = parse_libsvm(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert ds.features[:, 0].tobytes() == x.tobytes()
        assert peak <= 4.4e6

    def test_streamed_from_an_open_file(self, tmp_path, monkeypatch):
        # four blocks and a part: block 2 holds a valid line that the bulk
        # reader leaves to the loop; then block 3 holds the first error and
        # block 4 a later one
        n = datasets._BLOCK_LINES
        rng = np.random.default_rng(5)
        lines = [f"{rng.integers(1, 4)} 1:{rng.standard_normal()!r} 7:{rng.standard_normal()!r}"
                 for _ in range(4 * n + 50)]
        lines[n + 20] = "2 +3:1.5 8:2"  # int() reads "+3"; the bulk reader wants plain digits
        assert datasets._read_libsvm_block(lines[n:2 * n], n + 1) is None
        valid = "\n".join(lines) + "\n"
        lines[2 * n + 40], lines[3 * n + 5] = "1 1:0.5 7:x", "x 1:1"
        invalid = "\n".join(lines) + "\n"
        wants = [libsvm_outcome(per_token, text) for text in (valid, invalid)]
        assert wants[0][0] == (4 * n + 50, 8)
        assert wants[1] == ("error", f"line {2 * n + 41}: bad feature token '7:x'", 2 * n + 41)
        path = tmp_path / "data.libsvm"
        for text, want, blocks in zip((valid, invalid), wants, ([n + 1], [n + 1, 2 * n + 1])):
            path.write_text(text, encoding="utf-8")
            firsts = loop_blocks(monkeypatch)
            with open(path, "r", encoding="utf-8") as fh:
                assert libsvm_outcome(parse_libsvm, fh) == want
            assert firsts == blocks  # the loop read those blocks alone
            monkeypatch.undo()

    def test_undecodable_byte_after_a_bad_line(self, tmp_path):
        # the stream reads the bad line's block before it decodes the byte, 16 kB on
        lines = ["1 1:0.5"] * (8 * datasets._BLOCK_LINES)
        lines[3] = "2 1:x"
        text = "\n".join(lines).encode("utf-8") + b"\n"
        path = tmp_path / "data.libsvm"
        path.write_bytes(text + b"1 1:\xff\n")
        with open(path, "r", encoding="utf-8") as fh:
            with pytest.raises(ParseError, match="bad feature token '1:x'") as err:
                parse_libsvm(fh)
        assert err.value.line == 4
        # a byte before it is reported as undecodable
        path.write_bytes(b"1 1:\xff\n" + text)
        with open(path, "r", encoding="utf-8") as fh:
            with pytest.raises(UnicodeDecodeError):
                parse_libsvm(fh)


    def test_fixture_parses(self, fixtures_dir):
        with open(fixtures_dir / "blobs3.libsvm") as fh:
            ds = parse_libsvm(fh)
        assert ds.n == 200
        assert ds.n_classes == 3
        assert ds.d == 2
        assert ds.extra["label_values"] == [1.0, 2.0, 3.0]
        assert ds.targets[:12].tolist() == [1, 2, 3, 1, 3, 3, 3, 3, 1, 2, 3, 2]
        raw = [float(line.split()[0]) for line in (fixtures_dir / "blobs3.libsvm").open()
               if line.strip()]
        assert [ds.extra["label_values"][c - 1] for c in ds.targets] == raw


# the characters str.splitlines() breaks at, besides the three a text-mode
# file breaks at
OTHER_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineBreaks:
    """A str and a file opened as the run command opens it split into the
    same lines: at \\n, \\r\\n and \\r only."""

    @staticmethod
    def both(parse, text, tmp_path):
        path = tmp_path / "input.txt"
        path.write_bytes(text.encode("utf-8"))
        outcomes = []
        for source in (text, None):
            try:
                if source is None:
                    with open(path, "r", encoding="utf-8") as fh:
                        outcomes.append(parse(fh))
                else:
                    outcomes.append(parse(source))
            except ParseError as err:
                outcomes.append(("error", str(err), err.line))
        return outcomes

    @pytest.mark.parametrize("brk", OTHER_BREAKS + ["\r", "\r\n"])
    def test_libsvm(self, brk, tmp_path):
        text = f"1 1:2.0{brk} 2:3.0\n2 1:1.0\r\n3{brk}\r1 2:4{brk}\n"
        from_str, from_file = self.both(lambda src: libsvm_outcome(parse_libsvm, src),
                                        text, tmp_path)
        assert from_str == from_file

    @pytest.mark.parametrize("brk", OTHER_BREAKS + ["\r", "\r\n"])
    def test_csv(self, brk, tmp_path):
        text = f"a,b\n1,2{brk}\r\n3,4\r5{brk},6\n"

        def parse(src):
            ds = parse_csv_regression(src, ["b"])
            return ds.features.tolist(), ds.targets.tolist(), ds.extra["dropped_rows"]

        from_str, from_file = self.both(parse, text, tmp_path)
        assert from_str == from_file

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet=["a", " ", "\n", "\r", *OTHER_BREAKS]))
    def test_str_lines_are_a_text_files_lines(self, text):
        # a str is split in place; a StringIO splits it as a text-mode file does
        want = [ln.rstrip("\n") for ln in io.StringIO(text, newline=None)]
        assert list(datasets._iter_lines(text)) == want

    def test_form_feed_is_not_a_line_break(self):
        ds = parse_libsvm("1 1:2.0\x0c 2:3.0\n2 1:1.0\n")
        assert ds.features.tolist() == [[2.0, 3.0], [1.0, 0.0]]


class TestStandardize:
    def test_two_point_column(self):
        ds = LabeledDataset(np.array([[0.0], [2.0]]), np.zeros(2))
        out, info = standardize(ds)
        assert np.allclose(out.features[:, 0], [-1.0, 1.0], atol=1e-15)
        assert not info.constant_columns[0]

    def test_constant_column_flagged_and_unchanged(self):
        ds = LabeledDataset(np.array([[5.0, 1.0], [5.0, 3.0]]), np.zeros(2))
        out, info = standardize(ds)
        assert np.allclose(out.features[:, 0], [5.0, 5.0], atol=0)
        assert info.constant_columns.tolist() == [True, False]

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        ds = LabeledDataset(rng.standard_normal((50, 3)) * 4 + 2, np.zeros(50))
        once, _ = standardize(ds)
        twice, _ = standardize(once)
        assert np.abs(twice.features - once.features).max() < 1e-12

    def test_moments(self):
        rng = np.random.default_rng(2)
        ds = LabeledDataset(rng.standard_normal((200, 4)) * 3 - 1, np.zeros(200))
        out, _ = standardize(ds)
        assert np.abs(out.features.mean(axis=0)).max() < 1e-10
        assert np.abs(out.features.var(axis=0) - 1.0).max() < 1e-8

    def test_apply_to_held_out_rows(self):
        rng = np.random.default_rng(3)
        train = LabeledDataset(rng.standard_normal((60, 2)) + 5, np.zeros(60))
        test = LabeledDataset(rng.standard_normal((20, 2)) + 5, np.zeros(20))
        _, info = standardize(train)
        out = apply_standardize(test, info)
        assert np.allclose(out.features, (test.features - info.mean) / info.scale, atol=0)

    def test_needs_two_rows(self):
        ds = LabeledDataset(np.ones((1, 2)), np.zeros(1))
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
        with pytest.raises(ValueError, match="output_dim must be >= 1"):
            gen_harmonic_regression(64, 0, np.random.default_rng(7))


def whole_array_anchor_sample(n, n_classes, band_halfwidth, rng):
    """The anchored sample's inputs and labels as one draw for all n: the
    reference for the generator's blocks."""
    xs = np.empty(0)
    while xs.size < n:
        cand = rng.random(2 * (n - xs.size) + 8)
        cand = cand[anchor_support_mask(cand, band_halfwidth)]
        xs = np.concatenate([xs, cand])
    xs = xs[:n]
    cum = np.cumsum(anchor_conditional(xs, n_classes), axis=1)
    draws = rng.random(n)
    return xs, (draws[:, None] >= cum).sum(axis=1) + 1


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

    def test_generator_evaluates_the_law_once_per_block(self, monkeypatch):
        calls = []
        law = datasets.anchor_conditional
        monkeypatch.setattr(datasets, "anchor_conditional",
                            lambda x, m: calls.append(np.size(x)) or law(x, m))
        gen_anchor_classification(2 * CHUNK_ROWS + 1, 4, 0.05, np.random.default_rng(3))
        assert calls == [CHUNK_ROWS, CHUNK_ROWS, 1]

    @pytest.mark.parametrize("classes", [3, 10])
    @pytest.mark.parametrize("n", [1, 511, 512, 513, 1537])
    def test_blocks_draw_the_labels_of_one_whole_draw(self, n, classes):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        ds = gen_anchor_classification(n, classes, 0.05, rng)
        xs, y = whole_array_anchor_sample(n, classes, 0.05, ref)
        assert ds.features[:, 0].tobytes() == xs.tobytes()
        assert ds.targets.dtype == y.dtype and ds.targets.tobytes() == y.tobytes()
        assert rng.random().hex() == ref.random().hex()  # the generator's state

    def test_peak_memory_does_not_grow_with_the_classes(self):
        # one block's law at 30 classes is 0.12 MB; the law of all 2^14
        # samples, its cumulative sum and the comparison were 10 MiB more
        # than at 3 classes
        def peak(classes):
            rng = np.random.default_rng(0)
            tracemalloc.start()
            try:
                gen_anchor_classification(2**14, classes, 0.05, rng)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(30) - peak(3) <= 2**20

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
        with pytest.raises(ValueError, match="n must be >= 1"):
            gen_anchor_classification(0, 3, 0.05, np.random.default_rng(0))

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

    @pytest.mark.parametrize("targets,match", [
        ([], "no column"),
        (["b", "b"], "more than once"),
        (["a", "b"], "no feature"),
    ], ids=["empty", "repeated", "every-column"])
    def test_bad_target_list_is_a_value_error(self, targets, match):
        with pytest.raises(ValueError, match=match) as info:
            parse_csv_regression("a,b\n1,2\n", targets)
        assert not isinstance(info.value, ParseError)

    def test_no_usable_rows(self):
        with pytest.raises(ValueError):
            parse_csv_regression("a,b\n,2\n,3\n", ["b"])
        for text in ("", " \n1,2\n"):
            with pytest.raises(ParseError, match="missing header row") as err:
                parse_csv_regression(text, ["b"])
            assert err.value.line == 1

    def test_multi_target(self):
        ds = parse_csv_regression("a,b,c\n1,2,3\n4,5,6\n", ["b", "c"])
        assert ds.output_dim == 2
        assert ds.features.tolist() == [[1.0], [4.0]]  # column a

    def test_fixture_parses(self, fixtures_dir):
        with open(fixtures_dir / "weather.csv") as fh:
            ds = parse_csv_regression(fh, ["apparent"])
        assert ds.extra["dropped_rows"] == 2
        assert ds.n == 20
        assert ds.d == 3


class TestSplit:
    def make(self, n=30):
        rng = np.random.default_rng(11)
        return LabeledDataset(rng.standard_normal((n, 2)), rng.standard_normal(n))

    def test_sizes(self):
        ds = self.make(3)
        train, test = split(ds, 2.0 / 3.0, seed=0)
        assert train.n == 2 and test.n == 1

    def test_partition(self):
        ds = self.make(30)
        train, test = split(ds, 0.5, seed=1)
        merged = np.vstack([train.features, test.features])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, ds.features))

    def test_deterministic_per_seed(self):
        ds = self.make(30)
        a, _ = split(ds, 0.5, seed=2)
        b, _ = split(ds, 0.5, seed=2)
        assert a.features.tobytes() == b.features.tobytes()

    def test_seeds_differ(self):
        ds = self.make(100)
        a, _ = split(ds, 0.5, seed=3)
        b, _ = split(ds, 0.5, seed=4)
        assert a.features.tobytes() != b.features.tobytes()

    def test_fraction_validated(self):
        for fraction in (0.0, 1.0):
            with pytest.raises(ValueError, match="strictly between 0 and 1"):
                split(self.make(), fraction, seed=0)


# every entry point that takes class codes, each with two rows of inputs
CLASS_ENTRY_POINTS = {
    "LabeledDataset": lambda classes, m: LabeledDataset(np.ones((2, 1)), classes, n_classes=m),
    "for_classification": lambda classes, m: QueryOracle.for_classification(classes, m, 2),
}


@pytest.mark.parametrize("classes,n_classes,error,message", [
    ([[1, 2]], 2, ValueError, "classes must be a nonempty 1-D array"),
    ([], 2, ValueError, "classes must be a nonempty 1-D array"),
    ([1, 1], 0, ValueError, "n_classes must be >= 1, got 0"),
    ([1, 1], -1, ValueError, "n_classes must be >= 1, got -1"),
    ([0, 1], 2, ValueError, "class indices must lie in 1..2"),
    ([1, 3], 2, ValueError, "class indices must lie in 1..2"),
    ([1.9, 2.5], 3, TypeError, "class codes must be integers, got dtype float64"),
    ([True, True], 3, TypeError, "class codes must be integers, got dtype bool"),
], ids=["2-D", "empty", "no-class", "negative-count", "code-0", "code-above", "float-codes",
        "bool-codes"])
@pytest.mark.parametrize("entry", sorted(CLASS_ENTRY_POINTS))
def test_every_entry_point_refuses_bad_class_codes_with_the_owner_message(
        entry, classes, n_classes, error, message):
    with pytest.raises(error, match=re.escape(message)):
        CLASS_ENTRY_POINTS[entry](classes, n_classes)


class TestDatasetValidation:
    def test_class_range_checked(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.ones((2, 1)), [1, 4], n_classes=3)

    def test_class_count_below_one(self):
        for n_classes in (0, -1):
            with pytest.raises(ValueError, match="n_classes must be >= 1"):
                LabeledDataset(np.ones((2, 1)), [1, 1], n_classes=n_classes)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.ones((2, 1)), np.zeros(3))
        with pytest.raises(ValueError, match="class targets must be a length-n vector"):
            LabeledDataset(np.ones((2, 1)), [1, 1, 1], n_classes=3)
        for features in (np.ones((0, 1)), np.ones(3)):
            with pytest.raises(ValueError, match="features must be a nonempty"):
                LabeledDataset(features, np.zeros(len(features)))
