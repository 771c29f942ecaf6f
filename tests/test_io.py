"""File formats: dataset CSV reading and writing, canonical JSON."""

import csv
import io
import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from competing_weibull import io as formats
from competing_weibull.errors import ConfigError, SpecError
from competing_weibull.io import (
    atomic_write_text,
    canonical_json,
    read_dataset_csv,
    write_csv,
    write_dataset_csv,
)
from competing_weibull.model import Dataset
from conftest import traced_peak

HEADER = "time,status,x1\n"


def _error(tmp_path, body: bytes | str) -> str:
    path = tmp_path / "data.csv"
    if isinstance(body, str):
        body = body.encode("utf-8")
    path.write_bytes(body)
    with pytest.raises(ConfigError) as excinfo:
        read_dataset_csv(str(path))
    message = str(excinfo.value)
    assert message.startswith(str(path))
    return message[len(str(path)):]


def _reference_read(path: str):
    """A record-at-a-time dataset reader with the same checks and messages."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        times, status, rows = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                times.append(float(row[0]))
                event = float(row[1])
                rows.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            if event not in (0.0, 1.0):
                raise ConfigError(f"{path}:{lineno}: status must be 0 or 1, got {row[1]!r}")
            status.append(int(event))
    if not times:
        raise ConfigError(f"{path}: no data rows")
    try:
        return Dataset(np.asarray(times), np.asarray(status), np.asarray(rows)), header[2:]
    except SpecError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _outcome(read, path) -> tuple | str:
    """What ``read(path)`` returns, as lists, or its ConfigError message."""
    try:
        data, names = read(str(path))
    except ConfigError as exc:
        return str(exc)
    return names, data.times.tolist(), data.status.tolist(), data.covariates.tolist()


class TestFirstFailingRecord:
    """A file with several defects reports the first failing record; within a
    record the width is checked first, then each cell as a float (time,
    status, covariates), then the status value."""

    @pytest.mark.parametrize(
        "rows, expected",
        [
            # width, float, status on later records
            ("1,1,0\n2,1\n3,x,0\n4,2,0\n", ":3: expected 3 fields, got 2"),
            ("1,1,0\n2,1,abc\n3,1\n4,2,0\n", ":3: could not convert string to float: 'abc'"),
            ("1,1,0\n2,2,0\n3,1,abc\n4,1\n", ":3: status must be 0 or 1, got '2'"),
            ("1,1,0\n2,1,0\n3,1,0\n4,0.5,0\n5,1\n", ":5: status must be 0 or 1, got '0.5'"),
            # several defects in one record
            ("1,1,0\n2,nan,abc,4\n", ":3: expected 3 fields, got 4"),
            ("1,1,0\nt,2,abc\n", ":3: could not convert string to float: 't'"),
            ("1,1,0\n2,2,abc\n", ":3: could not convert string to float: 'abc'"),
            ("1,1,0\n2,s,abc\n", ":3: could not convert string to float: 's'"),
            ("1,nan,0\n", ":2: status must be 0 or 1, got 'nan'"),
            # blank records count as lines but are skipped
            ("1,1,0\n\n\n2,1,\n", ":5: could not convert string to float: ''"),
            ("\n1,1,0\n\n2,1\n", ":5: expected 3 fields, got 2"),
            # a quoted cell is one field; a quoted newline stays in its record
            ('1,1,"0,5"\n', ":2: could not convert string to float: '0,5'"),
            ('1,1,"0\n"\n2,1,"1"\n3,"3",0\n', ":4: status must be 0 or 1, got '3'"),
            ('1,1,0\n"2",1\n', ":3: expected 3 fields, got 2"),
        ],
    )
    def test_message_names_the_first_failing_record(self, tmp_path, rows, expected):
        assert _error(tmp_path, HEADER + rows) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(["1", "0", "2.5", "-1", "abc", "", "nan", "1e400", " 3 ", '"1,5"', '"0"']),
                max_size=5,
            ),
            max_size=8,
        )
    )
    def test_matches_a_streaming_reference_parser(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_text("time,status,x1,x2\n" + "".join(",".join(r) + "\n" for r in records))
        expected = _outcome(_reference_read, path)
        assert _outcome(read_dataset_csv, path) == expected
        # Blocks of 3 records, so that defects, blank records and the end of
        # the file fall on every position in a block.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "_CSV_CHUNK_ROWS", 3)
            assert _outcome(read_dataset_csv, path) == expected

    def test_defect_before_undecodable_bytes_is_reported_first(self, tmp_path):
        good = "1.0,1,0.5\n" * 3000
        body = (HEADER + "1.0,1\n" + good).encode("utf-8") + b"\xff\n"
        assert _error(tmp_path, body) == ":2: expected 3 fields, got 2"

    def test_undecodable_bytes_after_clean_rows(self, tmp_path):
        body = (HEADER + "1.0,1,0.5\n" * 3000).encode("utf-8") + b"\xff\n"
        # The 0xff byte is at len(HEADER) + 10 * 3000, far past the decoder's first chunk.
        assert _error(tmp_path, body) == ": not UTF-8 text (invalid start byte at byte 30015)"

    def test_field_over_the_csv_size_limit(self, tmp_path):
        huge = "1" * (csv.field_size_limit() + 1)
        assert _error(tmp_path, HEADER + "1,1,0\n\n1,1," + huge + "\n") == (
            f":4: field larger than field limit ({csv.field_size_limit()})"
        )
        assert _error(tmp_path, HEADER + "1,1\n1,1," + huge + "\n") == ":2: expected 3 fields, got 2"

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("", ": empty file"),
            ("time,x1\n1,0\n", ": header must start with 'time,status', got ['time', 'x1']"),
            ("time,status,x1,x1\n1,1,0,0\n", ": covariate column names ['x1', 'x1'] are not unique"),
            (HEADER + "\n\n", ": no data rows"),
            (HEADER + "-1,1,0\n", ": times must be strictly positive and finite"),
            (HEADER + "1,1,inf\n", ": covariate matrix must be finite (no missing values)"),
        ],
    )
    def test_file_level_errors(self, tmp_path, text, expected):
        assert _error(tmp_path, text) == expected


def _lines(count: int, **replaced: str) -> list[str]:
    """``count`` lines of a clean ``HEADER`` file; ``replaced`` maps ``L<line>``
    (1-based, the header is line 1) to that line's text."""
    lines = [HEADER] + ["1.0,1,0.5\n"] * (count - 1)
    for key, text in replaced.items():
        lines[int(key[1:]) - 1] = text
    return lines


class TestBlockBoundaries:
    """Records are read in blocks of ``_CSV_CHUNK_ROWS`` (4096): line 4096 is
    the last record of the first block (the header is line 1), 4097 the first
    of the second and 8193 the first of the third."""

    @pytest.mark.parametrize("line", [4096, 4097, 8193])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("1.0,1\n", "expected 3 fields, got 2"),
            ("1.0,1,abc\n", "could not convert string to float: 'abc'"),
            ("1.0,2,0.5\n", "status must be 0 or 1, got '2'"),
        ],
        ids=["width", "float", "status"],
    )
    def test_defect_at_a_block_edge(self, tmp_path, line, text, message):
        # A later defect of another kind, in the same block or a later one.
        later = {"L8195": "1.0,1,0.5,9\n"}
        assert formats._CSV_CHUNK_ROWS == 4096
        body = "".join(_lines(8200, **{f"L{line}": text}, **later))
        assert _error(tmp_path, body) == f":{line}: {message}"

    @pytest.mark.parametrize(
        "replaced, expected",
        [
            # blank records around the boundary, then a defect
            ({"L4095": "\n", "L4096": "\n", "L4097": "\n", "L4098": "1.0,x,0.5\n"},
             ":4098: could not convert string to float: 'x'"),
            # a record whose quoted newline puts its end on the next physical line
            ({"L4096": '1.0,1,"0.5\n"\n', "L4097": '2.0,0,"\n7"\n', "L4099": "1.0,1\n"},
             ":4099: expected 3 fields, got 2"),
            ({"L4095": "\n", "L4096": '1.0,1,"0.5\n"\n', "L4097": "\n"}, None),
            ({"L8192": "\n", "L8193": "\n"}, None),
        ],
        ids=["blank-then-defect", "quoted-newline-then-defect", "blank-and-quoted", "blank-block-start"],
    )
    def test_blank_records_and_quoted_newlines(self, tmp_path, replaced, expected):
        path = tmp_path / "data.csv"
        path.write_text("".join(_lines(8200, **replaced)))
        outcome = _outcome(read_dataset_csv, path)
        assert outcome == _outcome(_reference_read, path)
        if expected is not None:
            assert outcome == f"{path}{expected}"
        else:
            assert len(outcome[1]) == 8199 - sum(text == "\n" for text in replaced.values())

    @pytest.mark.parametrize(
        "defect, expected",
        [
            ({"L4200": "1.0,1\n"}, ":4200: expected 3 fields, got 2"),
            ({}, ": not UTF-8 text (invalid start byte at byte 70015)"),
        ],
        ids=["defect-first", "clean"],
    )
    def test_undecodable_bytes_in_the_second_block(self, tmp_path, defect, expected):
        # The 0xff byte starts line 7002, chunks of the text layer past line 4200.
        lines = _lines(7001, **defect)
        body = "".join(lines).encode("utf-8") + b"\xff\n" + "".join(lines[1:]).encode("utf-8")
        assert _error(tmp_path, body) == expected

    def test_field_over_the_csv_size_limit_in_the_second_block(self, tmp_path):
        huge = "1.0,1," + "1" * (csv.field_size_limit() + 1) + "\n"
        limit = f"field larger than field limit ({csv.field_size_limit()})"
        assert _error(tmp_path, "".join(_lines(6000, L5000=huge))) == f":5000: {limit}"
        body = "".join(_lines(6000, L4500="1.0,1,x\n", L5000=huge))
        assert _error(tmp_path, body) == ":4500: could not convert string to float: 'x'"


class TestMemory:
    """Reading and writing hold one block of records as Python objects at a
    time, so their memory grows with the float arrays, not the text.  At
    n = 20000, p = 4 (a 1.9 MB file) holding every cell's text at once
    peaks near 15 MB when reading and 6.5 MB when writing."""

    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(0)
        n = 20000
        return Dataset(rng.exponential(size=n) + 0.01, rng.integers(0, 2, n), rng.standard_normal((n, 4)))

    def test_write_peak(self, tmp_path, data):
        assert traced_peak(write_dataset_csv, str(tmp_path / "data.csv"), data) <= 3e6

    def test_read_peak(self, tmp_path, data):
        path = str(tmp_path / "data.csv")
        write_dataset_csv(path, data)
        assert traced_peak(read_dataset_csv, path) <= 6e6


# ---------------------------------------------------------------------------
# canonical_json against the standard library
# ---------------------------------------------------------------------------

_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-5, 9.999999999999999e15, 1e-4, 5e-324]
_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_SPECIAL_FLOATS),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
)
_scalars = st.one_of(
    _numbers,
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(["", "\n", "\t\"\\/", "é中\U0001f600", "\x00\x1f\x7f", "NaN", "inf"]),
)
_number_lists = st.one_of(
    st.lists(_numbers, max_size=6),
    st.lists(st.lists(_numbers, min_size=2, max_size=2), max_size=6),
    st.lists(st.lists(_numbers, max_size=3), max_size=4),
)
_json_values = st.recursive(
    st.one_of(_scalars, _number_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=6), children, max_size=5),
    ),
    max_leaves=30,
)


def _reference_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class TestCanonicalJson:
    @settings(max_examples=250, deadline=None)
    @given(_json_values)
    def test_equals_json_dumps(self, obj):
        assert canonical_json(obj) == _reference_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {},
            [[], {}, [[]], {"a": []}],
            [1.0, math.nan, math.inf, -math.inf, -0.0, 1e16, 1e-5, 10**30, -(10**30)],
            [True, False, 1, 0, 1.0],
            [None, 1.5],
            [[0.0, 0.0], [0.5, math.nan], [1.0, -math.inf]],
            [[1, 2.5], (3, 4.0)],
            [[1, 2], [3]],
            [[1, True], [2, 3]],
            {"b": [1.5, 2], "a": {"d": [[1.0, 2.0]], "c": "é\n\"x\""}},
            {1: "int key", 2.5: [1.0]},
            {"nested": {"x": {1.5: [2.0], 3: True, False: None}}},
            (1.0, 2.0),
            "中\n",
            math.nan,
            12345678901234567890,
        ],
    )
    def test_edge_cases(self, obj):
        assert canonical_json(obj) == _reference_json(obj)

    def test_float_subclass_and_int_subclass_use_the_encoder(self):
        obj = [np.float64(0.1), 2.0, True, np.float64(np.nan)]
        assert canonical_json(obj) == _reference_json(obj)
        assert canonical_json([[np.float64(1.5), 2.0]]) == _reference_json([[np.float64(1.5), 2.0]])

    def test_unserializable_value_raises_type_error(self):
        with pytest.raises(TypeError):
            canonical_json({"a": [object()]})


# ---------------------------------------------------------------------------
# Dataset CSV round trip and write_csv bytes
# ---------------------------------------------------------------------------

_BOUNDARY_FLOATS = [
    5e-324,
    2.2250738585072014e-308,
    2.225073858507201e-308,
    1e-5,
    9.999999999999999e-6,
    1.0000000000000002e-5,
    1e16,
    9999999999999998.0,
    1.0000000000000002e16,
    1.7976931348623157e308,
]
_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_BOUNDARY_FLOATS + [-x for x in _BOUNDARY_FLOATS] + [0.0, -0.0]),
)
_positive = st.one_of(
    st.floats(min_value=5e-324, allow_infinity=False),
    st.sampled_from(_BOUNDARY_FLOATS),
)


@st.composite
def _datasets(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    p = draw(st.integers(min_value=0, max_value=3))
    times = draw(st.lists(_positive, min_size=n, max_size=n))
    status = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    cells = draw(st.lists(_finite, min_size=n * p, max_size=n * p))
    covariates = np.array(cells, dtype=float).reshape(n, p)
    return Dataset(np.array(times), np.array(status), covariates)


def _bits(array):
    return np.ascontiguousarray(array, dtype=float).view(np.uint64)


def _reference_csv(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


class TestDatasetCsvRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_datasets())
    def test_bit_identical_round_trip(self, tmp_path_factory, data):
        path = str(tmp_path_factory.mktemp("csv") / "data.csv")
        names = [f"c{j}" for j in range(data.p)]
        write_dataset_csv(path, data, names)
        back, back_names = read_dataset_csv(path)
        assert back_names == names
        assert np.array_equal(_bits(back.times), _bits(data.times))
        assert np.array_equal(back.status, data.status)
        assert back.covariates.shape == data.covariates.shape
        assert np.array_equal(_bits(back.covariates), _bits(data.covariates))
        assert back.covariates.flags.c_contiguous and back.times.flags.c_contiguous
        rows = [[t, s, *x] for t, s, x in zip(
            data.times.tolist(), data.status.tolist(), data.covariates.tolist()
        )]
        with open(path, newline="") as handle:
            assert handle.read() == _reference_csv(["time", "status", *names], rows)

    def test_no_covariate_columns(self, tmp_path):
        path = str(tmp_path / "data.csv")
        write_dataset_csv(path, Dataset([1.0, 2.5], [1, 0], np.empty((2, 0))))
        with open(path) as handle:
            assert handle.read() == "time,status\n1.0,1\n2.5,0\n"
        back, names = read_dataset_csv(path)
        assert names == [] and back.covariates.shape == (2, 0)

    @staticmethod
    def _check_against_csv_writer(path, floats, ints, flags):
        header = ["a", "b,quoted", "flag"]
        write_csv(path, header, [np.array(floats, dtype=float), np.array(ints, dtype=np.int64), np.array(flags, dtype=bool)])
        rows = [[f, i, int(b)] for f, i, b in zip(floats, ints, flags)]
        with open(path, newline="") as handle:
            assert handle.read() == _reference_csv(header, rows)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=40).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(), min_size=n, max_size=n),
                st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n),
                st.lists(st.booleans(), min_size=n, max_size=n),
            )
        )
    )
    def test_write_csv_matches_csv_writer(self, tmp_path_factory, columns):
        path = str(tmp_path_factory.mktemp("csv") / "out.csv")
        self._check_against_csv_writer(path, *columns)

    @pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
    def test_write_csv_across_chunk_boundaries(self, tmp_path, n):
        rng = np.random.default_rng(n)
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        floats[:4] = [math.nan, math.inf, -0.0, 5e-324]
        self._check_against_csv_writer(
            str(tmp_path / "out.csv"),
            floats.tolist(),
            rng.integers(-(2**63), 2**63 - 1, n).tolist(),
            (rng.random(n) < 0.5).tolist(),
        )

    def test_write_csv_rejects_mismatched_columns(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "x.csv"), ["a", "b"], [np.zeros(3)])
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "x.csv"), ["a", "b"], [np.zeros(3), np.zeros(2)])

    def test_write_csv_failing_in_a_later_block_leaves_the_target(self, tmp_path):
        class Unprintable:
            def __repr__(self):
                raise RuntimeError("no repr")

        column = np.array([1.5] * 6000, dtype=object)
        column[5000] = Unprintable()
        path = tmp_path / "out.csv"
        path.write_bytes(b"old contents\n")
        with pytest.raises(RuntimeError, match="no repr"):
            write_csv(str(path), ["a"], [column])
        assert path.read_bytes() == b"old contents\n"
        assert os.listdir(tmp_path) == ["out.csv"]


class TestOutputMode:
    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
    )
    def test_outputs_get_the_mode_of_a_plain_open(self, tmp_path, umask, mode):
        paths = (tmp_path / "out.csv", tmp_path / "out.json")
        previous = os.umask(umask)
        try:
            # A new file, then a write over an existing file of another mode.
            for existing in (False, True):
                if existing:
                    for path in paths:
                        os.chmod(path, 0o400)
                write_csv(str(paths[0]), ["x"], [np.array([1.0, 2.5])])
                atomic_write_text(str(paths[1]), canonical_json({"a": [1.0]}))
                for path in paths:
                    assert stat.S_IMODE(os.stat(path).st_mode) == mode
        finally:
            os.umask(previous)
