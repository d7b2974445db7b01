"""The CSV writer: byte-identical to formatting each value with `_fmt`.

`write_csv` converts whole blocks in numpy and sends only the values it
cannot certify through `_fmt`.  Every test compares its bytes with
`reference_csv`, the per-row writer it replaced.
"""

import hashlib
import math
import stat
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinlight.output
from spinlight.cli import main
from spinlight.output import CSV_BLOCK_ROWS, _fmt, _format_rows, write_csv


def reference_csv(header, columns) -> bytes:
    """The per-row loop that `write_csv` replaced: `_fmt` on every value."""
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    lines = [",".join(header), *(",".join(_fmt(value) for value in row) for row in rows)]
    return ("\n".join(lines) + "\n").encode()


def assert_same_bytes(tmp_path, columns):
    header = [f"c{j}" for j in range(len(columns))]
    path = tmp_path / "out.csv"
    write_csv(str(path), header, [columns])
    got, want = path.read_bytes(), reference_csv(header, columns)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(bad)} lines differ, first {bad[:3]}")


def as_columns(values, n_cols=3):
    """Values laid out row by row in `n_cols` columns, padded with 1.0."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, np.ones(-len(values) % n_cols)])
    return list(values.reshape(-1, n_cols).T)


def exact_tie(x: float) -> bool:
    """Whether x (with at most 60 binary places) has 18 significant digits, the last a 5."""
    q = abs(Fraction(x))
    digits = str(q.numerator * 10**60 // q.denominator).strip("0")
    return len(digits) == 18 and digits[-1] == "5"


class TestMatchesPerValueFormat:
    @given(st.lists(st.tuples(st.floats(), st.floats(), st.integers(-2**63, 2**63 - 1)),
                    max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_floats_and_integers(self, tmp_path_factory, rows):
        floats = np.array([r[:2] for r in rows], dtype=np.float64).reshape(-1, 2)
        ints = np.array([r[2] for r in rows], dtype=np.int64)
        assert_same_bytes(tmp_path_factory.mktemp("h"), [floats[:, 0], ints, floats[:, 1]])

    def test_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(20).integers(0, 2**64, size=10**6, dtype=np.uint64)
        assert_same_bytes(tmp_path, as_columns(bits.view(np.float64), 5))

    def test_random_values_in_the_kernel_domain(self, tmp_path):
        rng = np.random.default_rng(21)
        values = 10.0 ** rng.uniform(-101, 101, 10**6) * rng.choice([-1.0, 1.0], 10**6)
        assert_same_bytes(tmp_path, as_columns(values, 5))

    def test_normal_draws(self, tmp_path):
        assert_same_bytes(tmp_path, as_columns(np.random.default_rng(22).normal(size=10**5), 4))

    def test_integer_columns(self, tmp_path):
        rng = np.random.default_rng(23)
        big = rng.integers(-2**63, 2**63 - 1, size=10**4, dtype=np.int64)
        near = 2**53 + np.arange(-50, 50, dtype=np.int64)
        assert_same_bytes(tmp_path, [np.arange(10**4), big, np.resize(near, 10**4),
                                     np.arange(10**4, dtype=np.uint32)])

    def test_exact_decimal_ties(self, tmp_path):
        # m * 2**-j with m odd has the digits of m * 5**j, ending in 5; 18 of
        # them make a tie at the 17th digit
        rng = np.random.default_rng(24)
        ties = []
        for j in range(1, 30):
            low, high = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
            if low < high:
                ties += [math.ldexp(m, -j) for m in (rng.integers(low, high, 40) | 1).tolist()
                         if m < high]
        assert len(ties) > 400 and all(exact_tie(t) for t in ties)
        dyadic = [math.ldexp(int(m), int(e)) for m, e in zip(
            rng.integers(1, 2**53, 20000), rng.integers(-80, 20, 20000))]
        assert_same_bytes(tmp_path, as_columns([*ties, *np.negative(ties), *dyadic], 3))

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
        values = [powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)]
        assert_same_bytes(tmp_path, as_columns(np.concatenate([*values, -powers]), 3))

    def test_edges(self, tmp_path):
        values = [9.9999999999999999e-05, 99999999999999999.0, 1e16, 1e17, 0.0001, 1e-5,
                  0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                  1e-99, np.nextafter(1e-99, 0), 1e99, np.nextafter(1e99, 0), 1e100,
                  0.5, 0.1, 1.5, 2.0**53, 2.0**53 + 2, 2.0**63, 123456789012345678.0]
        for n_cols in (1, 2, 3, 7):
            assert_same_bytes(tmp_path, as_columns(values, n_cols))

    def test_every_layout(self, tmp_path):
        # each exponent from 1e-6 through both notation boundaries to 1e18, with each
        # count of significant digits, so the point falls at every position; no
        # double prints one digit at 1e-6 or 1e-5
        cases = []
        for k in range(-6, 19):
            for sig in range(1, 18):
                # the first value from 1.2345...e{k} up whose text has `sig` digits
                start = int("12345678912345678"[:sig])
                for n in range(100):
                    digits = str(start + n)
                    x = float(f"{digits[0]}.{digits[1:]}e{k}")
                    mantissa, exponent = ("%.16e" % x).split("e")
                    if int(exponent) == k and len(mantissa.replace(".", "").rstrip("0")) == sig:
                        cases.append(x)
                        break
        assert len(cases) == 25 * 17 - 2
        cases = np.array(cases)
        index = np.arange(len(cases))
        assert_same_bytes(tmp_path, [cases, -cases, np.zeros(len(cases)), index])
        assert_same_bytes(tmp_path, [-cases, index, cases, -np.zeros(len(cases))])

    # partial and uneven blocks, then the edges of one and of three blocks
    @pytest.mark.parametrize("n_rows", [0, 1, 511, 512, 513, 1541, CSV_BLOCK_ROWS - 1,
                                        CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                        3 * CSV_BLOCK_ROWS + 5])
    def test_block_sizes(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        assert_same_bytes(tmp_path, [np.arange(n_rows), rng.normal(size=n_rows),
                                     rng.normal(size=n_rows) * 1e-6])


class TestShapeChecks:
    @pytest.mark.parametrize("columns", [
        [np.arange(3.0), np.arange(4.0)],
        [np.arange(4.0), np.arange(3.0)],
        [np.arange(3.0), np.ones((3, 1))],
    ])
    def test_unequal_columns_rejected(self, tmp_path, columns):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError):
            write_csv(str(path), ("a", "b"), [columns])
        assert not path.exists()

    @pytest.mark.parametrize("header", [("a",), ("a", "b", "c")])
    def test_header_width_mismatch_rejected(self, tmp_path, header):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError):
            write_csv(str(path), header, [[np.arange(3.0), np.arange(3.0)]])
        assert not path.exists()

    @pytest.mark.parametrize("bad", [[np.arange(2.0)], [np.arange(2.0), np.arange(3.0)],
                                     [np.arange(2.0), np.ones((2, 1))]])
    def test_malformed_later_block_rejected(self, tmp_path, bad):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError):
            write_csv(str(path), ("a", "b"), [[np.arange(3.0), np.arange(3.0)], bad])
        assert not path.exists()  # the file it had opened is removed


class TestOutputFile:
    def test_refusal_leaves_an_existing_file_and_a_write_keeps_its_mode(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old\n")
        path.chmod(0o640)
        with pytest.raises(ValueError):
            write_csv(str(path), ("a",), [[np.arange(3.0)], [np.ones((2, 1))]])
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]  # the file beside it is removed
        write_csv(str(path), ("a",), [[np.arange(2.0)]])
        assert path.read_bytes() == b"a\n0\n1\n"
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_a_new_file_gets_the_mode_open_gives(self, tmp_path):
        with open(tmp_path / "reference", "wb"):
            pass
        write_csv(str(tmp_path / "out.csv"), ("a",), [])
        assert (tmp_path / "out.csv").stat().st_mode == (tmp_path / "reference").stat().st_mode

    def test_a_missing_directory_names_the_path_asked_for(self, tmp_path):
        path = str(tmp_path / "missing" / "out.csv")
        with pytest.raises(FileNotFoundError) as raised:
            write_csv(path, ("a",), [])
        assert raised.value.filename == path

    def test_a_failed_rename_names_the_path_asked_for(self, tmp_path, monkeypatch):
        # '' has no directory part: the file beside it is written, the rename fails
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError) as raised:
            write_csv("", ("a",), [])
        assert (raised.value.filename, raised.value.filename2) == ("", None)
        assert str(raised.value).endswith(": ''")  # not the name of the file beside it
        assert list(tmp_path.iterdir()) == []


class TestBlocks:
    @given(st.integers(0, 3 * CSV_BLOCK_ROWS + 7),
           st.lists(st.integers(0, 3 * CSV_BLOCK_ROWS + 7), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_any_split_gives_the_same_bytes(self, tmp_path_factory, n_rows, cuts):
        rng = np.random.default_rng(n_rows)
        columns = [np.arange(n_rows), rng.normal(size=n_rows), rng.normal(size=n_rows) * 1e-6]
        bounds = [0, *sorted(min(c, n_rows) for c in cuts), n_rows]
        blocks = [[col[a:b] for col in columns] for a, b in zip(bounds, bounds[1:])]
        path = tmp_path_factory.mktemp("split") / "out.csv"
        write_csv(str(path), ("c0", "c1", "c2"), blocks)
        assert path.read_bytes() == reference_csv(("c0", "c1", "c2"), columns)

    def test_no_blocks_writes_the_header(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), ("a", "b"), [])
        assert path.read_bytes() == b"a,b\n"

    @pytest.mark.parametrize("column", [np.arange(10**6), np.ones(3 * CSV_BLOCK_ROWS)],
                             ids=["integers", "ones"])
    def test_whole_numbers_stay_in_the_kernel(self, tmp_path, monkeypatch, column):
        """Powers of ten and other integers are certified: none reaches `_fmt`."""
        calls = []

        def counted(value):
            calls.append(value)
            return _fmt(value)

        monkeypatch.setattr(spinlight.output, "_fmt", counted)
        write_csv(str(tmp_path / "out.csv"), ("c",), [[column]])
        assert calls == []

    def test_kernel_heap_per_value(self):
        """A full block of seven columns peaks at no more than 200 heap bytes per value."""
        rng = np.random.default_rng(25)
        block = np.column_stack([np.arange(CSV_BLOCK_ROWS, dtype=np.float64),
                                 rng.normal(size=(CSV_BLOCK_ROWS, 6))])
        _format_rows(block)  # warm-up
        tracemalloc.start()
        try:
            _format_rows(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / block.size <= 200


def test_run_csv_bytes_pinned(tmp_path, capsys):
    """The run CSV hashes to what per-value formatting wrote.

    Its columns come from PCG64 draws and correctly rounded sqrt, quotients,
    elementwise products and numpy sums; the one BLAS input is W itself, the
    2x2 product in experiment._gram_draw, as for sweep.  So the bytes hold
    wherever numpy draws the same numbers, at any --parallel and BLAS threads.
    """
    path = tmp_path / "cycles.csv"
    assert main(["run", "--kappa2", "1", "--beta", "0.65", "--cycles", "12305",
                 "--seed", "1111", "--parallel", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9c1188b949b844018d37952eb90e67bd0721d5495a64ae2f5f8731d59f7cfac7")
