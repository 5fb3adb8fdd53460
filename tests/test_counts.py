"""Exact counting: series, tables, the oracles, cache round-trips."""

import functools
import hashlib
import io
import os
import random
import re
import tempfile
import tracemalloc
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
import oracles
from oracles import (load_table_regex, pbar_series_product, rank_class_table_dp,
                     save_table_per_row)

from overrank import a_exact, load_table, pbar_series, rank_class_table, rank_row, save_table
from overrank import counts
from overrank.cli import main
from overrank.counts import RankClassTable, brute_force_rank_counts

# RankClassTable.checksum() of the O(c N^2) DP oracle's tables
DP_CHECKSUMS = {
    (1600, 3): "92c7244312af42b4486832846152bdfd004212edcab023b9f6607468ab16325a",
    (1600, 4): "8aa8eebf8ab68ab1b47024635d3e1e4ac1090f42f26173f275e27e07d285ed4d",
    (1600, 5): "a2b2c40418272903b1fa7e85b1175d9e1fbe94f8f5360c40778cbacffbae43fc",
    (3000, 3): "4f34c14af49f1b3b9e0ac896ae03bb72fa8d3fc1e49b5e68754c81c94400e1f8",
    (3000, 4): "da9471bb3947fa9019599ba5c2146e04b5a8052c9c3461b7f0210fca7fc73711",
    (3000, 5): "c9ac1f328d7d89772d1992b699cfaa7643c8e455029ed18972f9de1d7145215a",
}


def columns(table: RankClassTable) -> list[list[int]]:
    """Copies of the table's columns, counts n = 0..n_max of each residue."""
    return [list(table.column(r)) for r in range(table.c)]


def test_pbar_series_small_values():
    # frozen from the brute-force enumeration: each partition contributes
    # 2^{#distinct parts}
    assert pbar_series(0) == [1]
    assert pbar_series(4) == [1, 2, 4, 8, 14]


def test_pbar_series_matches_product_oracle(pbar3000):
    assert pbar3000 == pbar_series_product(3000)


def test_pbar_series_rejects_negative():
    with pytest.raises(ValueError):
        pbar_series(-1)


def test_brute_force_base_cases():
    assert brute_force_rank_counts(0).entries == {0: 1}
    # {2} and {2-overlined} have rank 1; {1,1} and {1-overlined,1} rank -1
    assert brute_force_rank_counts(2).entries == {1: 2, -1: 2}
    assert brute_force_rank_counts(4).total() == 14


def test_brute_force_totals_match_series():
    series = pbar_series(16)
    for n in range(17):
        assert brute_force_rank_counts(n).total() == series[n]


def test_table_is_unequal_to_a_non_table():
    table = rank_class_table(5, 3)
    assert table.__eq__(columns(table)) is NotImplemented
    assert table != columns(table) and table != 5


def test_brute_force_guard():
    assert brute_force_rank_counts(counts.BRUTE_FORCE_LIMIT).total() == \
        pbar_series(counts.BRUTE_FORCE_LIMIT)[-1]
    with pytest.raises(ValueError, match="enumeration guard"):
        brute_force_rank_counts(counts.BRUTE_FORCE_LIMIT + 1)
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        brute_force_rank_counts(-1)


def test_brute_force_rank_support_and_symmetry():
    for n in range(1, 21):
        dist = brute_force_rank_counts(n)
        assert all(-(n - 1) <= m <= n - 1 for m in dist.entries)
        # empirical rank negation symmetry at oracle scale
        assert all(dist.entries[m] == dist.entries[-m] for m in dist.entries)


def test_rank_class_table_examples():
    t = rank_class_table(3, 3)
    assert t.counts[3] == [4, 2, 2]
    assert t.counts[0] == [1, 0, 0]
    for c in range(3, 7):
        t = rank_class_table(1, c)
        assert t.counts[1] == [2] + [0] * (c - 1)


def test_rank_class_table_rejects_bad_modulus():
    with pytest.raises(ValueError):
        rank_class_table(10, 1)
    with pytest.raises(ValueError, match="^n_max must be >= 0$"):
        rank_class_table(-1, 3)


def test_table_matches_dp_oracle():
    # depth 200, and depths on both sides of the bracket's term starts
    # n^2 + n = 2, 6, 12, 20, 30, with c > n_max among them
    for c in range(2, 13):
        for n_max in (0, 1, 2, 3, 5, 6, 7, 12, 13, 20, 21, 30, 31, 200):
            assert rank_class_table(n_max, c).counts == rank_class_table_dp(n_max, c).counts, \
                (n_max, c)


@settings(max_examples=40, deadline=None, database=None)
@given(n_max=st.integers(0, 150), c=st.integers(2, 16))
def test_table_matches_dp_oracle_drawn(n_max, c):
    assert rank_class_table(n_max, c).counts == rank_class_table_dp(n_max, c).counts


@pytest.mark.parametrize("c", [2, 3, 4, 5, 7, 9])
def test_table_matches_dp_oracle_at_division_edges(c):
    # Term n of the build divides by 1 - q^(2cn) for odd c and twice by
    # 1 - q^(cn) for even c, over span = n_max + 1 - n^2 - n slots, and takes
    # the doubling step m only while m < span: for the first two steps m of
    # each division, n = 1, 2, 3, take the depths where span is m (the step is
    # left out) and m + 1 (the step is taken)
    first = 2 * c if c & 1 else c
    depths = sorted({m * n + n * n + n - 1 + taken
                     for n in (1, 2, 3) for m in (first, 2 * first) for taken in (0, 1)})
    oracle = rank_class_table_dp(depths[-1], c).counts
    for n_max in depths:
        assert rank_class_table(n_max, c).counts == oracle[:n_max + 1], n_max


# tracemalloc peaks of rank_class_table(3000, c) when it took one full product
# per column (CPython 3.11); the linear-pass build must stay within 10% of them
FULL_PRODUCT_PEAK = {5: 1_952_123, 7: 2_151_827}


@pytest.mark.parametrize("c", sorted(FULL_PRODUCT_PEAK))
def test_table_peak_allocation(c):
    tracemalloc.start()
    try:
        rank_class_table(3000, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * FULL_PRODUCT_PEAK[c], peak


@pytest.mark.parametrize("n_max,c", sorted(DP_CHECKSUMS))
def test_table_checksum_matches_dp_oracle(n_max, c):
    assert rank_class_table(n_max, c).checksum() == DP_CHECKSUMS[n_max, c]


def test_table_indices_outside_the_table_are_refused():
    # no negative index wraps around to the far end of the table
    table = rank_class_table(10, 3)
    for read, index, message in (
            (table.row, -1, "n=-1 is outside the table's 0..10"),
            (table.row, 11, "n=11 is outside the table's 0..10"),
            (table.row_sum, -1, "n=-1 is outside the table's 0..10"),
            (lambda n: a_exact(0, table.row(n)), 11, "n=11 is outside the table's 0..10"),
            (table.column, -1, "residue r=-1 is outside the table's 0..2"),
            (table.column, 3, "residue r=3 is outside the table's 0..2")):
        with pytest.raises(ValueError) as info:
            read(index)
        assert str(info.value) == message
    assert table.row(10) == table.counts[10] and table.column(2)[0] == 0


def test_table_matches_oracle(small_tables):
    for c, table in small_tables.items():
        for n in range(19):
            assert brute_force_rank_counts(n).fold(c) == table.counts[n], (c, n)


def test_table_class_symmetry(small_tables):
    # counts[n][r] == counts[n][(c-r) mod c], inherited from rank negation
    for c, table in small_tables.items():
        for n in range(61):
            row = table.counts[n]
            assert all(row[r] == row[(c - r) % c] for r in range(c))


def test_row_sums_against_series():
    series = pbar_series(200)
    table = rank_class_table(200, 3)
    assert table.row_sum(200) == series[200]
    assert all(table.row_sum(n) == series[n] for n in range(201))


def test_c4_columns_meet_the_square_rule(table4):
    # N(0,4,n) - N(2,4,n) is 1 at n = 0, 2 at a nonzero square and 0 otherwise,
    # and so is its fold from c = 8, (N(0,8,n) + N(4,8,n)) - (N(2,8,n) + N(6,8,n)).
    # The rule is measured here at every n <= 3000, not proved (ROADMAP item 18);
    # today only the row sum pbar checks these rows exactly
    def rule(n):
        return 1 if n == 0 else 2 if isqrt(n) ** 2 == n else 0

    table8 = rank_class_table(table4.n_max, 8)
    col4, col8 = columns(table4), columns(table8)
    assert table4.n_max == 3000
    assert [n for n in range(3001) if col4[0][n] - col4[2][n] != rule(n)] == []
    assert [n for n in range(3001)
            if col8[0][n] + col8[4][n] - col8[2][n] - col8[6][n] != rule(n)] == []


def test_c2_and_c4_columns_meet_lovejoys_a_half(table4):
    # A(1/2; n) from Lovejoy's form at z = -1 is N(0,2,n) - N(1,2,n), and the
    # alternating column sum N(0,4,n) - N(1,4,n) + N(2,4,n) - N(3,4,n); measured
    # at every n <= 600 and every 97th n <= 3000 (625 points), not proved
    ns = sorted({*range(601), *range(0, 3001, 97)})
    a_half = oracles.a_half(ns, pbar_series(3000))
    col2, col4 = columns(rank_class_table(3000, 2)), columns(table4)
    assert [n for n in ns if col2[0][n] - col2[1][n] != a_half[n]] == []
    assert [n for n in ns
            if col4[0][n] - col4[1][n] + col4[2][n] - col4[3][n] != a_half[n]] == []


def test_a_exact_values(small_tables):
    t3 = small_tables[3]
    v = a_exact(1, t3.row(2))
    assert abs(v - (-2)) < mpf(2) ** -140  # classes [0,2,2]: 2(zeta+zeta^2) = -2
    assert abs(a_exact(1, t3.row(0)) - 1) < mpf(2) ** -140
    series = pbar_series(40)
    for c in (3, 5):
        t = small_tables[c]
        for n in (0, 7, 23):
            assert abs(a_exact(0, t.row(n)) - series[n]) < mpf(2) ** -130


def test_a_exact_conjugacy(small_tables):
    for c in (3, 5, 7):
        t = small_tables[c]
        for n in (11, 30):
            for j in range(1, c):
                lhs = a_exact(c - j, t.row(n))
                rhs = a_exact(j, t.row(n)).conjugate()
                assert abs(lhs - rhs) < mpf(2) ** -130


def test_a_exact_precision_scales_with_data(table3):
    # entries near n=2500 need ~200 mantissa bits; a 160-bit request must not
    # corrupt the evaluation
    v160 = a_exact(1, table3.row(2500), prec=160)
    v400 = a_exact(1, table3.row(2500), prec=400)
    assert abs(v160 - v400) / abs(v400) < mpf(2) ** -150


def test_a_exact_range_checks(small_tables):
    t = small_tables[3]
    with pytest.raises(ValueError):
        a_exact(3, t.row(2))
    with pytest.raises(ValueError):
        a_exact(-1, t.row(2))


def test_orthogonality_sweep(small_tables):
    # N(a,c,n) = (1/c) sum_j zeta^{-aj} A(j/c;n), with A(0;n) = pbar(n) taken
    # from the independent series; every row n <= 60 of every c = 2..8 table
    with mp.workprec(240):
        series = pbar_series(60)
        for c, table in small_tables.items():
            for n in range(61):
                coeffs = [a_exact(j, table.row(n)) for j in range(1, c)]
                for a in range(c):
                    total = series[n] + sum(
                        coeffs[j - 1] * mp.expjpi(mpf(-2 * ((a * j) % c)) / c)
                        for j in range(1, c))
                    assert abs(total / c - table.counts[n][a]) < mpf(2) ** -100, (a, c, n)


def test_orthogonality_at_zero(small_tables):
    # only the empty overpartition: rank 0, so A(j/c;0) = 1 for every j
    for c, table in small_tables.items():
        assert table.counts[0] == [1] + [0] * (c - 1), c
        assert all(a_exact(j, table.row(0)) == 1 for j in range(c)), c


def test_cache_round_trip(tmp_path):
    table = rank_class_table(80, 5)
    path = tmp_path / "t5.tbl"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded.c == table.c and loaded.n_max == table.n_max
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(81)
        r = rng.randrange(5)
        assert loaded.counts[n][r] == table.counts[n][r]
    assert loaded.checksum() == table.checksum()


def test_cache_detects_corruption(tmp_path):
    table = rank_class_table(30, 3)
    path = tmp_path / "t3.tbl"
    save_table(table, path)
    lines = path.read_bytes().split(b"\n")
    # tamper with one count: the middle one of row 20, still canonical
    row = lines[1 + 20].split(b",")
    row[1] = str(int(row[1]) + 1).encode()
    lines[1 + 20] = b",".join(row)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match="checksum mismatch"):
        load_table(path)


def test_cache_rejects_truncation(tmp_path):
    table = rank_class_table(30, 3)
    path = tmp_path / "t3.tbl"
    save_table(table, path)
    data = path.read_bytes()
    # the header and rows 0..15 end at the 17th newline; cut there and inside row 16
    boundary = [i for i, b in enumerate(data) if b == ord("\n")][16] + 1
    for end in (boundary, boundary + 5):
        path.write_bytes(data[:end])
        with pytest.raises(ValueError, match="truncated in row n=16"):
            load_table(path)


def test_cache_ending_after_its_last_row_is_refused(tmp_path):
    path = tmp_path / "t3.tbl"
    save_table(rank_class_table(30, 3), path)
    data = path.read_bytes()
    path.write_bytes(data[:data.rindex(b"checksum")])
    with pytest.raises(ValueError) as raised:
        load_table(path)
    assert str(raised.value) == "cache file truncated: the checksum line is missing"


def test_checksum_is_computed_once(tmp_path, monkeypatch):
    hashes = []
    sha256 = counts.hashlib.sha256

    def counting_sha256(*args):
        hashes.append(1)
        return sha256(*args)

    monkeypatch.setattr(counts.hashlib, "sha256", counting_sha256)
    table = rank_class_table(40, 3)
    first = table.checksum()
    assert table.checksum() == first and len(hashes) == 1
    # save_table hashes the lines it writes, which checks the memo against them
    save_table(table, tmp_path / "t3.tbl")
    assert table.checksum() == first and len(hashes) == 2
    # load_table keeps the checksum it verified
    loaded = load_table(tmp_path / "t3.tbl")
    assert loaded.checksum() == first and len(hashes) == 3
    # the memo takes no part in equality
    assert RankClassTable(columns(table)) == table
    # saving a table of unknown checksum memoizes the digest of the lines it writes
    fresh = rank_class_table(40, 3)
    save_table(fresh, tmp_path / "fresh.tbl")
    assert fresh.checksum() == first and len(hashes) == 4
    assert (tmp_path / "fresh.tbl").read_bytes() == (tmp_path / "t3.tbl").read_bytes()


# sha256 of the bytes save_table writes for rank_class_table(1600, 5), the
# depth-1600 c = 5 cache of the paper's certificates
C5_CACHE_SHA256 = "9e7f2b890dc1ef92bbb0d52801b4089a4ce8f300cc38aa84f0804be68701f851"


def test_save_converts_each_count_once(tmp_path, monkeypatch):
    # one decimal pass per save: it writes the rows and hashes them; the
    # checksum afterwards is the memo, and the file bytes are the format's
    passes = []
    row_blocks = counts._row_blocks
    monkeypatch.setattr(counts, "_row_blocks",
                        lambda table: passes.append(1) or row_blocks(table))
    table = rank_class_table(1600, 5)
    save_table(table, tmp_path / "c5.tbl")
    assert len(passes) == 1
    assert table.checksum() == DP_CHECKSUMS[1600, 5] and len(passes) == 1
    data = (tmp_path / "c5.tbl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == C5_CACHE_SHA256
    assert data.endswith(f"checksum sha256:{DP_CHECKSUMS[1600, 5]}\n".encode())


# tracemalloc peak of load_table on that cache when it read one row at a time
# (CPython 3.11); reading blocks of rows may add a bounded amount per block
ROW_BY_ROW_LOAD_PEAK = 533_677


def test_load_peak_allocation(tmp_path):
    path = tmp_path / "c5.tbl"
    table = rank_class_table(1600, 5)
    save_table(table, path)
    tracemalloc.start()
    try:
        loaded = load_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == table and loaded.checksum() == DP_CHECKSUMS[1600, 5]
    assert peak <= 1.5 * ROW_BY_ROW_LOAD_PEAK, peak


def test_save_rejects_a_checksum_memo_that_disagrees_with_the_rows(tmp_path):
    table = rank_class_table(30, 3)
    table.checksum()
    table.column(1)[20] += 1  # the counts change under a memoized checksum
    with pytest.raises(ValueError, match=r"^table checksum [0-9a-f]{64} does not match "
                                         r"its rows \(sha256:[0-9a-f]{64}\); not saved$"):
        save_table(table, tmp_path / "t3.tbl")
    assert os.listdir(tmp_path) == []


def test_failed_save_keeps_previous_cache(tmp_path, monkeypatch):
    table = rank_class_table(300, 3)
    path = tmp_path / "t3.tbl"
    save_table(table, path)
    before = path.read_bytes()
    writes = []

    class FullDisk(io.FileIO):
        # the failure strikes after the header and the first block of rows
        # are written, at the second block's write
        def write(self, data):
            writes.append(len(data))
            if len(writes) == 3:
                raise OSError("disk full")
            return super().write(data)

    monkeypatch.setattr(counts, "open", FullDisk, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_table(rank_class_table(300, 3), path)
    monkeypatch.undo()
    assert len(writes) == 3  # the header, the first block, the second block's attempt
    assert path.read_bytes() == before
    assert load_table(path).checksum() == table.checksum()
    assert os.listdir(tmp_path) == ["t3.tbl"]  # no temporary file left behind


def test_table_is_built_from_its_rows_alone():
    # c and n_max are read from the columns, never given beside them
    table = rank_class_table(40, 3)
    assert (table.c, table.n_max) == (3, 40)
    assert RankClassTable([col[:31] for col in columns(table)]).n_max == 30
    assert RankClassTable([[5, 7, 9]]).c == 1  # one column is a table too
    with pytest.raises(TypeError):
        RankClassTable(c=3, n_max=40, columns=columns(table))
    with pytest.raises(TypeError):
        RankClassTable(3, 40, columns(table))


@pytest.mark.parametrize("cols,message", [
    ([], "a rank-class table needs at least one column"),
    ([[]], "rank-class table column r=0 holds no counts"),
    ([[1, 4], [2, 5], [3]], "rank-class table column r=2 holds 1 counts, "
                            "not n_max + 1 = 2 as column 0 does"),
    ([[1] * 11] + [[2]] * 10,
     "rank-class table column r=1 holds 1 counts, not n_max + 1 = 11 as column 0 does"),
    ([[1, 2]] * 200 + [[1, 2, 3]] + [[1, 2]],
     "rank-class table column r=200 holds 3 counts, not n_max + 1 = 2 as column 0 does"),
], ids=["empty", "no-counts", "short-row", "short-rows", "long-row"])
def test_table_rejects_rows_of_unequal_length(cols, message):
    # a table's n_max is its first column's length less one, so every column
    # must share it: a ragged table of rows used to report c = 3, save a file
    # load_table refused, and send verify_subadditivity into an IndexError
    with pytest.raises(ValueError) as excinfo:
        RankClassTable(cols)
    assert str(excinfo.value) == message


@settings(max_examples=40, deadline=None, database=None)
@given(rows=st.integers(2, 6).flatmap(lambda c: st.lists(
    st.lists(st.integers(0, 10 ** 40), min_size=c, max_size=c),
    min_size=1, max_size=2 * counts._BLOCK_ROWS + 3)))
def test_any_table_built_from_rows_round_trips(rows):
    cols = [list(col) for col in zip(*rows)]
    table = RankClassTable(cols)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.tbl")
        save_table(table, path)
        loaded = load_table(path)
    assert loaded == table and loaded.counts == rows
    assert (loaded.c, loaded.n_max) == (len(rows[0]), len(rows) - 1)
    assert loaded.checksum() == RankClassTable(cols).checksum()


@pytest.mark.parametrize("n_max", [0, 127, 128, 300])
def test_one_column_table_round_trips(tmp_path, n_max):
    # a one-column table saves a c=1 header, which load_table must accept; the
    # depths give one row, one whole block of rows, one row past it, and a part block
    table = RankClassTable([pbar_series(n_max)])
    path = tmp_path / "t1.tbl"
    save_table(table, path)
    loaded = load_table(path)
    assert (loaded.c, loaded.n_max) == (1, n_max)
    assert loaded == table
    assert loaded.checksum() == RankClassTable([pbar_series(n_max)]).checksum()


def test_count_past_the_int_str_limit_names_its_row(tmp_path):
    # str() refuses a count of more than 4,300 digits; checksum and save say
    # which row holds it, and the save leaves no file behind
    table = RankClassTable([[2 ** 65536], [0]])
    message = r"^row n=0 has a count above 4300 decimal digits"
    with pytest.raises(ValueError, match=message):
        table.checksum()
    with pytest.raises(ValueError, match=message):
        save_table(table, tmp_path / "big.tbl")
    assert os.listdir(tmp_path) == []


def test_count_past_the_int_str_limit_names_its_row_in_a_later_block(tmp_path):
    cols = columns(rank_class_table(300, 3))
    cols[2][200] = 10 ** 5000
    table = RankClassTable(cols)
    message = r"^row n=200 has a count above 4300 decimal digits"
    with pytest.raises(ValueError, match=message):
        table.checksum()
    with pytest.raises(ValueError, match=message):
        save_table(table, tmp_path / "big.tbl")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("c", [3, 5])
@pytest.mark.parametrize("n_max", [0, counts._BLOCK_ROWS - 1, counts._BLOCK_ROWS,
                                   counts._BLOCK_ROWS + 1, 1600])
def test_block_writes_equal_the_per_row_writer(tmp_path, n_max, c):
    # n_max + 1 rows: below, at and just past one block's end, and the
    # paper's depth
    table = rank_class_table(n_max, c)
    save_table(table, tmp_path / "blocks.tbl")
    save_table_per_row(table, tmp_path / "rows.tbl")
    data = (tmp_path / "blocks.tbl").read_bytes()
    assert data == (tmp_path / "rows.tbl").read_bytes()
    # checksum() hashes the same blocks as the save
    fresh = RankClassTable(columns(table))
    assert data.endswith(f"checksum sha256:{fresh.checksum()}\n".encode())
    assert fresh.checksum() == table.checksum()
    if n_max == 1600:
        assert table.checksum() == DP_CHECKSUMS[1600, c]


@functools.cache
def fuzz_table(n_max: int) -> RankClassTable:
    """The c = 3 table of depth n_max that the cache tests save and edit.

    It is built on first use, not at import, so a fault in the table build
    fails these tests one by one instead of this module's collection.
    Hypothesis refuses function-scoped fixtures under @given, so the tests
    take the depth and call this.
    """
    return rank_class_table(n_max, 3)


# depth 300 is deeper than two of load_table's blocks, so edits land on both
# sides of a block boundary
FUZZ_DEPTHS = pytest.mark.parametrize("depth", [12, 300], ids=["12", "300"])
BYTE_EDIT = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10 ** 6), st.integers(0, 7)),
    st.tuples(st.just("insert"), st.integers(0, 10 ** 6), st.integers(0, 255)),
    st.tuples(st.just("delete"), st.integers(0, 10 ** 6), st.just(0)),
    st.tuples(st.just("truncate"), st.integers(0, 10 ** 6), st.just(0)),
)


def _edit(data: bytearray, edit) -> None:
    kind, pos, arg = edit
    pos %= len(data) + 1
    if kind == "insert":
        data.insert(pos, arg)
    elif kind == "truncate":
        del data[pos:]
    elif pos < len(data):
        if kind == "flip":
            data[pos] ^= 1 << arg
        else:
            del data[pos]


@FUZZ_DEPTHS
@settings(max_examples=300, deadline=None, database=None)
@given(edits=st.lists(BYTE_EDIT, min_size=1, max_size=3))
def test_load_table_fuzzed_cache(depth, edits):
    # a damaged cache either loads as the very table that was saved (say, a
    # leading zero inserted into a count) or raises ValueError, never else
    table = fuzz_table(depth)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t3.tbl")
        save_table(table, path)
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        for edit in edits:
            _edit(data, edit)
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            loaded = load_table(path)
        except ValueError as exc:
            _assert_one_line(exc)
            return
    assert loaded == table
    assert loaded.checksum() == table.checksum()


def _assert_one_line(exc: ValueError) -> None:
    # a refused cache is named in one non-empty line, never in int()'s words
    message = str(exc)
    assert message and "\n" not in message, repr(message)
    assert "invalid literal" not in message, message


def _rechecksummed(header: bytes, rows: bytes, c: int, n_max: int) -> bytes:
    # a cache file whose checksum line is recomputed over `rows` the way
    # load_table hashes them, so only the loader's canonical-form check stands
    # between a non-canonical count and a table whose checksum is not its own
    h = hashlib.sha256(f"1:{c}:{n_max}".encode() + rows.replace(b"\n", b""))
    return b"%s\n%schecksum sha256:%s\n" % (header, rows, h.hexdigest().encode())


@pytest.mark.parametrize("spell", [b"0%d", b"+%d", b"%d_%d", b" %d"],
                         ids=["leading-zero", "plus-sign", "underscore", "space"])
def test_cache_rejects_non_canonical_count(tmp_path, spell):
    # int() reads each of these spellings as the count, but the file's hash
    # would then not be the table's checksum
    path = tmp_path / "t3.tbl"
    save_table(fuzz_table(12), path)
    lines = path.read_bytes().split(b"\n")
    assert path.read_bytes() == _rechecksummed(
        lines[0], b"".join(line + b"\n" for line in lines[1:14]), 3, 12)
    row = lines[1 + 12].split(b",")
    v = int(row[0])
    assert v >= 10
    row[0] = spell % ((v // 10, v % 10) if b"_" in spell else v)
    lines[1 + 12] = b",".join(row)
    path.write_bytes(_rechecksummed(lines[0], b"".join(line + b"\n" for line in lines[1:14]),
                                    3, 12))
    with pytest.raises(ValueError, match="row n=12 is not canonical"):
        load_table(path)


@FUZZ_DEPTHS
@settings(max_examples=200, deadline=None, database=None)
@given(edits=st.lists(BYTE_EDIT, min_size=1, max_size=3))
def test_loaded_checksum_is_the_tables_own(depth, edits):
    # rows edited and the checksum line recomputed over them: whatever loads
    # has the checksum of its counts, as a table built from them would
    table = fuzz_table(depth)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t3.tbl")
        save_table(table, path)
        with open(path, "rb") as fh:
            header, body = fh.read().split(b"\n", 1)
        rows = bytearray(body[:body.rindex(b"checksum")])
        for edit in edits:
            _edit(rows, edit)
        with open(path, "wb") as fh:
            fh.write(_rechecksummed(header, bytes(rows), table.c, table.n_max))
        try:
            loaded = load_table(path)
        except ValueError as exc:
            _assert_one_line(exc)
            return
    assert loaded.checksum() == RankClassTable(columns(loaded)).checksum()


def _load_outcome(load, path):
    try:
        table = load(path)
    except ValueError as exc:
        # the refusal names one of the loader's faults, never None or another
        # exception's words
        assert LOADER_FAULT.fullmatch(str(exc)), str(exc)
        return "refused", str(exc)
    return "loaded", table, table.checksum()


@FUZZ_DEPTHS
@pytest.mark.parametrize("rechecksum", [False, True], ids=["plain", "rechecksummed"])
@settings(max_examples=200, deadline=None, database=None)
@given(edits=st.lists(BYTE_EDIT, min_size=1, max_size=3))
def test_load_table_equals_the_regex_loader(depth, rechecksum, edits):
    # the C-level block checks accept exactly the blocks the whole-block
    # pattern accepts: the same table and checksum, or the same message.
    # Re-checksummed edits reach the block checks with the file's own digest.
    table = fuzz_table(depth)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t3.tbl")
        save_table(table, path)
        with open(path, "rb") as fh:
            data = fh.read()
        if rechecksum:
            header, body = data.split(b"\n", 1)
            rows = bytearray(body[:body.rindex(b"checksum")])
            for edit in edits:
                _edit(rows, edit)
            data = _rechecksummed(header, bytes(rows), table.c, table.n_max)
        else:
            data = bytearray(data)
            for edit in edits:
                _edit(data, edit)
        with open(path, "wb") as fh:
            fh.write(data)
        assert _load_outcome(load_table, path) == _load_outcome(load_table_regex, path)


def _cut_row(lines, n):
    # the file ends halfway through row n
    del lines[2 + n:]
    lines[1 + n] = lines[1 + n][:len(lines[1 + n]) // 2]


def _extra_count(lines, n):
    lines[1 + n] = b"7," + lines[1 + n]


def _leading_zero(lines, n):
    lines[1 + n] = b"0" + lines[1 + n]


def _delete_row(lines, n):
    del lines[1 + n]


NOT_CANONICAL = "is not canonical: counts must be plain decimal, each followed by a comma"

# every message with which load_table refuses a file
LOADER_FAULT = re.compile("|".join((
    "not a rank-class table cache file",
    "cache header must set exactly c, format_version, n_max; got .+",
    "bad cache header: (?:c|format_version|n_max)=.* is not a plain decimal integer",
    r"cache format_version=\d+ is unsupported \(this version reads 2\); "
    "delete the file to rebuild it",
    r"bad cache header: c=0 is below 1",
    r"cache file truncated in row n=\d+",
    r"cache row n=\d+ is missing",
    r"cache row n=\d+ holds \d+ counts, not c=\d+",
    rf"cache row n=\d+ {NOT_CANONICAL}",
    r"cache row n=\d+ has a count above \d+ decimal digits, "
    "Python's limit for str-to-int conversion",
    r"cache row n=\d+ lies beyond n_max=\d+",
    "cache checksum mismatch",
    "cache file truncated: the checksum line is missing",
    "cache has data after its checksum line")))


# the first and last rows of each of the depth-300 cache's three blocks
@pytest.mark.parametrize("n", [0, 127, 128, 255, 256, 300])
@pytest.mark.parametrize("fault,message", [
    (_cut_row, "cache file truncated in row n={n}"),
    (_extra_count, "cache row n={n} holds 4 counts, not c=3"),
    (_leading_zero, f"cache row n={{n}} {NOT_CANONICAL}"),
    (_delete_row, "cache row n=300 is missing"),  # the checksum line moves up into row 300
], ids=["cut", "extra-count", "leading-zero", "deleted"])
def test_block_edge_fault_names_its_row(tmp_path, fault, message, n):
    # a fault on either side of a block boundary is reported at its own row,
    # as a row-by-row read would report it
    path = tmp_path / "t3.tbl"
    save_table(fuzz_table(300), path)
    lines = path.read_bytes().splitlines(keepends=True)
    fault(lines, n)
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError) as excinfo:
        load_table(path)
    assert str(excinfo.value) == message.format(n=n)


@pytest.mark.parametrize("edit,message", [
    (lambda data: data[:-1], "cache checksum mismatch"),
    (lambda data: data.replace(b"\n", b"\r\n"), f"cache row n=0 {NOT_CANONICAL}"),
], ids=["checksum-line-unterminated", "crlf"])
def test_deep_cache_line_ending_faults(tmp_path, edit, message):
    # a canonical line ends in one newline: not in none, not in CR LF
    path = tmp_path / "t3.tbl"
    save_table(fuzz_table(300), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError) as excinfo:
        load_table(path)
    assert str(excinfo.value) == message


def _row(n, change):
    # row n's line replaced by `change` of it
    def edit(lines):
        lines[n] = change(lines[n])
    return edit


def _newline_before_comma(lines):
    # row 130's last comma moved past its newline, to the head of row 131
    lines[130:132] = [lines[130][:-2] + b"\n", b"," + lines[131]]


def _newline_early(lines):
    # row 130 ends a count early and row 131 starts with that count
    head, _, last = lines[130][:-2].rpartition(b",")
    lines[130:132] = [head + b",\n", last + b"," + lines[131]]


def _newline_inside_count(lines):
    # a newline inside row 130's first count, and rows 135 and 136 on one line
    lines[130] = lines[130][:2] + b"\n" + lines[130][2:]
    lines[135] = lines[135][:-1]


def _blank_line(lines):
    # a blank line after row 130, and rows 135 and 136 on one line
    lines[130] += b"\n"
    lines[135] = lines[135][:-1]


def _two_rows_on_a_line(lines):
    # rows 130 and 131 on one line, and row 200 twice, so that the block
    # holds as many lines as it should
    lines[130:132] = [lines[130][:-1] + lines[131]]
    lines.insert(200, lines[200])


def _without_first_count(line):
    return line[line.index(b","):]


def _without_middle_count(line):
    head, _, tail = line.partition(b",")
    return head + b",," + tail.partition(b",")[2]


# edits of the depth-300 cache's rows, each aimed at one of the block checks
# that replaced the whole-block pattern; the first four leave the
# newline-free stream as it was, so only where its newlines lie tells them
# from the saved table
REGEX_LOADER_CASES = {
    "newline-before-comma": _newline_before_comma,
    "newline-one-count-early": _newline_early,
    "newline-inside-count": _newline_inside_count,
    "blank-line": _blank_line,
    "two-rows-on-a-line": _two_rows_on_a_line,
    "empty-count": _row(130, _without_middle_count),
    "empty-first-count": _row(131, _without_first_count),
    "leading-zero-at-block-start": _row(128, lambda line: b"0" + line),
    "leading-zero-in-block": _row(130, lambda line: b"0" + line),
    "zero-count-at-block-start": _row(128, lambda line: b"0" + _without_first_count(line)),
    "underscore": _row(130, lambda line: line.replace(b",", b"_1,", 1)),
    "plus-sign": _row(130, lambda line: line.replace(b",", b",+", 1)),
    "space": _row(130, lambda line: line.replace(b",", b", ", 1)),
    "carriage-return": _row(130, lambda line: line.replace(b",\n", b",\r\n")),
    "count-changed": _row(130, lambda line: line.replace(b",", b"1,", 1)),
}


@pytest.mark.parametrize("edit", REGEX_LOADER_CASES.values(), ids=REGEX_LOADER_CASES.keys())
def test_load_table_equals_the_regex_loader_on_aimed_edits(tmp_path, edit):
    path = tmp_path / "t3.tbl"
    save_table(fuzz_table(300), path)
    header, body = path.read_bytes().split(b"\n", 1)
    lines = body[:body.rindex(b"checksum")].splitlines(keepends=True)
    edit(lines)
    path.write_bytes(_rechecksummed(header, b"".join(lines), 3, 300))
    assert _load_outcome(load_table, path) == _load_outcome(load_table_regex, path)


# edits of one count, each of a kind int() refused when the loader still
# converted every count
UNREAD_COUNT_EDITS = {
    "empty-count": lambda count: b"",
    "leading-zero": lambda count: b"0" + count,
    "sign": lambda count: b"-" + count,
    "past-the-int-str-limit": lambda count: b"1" + b"0" * 5000,
}


@pytest.mark.parametrize("change", UNREAD_COUNT_EDITS.values(), ids=UNREAD_COUNT_EDITS.keys())
def test_load_checks_the_counts_no_command_reads(tmp_path, capsys, change):
    # every count is checked at load, never when its column is first read:
    # an edit of residue 2 alone is refused by a sweep that reads residue 0
    path = tmp_path / "t3.tbl"
    save_table(fuzz_table(300), path)
    header, body = path.read_bytes().split(b"\n", 1)
    lines = body[:body.rindex(b"checksum")].splitlines(keepends=True)
    row = lines[200].split(b",")
    row[2] = change(row[2])
    lines[200] = b",".join(row)
    path.write_bytes(_rechecksummed(header, b"".join(lines), 3, 300))
    outcome = _load_outcome(load_table, path)
    assert outcome[0] == "refused" and outcome == _load_outcome(load_table_regex, path)
    code = main(["verify", "--c", "3", "--a-list", "0", "--n-lo", "9", "--n-hi", "150",
                 "--n-max", "300", "--cache", str(path)])
    assert code == 2 and capsys.readouterr().err == f"error: {outcome[1]}\n"


_BLOCK_VALUES = counts._block_values


class _CountingCheck:
    """`counts._block_values` with a tally of the blocks and the single rows it checks."""

    def __init__(self):
        self.blocks = self.rows = 0

    def __call__(self, block, stream, size, c):
        if size == 1:
            self.rows += 1
        else:
            self.blocks += 1
        return _BLOCK_VALUES(block, stream, size, c)


def test_valid_cache_loads_without_a_line_by_line_scan(tmp_path, monkeypatch):
    # every block of a good depth-1600 cache passes the block checks, so no
    # row is checked on its own; a bad row sends only its block to the scan
    path = tmp_path / "c5.tbl"
    table = rank_class_table(1600, 5)
    save_table(table, path)
    tally = _CountingCheck()
    monkeypatch.setattr(counts, "_block_values", tally)
    assert load_table(path) == table and (tally.blocks, tally.rows) == (13, 0)
    lines = path.read_bytes().splitlines(keepends=True)
    _leading_zero(lines, 300)
    path.write_bytes(b"".join(lines))
    tally.blocks = 0
    with pytest.raises(ValueError, match=f"^cache row n=300 {NOT_CANONICAL}$"):
        load_table(path)
    # rows 256..300 of the third block, and no row of the first two
    assert tally.blocks == 3 and tally.rows == 300 - 2 * counts._BLOCK_ROWS + 1


@pytest.mark.parametrize("row", [b"7,\n", b"1,2,3,\n", b"1,2,3,4,\n",
                                 b"0,1,1%s,\n" % (b"0" * 5000)],
                         ids=["one-count", "c-counts", "c-plus-one-counts", "long-count"])
def test_surplus_canonical_row_of_any_width_lies_beyond_n_max(tmp_path, row):
    # a canonical row where the checksum line should be is named as a row,
    # whatever its width and however long its counts
    path = tmp_path / "t3.tbl"
    save_table(rank_class_table(30, 3), path)
    data = path.read_bytes()
    cut = data.rindex(b"checksum")
    path.write_bytes(data[:cut] + row + data[cut:])
    with pytest.raises(ValueError) as raised:
        load_table(path)
    assert str(raised.value) == "cache row n=31 lies beyond n_max=30"


def test_rank_row_equals_every_row_of_the_depth_300_tables():
    # the lone row and the table build are each other's oracle: each row is
    # built alone from the per-rank form, and each sums to pbar(n)
    pbar = pbar_series(300)
    for c in range(2, 14):
        table = rank_class_table(300, c)
        for n in range(301):
            row = rank_row(n, c)
            assert row == table.row(n) and sum(row) == pbar[n], (c, n)


def test_rank_row_equals_spaced_rows_of_the_depth_3000_tables(table3, table4, table5):
    ns = sorted({0, 1, 2, 9, *range(0, 3001, 250), 2999, 3000})
    for table in (table3, table4, table5):
        for n in ns:
            assert rank_row(n, table.c) == table.row(n), (table.c, n)


@pytest.mark.parametrize("n,c", [(5, 1), (5, 0), (-1, 3), (-1, 1)])
def test_rank_row_refuses_what_the_table_build_refuses(n, c):
    # c is checked first, then n, by both paths, with the same message
    with pytest.raises(ValueError) as table_error:
        rank_class_table(n, c)
    with pytest.raises(ValueError) as row_error:
        rank_row(n, c)
    assert str(row_error.value) == str(table_error.value)
    assert str(row_error.value) == ("modulus c must be >= 2" if c < 2 else "n_max must be >= 0")


def test_count_past_the_int_str_limit_in_a_cache_names_its_row(tmp_path):
    # a canonical count that int() refuses to convert, in a file whose
    # checksum is over its own rows
    rows = b"".join(b"%d,%d,\n" % (n, n + 1) for n in range(200))
    rows = rows.replace(b"150,151,", b"1" + b"0" * 5000 + b",151,")
    path = tmp_path / "big.tbl"
    path.write_bytes(_rechecksummed(b"rank-class-table format_version=2 c=2 n_max=199",
                                    rows, 2, 199))
    with pytest.raises(ValueError, match=r"^cache row n=150 has a count above 4300 decimal "
                                         r"digits, Python's limit for str-to-int conversion$"):
        load_table(path)
