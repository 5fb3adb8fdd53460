"""Subadditivity certificates and the analytic crossing machinery."""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from oracles import sweep_oracle

from overrank import r_ratio, rank_class_table, t_inequality, verify_subadditivity
from overrank import verify as verify_module
from overrank.counts import RankClassTable, load_table, save_table
from overrank.verify import _sweep_rows, parse_certificate


@pytest.fixture(scope="module")
def table3_small():
    return rank_class_table(260, 3)


def test_single_pair(table3_small):
    cert = verify_subadditivity(table3_small, 0, 9, 9)
    assert cert.pairs_checked == 1
    assert cert.violations == []
    lhs = table3_small.counts[18][0]
    rhs = table3_small.counts[9][0] ** 2
    assert lhs < rhs
    assert cert.min_margin == Fraction(rhs, lhs)


def test_clean_range(table3_small):
    cert = verify_subadditivity(table3_small, 0, 9, 60)
    assert cert.pairs_checked == 52 * 53 // 2
    assert cert.violations == []
    assert cert.min_margin > 1


def test_below_certified_range_is_descriptive(table3_small):
    # outcomes below the certified range are recorded, never asserted; residue 1
    # has genuine failures there (for instance n1 = n2 = 1)
    cert = verify_subadditivity(table3_small, 1, 1, 8)
    assert len(cert.violations) > 0
    assert (1, 1, table3_small.counts[2][1],
            table3_small.counts[1][1] ** 2) in cert.violations


def test_nontrivial_min_margin_matches_exact_rescan(table3_small):
    cert = verify_subadditivity(table3_small, 2, 9, 40)
    best = None
    for n1 in range(9, 41):
        for n2 in range(n1, 41):
            m = Fraction(table3_small.counts[n1][2] * table3_small.counts[n2][2],
                         table3_small.counts[n1 + n2][2])
            best = m if best is None else min(best, m)
    assert cert.min_margin == best


def test_table_depth_guard(table3_small):
    with pytest.raises(ValueError):
        verify_subadditivity(table3_small, 0, 9, 200)


@pytest.mark.parametrize("a, n_lo, n_hi, message", [
    (3, 1, 5, "residue r=3 is outside the table's 0..2"),
    (-1, 1, 5, "residue r=-1 is outside the table's 0..2"),
    (0, 6, 5, "need 1 <= n_lo <= n_hi"),
], ids=["a-is-c", "a-negative", "n-lo-above-n-hi"])
def test_sweep_names_a_bad_argument(table3_small, a, n_lo, n_hi, message):
    with pytest.raises(ValueError) as raised:
        verify_subadditivity(table3_small, a, n_lo, n_hi)
    assert str(raised.value) == message


def test_certificate_without_a_positive_lhs_round_trips():
    # the only pair, (1, 1), has lhs = count(2) = 0, so no margin is defined
    cert = verify_subadditivity(RankClassTable([[1, 1, 0]]), 0, 1, 1)
    assert cert.min_margin is None and cert.violations == []
    text = cert.serialize()
    assert "\nmin_margin none\n" in text
    assert parse_certificate(text) == cert


def test_certificate_round_trip(table3_small):
    cert = verify_subadditivity(table3_small, 1, 1, 12)
    text = cert.serialize()
    back = parse_certificate(text)
    assert back == cert
    assert back.serialize() == text


def test_parse_rejects_non_canonical_certificates(table3_small):
    text = verify_subadditivity(table3_small, 1, 1, 12).serialize()
    lines = text.splitlines(keepends=True)
    assert len(lines) > 4  # a header, the margin, violations and end
    head = lines[0]
    assert " pairs=78 " in head
    bad = {
        "truncated": "".join(lines[:3]),
        "no trailing newline": text[:-1],
        "extra line": text + "end\n",
        "count mismatch": "".join([head.replace(" violations=", " violations=9")] + lines[1:]),
        "zero denominator": "".join([head, "min_margin 1/0\n"] + lines[2:]),
        "unreduced margin": "".join([head, "min_margin 2/2\n"] + lines[2:]),
        "unknown schema": text.replace("schema=1 ", "schema=2 ", 1),
        # 1..12 holds 12 * 13 / 2 = 78 unordered pairs
        "wrong pair count": text.replace(" pairs=78 ", " pairs=5 ", 1),
        "garbled": "certificate\n",
        "empty": "",
    }
    for case in bad.values():
        with pytest.raises(ValueError, match="not a canonical"):
            parse_certificate(case)


# ---------------------------------------------------------------------------
# Row pruning: the sweep against the every-pair oracle
# ---------------------------------------------------------------------------

def column_table(vals: list[int]) -> RankClassTable:
    """One-column table (c = 1, a = 0) holding `vals` as its counts."""
    return RankClassTable([list(vals)])


def assert_matches_oracle(vals, n_lo, n_hi):
    cert = verify_subadditivity(column_table(vals), 0, n_lo, n_hi)
    violations, min_margin = sweep_oracle(vals, n_lo, n_hi)
    assert cert.violations == violations
    assert cert.min_margin == min_margin
    return cert


@pytest.mark.parametrize("c", range(2, 12))
def test_sweep_matches_oracle_every_residue(c):
    # n_lo = 1 takes in zero counts and genuine violations
    table = rank_class_table(200, c)
    for a in range(c):
        vals = table.column(a)[:201]
        for n_lo in (1, 9):
            cert = verify_subadditivity(table, a, n_lo, 100)
            assert (cert.violations, cert.min_margin) == sweep_oracle(vals, n_lo, 100)


def test_sweep_matches_oracle_on_every_small_column():
    # every column over {0, 1, 2, 3} of length 2*n_hi + 1, n_hi <= 3, at every
    # n_lo: zeros, ties, and log-concave tails that start anywhere or nowhere
    for n_hi in (1, 2, 3):
        for vals in itertools.product(range(4), repeat=2 * n_hi + 1):
            vals = list(vals)
            for n_lo in range(1, n_hi + 1):
                found = _sweep_rows(vals, n_lo, n_hi)[:2]
                assert found == sweep_oracle(vals, n_lo, n_hi), (vals, n_lo)


@functools.cache
def small_table(c: int) -> RankClassTable:
    return rank_class_table(120, c)


PERTURBATION = st.tuples(
    st.integers(0, 120),
    st.sampled_from(["scale", "zero", "spike"]),
    st.integers(1, 64),
    st.integers(1, 64),
)


@settings(max_examples=150, deadline=None, database=None)
@given(c=st.integers(2, 7), a=st.integers(0, 6), n_lo=st.integers(1, 20),
       width=st.integers(0, 40), perturbations=st.lists(PERTURBATION, max_size=4))
def test_sweep_matches_oracle_on_perturbed_columns(c, a, n_lo, width, perturbations):
    n_hi = n_lo + width
    table = small_table(c)
    vals = table.column(a % c)[:2 * n_hi + 1]
    for n, kind, num, den in perturbations:
        n %= len(vals)
        if kind == "scale":  # up or down by num/den
            vals[n] = vals[n] * num // den
        elif kind == "zero":
            vals[n] = 0
        else:  # a spike of num bits
            vals[n] = (vals[n] or 1) << num
    assert_matches_oracle(vals, n_lo, n_hi)


def smooth_vals(top: int) -> list[int]:
    """floor(2^(20 sqrt n)): 200-bit counts at n = 100, log-concave, and every
    pair n1, n2 >= 9 clears by more than 30 bits."""
    with mp.workprec(320):
        return [int(mp.floor(mp.power(2, 20 * mp.sqrt(n)))) for n in range(top + 1)]


N_LO, N_HI = 9, 50


def test_smooth_column_prunes_and_passes():
    vals = smooth_vals(2 * N_HI)
    cert = assert_matches_oracle(vals, N_LO, N_HI)
    assert cert.violations == [] and cert.min_margin > 2 ** 30
    assert cert.pairs_compared == N_HI - N_LO + 1  # log-concave from N_LO on


def test_log_linear_column_compares_one_pair_per_row():
    # 3 * 2^n has v(m)^2 = v(m-1) * v(m+1) everywhere: an equality, which
    # still makes the whole column its log-concave tail
    vals = [3 << n for n in range(2 * N_HI + 1)]
    cert = assert_matches_oracle(vals, N_LO, N_HI)
    assert cert.violations == [] and cert.min_margin == 3
    assert cert.pairs_compared == N_HI - N_LO + 1


def test_planted_equality_is_a_violation():
    # with n2 <= 50, 90 = 40 + 50 is the most lopsided split of 90, hence the
    # one with the smallest product: the other splits of 90 still pass
    vals = smooth_vals(2 * N_HI)
    rhs = vals[40] * vals[50]
    vals[90] = rhs
    cert = assert_matches_oracle(vals, N_LO, N_HI)
    assert cert.violations == [(40, 50, rhs, rhs)]
    assert cert.min_margin == 1


def test_planted_near_equalities_settle_exactly():
    # two margins within 2^-250 of 1, equal as float logs; the exact
    # minimum is the one with the larger product
    vals = smooth_vals(2 * N_HI)
    rhs_a = vals[35] * vals[50]
    rhs_b = vals[40] * vals[50]
    vals[85] = rhs_a - 1
    vals[90] = rhs_b - 1
    assert math.log2(rhs_b) - math.log2(rhs_b - 1) == 0.0
    cert = assert_matches_oracle(vals, N_LO, N_HI)
    assert cert.violations == []
    assert cert.min_margin == Fraction(rhs_b, rhs_b - 1)
    assert cert.min_margin < Fraction(rhs_a, rhs_a - 1)


def test_tight_row_holding_the_minimum_is_not_skipped():
    # logs 3, 5, 7, 9 (in units of 100 bits): row 2's one margin,
    # X^10 / (X^9 + 1), lies less than 2^-899 below the running minimum X that
    # row 1 leaves; the +1 also breaks log-concavity at the top of the column
    x = 2 ** 100
    vals = [1, x ** 3, x ** 5, x ** 7, x ** 9 + 1]
    cert = assert_matches_oracle(vals, 1, 2)
    assert cert.violations == []
    assert cert.min_margin == Fraction(x ** 10, x ** 9 + 1)


def test_row_below_a_float_underestimated_minimum_is_not_skipped():
    # row 1's minimum A^2/B has logs near 7000 and 14000, and the plain float
    # log2 of it, 2 log2(A) - log2(B) rounded to nearest, falls more than
    # 2^-40 below the true one; row 3 holds a margin 2^-41 smaller, which a
    # minimum kept as that float would miss
    a = 3 ** 4417
    b = a * a // 1035
    with mp.workprec(200):
        log_min = mp.log(a * a, 2) - mp.log(b, 2)
        float_log = 2 * math.log2(a) - math.log2(b)
        assert float_log < log_min - 2 ** -40
        v6 = int(mp.floor(mp.power(2, 60 - log_min + mpf(2) ** -41)))
    vals = [1, a, b, 2 ** 30, 2 ** 38, 2 ** 45, v6]
    cert = assert_matches_oracle(vals, 1, 3)
    assert cert.min_margin == Fraction(2 ** 60, v6) < Fraction(a * a, b)


def test_spike_in_last_row_is_not_skipped():
    vals = smooth_vals(2 * N_HI)
    vals[2 * N_HI] = vals[N_HI] ** 2 + 5
    cert = assert_matches_oracle(vals, N_LO, N_HI)
    assert cert.violations == [(N_HI, N_HI, vals[2 * N_HI], vals[N_HI] ** 2)]


def test_zero_count_mid_range():
    vals = smooth_vals(2 * N_HI)
    vals[30] = 0
    cert = assert_matches_oracle(vals, N_LO, N_HI)
    # every pair with 30 as a part has rhs = 0 <= lhs
    assert {(n1, n2) for n1, n2, _, _ in cert.violations} == (
        {(n1, 30) for n1 in range(N_LO, 31)} | {(30, n2) for n2 in range(30, N_HI + 1)})
    assert cert.min_margin == 0


def test_bound_clears_nearly_every_row_of_the_paper_range(table3, table4, table5):
    # the point of the pruning: every column is log-concave from about
    # n = 32 on, so a row stops at its first passing pair there, and a sweep
    # of 792 rows (313,236 pairs) multiplies out at most 1,100 of them
    sweeps = [(t, a, 9, 800) for t in (table3, table4, table5) for a in range(t.c)]
    sweeps += [(table3, 0, 400, 799), (table3, 0, 700, 799)]
    for table, a, n_lo, n_hi in sweeps:
        cert = verify_subadditivity(table, a, n_lo, n_hi)
        assert cert.violations == [] and cert.pairs_compared <= 1100, (table.c, a, n_lo)


# ---------------------------------------------------------------------------
# The sweep memo: one sweep per distinct column for the table's last range
# ---------------------------------------------------------------------------

MEMO_C, MEMO_LO, MEMO_HI = 5, 9, 150


@pytest.fixture
def sweeps(monkeypatch):
    """The columns `_sweep_rows` is handed, in call order."""
    seen = []
    sweep = verify_module._sweep_rows

    def recorded(vals, n_lo, n_hi):
        seen.append(list(vals))
        return sweep(vals, n_lo, n_hi)

    monkeypatch.setattr(verify_module, "_sweep_rows", recorded)
    return seen


def memo_column(table: RankClassTable, a: int, n_hi: int = MEMO_HI) -> list[int]:
    return table.column(a)[:2 * n_hi + 1]


def assert_is_own_sweep(cert, vals, n_lo=MEMO_LO, n_hi=MEMO_HI):
    """The certificate carries exactly what a memo-free sweep of `vals` finds."""
    violations, min_margin, compared = _sweep_rows(vals, n_lo, n_hi)
    assert (cert.violations, cert.min_margin, cert.pairs_compared) == (
        violations, min_margin, compared)


def test_mirrored_residues_share_one_sweep(sweeps):
    # N(a,c,n) = N(c-a,c,n): the certificates of a and c-a differ in a= only
    table = rank_class_table(2 * MEMO_HI, MEMO_C)
    certs = [verify_subadditivity(table, a, MEMO_LO, MEMO_HI) for a in range(MEMO_C)]
    assert len(sweeps) == 3  # columns 0, {1, 4} and {2, 3}
    for a in range(1, MEMO_C):
        text = certs[MEMO_C - a].serialize().replace(f" a={MEMO_C - a} ", f" a={a} ", 1)
        assert certs[a].serialize() == text
    for a in (1, 2):
        assert_is_own_sweep(certs[a], memo_column(table, a))
    # residues 3 and 4 take the sweeps of 2 and 1, and multiply nothing out
    for a in (3, 4):
        assert certs[a].pairs_compared == 0
        assert (certs[a].violations, certs[a].min_margin) == _sweep_rows(
            memo_column(table, a), MEMO_LO, MEMO_HI)[:2]
    assert table._sweeps[0] == (MEMO_LO, MEMO_HI) and len(table._sweeps[1]) == 3


def test_edited_mirror_column_gets_its_own_sweep(sweeps, tmp_path):
    table = rank_class_table(2 * MEMO_HI, MEMO_C)
    clean = verify_subadditivity(table, 1, MEMO_LO, MEMO_HI)
    assert clean.violations == []
    # a spike in the last row of column 4 makes (MEMO_HI, MEMO_HI) a violation
    cols = [list(table.column(r)) for r in range(MEMO_C)]
    cols[4][2 * MEMO_HI] = cols[4][MEMO_HI] ** 2
    edited = RankClassTable(cols)
    # in memory: the table the memo lives on, changed after residue 1's sweep
    table.column(4)[2 * MEMO_HI] = cols[4][2 * MEMO_HI]
    cert = verify_subadditivity(table, 4, MEMO_LO, MEMO_HI)
    assert len(sweeps) == 2 and len(cert.violations) == 1
    assert_is_own_sweep(cert, memo_column(edited, 4))
    # in a cache whose checksum line was rewritten for the edited rows
    path = tmp_path / "t5.tbl"
    save_table(rank_class_table(2 * MEMO_HI, MEMO_C), path)
    lines = path.read_bytes().split(b"\n")
    row = lines[1 + 2 * MEMO_HI].split(b",")
    row[4] = str(cols[4][2 * MEMO_HI]).encode()
    lines[1 + 2 * MEMO_HI] = b",".join(row)
    lines[-2] = f"checksum sha256:{edited.checksum()}".encode()
    path.write_bytes(b"\n".join(lines))
    loaded = load_table(path)
    assert loaded == edited
    first, mirror = (verify_subadditivity(loaded, a, MEMO_LO, MEMO_HI) for a in (1, 4))
    assert len(sweeps) == 4
    assert first.serialize() == clean.serialize().replace(
        clean.table_checksum, edited.checksum())
    assert_is_own_sweep(mirror, memo_column(edited, 4))
    assert mirror.table_checksum == edited.checksum()


def test_equal_tables_share_no_memo(sweeps):
    table = rank_class_table(2 * MEMO_HI, MEMO_C)
    twin = rank_class_table(2 * MEMO_HI, MEMO_C)
    assert table == twin and table is not twin
    cert = verify_subadditivity(table, 1, MEMO_LO, MEMO_HI)
    assert twin._sweeps is None
    assert verify_subadditivity(twin, 1, MEMO_LO, MEMO_HI) == cert
    assert len(sweeps) == 2 and table._sweeps[1] is not twin._sweeps[1]


def test_mutating_a_certificate_leaves_later_results_alone(sweeps):
    table = rank_class_table(40, 3)
    first = verify_subadditivity(table, 1, 1, 20)
    text = first.serialize()
    assert first.violations  # genuine ones, below the certified range
    first.violations.clear()
    mirror = verify_subadditivity(table, 2, 1, 20)
    assert mirror.serialize() == text.replace(" a=1 ", " a=2 ", 1)
    mirror.violations.append((0, 0, 0, 0))
    assert verify_subadditivity(table, 1, 1, 20).serialize() == text
    assert len(sweeps) == 1


def test_new_range_drops_the_old_entries(sweeps):
    table = rank_class_table(2 * MEMO_HI, MEMO_C)
    for a in (1, 2):
        verify_subadditivity(table, a, MEMO_LO, MEMO_HI)
    narrow = verify_subadditivity(table, 1, MEMO_LO, 100)
    assert table._sweeps[0] == (MEMO_LO, 100) and len(table._sweeps[1]) == 1
    assert_is_own_sweep(narrow, memo_column(table, 1, 100), n_hi=100)
    # back to the first range: swept afresh, as it was dropped
    verify_subadditivity(table, 1, MEMO_LO, MEMO_HI)
    assert len(sweeps) == 4 and len(table._sweeps[1]) == 1


# ---------------------------------------------------------------------------
# Crossing inequalities
# ---------------------------------------------------------------------------

def test_t_inequality_boundary_cases():
    assert t_inequality(109, 3).holds
    assert not t_inequality(108, 3).holds
    assert not t_inequality(10, 3).holds
    assert t_inequality(109, 3).margin > 0


def test_t_inequality_single_crossing():
    for c, crossing in {3: 109, 4: 70, 5: 65}.items():
        transitions = []
        prev = None
        for n1 in list(range(2, 400)) + list(range(400, 10001, 111)) + [10000]:
            holds = t_inequality(n1, c).holds
            if prev is not None and holds != prev:
                transitions.append(n1)
            prev = holds
        assert transitions == [crossing], c


def test_t_generic_threshold():
    # for c >= 6 the right side log(48 c n1) + log S relaxes to log(840 c n1),
    # and from n1 = (840 c)^2 on, T(1) > 2 log n1 >= log(840 c n1) closes it
    c = 6
    n1 = (840 * c) ** 2
    assert t_inequality(n1, c).holds
    with mp.workprec(240):
        for n in (100, n1):
            x = mpf(n)
            s_factor = mp.log((1 + 1 / mp.sqrt(2 * x)) / (1 - 1 / mp.sqrt(x)) ** 2)
            assert mp.log(48 * c * x) + s_factor < mp.log(840 * c * x), n
        x = mpf(n1)
        two_log = 2 * mp.log(x)
        assert 2 * mp.pi * mp.sqrt(x) - mp.pi * mp.sqrt(2 * x) > two_log
        assert two_log >= mp.log(840 * c * x)


def test_t_inequality_validation():
    with pytest.raises(ValueError):
        t_inequality(100, 2)
    with pytest.raises(ValueError):
        t_inequality(1, 3)


def test_crossing_functions_monotone_in_ratio():
    # T increases and S decreases in C = n2/n1 over C in [1, 100]
    with mp.workprec(240):
        grid = [mpf(10) ** (mpf(i) / 16) for i in range(33)]
        for n1 in (50, 100, 1000):
            x = mpf(n1)
            T = [mp.pi * (mp.sqrt(x) + mp.sqrt(C * x)) - mp.pi * mp.sqrt(x + C * x)
                 for C in grid]
            S = [(1 + 1 / mp.sqrt(x + C * x)) / ((1 - 1 / mp.sqrt(x)) * (1 - 1 / mp.sqrt(C * x)))
                 for C in grid]
            assert all(a < b for a, b in zip(T, T[1:])), n1
            assert all(a > b for a, b in zip(S, S[1:])), n1


def test_r_ratio_crosses_targets_at_published_starts():
    # the published window starts are the first n with the ratio below its
    # target: one step earlier the ratio is still at or above it
    with mp.workprec(240):
        for c, target, start in ((3, "0.33142", 2089), (4, "0.24084", 272),
                                 (5, "0.1897", 449)):
            assert r_ratio(c, start) < mpf(target) <= r_ratio(c, start - 1), c
