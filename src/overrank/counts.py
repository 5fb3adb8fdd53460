"""Exact overpartition counting: p-bar series, rank-class tables, the table cache.

An overpartition of n is an ordinary partition in which the first occurrence
of each distinct part value may be overlined.  Overlining never changes the
largest part or the number of parts, so the rank (largest part minus number
of parts) of an overpartition is the rank of its underlying partition, and
every underlying partition with d distinct part values accounts for 2^d
overpartitions.  All counts in this module are exact Python integers.

Both production counts come from generating functions.  `pbar_series` runs
the recurrence from Gauss's theta identity.  `rank_class_table` multiplies
pbar by the bracket in Lovejoy's overpartition rank generating function
(Lovejoy, Ann. Comb. 9 (2005) 321-334) taken modulo z^c - 1, in its per-rank
form: the z^m coefficient of term n is -x^(|m|-1) (1 - x)/(1 + x) for m != 0
and 2/(1 + x) for m = 0, x = q^n, and summed over m = r (mod c) it becomes a
polynomial in x over D_c(x) = 1 - x^(2c) for odd c and (1 - x^c)^2 for even c.
Every term is a shift, a small multiple or a division by 1 - q^m of pbar
packed into one big integer.  Counting a shifted add as one linear pass
over it, each of the about sqrt(N) terms takes at most log2 N doubling steps
per division, each a shifted add and a mask, and 2c - 2 shifted adds for odd
c, 2c - 1 for even c: about sqrt(N) (2c + 2 log2 N) linear passes for odd c,
sqrt(N) (2c + 4 log2 N) for even c, and no full product.
The brute-force enumeration here and the O(c N^2) dynamic program and
product-form series in tests/oracles.py are the independent checks on
them.  Each table row sums to pbar(n); that is the exact link between the
two counts, and the orthogonality identity that recovers a class count
from the root-of-unity evaluations (`asymptotic.a_exact`) reduces to it.

A table is stored as its columns, one per residue, which the build computes
and a sweep reads; rows are derived.  The cache file holds rows, and a load
checks the whole file but converts no count: each column turns from decimal
into integers when a command first reads it, so a single-residue sweep
converts one column and a `count` one row.  Nothing here imports mpmath.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import re
import sys
from dataclasses import dataclass, field
from itertools import islice, repeat

__all__ = [
    "RankClassTable",
    "load_table",
    "pbar_series",
    "rank_class_table",
    "save_table",
]

# Enumeration guard for the brute-force oracle; p(40) is already ~4e4 partitions.
BRUTE_FORCE_LIMIT = 30

# the cache file layout, which `load_table` reads in this version only
TABLE_FORMAT_VERSION = 2
# leads every table checksum; certificates and pinned digests carry it
_CHECKSUM_DOMAIN = 1
# rows that the cache code writes, or reads and checks, as one block; a
# constant, so the transient memory of a save or load stays bounded whatever
# the table depth
_BLOCK_ROWS = 128


def pbar_series(n_max: int) -> list[int]:
    """Coefficients of prod_{v>=1} (1+q^v)/(1-q^v) through degree n_max.

    Entry n is the number of overpartitions of n.  The product is the
    reciprocal of Gauss's theta series 1 + 2 sum_{k>=1} (-1)^k q^{k^2}, so
    pbar(n) = 2 sum_{k>=1, k^2<=n} (-1)^{k+1} pbar(n - k^2): O(n_max^1.5)
    integer additions.  Those additions are most of the work, so they run as
    two plain loops into one total: `sum` over a list comprehension would
    build two lists per n, each in a call of its own, and take about 1.7
    times as long.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    f = [0] * (n_max + 1)
    f[0] = 1
    odd, even = [], []  # k^2 <= n for odd and for even k >= 1
    k = 1
    for n in range(1, n_max + 1):
        if k * k == n:
            (odd if k & 1 else even).append(n)
            k += 1
        total = 0
        for s in odd:
            total += f[n - s]
        for s in even:
            total -= f[n - s]
        f[n] = 2 * total
    return f


@dataclass
class RankDistribution:
    """Exact rank counts for a single n: entries[m] overpartitions of rank m."""

    n: int
    entries: dict[int, int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.entries.values())

    def fold(self, c: int) -> list[int]:
        """Collapse ranks into residue classes mod c."""
        out = [0] * c
        for m, w in self.entries.items():
            out[m % c] += w
        return out


def brute_force_rank_counts(n: int) -> RankDistribution:
    """Oracle: enumerate every partition of n, weight 2^{#distinct parts}.

    Independent of the generating functions; kept deliberately naive, and
    not exported from `overrank`.  Rejects n above BRUTE_FORCE_LIMIT because
    the enumeration grows superpolynomially.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"n={n} exceeds the enumeration guard ({BRUTE_FORCE_LIMIT})")
    dist = RankDistribution(n)
    if n == 0:
        dist.entries[0] = 1
        return dist

    entries = dist.entries

    def rec(remaining: int, max_part: int, largest: int, parts: int, distinct: int) -> None:
        if remaining == 0:
            m = largest - parts
            entries[m] = entries.get(m, 0) + (1 << distinct)
            return
        for part in range(min(remaining, max_part), 0, -1):
            total = part
            mult = 1
            while total <= remaining:
                rec(remaining - total, part - 1,
                    largest if largest else part, parts + mult, distinct + 1)
                mult += 1
                total += part

    rec(n, n, 0, 0, 0)
    return dist


class RankClassTable:
    """Exact table of rank-class counts N(r, c, n) for 0 <= n <= n_max, r mod c.

    Stored as its c columns, column r holding the counts of residue r for
    n = 0..n_max: the layout the build computes and a sweep reads.  c and
    n_max are read from the columns, so construction rejects an empty table
    and columns of unequal or zero length.  Rows are derived: `row(n)` reads
    one count from each column, and `counts`, every row as counts[n][r], is
    built on first access and kept.

    A table that `load_table` read holds each column as the decimal counts
    that the load validated, as bytes, until `column` first reads it and
    converts it once; `row` converts only the counts it returns.  So a
    command converts only the columns, or the row, it reads.

    Built once by `rank_class_table` or `load_table` and treated as immutable
    afterwards, so its checksum and rows are computed once.  `_sweeps` is the
    memo of `verify.verify_subadditivity`: the last range (n_lo, n_hi) swept
    and, per distinct column swept over it, the column and that sweep's
    result.  It holds one range and at most c columns, is hit only when a
    column equals a stored one value for value, and belongs to this table
    alone: equal tables share none of it, and it takes no part in equality.
    """

    def __init__(self, columns: list[list[int]]):
        self._columns = list(columns)
        self._checksum: str | None = None
        self._sweeps: tuple | None = None
        self._rows: list[list[int]] | None = None
        # every build and load passes through here: one C-level pass over the
        # column lengths, and a search for the bad column only when there is one
        if len(set(map(len, self._columns))) == 1 and self._columns[0]:
            return
        if not self._columns:
            raise ValueError("a rank-class table needs at least one column")
        depth = len(self._columns[0])
        if not depth:
            raise ValueError("rank-class table column r=0 holds no counts")
        r = next(r for r, col in enumerate(self._columns) if len(col) != depth)
        raise ValueError(f"rank-class table column r={r} holds {len(self._columns[r])} counts, "
                         f"not n_max + 1 = {depth} as column 0 does")

    def __eq__(self, other):
        if not isinstance(other, RankClassTable):
            return NotImplemented
        return self.c == other.c and all(
            self.column(r) == other.column(r) for r in range(self.c))

    @property
    def c(self) -> int:
        return len(self._columns)

    @property
    def n_max(self) -> int:
        return len(self._columns[0]) - 1

    def column(self, r: int) -> list[int]:
        """The counts of residue r for n = 0..n_max; a loaded column converts on first read."""
        if not 0 <= r < self.c:
            raise ValueError(f"residue r={r} is outside the table's 0..{self.c - 1}")
        col = self._columns[r]
        if type(col[0]) is bytes:
            col = self._columns[r] = list(map(int, col))
        return col

    def row(self, n: int) -> list[int]:
        """The c counts of n, converting only those of a loaded column not yet read."""
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n={n} is outside the table's 0..{self.n_max}")
        return [int(col[n]) for col in self._columns]  # int() of an int is that int

    @property
    def counts(self) -> list[list[int]]:
        """Every row, counts[n][r]: built from the columns on first access and kept."""
        if self._rows is None:
            self._rows = list(map(list, zip(*map(self.column, range(self.c)))))
        return self._rows

    def row_sum(self, n: int) -> int:
        return sum(self.row(n))

    def checksum(self) -> str:
        """SHA-256 over the decimal count stream; also stored in cache files.

        The stream is the prefix "1:c:n_max" and then every count in decimal,
        each followed by a comma: row by row, the cache lines without their
        newlines.
        """
        if self._checksum is None:
            h = _checksum_hash(self.c, self.n_max)
            for block in _row_blocks(self):
                h.update(block.replace(b"\n", b""))
            self._checksum = h.hexdigest()
        return self._checksum


def _checksum_hash(c: int, n_max: int):
    return hashlib.sha256(f"{_CHECKSUM_DOMAIN}:{c}:{n_max}".encode())


def _row_blocks(table: RankClassTable):
    """The cache lines of `table`, `_BLOCK_ROWS` rows to a block.

    Each block is one `%` over its counts, taken row by row from the column
    slices.  %d refuses integers above sys.get_int_max_str_digits() digits
    (4,300 by default); the block's rows are then formatted one by one, so
    the refusal is raised again naming the row.
    """
    columns = list(map(table.column, range(table.c)))
    line = b"%d," * table.c + b"\n"
    for start in range(0, table.n_max + 1, _BLOCK_ROWS):
        block = [col[start:start + _BLOCK_ROWS] for col in columns]
        size = len(block[0])
        flat = [0] * (table.c * size)
        for r, col in enumerate(block):
            flat[r::table.c] = col
        try:
            text = line * size % tuple(flat)
        except ValueError:
            for n, row in enumerate(zip(*block), start):
                try:
                    line % row
                except ValueError:
                    raise ValueError(
                        f"row n={n} has a count above {sys.get_int_max_str_digits()} "
                        "decimal digits, Python's limit for int-to-str conversion") from None
            raise
        yield text


def rank_class_table(n_max: int, c: int) -> RankClassTable:
    """Count overpartitions of each n <= n_max by rank residue mod c.

    The generating function is pbar(q) times Lovejoy's bracket
    1 + 2 sum_{n>=1} (-1)^n q^{n^2+n} (2 - z - 1/z) / ((1 - zq^n)(1 - q^n/z)).
    As 1/((1 - zx)(1 - x/z)) = sum_m z^m x^|m| / (1 - x^2), the z^m coefficient
    of (2 - z - 1/z) / ((1 - zx)(1 - x/z)) is 2/(1 + x) for m = 0 and
    -x^(|m|-1) (1 - x)/(1 + x) for m != 0: the bracket's per-rank form.  Summing
    the geometric series over m = r (mod c), with x = q^n,

        column r = [r = 0] P + sum_n (-1)^(n+1) q^(n^2) W_r(x) P / D_c(x)

    with P = pbar(q), D_c = 1 - x^(2c) for odd c and (1 - x^c)^2 for even c,
    W_r = 2 N_r A, N_r = (1 - x)(x^r + x^(c-r)) for 0 < r < c, N_0 = 2(x^c - x),
    and A = sum_{i<c} (-1)^i x^i, which is D_c / ((1 + x)(1 - x^c)) for both
    parities.  W_r = sum_{1<=t<=2c-1} W_t[r] x^t has small integer coefficients,
    the same for every n, and x^(2c) W_r(1/x) = (-1)^c W_r(x): exponents t and
    2c - t share one sum below, with sign (-1)^c, and for odd c W_c = 0.
    Column c - r is column r, as N_{c-r} = N_r.

    Each series is packed into one integer, coefficient k in `width`-byte
    slot k, i.e. evaluated at X = 256^width, and kept modulo X^(n_max+1).
    Then q^k is a shift, W_t[r] a small multiple and 1/(1 - q^m) the doubling
    product (1 + q^m)(1 + q^2m)(1 + q^4m)...: each step is linear in the
    packed size, and no full product is taken.  Only D_c's factors depend on
    the parity of c, so an odd c takes one doubling product per n where an
    even c takes two.

    Exact: evaluation at X is a ring map Z[q]/(q^(n_max+1)) -> Z/(X^(n_max+1)).
    Slots may go negative or carry into their neighbours on the way, but the
    final coefficients are counts in [0, pbar(n_max)] and pbar(n_max) <
    256^width, so the base-X digits of each reduced column are those counts.
    """
    if c < 2:
        raise ValueError("modulus c must be >= 2")
    pbar = pbar_series(n_max)
    width = (pbar[-1].bit_length() + 7) // 8
    slot, size, half = 8 * width, width * (n_max + 1), c // 2
    packed = int.from_bytes(b"".join(v.to_bytes(width, "little") for v in pbar), "little")
    del pbar
    u = [[0] * (half + 1) for _ in range(2 * c - 1)]  # u[t][r] = W_{t+1}[r]
    for r in range(half + 1):
        terms = ((r, 1), (r + 1, -1), (c - r, 1), (c - r + 1, -1)) if r else ((1, -2), (c, 2))
        for e, k in terms:  # N_r = sum k x^e, times 2A
            for i in range(c):
                u[e + i - 1][r] += -2 * k if i & 1 else 2 * k
    denominator = (2 * c,) if c & 1 else (c, c)  # D_c(x) = prod (1 - x^e)
    acc = [0] * (c - (c & 1))  # acc[min(t, 2c-2-t)] gathers the sums over n for t
    n = 1
    while (d := n * n + n) <= n_max:
        span = n_max + 1 - d  # the slots that survive the shift by q^d, W's lowest term
        keep = (1 << (slot * span)) - 1
        term = packed & keep
        for e in denominator:
            m = n * e
            while m < span:
                term = (term + (term << (slot * m))) & keep
                m *= 2
        if not n & 1:  # (-1)^(n+1)
            term = -term
        for t in range(min(2 * c - 1, (n_max - d) // n + 1)):
            if t == c - 1 and c & 1:  # W_c = 0, and the mirrors past it take sign -1
                term = -term
                continue
            acc[min(t, 2 * c - 2 - t)] += term << (slot * (d + n * t))
        n += 1
    cols = [packed] + [0] * half
    del packed
    while acc:  # free each accumulator once it is spent
        a = acc.pop()
        for r, k in enumerate(u[len(acc)]):
            cols[r] += k * a
    del a
    mask = (1 << 8 * size) - 1
    for r, col in enumerate(cols):
        buf = (col & mask).to_bytes(size, "little")
        slots = map(slice, range(0, size, width), range(width, size + width, width))
        cols[r] = list(map(int.from_bytes, map(buf.__getitem__, slots), repeat("little")))
    # column c - r is column r: the bracket is symmetric in z and 1/z
    cols += [col.copy() for col in reversed(cols[1:(c + 1) // 2])]
    return RankClassTable(cols)


# ---------------------------------------------------------------------------
# Cache file
#
#   rank-class-table format_version=2 c=<c> n_max=<n_max>
#   <row 0: c counts in decimal, each followed by a comma>
#   ...
#   <row n_max>
#   checksum sha256:<RankClassTable.checksum()>
#
# The rows joined without their newlines are the stream that `checksum`
# hashes after its prefix, so `save_table` and `load_table` hash each block
# of rows they write or read, newlines removed.  That digest is the table's
# checksum only because every count is written canonically: ASCII digits, no
# sign, separator or leading zero.  Files of another format_version, such as
# the per-cell version 1, are rejected.
# ---------------------------------------------------------------------------

def save_table(table: RankClassTable, path) -> None:
    """Write the cache atomically: a fresh file beside `path`, then os.replace.

    A concurrent reader sees either the previous file or the complete new one,
    and a write that fails part way leaves the previous file untouched.  Rows
    are written and hashed in blocks of `_BLOCK_ROWS`, one `write` and one
    hash update per block, and that digest becomes the table's checksum; a
    checksum the table already holds must equal it.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(f"rank-class-table format_version={TABLE_FORMAT_VERSION} "
                     f"c={table.c} n_max={table.n_max}\n".encode())
            h = _checksum_hash(table.c, table.n_max)
            for block in _row_blocks(table):
                fh.write(block)
                h.update(block.replace(b"\n", b""))
            digest = h.hexdigest()
            if table._checksum not in (None, digest):
                raise ValueError(f"table checksum {table._checksum} does not match its rows "
                                 f"(sha256:{digest}); not saved")
            table._checksum = digest
            fh.write(f"checksum sha256:{digest}\n".encode())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


_HEADER_KEYS = ("c", "format_version", "n_max")
# a canonical header value: ASCII digits without sign, separator or leading zero
_DECIMAL = re.compile("0|[1-9][0-9]*")
_ROW_BYTES = b"0123456789,\n"
# a count with a leading zero, or an empty count, in the newline-free stream
# of rows, where a comma precedes every count but the first
_BAD_COUNT = re.compile(rb",(?:0[0-9]|,)")


def _block_values(block: bytes, stream: bytes, size: int, c: int) -> list[bytes] | None:
    """The decimal counts of `block` if it is `size` canonical rows of c counts, else None.

    The cache's one row grammar: a canonical count is ASCII digits without
    sign, separator or leading zero, and a row is counts, each followed by a
    comma, then a newline.  `block` is lines read from the file joined, and
    `stream` is `block` without its newlines.  The block splits at its commas
    into c * size counts and a last value; it holds only digits, commas and
    newlines; and it holds `size` newlines that each follow a comma (there
    are at most `size`, one per line read), so each leads a value, which
    holds no other.  Those values are the ones at c, 2c, ..., c * size, so
    the last is the final newline alone and every row holds c counts.  In the
    stream a comma precedes every count but the first, so a leading zero
    shows as ",0" and a digit, and an empty count as ",,", there or at its
    start.  With `_too_long` these are every check that int() made, so the
    counts, a newline leading the first of each row after the block's first,
    stay unconverted.  Each check is a C-level pass over the block.
    """
    values = block.split(b",")
    if (len(values) != c * size + 1 or block.translate(None, _ROW_BYTES)
            or block.count(b",\n") != size or b"".join(values[c::c]).count(b"\n") != size
            or _BAD_COUNT.search(stream) or _BAD_COUNT.match(b"," + stream[:2])):
        return None
    del values[-1]
    return values


def _too_long(lines: list[bytes], values: list[bytes]) -> bool:
    """Whether a count of `values`, from `lines`, has more digits than int() converts.

    The limit is sys.get_int_max_str_digits(); only a line that long can hold
    such a count, and a newline leading a count is not one of its digits.
    """
    limit = sys.get_int_max_str_digits()
    return bool(limit) and max(map(len, lines)) > limit and any(
        len(v.lstrip(b"\n")) > limit for v in values)


def _block_fault(lines: list[bytes], start: int, size: int, c: int) -> str:
    """The first bad row of a block that the load refused, named.

    The block was to hold rows start, ..., start + size - 1; `lines` may stop
    short at the end of the file.  Each row takes the block's checks on its
    own, so the first it fails names it.
    """
    for n, line in enumerate(lines + [b""] * (size - len(lines)), start):
        values = _block_values(line, line.replace(b"\n", b""), 1, c)
        if values is None:
            return _row_fault(n, line, c)
        if _too_long([line], values):
            return _long_count(n)


def _long_count(n: int) -> str:
    return (f"cache row n={n} has a count above {sys.get_int_max_str_digits()} "
            "decimal digits, Python's limit for str-to-int conversion")


def _row_fault(n: int, line: bytes, c: int) -> str:
    if not line.endswith(b"\n"):
        return f"cache file truncated in row n={n}"
    if line.startswith(b"checksum "):
        return f"cache row n={n} is missing"
    if line.count(b",") != c:
        return f"cache row n={n} holds {line.count(b',')} counts, not c={c}"
    return f"cache row n={n} is not canonical: counts must be plain decimal, each followed by a comma"


def _read_header(fh) -> tuple[int, int]:
    """The (c, n_max) of the cache file open in `fh`, from its first line."""
    header = fh.readline().decode("ascii", "backslashreplace").split()
    if not header or header[0] != "rank-class-table":
        raise ValueError("not a rank-class table cache file")
    fields = dict(part.partition("=")[::2] for part in header[1:])
    if len(header) != 4 or sorted(fields) != list(_HEADER_KEYS):
        raise ValueError(f"cache header must set exactly {', '.join(_HEADER_KEYS)}; "
                         f"got {' '.join(header[1:]) or 'nothing'}")
    for key in _HEADER_KEYS:
        if not _DECIMAL.fullmatch(fields[key]):
            raise ValueError(f"bad cache header: {key}={fields[key]} "
                             "is not a plain decimal integer")
    if fields["format_version"] != str(TABLE_FORMAT_VERSION):
        raise ValueError(f"cache format_version={fields['format_version']} is unsupported "
                         f"(this version reads {TABLE_FORMAT_VERSION}); "
                         "delete the file to rebuild it")
    c = int(fields["c"])
    n_max = int(fields["n_max"])
    if c < 1:
        raise ValueError(f"bad cache header: c={c} is below 1")
    return c, n_max


def _read_checksum_line(fh, digest: str, n_max: int) -> None:
    """Check that the rest of the file in `fh` is the checksum line of `digest`."""
    last = fh.readline()
    if last != f"checksum sha256:{digest}\n".encode():
        # a canonical row of any width
        if _block_values(last, last.replace(b"\n", b""), 1, max(1, last.count(b","))):
            raise ValueError(f"cache row n={n_max + 1} lies beyond n_max={n_max}")
        raise ValueError("cache checksum mismatch" if last else
                         "cache file truncated: the checksum line is missing")
    if fh.read(1):
        raise ValueError("cache has data after its checksum line")


def load_table(path) -> RankClassTable:
    """Reload a cached table; raises ValueError on any malformed or corrupt file.

    Every check runs over the whole file here, and none is left for a later
    read.  Rows are read in blocks of `_BLOCK_ROWS`.  `_block_values` checks
    each block to be canonical rows of c counts, and `_too_long` each count
    to be one int() converts, in a few C-level passes; its newline-free
    stream is hashed, and the verified digest becomes the table's checksum.
    A block that fails is checked again row by row, so the error names its
    first bad row.  The counts stay decimal: each column converts when a
    command first reads it (see `RankClassTable`), and the columns are split
    out only once every block has passed.
    """
    with open(path, "rb") as fh:
        c, n_max = _read_header(fh)
        h = _checksum_hash(c, n_max)
        values = []
        for start in range(0, n_max + 1, _BLOCK_ROWS):
            size = min(_BLOCK_ROWS, n_max + 1 - start)
            lines = list(islice(fh, size))
            block = b"".join(lines)
            stream = block.replace(b"\n", b"")
            checked = _block_values(block, stream, size, c)
            if checked is None or _too_long(lines, checked):
                raise ValueError(_block_fault(lines, start, size, c))
            h.update(stream)
            values += checked
        digest = h.hexdigest()
        _read_checksum_line(fh, digest, n_max)
    table = RankClassTable([values[r::c] for r in range(c)])
    table._checksum = digest
    return table
