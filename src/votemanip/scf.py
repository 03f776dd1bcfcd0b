"""Social choice functions: table-backed and rule-backed, and their basic predicates.

Every SCF maps a profile of ``n`` rankings over ``k`` alternatives to a single
winning alternative, deterministically. Rule backends break score ties toward
the lowest alternative id, which keeps plurality and Borda anonymous but
deliberately non-neutral, mirroring how common voting rules behave.
"""
from __future__ import annotations

import json
import random
from functools import cached_property, lru_cache, partial
from itertools import product
from math import factorial

from .engine import check_seed
from .errors import CapExceededError
from .lines import FOLDS, ScoreLines, power_counts
from .rankings import (
    MAX_TABLE_K,
    RankTable,
    check_alternatives,
    check_cap,
    check_coordinate,
    class_tables,
    indicator,
    lane_int,
    profile_space_size,
    profile_strides,
    rank_order,
    ranking_orders,
    ranking_rank_of,
    swap_first_voters,
)

DEFAULT_TABLE_CAP = 10 ** 7

# A score rule's move read keeps a table of winners per score code only up to
# this many entries (one byte each), whatever the SCF's cap; past it each
# code is decoded (ScoreRule.move_reader).
WINNER_TABLE_ENTRIES = 1 << 20

SCF_TABLE_ENCODING = "lehmer-mixed-radix"

# Headroom: a table holds each outcome in one byte. Built tables stop at
# MAX_TABLE_K alternatives (ranking_orders); TableSCF checks a table it is handed.
assert MAX_TABLE_K < 256, "an outcome must fit in one byte"


class SCF:
    """Base class: a pure total map from profiles to alternatives. A table of more
    than ``cap`` entries is refused before it is built; SCFs derived from f get f's cap."""

    n: int
    k: int

    def __init__(self, n: int, k: int, *, cap: int = DEFAULT_TABLE_CAP):
        if n < 1:
            raise ValueError("need at least one voter")
        if k < 1:
            raise ValueError("need at least one alternative")
        self.n = n
        self.k = k
        self.cap = cap
        self._table_cache: bytes | None = None
        self._block: Block | None = None
        self._place = 0

    def evaluate_orders(self, orders: tuple[tuple[int, ...], ...]) -> int:
        raise NotImplementedError

    def move_reader(self):
        """``read(index, i, r, r2)``: the outcomes of profile ``index``, whose
        voter i has rank r, and of that profile with voter i's rank moved to
        r2, from one call. The voters' ranks are the index's digits at
        :func:`rankings.profile_strides`; their orders are decoded on first use
        (:class:`rankings.RankTable`), so no k!-sized table is built. This read
        goes through :meth:`evaluate_orders`; rules with a faster read override it."""
        k = self.k
        fact, strides = factorial(k), profile_strides(self.n, k)
        orders = RankTable(partial(rank_order, k))
        evaluate = self.evaluate_orders

        def read(index, i, r, r2):
            profile = [orders[index // s % fact] for s in strides]
            before = evaluate(tuple(profile))
            profile[i] = orders[r2]
            return before, evaluate(tuple(profile))
        return read

    def table(self) -> bytes:
        """One outcome byte per profile, indexed by profile index. Computed once, cached."""
        if self._table_cache is None:
            check_cap(self.cap, "(k!)^n table entries", self.k, self.n)
            self._table_cache = self._build_table()
        return self._table_cache

    def _build_table(self) -> bytes:
        """Every profile's outcome in index order; rules with a faster build override this."""
        return bytes(map(self.evaluate_orders, product(ranking_orders(self.k), repeat=self.n)))

    def counted(self, count, *args):
        """This SCF's value of ``count(tables, n, k, *args)``, a count that
        returns one value per table of a block (the census, rank, fiber,
        transition and refined-edge counts): made once, over the SCF's own
        table, the block of one, or over all of its :class:`Block`'s tables
        when a sweep placed it in one.

        This is the one place that chooses a count's path. A
        :class:`ScoreRule` reads the counts that :data:`lines.FOLDS` lists
        from its weighted lines (:attr:`ScoreRule.lines`), with no table;
        every other count, and every count of any other SCF, runs over the
        table."""
        if isinstance(self, ScoreRule) and count in FOLDS:
            return self.lines.read(count, args)
        if self._block is None:
            Block([self])
        return self._block.read(self._place, count, args)

    def range(self) -> frozenset[int]:
        """Exact image over all profiles: the alternatives with a byte in the
        table, each found by one ``in`` (``memchr``) that stops at its first entry."""
        table = self.table()
        return frozenset(x for x in range(self.k) if x in table)

    def describe(self) -> dict:
        """JSON-friendly description (alternatives and voters 1-based)."""
        return {"rule": type(self).__name__.lower(), "n": self.n, "k": self.k}


class Block:
    """Same-shape SCFs whose counts are made together (:meth:`SCF.counted`):
    each count runs once over the members' tables, joined, on its first read
    by any member, and every member reads its own value from it."""

    def __init__(self, scfs):
        self.tables = [f.table() for f in scfs]
        self.n, self.k = scfs[0].n, scfs[0].k
        self._made: dict = {}
        for place, f in enumerate(scfs):
            f._block, f._place = self, place

    def read(self, place: int, count, args: tuple):
        made = self._made.get((count, args))
        if made is None:
            made = self._made[count, args] = count(self.tables, self.n, self.k, *args)
        return made[place]


class TableSCF(SCF):
    """SCF given by an explicit outcome per profile index: a ``bytes`` table,
    kept as it is, or a sequence of ints, each checked and stored as bytes."""

    def __init__(self, n: int, k: int, outcomes, *, cap: int = DEFAULT_TABLE_CAP):
        super().__init__(n, k, cap=cap)
        size = profile_space_size(n, k)
        if len(outcomes) != size:
            raise ValueError(f"table has {len(outcomes)} entries, expected {size}")
        if type(outcomes) is bytes:
            # A bytes table holds ints only: the bytes left after deleting
            # 0..k-1 are its bad entries, and the largest is the one reported.
            # The length check leaves k < 256, as no table has (256!)^n entries.
            stray = outcomes.translate(None, bytes(range(k)))
            bad = [max(stray)] if stray else []
        else:
            bad = [x for x in outcomes if type(x) is not int or not 0 <= x < k]
        if bad:
            raise ValueError(f"table outcome {bad[0]!r} is not an alternative in [0, {k})")
        self._table_cache = bytes(outcomes)

    def move_reader(self):
        """Both outcomes are table bytes: the move changes the index by
        ``(r2 - r)`` times voter i's stride."""
        table, strides = self._table_cache, profile_strides(self.n, self.k)

        def read(index, i, r, r2):
            return table[index], table[index + (r2 - r) * strides[i]]
        return read

    @staticmethod
    def description(n: int, k: int) -> dict:
        """What :meth:`describe` returns for any (n, k) table, known before
        the table is built: the outcomes are not listed."""
        return {"rule": "table", "n": n, "k": k}

    def describe(self) -> dict:
        return self.description(self.n, self.k)


class Constant(SCF):
    """Elects the same alternative regardless of the profile."""

    def __init__(self, n: int, k: int, winner: int, *, cap: int = DEFAULT_TABLE_CAP):
        super().__init__(n, k, cap=cap)
        if not 0 <= winner < k:
            raise ValueError("winner out of range")
        self.winner = winner

    def evaluate_orders(self, orders):
        return self.winner

    def describe(self) -> dict:
        return {"rule": "constant", "n": self.n, "k": self.k, "winner": self.winner + 1}


class ScoreRule(SCF):
    """A positional score rule: a voter gives ``scores[p]`` points to the
    alternative they rank at position p; ties go to the lowest id.

    A score vector is read as one int, its code (:meth:`code`): alternative
    a's total is digit a in base ``B = n * top + 1`` (:attr:`base`), ``top``
    the largest score, for the first k - 1 alternatives. A digit of a sum of
    at most n rankings' codes is at most ``n * top < B`` and never carries, so
    the sum is the code of those rankings' score vector, and the last total is
    the scores' sum less the others. One decoder reads every code
    (:meth:`winner_of`): the rows of :meth:`rows`, :meth:`evaluate_orders`
    and both branches of :meth:`move_reader`.

    A profile's outcome depends only on the sum of its voters' codes, so the
    rule is anonymous. Its rank, fiber, transition and refined-edge counts
    are folds over its weighted lines (:attr:`lines`), the same for every
    coordinate, and build no table (:meth:`SCF.counted`)."""

    scores: tuple[int, ...]

    @cached_property
    def base(self) -> int:
        top = max(self.scores)
        # Headroom: a digit is a sum of n scores, each in [0, top], so at most n * top < B.
        assert all(type(x) is int and 0 <= x <= top for x in self.scores), \
            "a score outside [0, top] would carry between digits"
        return self.n * top + 1

    def code(self, order) -> int:
        """``sum(score_a * B**a)`` over the first k - 1 alternatives of the
        ranking listed as ``order``."""
        base, last = self.base, self.k - 1
        return sum(x * base ** a for a, x in zip(order, self.scores) if a < last)

    def winner_of(self):
        """``winner(code)``: the alternative with the largest total in the
        code of a sum of n rankings' codes, ties to the lowest id. It is made
        per call, not kept, so the SCF stays picklable for the pool."""
        base, points, last = self.base, self.n * sum(self.scores), self.k - 1
        alternatives = range(last)

        def winner(code):
            best = high = 0
            left = points
            for a in alternatives:
                total = code % base
                code //= base
                left -= total
                if total > high:
                    best, high = a, total
            return last if left > high else best
        return winner

    def evaluate_orders(self, orders):
        return self.winner_of()(sum(map(self.code, orders)))

    def move_reader(self):
        """Both winners from one sum of codes per draw: a profile's code is
        the sum of its voters' ranks' codes, filled per rank on first use, and
        the moved profile's swaps rank r's code for r2's. Up to
        :data:`WINNER_TABLE_ENTRIES` codes, ``B**(k-1)``, the winners are kept
        in a table, each filled on its first read (255 until then); past it
        each is decoded. The shape chooses, not the SCF's cap."""
        k, n = self.k, self.n
        fact, strides = factorial(k), profile_strides(n, k)
        codes = RankTable(lambda r: self.code(rank_order(k, r)))
        winner = self.winner_of()
        size = self.base ** (k - 1)
        if size > WINNER_TABLE_ENTRIES:
            def read(index, i, r, r2):
                code = 0
                for s in strides:
                    code += codes[index // s % fact]
                return winner(code), winner(code - codes[r] + codes[r2])
            return read
        # Headroom: B >= 2 at k >= 2, so the bound leaves k <= 21 and no winner is the sentinel.
        assert k <= 255, "a winner must not be the sentinel 255"
        winners = bytearray(b"\xff") * size

        def read(index, i, r, r2):
            code = 0
            for s in strides:
                code += codes[index // s % fact]
            moved = code - codes[r] + codes[r2]
            before = winners[code]
            if before == 255:
                before = winners[code] = winner(code)
            after = winners[moved]
            if after == 255:
                after = winners[moved] = winner(moved)
            return before, after
        return read

    @cached_property
    def codes(self) -> list[int]:
        """Per ranking rank, the ranking's code."""
        return list(map(self.code, ranking_orders(self.k)))

    def rows(self, totals) -> dict[int, bytes]:
        """Per total s in ``totals`` of n - 1 voters' codes, its row: the
        outcomes ``winner(s + codes[r])`` the last voter sees at each rank r,
        as bytes. One winner is decoded per distinct sum; the table build and
        :attr:`lines` read every row here."""
        codes = self.codes
        winner = self.winner_of()
        winners = {t: winner(t) for t in {s + c for s in totals for c in codes}}
        return {s: bytes([winners[s + c] for c in codes]) for s in totals}

    @cached_property
    def lines(self) -> ScoreLines:
        """The rule's weighted lines (:class:`lines.ScoreLines`): per distinct
        total s of n - 1 voters' codes, its weight, the ordered (n-1)-tuples
        of ranks that sum to s, and its :meth:`rows` row over every rank.
        Refused over the cap exactly as :meth:`table` is, before anything is
        built. The rows hold one byte per (total, rank), at most the table's
        ``(k!)^n``, as no more totals than tuples are distinct."""
        check_cap(self.cap, "(k!)^n table entries", self.k, self.n)
        weights = power_counts(self.codes, self.n - 1)[-1]
        assert sum(weights.values()) == factorial(self.k) ** (self.n - 1), \
            "every (n-1)-tuple of ranks sums to one total"
        return ScoreLines(self.n, self.k, self.codes, weights, self.rows(weights))

    def _build_table(self) -> bytes:
        """The first n - 1 voters' sums of codes are listed in profile-index
        order; the last voter's row of outcomes is built once per distinct sum
        (:meth:`rows`)."""
        codes = self.codes
        prefixes = [0]
        for _ in range(self.n - 1):
            prefixes = [s + v for s in prefixes for v in codes]
        rows = self.rows(dict.fromkeys(prefixes))
        # Appending the rows keeps the peak near the table's size; b"".join of
        # (k!)^(n-1) rows takes a buffer view of each at once.
        table = bytearray()
        for s in prefixes:
            table += rows[s]
        return bytes(table)


class Plurality(ScoreRule):
    """Most first places wins; ties go to the lowest alternative id."""

    @cached_property
    def scores(self):
        return (1,) + (0,) * (self.k - 1)


class Borda(ScoreRule):
    """Position p scores k-1-p points; ties go to the lowest alternative id."""

    @cached_property
    def scores(self):
        return tuple(range(self.k - 1, -1, -1))


class TopHDictator(SCF):
    """Elects voter ``i``'s favourite among the subset H."""

    def __init__(self, n: int, k: int, i: int, H, *, cap: int = DEFAULT_TABLE_CAP):
        super().__init__(n, k, cap=cap)
        check_coordinate(n, i)
        subset = frozenset(H)
        if not subset:
            raise ValueError("H must be nonempty")
        if not all(0 <= a < k for a in subset):
            raise ValueError("H members out of range")
        self.i = i
        self.H = subset

    def evaluate_orders(self, orders):
        H = self.H
        for alt in orders[self.i]:
            if alt in H:
                return alt
        raise AssertionError("unreachable: H nonempty")

    def describe(self) -> dict:
        return {
            "rule": "top-h-dictator",
            "n": self.n,
            "k": self.k,
            "voter": self.i + 1,
            "subset": sorted(a + 1 for a in self.H),
        }


class OneCoordinate(SCF):
    """An arbitrary function of a single voter's ranking."""

    def __init__(self, n: int, k: int, i: int, outcomes, *, cap: int = DEFAULT_TABLE_CAP):
        super().__init__(n, k, cap=cap)
        check_coordinate(n, i)
        outcomes = tuple(outcomes)
        if len(outcomes) != factorial(k):
            raise ValueError(f"need one outcome per ranking, got {len(outcomes)}")
        if not all(0 <= x < k for x in outcomes):
            raise ValueError("outcome out of range")
        self.i = i
        self.outcomes = outcomes

    def evaluate_orders(self, orders):
        return self.outcomes[ranking_rank_of(self.k)[orders[self.i]]]

    def describe(self) -> dict:
        return {
            "rule": "one-coordinate",
            "n": self.n,
            "k": self.k,
            "voter": self.i + 1,
            "outcomes": [x + 1 for x in self.outcomes],
        }


class PairBooleanSCF(SCF):
    """Two-valued SCF that depends on the profile only through the a-vs-b
    preference vector: ``table`` is indexed by the bitmask with bit i set when
    voter i prefers ``a`` over ``b``."""

    def __init__(self, n: int, k: int, pair: tuple[int, int], table, *,
                 cap: int = DEFAULT_TABLE_CAP):
        super().__init__(n, k, cap=cap)
        check_alternatives(k, *pair)
        a, b = pair
        table = tuple(table)
        if len(table) != 1 << n:
            raise ValueError(f"table has {len(table)} entries, expected {1 << n}")
        if not set(table) <= {a, b}:
            raise ValueError("table values must lie in the pair")
        self.pair = (a, b)
        self.bool_table = table

    def evaluate_orders(self, orders):
        a, b = self.pair
        mask = 0
        for i, o in enumerate(orders):
            for alt in o:
                if alt == a:
                    mask |= 1 << i
                    break
                if alt == b:
                    break
        return self.bool_table[mask]

    def describe(self) -> dict:
        a, b = self.pair
        return {
            "rule": "pair-boolean",
            "n": self.n,
            "k": self.k,
            "pair": [a + 1, b + 1],
            "table": [v + 1 for v in self.bool_table],
        }


def _bit_clear_lanes(n: int, i: int) -> int:
    """Byte lane m (``m < 2^n``) is 1 exactly when bit i of m is clear."""
    return int.from_bytes((b"\x01" * (1 << i) + bytes(1 << i)) * (1 << (n - 1 - i)), "little")


def is_monotone_pair_table(n: int, pair: tuple[int, int], table) -> bool:
    """Flipping any voter's bit toward ``a`` never moves the outcome off ``a``.

    With byte lane m of ``up`` 1 where ``table[m] == a``, the lanes of the masks
    with bit i clear, moved up 2^i lanes (to ``m | 1 << i``), must fall on ``up``.
    """
    up = lane_int(bytes(table), indicator(pair[0]))
    return not any((up & _bit_clear_lanes(n, i)) << (8 << i) & ~up for i in range(n))


class MonotoneTwoValued(PairBooleanSCF):
    """A :class:`PairBooleanSCF` whose table is monotone toward ``a``."""

    def __init__(self, n: int, k: int, pair: tuple[int, int], table, *,
                 cap: int = DEFAULT_TABLE_CAP):
        super().__init__(n, k, pair, table, cap=cap)
        if not is_monotone_pair_table(n, self.pair, self.bool_table):
            raise ValueError("table is not monotone toward the first pair member")

    def describe(self) -> dict:
        d = super().describe()
        d["rule"] = "monotone-two-valued"
        return d


# ---------------------------------------------------------------------------
# Predicates.


def is_anonymous(f: SCF) -> bool:
    """Invariance under renaming voters, checked exhaustively.

    The cyclic shift of the voters (one whole-voter step of
    :func:`rankings.class_tables`) and the swap of voters 0 and 1 generate
    every renaming, so f is anonymous exactly when its table is fixed by both.
    """
    table = f.table()
    return (class_tables(table, f.k, [[range(factorial(f.k))]])[0] == table
            and (f.n < 2 or swap_first_voters(table, f.n, f.k) == table))


# ---------------------------------------------------------------------------
# Seeded random instances (reproducible test subjects).


# Words per ``randbytes`` call of uniform_bytes: drawing a whole table's words
# at once would hold four bytes per entry.
UNIFORM_CHUNK = 1 << 15


@lru_cache(maxsize=None)
def _top_bits(k: int) -> tuple[bytes, bytes]:
    """``bytes.translate`` tables: a byte to its top ``k.bit_length()`` bits, and
    the bytes whose top bits are k or more."""
    shift = 8 - k.bit_length()
    return (bytes(v >> shift for v in range(256)),
            bytes(v for v in range(256) if v >> shift >= k))


def uniform_bytes(rng: random.Random, k: int, count: int) -> bytes:
    """``bytes(rng.randrange(k) for _ in range(count))``, leaving ``rng`` in the
    same state, for 1 <= k < 256.

    On CPython, ``randrange(k)`` takes the top ``b = k.bit_length()`` bits of
    one 32-bit Mersenne Twister word and takes the next word while they are
    k or more. ``randbytes(4 * m)`` is ``getrandbits(32 * m)`` in little-endian
    bytes, m words in order, so byte ``4j + 3`` is word j's top byte, which
    holds its top b bits as b <= 8 (hence k < 256). Each word gives at most one
    draw, so asking for as many words as draws are missing never reads past
    the word of the last draw. ``tests/test_scf.py`` pins this against
    ``randrange`` on several seeds, k and counts.
    """
    if not 0 < k < 256:
        raise ValueError(f"uniform bytes need 1 <= k < 256, got k={k}")
    top_bits, rejected = _top_bits(k)
    chunks = []
    missing = count
    while missing:
        words = rng.randbytes(4 * min(missing, UNIFORM_CHUNK))
        chunks.append(words[3::4].translate(top_bits, rejected))
        missing -= len(chunks[-1])
    return b"".join(chunks)


def random_table_scf(n: int, k: int, seed: int, cap: int = DEFAULT_TABLE_CAP) -> TableSCF:
    """Each outcome independently uniform on the alternatives: ``randrange(k)``
    per profile in index order (:func:`uniform_bytes`) from ``Random(seed)``."""
    check_seed(seed)
    check_cap(cap, "(k!)^n table entries", k, n)
    rng = random.Random(seed)
    return TableSCF(n, k, uniform_bytes(rng, k, profile_space_size(n, k)), cap=cap)


def random_monotone_two_valued(n: int, k: int, seed: int,
                               cap: int = DEFAULT_TABLE_CAP) -> MonotoneTwoValued:
    """A seeded monotone two-valued SCF (upward closure of random labels); its
    ``2^n`` fiber labels are refused over ``cap`` before any is drawn.

    Mask m is labeled ``rng.choice((a, b))``, which is ``(a, b)[randrange(2)]``,
    so byte lane m of ``up`` is 1 where :func:`uniform_bytes` at k = 2 draws 0.
    Step i ORs the lanes of masks with bit i clear into ``m | 1 << i``; after
    the n steps, lane m is 1 exactly when some submask of m is labeled a.
    """
    check_seed(seed)
    if k < 2:
        raise ValueError(f"a monotone two-valued SCF needs k >= 2, got k={k}")
    if n >= cap.bit_length() or 1 << n > cap:
        raise CapExceededError(f"2^n fiber labels at n={n} exceed the cap {cap}")
    rng = random.Random(seed)
    a, b = rng.sample(range(k), 2)
    up = lane_int(uniform_bytes(rng, 2, 1 << n), indicator(0))
    for i in range(n):
        up |= (up & _bit_clear_lanes(n, i)) << (8 << i)
    table = up.to_bytes(1 << n, "little").translate(bytes([b, a]) + bytes(254))
    return MonotoneTwoValued(n, k, (a, b), table, cap=cap)


# ---------------------------------------------------------------------------
# Table file round-trip.


def dump_scf_table(f: SCF, path) -> None:
    """Write the self-describing JSON table format (1-based outcomes)."""
    doc = {
        "n": f.n,
        "k": f.k,
        "encoding": SCF_TABLE_ENCODING,
        "outcomes": [x + 1 for x in f.table()],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_scf_table(path, cap: int = DEFAULT_TABLE_CAP) -> TableSCF:
    """Read the JSON table format :func:`dump_scf_table` writes; errors name the
    file's own (1-based) outcomes."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"table file needs a JSON object, got {type(doc).__name__}")
    if doc.get("encoding") != SCF_TABLE_ENCODING:
        raise ValueError(f"unsupported table encoding {doc.get('encoding')!r}")
    n, k, outcomes = doc.get("n"), doc.get("k"), doc.get("outcomes")
    if type(n) is not int or type(k) is not int:
        raise ValueError(f"table file needs integer n and k, got n={n!r}, k={k!r}")
    check_cap(cap, "(k!)^n table entries", k, n)
    if not isinstance(outcomes, list) or any(type(x) is not int for x in outcomes):
        raise ValueError("table file outcomes must be a list of integers")
    bad = next((x for x in outcomes if not 1 <= x <= k), None)
    if bad is not None:
        raise ValueError(f"table file outcome {bad} is not an alternative in [1, {k}]")
    return TableSCF(n, k, [x - 1 for x in outcomes], cap=cap)

