"""Core graph representations and density primitives.

All graphs are simple and undirected.  In memory, adjacency is one Python
integer bitset per vertex (bit ``u`` of ``adj[v]`` set iff ``uv`` is an
edge), which makes the intersection/popcount kernels used by the counting
and regularity modules fast without any native extension.

Bulk conversion between bit rows and edges goes through one block codec:
:func:`rows_to_edges` lists the set bits of a run of rows as numpy index
arrays and :func:`edges_to_rows` packs index arrays back into rows.  Both
work on ``_CODEC_BLOCK_ROWS`` rows at a time, so their working memory is
bounded by one block of rows, never an n x n array.  Edge-list text and
multipartite JSON are read and written through them.

The two readers take text in the exact layout that the writers emit in
bulk: its endpoints become two numpy integer columns, read a block of
``_RECORD_BLOCK_CHARS`` characters at a time, and no Python object is
built per edge.  That layout is ASCII, with every endpoint in canonical
decimal (digits only, no leading zero, at most 18 digits); an edge list
is ``vertices N`` then one ``edge u v`` line per edge, every line ending
in a newline, and multipartite JSON is ``json.dumps`` output, whose edge
arrays are ``[u, v]`` records joined by ``, ``.  Every other text takes the
general reader, so both routes accept the same texts, build the same
graphs and raise the same errors.

No edge count is stored beside the rows: :attr:`SimpleGraph.edge_count`
and :meth:`MultipartiteGraph.edge_count` popcount the rows on every read.

Densities are exact :class:`fractions.Fraction` values throughout;
probabilities are floats and only enter comparisons through documented
tolerance helpers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from json.scanner import py_make_scanner
from operator import index
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import PreconditionError

#: Slack applied when an exact rational is compared against a float
#: threshold (verdict boundaries must not depend on float rounding).
COMPARISON_TOLERANCE = Fraction(1, 10**12)


def bitmask_of(vertices: Iterable[int]) -> int:
    """Pack vertex indices into a bitset."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def rows_to_packed(rows: Sequence[int], width: int) -> np.ndarray:
    """The bitset ``rows`` as a uint8 matrix of ``len(rows)`` rows and ``ceil(width / 8)`` columns.

    Bit ``c`` of ``rows[r]`` is bit ``c % 8`` of byte ``[r, c // 8]``, the
    little-endian packing that ``np.packbits(..., bitorder="little")``
    writes; every row must fit in ``width`` bits.
    """
    nbytes = (width + 7) // 8
    return np.frombuffer(
        b"".join(row.to_bytes(nbytes, "little") for row in rows), dtype=np.uint8
    ).reshape(len(rows), nbytes)


def rows_to_words(rows: Sequence[int], width: int) -> np.ndarray:
    """The bitset ``rows`` as a uint64 matrix of ``len(rows)`` rows and ``ceil(width / 64)`` columns.

    Bit ``c`` of ``rows[r]`` is bit ``c % 64`` of word ``[r, c // 64]``: the
    bytes of :func:`rows_to_packed`, padded to whole words and read as
    little-endian uint64.  Every row must fit in ``width`` bits.
    """
    return rows_to_packed(rows, -(-width // 64) * 64).view("<u8")


#: Words of table rows :func:`set_counts` gathers and ANDs with set words at
#: once: each of its temporaries holds at most this many words (or one row).
COUNT_CHUNK_WORDS = 1 << 15


def set_words(members: np.ndarray, n_words: int, keep: np.ndarray | None = None) -> np.ndarray:
    """Row j holds the ``n_words`` uint64 words of the vertex set {members[j, r] : keep[j, r]}.

    Without ``keep`` every member is kept.  The layout is that of
    :func:`rows_to_words`: vertex v is bit v % 64 of word v // 64.  The
    sets are scattered into a ``len(members)`` x ``64 n_words`` bool matrix
    and packed.
    """
    bits = np.zeros((len(members), 64 * n_words), dtype=bool)
    if keep is None:
        bits[np.arange(len(members))[:, None], members] = True
    else:
        row, pos = np.nonzero(keep)
        bits[row, members[row, pos]] = True
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def set_counts(table: np.ndarray, members: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Entry [j, r] is the number of set bits that row members[j, r] of ``table`` shares with ``words[j]``.

    With a table of adjacency rows (:func:`rows_to_words`) and set words
    (:func:`set_words`), that is the number of neighbours of a vertex in set
    j.  The counts are exact int64.  Rows are gathered a block of sets and
    members at a time, at most ``COUNT_CHUNK_WORDS`` words (or one row).
    """
    n_sets, size = members.shape
    rows = max(1, COUNT_CHUNK_WORDS // table.shape[1])
    sets_step, members_step = max(1, rows // max(size, 1)), max(1, min(size, rows))
    out = np.empty(members.shape, dtype=np.int64)
    for j in range(0, n_sets, sets_step):
        sets = slice(j, j + sets_step)
        for r in range(0, size, members_step):
            block = (sets, slice(r, r + members_step))
            shared = table[members[block]]
            shared &= words[sets, None, :]
            out[block] = np.einsum("jrw->jr", np.bitwise_count(shared), dtype=np.int64)
    return out


def rows_to_matrix(rows: Sequence[int], width: int, dtype) -> np.ndarray:
    """The bitset ``rows`` as a 0/1 matrix of ``len(rows)`` rows and ``width`` columns.

    Entry ``[r, c]`` is bit ``c`` of ``rows[r]``; every row must fit in ``width`` bits.
    """
    packed = rows_to_packed(rows, width)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little").astype(dtype, copy=False)


def packed_to_rows(packed: np.ndarray) -> list[int]:
    """Bitset rows of a uint8 matrix packed little-endian along axis 1, as ``np.packbits`` writes it."""
    return [int.from_bytes(row, "little") for row in packed]


def matrix_to_rows(matrix: np.ndarray) -> list[int]:
    """The inverse of :func:`rows_to_matrix`: bit ``c`` of row ``r`` is set iff ``matrix[r, c]`` is nonzero."""
    return packed_to_rows(np.packbits(matrix, axis=1, bitorder="little"))


def transposed_rows(rows: Sequence[int], n: int) -> list[int]:
    """The n x n bitset table ``rows`` read the other way: bit u of row v is bit v of ``rows[u]``."""
    return matrix_to_rows(rows_to_matrix(rows, n, bool).T)


#: Rows the edge codec unpacks or packs at once; bounds its working memory
#: to one block of this many rows.
_CODEC_BLOCK_ROWS = 128


def rows_to_edges(
    rows: Sequence[int], width: int, upper: bool = False
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The set bits of bitset ``rows`` as (row, column) index arrays, one block of rows at a time.

    Bits come in row-major order, that is by row and then by column.  With
    ``upper`` only bits with column > row are listed: the edges u < v of an
    adjacency.  Every row must fit in ``width`` bits.
    """
    for start in range(0, len(rows), _CODEC_BLOCK_ROWS):
        block = rows_to_matrix(rows[start : start + _CODEC_BLOCK_ROWS], width, bool)
        r, c = np.divmod(np.flatnonzero(block), width)
        r += start
        if upper:
            keep = c > r
            r, c = r[keep], c[keep]
        yield r, c


def edges_to_rows(n_rows: int, width: int, r: np.ndarray, c: np.ndarray) -> list[int]:
    """``n_rows`` bitset rows with bit ``c[i]`` of row ``r[i]`` set, the inverse of :func:`rows_to_edges`.

    Indices must lie in ``[0, n_rows)`` and ``[0, width)``; a repeated pair
    sets its bit once.  Pairs are grouped by block of rows, and each block
    is scattered into a block x ``width`` matrix, so no ``n_rows`` x
    ``width`` array is built.
    """
    rows = [0] * n_rows
    n_blocks = -(-n_rows // _CODEC_BLOCK_ROWS)
    block_of = (r // _CODEC_BLOCK_ROWS).astype(np.min_scalar_type(n_blocks))
    counts = np.bincount(block_of, minlength=n_blocks)
    order = np.argsort(block_of, kind="stable")  # a counting sort on keys this small
    ends = np.cumsum(counts)
    for b in np.flatnonzero(counts).tolist():
        picked = order[ends[b] - counts[b] : ends[b]]
        start = b * _CODEC_BLOCK_ROWS
        stop = min(start + _CODEC_BLOCK_ROWS, n_rows)
        block = np.zeros((stop - start) * width, dtype=bool)
        block[(r[picked].astype(np.intp, copy=False) - start) * width + c[picked]] = True  # int32 input must not overflow
        rows[start:stop] = matrix_to_rows(block.reshape(stop - start, width))
    return rows


def symmetric_rows(n: int, u: np.ndarray, v: np.ndarray) -> list[int]:
    """Adjacency rows of ``n`` vertices holding the edges (u[i], v[i]) in both directions.

    Endpoints must lie in ``[0, n)``; a repeated edge sets its bits once.
    """
    return edges_to_rows(n, n, np.concatenate([u, v]), np.concatenate([v, u]))


def _edge_columns(edges) -> tuple[np.ndarray, np.ndarray]:
    """The two endpoint columns of a sequence of integer pairs, as int64 arrays.

    An entry that is not an integer is rejected, not truncated or parsed: a
    float or a string raises ``TypeError``, a pair of another length
    ``ValueError``.
    """
    pairs = edges if isinstance(edges, list) else list(edges)
    lengths = set(map(len, pairs)) - {2}
    if lengths:
        raise ValueError(f"edges must be pairs, got an entry of length {min(lengths)}")
    kinds = set(map(type, chain.from_iterable(pairs)))
    if not all(issubclass(kind, (int, np.integer)) for kind in kinds):
        raise TypeError(f"edge endpoints must be integers, got {sorted(kind.__name__ for kind in kinds)}")
    try:
        flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs))
    except OverflowError:
        raise ValueError("edge endpoint outside the 64-bit integer range") from None
    return flat[0::2], flat[1::2]


#: Characters of record text the bulk reader converts at once; bounds its temporaries.
_RECORD_BLOCK_CHARS = 1 << 16


def _record_block(chunk: str, prefix: str, middle: str, gap: str, last: str) -> np.ndarray | None:
    """The m x 2 endpoint records of ``chunk``, or None unless it is exactly records in the bulk layout.

    The layout is ``prefix u middle v`` m >= 1 times, joined by ``gap`` and
    followed by ``last``, with every u and v in canonical decimal: ASCII
    digits, no leading zero, at most 18 of them.  The literals hold no
    digit.  The records are int32 when every value fits, else int64.
    """
    if not chunk.isascii():
        return None
    data = chunk.encode("ascii")
    codes = np.frombuffer(data, dtype=np.uint8)
    digit = codes - 48 < 10  # a byte below "0" wraps above 9
    runs = np.flatnonzero(np.diff(digit, prepend=False, append=False)).reshape(-1, 2)
    starts, ends = runs[:, 0], runs[:, 1]  # the digit runs u0, v0, u1, v1, ...
    m, odd = divmod(len(runs), 2)
    if m == 0 or odd:
        return None
    between = starts[1:] - ends[:-1]
    lengths = ends - starts
    # with the literals' total length below, these lengths also fix the prefix's
    if (
        len(codes) - ends[-1] != len(last)
        or (between[0::2] != len(middle)).any()
        or (between[1::2] != len(gap)).any()
        or lengths.max() > 18
        or ((codes[starts] == 48) & (lengths > 1)).any()
    ):
        return None
    literals = prefix + (middle + gap) * (m - 1) + middle + last
    if data.translate(None, b"0123456789") != literals.encode("ascii"):
        return None
    value = np.zeros(len(starts), dtype=np.int64)
    for k in range(int(lengths.max())):
        value = np.where(lengths > k, value * 10 + codes[np.minimum(starts + k, len(codes) - 1)] - 48, value)
    return value.reshape(m, 2).astype(np.int32 if value.max() < 2**31 else np.int64)


def _read_records(text: str, start: int, stop: int, prefix: str, middle: str, tail: str, last: str) -> np.ndarray | None:
    """The m x 2 endpoint records of ``text[start:stop]``, or None unless the span is in the bulk layout.

    The span is m >= 0 records ``prefix u middle v``, each followed by
    ``tail`` except the last, which is followed by ``last``; the endpoints
    are canonical decimals (:func:`_record_block`).  The span is read a
    block of at least ``_RECORD_BLOCK_CHARS`` characters at a time, cut
    where a tail meets the next prefix, so beside one block's temporaries
    only the records themselves are held, twice while they are joined.
    """
    gap = tail + prefix
    blocks = [np.empty((0, 2), dtype=np.int32)]
    while start < stop:
        cut = text.find(gap, min(start + _RECORD_BLOCK_CHARS, stop), stop)
        end, closing = (stop, last) if cut < 0 else (cut + len(tail), tail)
        block = _record_block(text[start:end], prefix, middle, gap, closing)
        if block is None:
            return None
        blocks.append(block)
        start = end
    return np.concatenate(blocks)


def _write_records(
    rows: Sequence[int], width: int, prefix: str, middle: str, tail: str, last: str, upper: bool = False
) -> str:
    """The set bits of ``rows``, in :func:`rows_to_edges` order, as the span that :func:`_read_records` reads.

    No bits give "".  Each row's records are one join of its column names,
    so no Python object is built per bit.
    """
    names = np.array([str(v) for v in range(max(len(rows), width))], dtype=object)
    chunks = []
    for us, vs in rows_to_edges(rows, width, upper):
        targets = names[vs].tolist()
        starts = np.flatnonzero(np.diff(us, prepend=-1)).tolist()  # first bit of each row
        for a, b in zip(starts, starts[1:] + [len(targets)]):
            head = f"{prefix}{names[us[a]]}{middle}"
            chunks.append(head + (tail + head).join(targets[a:b]))
    return tail.join(chunks) + last if chunks else ""


def _decode_records(text: str):
    """``json.loads(text)`` with every array an m x 2 records array, or None.

    Each array must be ``[]`` or ``[u, v]`` records joined by ``, `` with
    canonical decimal endpoints, the layout of ``json.dumps``; any other
    array, a decoding error or a non-ASCII text gives None.  The scanner is
    ``json``'s own Python scanner with :func:`_read_records` as its array
    parser, so strings, keys and numbers outside the records are read as
    ``json.loads`` reads them.
    """
    if not text.isascii():  # the Python scanner reads any Unicode digit, json.loads only ASCII ones
        return None

    def parse_array(s_and_end, scan_once):
        s, end = s_and_end
        if s.startswith("]", end):
            return np.empty((0, 2), dtype=np.int32), end + 1
        stop = s.find("]]", end) + 2
        records = _read_records(s, end, stop, "[", ", ", "], ", "]]") if stop > end else None
        if records is None:
            raise ValueError("not an array of [u, v] records")
        return records, stop

    decoder = json.JSONDecoder()
    decoder.parse_array = parse_array
    decoder.scan_once = py_make_scanner(decoder)
    try:
        return decoder.decode(text)
    except (RecursionError, ValueError):
        return None


def _first(bad: np.ndarray) -> int | None:
    """Index of the first true entry of ``bad``, or None."""
    return int(np.argmax(bad)) if bad.any() else None


def tolerance_limit(threshold: float) -> Fraction:
    """The largest exact rational that counts as at most ``threshold``: the threshold plus the declared slack."""
    return Fraction(threshold) + COMPARISON_TOLERANCE


def leq_with_tolerance(value: Fraction, threshold: float) -> bool:
    """Exact-rational ``value <= threshold`` with the declared boundary slack."""
    return value <= tolerance_limit(threshold)


@dataclass(frozen=True)
class PatternGraph:
    """A small template graph on vertices ``0..k-1``.

    The on-disk JSON format labels vertices ``1..k``; the in-memory form is
    0-indexed like every other vertex set in the package.
    """

    k: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.k < 2:
            raise PreconditionError(f"pattern needs at least 2 vertices, got {self.k}")
        for a, b in self.edges:
            if not (0 <= a < b < self.k):
                raise PreconditionError(f"bad pattern edge ({a}, {b}) for k={self.k}")

    @staticmethod
    def from_edges(k: int, edges: Iterable[Sequence[int]]) -> "PatternGraph":
        canon = set()
        for a, b in edges:
            if a == b:
                raise PreconditionError(f"loop at pattern vertex {a}")
            canon.add((min(a, b), max(a, b)))
        return PatternGraph(k, frozenset(canon))

    @staticmethod
    def complete(k: int) -> "PatternGraph":
        return PatternGraph.from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)])

    @staticmethod
    def cycle(k: int) -> "PatternGraph":
        return PatternGraph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])

    @staticmethod
    def path(k: int) -> "PatternGraph":
        return PatternGraph.from_edges(k, [(i, i + 1) for i in range(k - 1)])

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def neighbors(self, v: int) -> set[int]:
        out = set()
        for a, b in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out

    def to_json(self) -> str:
        return json.dumps({"k": self.k, "edges": [[a + 1, b + 1] for a, b in self.sorted_edges()]})

    @staticmethod
    def from_json(text: str) -> "PatternGraph":
        """Parse ``{"k": int, "edges": [[a, b], ...]}`` with 1-indexed vertices."""
        try:
            k, edges = _pattern_fields(json.loads(text))
        except (KeyError, TypeError, ValueError) as exc:
            raise PreconditionError(f"malformed pattern JSON: {exc!r}") from exc
        return PatternGraph.from_edges(k, edges)


def _pattern_fields(obj) -> tuple[int, list[tuple[int, int]]]:
    """``k`` and the 0-indexed edges of a parsed pattern object; raises on a missing key or wrong type."""
    return index(obj["k"]), [(index(a) - 1, index(b) - 1) for a, b in obj["edges"]]


#: Keyword of each edge-list line -> the number of fields of the line.
_EDGE_LIST_FIELDS = {"vertices": 2, "edge": 3}

#: The first line of an edge list in the bulk layout: a positive vertex count in canonical decimal.
_EDGE_LIST_HEADER = re.compile(r"vertices ([1-9][0-9]{0,17})\n")


class SimpleGraph:
    """Undirected simple graph with bitset adjacency rows.

    Instances are immutable by convention: all operations build new graphs.
    The exception is a working graph in :mod:`reglab.experiments` whose
    owner edits ``adj`` in place: the plant loops re-add edges, and the
    removal experiment searches live rows while it breaks copies.  The rows
    are the only state; :attr:`edge_count` is recounted from them, so an
    owner edits ``adj`` only.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: list[int]):
        self.n = n
        self.adj = adj

    @property
    def edge_count(self) -> int:
        """Number of edges, the popcount of the rows halved; read it once where it is needed twice."""
        return sum(row.bit_count() for row in self.adj) // 2

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "SimpleGraph":
        """The graph on ``n`` vertices with the given (u, v) integer pairs; repeats count once.

        The first loop or out-of-range pair in input order is reported.
        """
        if n <= 0:
            raise PreconditionError("vertex count must be positive")
        return SimpleGraph._from_columns(n, *_edge_columns(edges))

    @staticmethod
    def _from_columns(n: int, u: np.ndarray, v: np.ndarray) -> "SimpleGraph":
        """The graph on ``n`` >= 1 vertices with the edges (u[i], v[i]); the first loop or out-of-range edge is reported."""
        bad = _first((u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n))
        if bad is not None:
            a, b = int(u[bad]), int(v[bad])
            if a == b:
                raise PreconditionError(f"loop at vertex {a}")
            raise PreconditionError(f"edge ({a}, {b}) out of range for n={n}")
        return SimpleGraph(n, symmetric_rows(n, u, v))

    @staticmethod
    def empty(n: int) -> "SimpleGraph":
        return SimpleGraph.from_edges(n, [])

    @staticmethod
    def complete(n: int) -> "SimpleGraph":
        full = (1 << n) - 1
        return SimpleGraph(n, [full ^ (1 << v) for v in range(n)])

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge once as (u, v) with u < v, in increasing (u, v) order."""
        for us, vs in rows_to_edges(self.adj, self.n, upper=True):
            yield from zip(us.tolist(), vs.tolist())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge once as endpoint arrays (u, v) with u < v, in :meth:`edges` order."""
        blocks = list(rows_to_edges(self.adj, self.n, upper=True))
        empty = np.empty(0, dtype=np.int64)
        return np.concatenate([empty, *(u for u, _ in blocks)]), np.concatenate([empty, *(v for _, v in blocks)])

    def edges_within(self, mask: int) -> int:
        """Number of edges with both endpoints in the bitset ``mask``."""
        total = 0
        for v in iter_bits(mask):
            total += (self.adj[v] & mask).bit_count()
        return total // 2

    def edges_between(self, mask_a: int, mask_b: int) -> int:
        """Number of edges between two disjoint bitsets."""
        total = 0
        for v in iter_bits(mask_a):
            total += (self.adj[v] & mask_b).bit_count()
        return total

    def keep_edges_between(self, groups: Sequence[int]) -> "SimpleGraph":
        """Keep only edges whose endpoints lie in different ``groups`` labels.

        ``groups[v]`` is an arbitrary integer label of vertex v.
        """
        label_masks: dict[int, int] = {}
        for v, g in enumerate(groups):
            label_masks[g] = label_masks.get(g, 0) | (1 << v)
        return SimpleGraph(self.n, [row & ~label_masks[g] for row, g in zip(self.adj, groups)])

    def to_edge_list(self) -> str:
        """The graph as edge-list text.

        The first line is ``vertices <n>``; then comes one ``edge <u> <v>``
        line per edge, with u < v, in increasing (u, v) order, the order of
        :meth:`edges`.  Every line ends in a newline.
        """
        return f"vertices {self.n}\n" + _write_records(self.adj, self.n, "edge ", " ", "\n", "\n", upper=True)

    @staticmethod
    def from_edge_list(text: str) -> "SimpleGraph":
        """Parse :meth:`to_edge_list` text; ``#`` starts a comment and blank lines are skipped.

        Exactly one ``vertices <n>`` line is required, every line must have
        the field count of its keyword, and every field after the keyword
        must be an integer.

        Text in the bulk layout is read into endpoint columns without a
        Python object per edge: a first line ``vertices <n>`` with n >= 1,
        then only ``edge <u> <v>`` lines, single spaces, every line ending
        in ``\\n``, every number in canonical decimal (no sign, no leading
        zero, at most 18 digits).  :meth:`to_edge_list` writes that layout.
        Every other text, comments and tabs included, takes the general
        line-by-line reader; both give the same graph or the same error.
        """
        head = _EDGE_LIST_HEADER.match(text)
        records = head and _read_records(text, head.end(), len(text), "edge ", " ", "\n", "\n")
        if records is not None:
            return SimpleGraph._from_columns(int(head[1]), *records.T)
        n = None
        edges = []
        for raw in text.splitlines():
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] not in _EDGE_LIST_FIELDS:
                raise PreconditionError(f"unrecognized edge-list line: {raw!r}")
            if len(parts) != _EDGE_LIST_FIELDS[parts[0]]:
                raise PreconditionError(f"wrong number of fields in edge-list line: {raw!r}")
            try:
                if parts[0] == "edge":
                    edges.append((int(parts[1]), int(parts[2])))
                    continue
                count = int(parts[1])
            except ValueError:
                raise PreconditionError(f"non-integer field in edge-list line: {raw!r}") from None
            if n is not None:
                raise PreconditionError(f"second 'vertices' header in edge-list text: {raw!r}")
            n = count
        if n is None:
            raise PreconditionError("edge-list text missing 'vertices <N>' header")
        return SimpleGraph.from_edges(n, edges)

    def __eq__(self, other) -> bool:
        return isinstance(other, SimpleGraph) and self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True)
class VertexSetPair:
    """Two disjoint vertex subsets of a host graph."""

    U: tuple[int, ...]
    V: tuple[int, ...]

    def __post_init__(self):
        if set(self.U) & set(self.V):
            raise PreconditionError("vertex sets must be disjoint")
        object.__setattr__(self, "U", tuple(sorted(self.U)))
        object.__setattr__(self, "V", tuple(sorted(self.V)))

    @property
    def mask_u(self) -> int:
        return bitmask_of(self.U)

    @property
    def mask_v(self) -> int:
        return bitmask_of(self.V)


def pair_density(graph: SimpleGraph, pair: VertexSetPair) -> Fraction:
    """Edge density e(U, V) / (|U| |V|) as an exact rational."""
    if not pair.U or not pair.V:
        raise PreconditionError("pair density needs nonempty sets")
    mask_v = pair.mask_v
    e = sum((graph.adj[u] & mask_v).bit_count() for u in pair.U)
    return Fraction(e, len(pair.U) * len(pair.V))


def min_degree(graph: SimpleGraph) -> int:
    if graph.n == 0:
        return 0
    return min(graph.degree(v) for v in range(graph.n))


def _peel_low_degree(
    graph: SimpleGraph,
    threshold: Callable[[int], float],
    limit: int | None = None,
    alive: int | None = None,
) -> tuple[int, list[int], bool]:
    """The greedy degree peel behind every trim of the experiments.

    While some alive vertex has fewer alive neighbours than
    ``threshold(number of alive vertices)``, remove the one with the
    smallest (degree, index), at most ``limit`` times.  ``alive`` is the
    starting vertex bitset (default: every vertex).  Returns the surviving
    bitset, the removed vertices in removal order, and whether no survivor
    is left below the threshold.
    """
    if alive is None:
        alive = (1 << graph.n) - 1
    degree = [(row & alive).bit_count() for row in graph.adj]
    removed: list[int] = []
    while alive:
        victim = min(iter_bits(alive), key=lambda v: (degree[v], v))
        if degree[victim] >= threshold(alive.bit_count()):
            break
        if len(removed) == limit:
            return alive, removed, False
        alive ^= 1 << victim
        removed.append(victim)
        for u in iter_bits(graph.adj[victim] & alive):
            degree[u] -= 1
    return alive, removed, True


def min_monochromatic_partition(
    n: int, weights: dict[tuple[int, int], int], parts: int, below: float
) -> tuple[list[int] | None, float]:
    """The least-weight assignment of vertices ``0..n-1`` to ``parts`` parts, if it weighs less than ``below``.

    The package's one part-assignment search, for the aes lift and ``patterns.chromatic_number``.  An
    assignment weighs the sum of ``weights[(u, v)]``, u < v, over its monochromatic pairs.  Branch and
    bound: vertices go in decreasing weighted degree, then index, and each opens at most one new part;
    a branch is cut once its cost plus each unplaced vertex's cheapest part reaches the incumbent, which
    starts at ``below``.  Returns ``(assignment, weight)``, or ``(None, below)`` if nothing weighs less.
    """
    order = sorted(range(n), key=lambda v: (-sum(weights.get((min(v, u), max(v, u)), 0) for u in range(n)), v))
    best_cost = below
    best_assign: list[int] | None = None
    assign = [-1] * n

    def mono_cost(v: int, part: int) -> int:
        return sum(weights.get((min(u, v), max(u, v)), 0) for u in range(n) if assign[u] == part and u != v)

    def lower_bound(position: int, cost: int) -> int:
        return cost + sum(min(mono_cost(rest, part) for part in range(parts)) for rest in order[position:])

    def rec(position: int, cost: int, used_parts: int):
        nonlocal best_cost, best_assign
        if cost >= best_cost:
            return
        if position == n:
            best_cost = cost
            best_assign = list(assign)
            return
        v = order[position]
        if lower_bound(position, cost) >= best_cost:
            return
        for part in range(min(used_parts + 1, parts)):
            delta = mono_cost(v, part)
            assign[v] = part
            rec(position + 1, cost + delta, max(used_parts, part + 1))
            assign[v] = -1

    rec(0, 0, 0)
    return best_assign, best_cost


def standalone_pair(n: int, fwd: Sequence[int]) -> tuple[SimpleGraph, VertexSetPair]:
    """A bipartite pair of two n-vertex sides as a 2n-vertex graph, with U = 0..n-1 and V = n..2n-1.

    ``fwd[u]`` is the local n-bit row of the V-neighbours of u; the rows of
    V are its transpose.
    """
    adj = [row << n for row in fwd] + transposed_rows(fwd, n)
    return SimpleGraph(2 * n, adj), VertexSetPair(tuple(range(n)), tuple(range(n, 2 * n)))


class MultipartiteGraph:
    """k parts of equal size ``n`` with one bipartite graph per pattern edge.

    Edges exist only between parts ``i`` and ``j`` with ``ij`` an edge of the
    pattern.  Each pair is stored once, as the local bitset rows of its
    lower part; a reader that needs the other side derives it with
    :func:`transposed_rows`.  The rows are the only state, and pair edge
    counts are recounted from them.
    """

    __slots__ = ("pattern", "part_size", "rows")

    def __init__(self, pattern: PatternGraph, part_size: int, rows: dict[tuple[int, int], list[int]]):
        # rows[(i, j)][u] = bitset over part-j local indices adjacent to local u of part i,
        # present for every pattern edge (i, j), i < j, and for no other key.
        self.pattern = pattern
        self.part_size = part_size
        self.rows = rows

    @staticmethod
    def from_pair_edges(
        pattern: PatternGraph,
        part_size: int,
        pair_edges: dict[tuple[int, int], Iterable[tuple[int, int]]],
    ) -> "MultipartiteGraph":
        """Build from local-index edge lists keyed by pattern edge (i < j)."""
        return MultipartiteGraph._from_columns(pattern, part_size, pair_edges, _edge_columns)

    @staticmethod
    def _from_columns(
        pattern: PatternGraph,
        part_size: int,
        pair_edges: dict,
        columns: Callable[..., tuple[np.ndarray, np.ndarray]],
    ) -> "MultipartiteGraph":
        """Build from each pair's ``columns(pair_edges[(i, j)])``, the endpoint columns of its edges.

        Pairs are converted and range-checked one at a time in pattern-edge
        order, so the first fault in that order is reported.
        """
        n = part_size
        if n <= 0:
            raise PreconditionError("part size must be positive")
        rows: dict[tuple[int, int], list[int]] = {}
        for i, j in pattern.sorted_edges():
            u, v = columns(pair_edges.get((i, j), ()))  # u in part i, v in part j
            bad = _first((u < 0) | (u >= n) | (v < 0) | (v >= n))
            if bad is not None:
                raise PreconditionError(f"local edge ({int(u[bad])}, {int(v[bad])}) out of range for n={n}")
            rows[(i, j)] = edges_to_rows(n, n, u, v)
        unknown = set(pair_edges) - set(pattern.sorted_edges())
        if unknown:
            raise PreconditionError(f"edges supplied for non-pattern pairs: {sorted(unknown)}")
        return MultipartiteGraph(pattern, n, rows)

    @property
    def k(self) -> int:
        return self.pattern.k

    def pair_edges(self, i: int, j: int) -> Iterator[tuple[int, int]]:
        """Local (u in part i, v in part j) edges of the pattern edge (i, j), i < j, in increasing (u, v) order."""
        for us, vs in rows_to_edges(self.rows[(i, j)], self.part_size):
            yield from zip(us.tolist(), vs.tolist())

    def edge_count(self, i: int, j: int) -> int:
        """Number of edges of pair {i, j}, the popcount of its rows."""
        return sum(row.bit_count() for row in self.rows[(min(i, j), max(i, j))])

    def pair_subgraph(self, i: int, j: int) -> tuple[SimpleGraph, VertexSetPair]:
        """The bipartite pair {i, j} as a standalone graph plus its sides (``standalone_pair``)."""
        return standalone_pair(self.part_size, self.rows[(min(i, j), max(i, j))])

    def to_json(self) -> str:
        """The ``json.dumps`` text of the pattern, part size and local edges per "i-j" pair, written from the rows."""
        pieces = ['{"pattern": ', self.pattern.to_json(), f', "part_size": {self.part_size}, "pairs": {{']
        for index, (i, j) in enumerate(self.pattern.sorted_edges()):
            records = _write_records(self.rows[(i, j)], self.part_size, "[", ", ", "], ", "]]")
            pieces += [", " if index else "", f'"{i + 1}-{j + 1}": [', records or "]"]
        pieces.append("}}")
        return "".join(pieces)

    @staticmethod
    def from_json(text: str) -> "MultipartiteGraph":
        """Parse the ``to_json`` layout: pattern, part size, and local edges per "i-j" pair.

        ``k`` and ``part_size`` must be integers, as every endpoint must;
        a float or a string is rejected, not truncated or parsed.

        ASCII text whose every array is ``[]`` or ``[u, v]`` records joined
        by ``, ``, with canonical decimal endpoints (no sign, no leading
        zero, at most 18 digits), is read in bulk: each array becomes
        endpoint columns without a Python object per edge.  ``json.dumps``
        and :meth:`to_json` write that layout.  Any other text, and any
        text whose bulk reading fails, takes the general ``json.loads``
        route, so both give the same graph or the same error.
        """
        decoded = _decode_records(text)
        if decoded is not None:
            try:
                return MultipartiteGraph._from_columns(*_multipartite_fields(decoded), np.transpose)
            except Exception:  # any failure: the general route below raises it in its own words
                pass
        try:
            # from_pair_edges unpacks and range-checks every [u, v]; a wrong
            # shape or type surfaces there as a TypeError or ValueError
            return MultipartiteGraph.from_pair_edges(*_multipartite_fields(json.loads(text)))
        except PreconditionError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise PreconditionError(f"malformed multipartite JSON: {exc!r}") from exc


def _multipartite_fields(obj) -> tuple[PatternGraph, int, dict]:
    """The pattern, part size and pair edges keyed by (i, j) of a decoded ``to_json`` object; raises on a missing key or wrong type."""
    pattern = PatternGraph.from_edges(*_pattern_fields(obj["pattern"]))
    pair_edges = {}
    for key, arr in obj["pairs"].items():
        i_s, j_s = key.split("-")
        pair_edges[(int(i_s) - 1, int(j_s) - 1)] = arr
    return pattern, index(obj["part_size"]), pair_edges


def induced_multipartite(
    graph: SimpleGraph, classes: Sequence[Sequence[int]], pattern: PatternGraph
) -> MultipartiteGraph:
    """Extract the pattern-shaped multipartite subgraph of ``graph``.

    ``classes`` are pairwise disjoint, equally sized vertex sets, one per
    pattern vertex.  Edges of ``graph`` between classes ``i`` and ``j`` are
    kept iff ``ij`` is a pattern edge; everything else is dropped.  Only the
    adjacency rows of each pattern edge's first class are unpacked, one
    |class| x n block of bytes at a time; no n x n array is built.
    """
    if len(classes) != pattern.k:
        raise PreconditionError(f"expected {pattern.k} classes, got {len(classes)}")
    sizes = {len(c) for c in classes}
    if len(sizes) != 1:
        raise PreconditionError(f"classes must have equal sizes, got {sorted(sizes)}")
    seen: set[int] = set()
    for c in classes:
        cs = set(c)
        if len(cs) != len(c) or cs & seen:
            raise PreconditionError("classes must be pairwise disjoint without repeats")
        seen |= cs
    n = sizes.pop()
    class_lists = [sorted(c) for c in classes]

    rows: dict[tuple[int, int], list[int]] = {}
    for i, j in pattern.sorted_edges():
        block = rows_to_matrix([graph.adj[u] for u in class_lists[i]], graph.n, np.uint8)[:, class_lists[j]]
        rows[(i, j)] = matrix_to_rows(block)
    return MultipartiteGraph(pattern, n, rows)
