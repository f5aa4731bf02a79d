"""Colouring families over complete, bipartite and multipartite hosts.

Hosts and canonical edge orders:

* ``h3``  -- complete 3-uniform hypergraph on n vertices; one colour per
  unordered triple, triples ordered colexicographically.
* ``kn``  -- complete graph on n vertices; unordered pairs, colex order.
* ``bnn`` -- complete bipartite graph with n vertices per class; pairs
  (a, b) with a in class 0 and b in class 1, row-major order a*n + b.
* ``rxn`` -- complete balanced r-partite r-uniform hypergraph; transversal
  edges (one vertex per class) in mixed-radix order with class 0 most
  significant.

Vertices are dense integers.  For ``bnn`` the global ids are 0..n-1
(class 0) and n..2n-1 (class 1); for ``rxn`` class i occupies
[i*n, (i+1)*n).

The split rule (red iff an even number of the edge's vertices lie in the
distinguished halves) lives in ``HyperSplitSizes``: ``colour_bit`` for one
edge, ``table`` for all n**r, which both ``materialize`` and the bnn split
generator use.  ``SplitStructure.verify`` checks a bnn split without it.

Colour reads follow one rule.  The pair-host solvers in ``bipartite`` and
``threecolour`` read colours only through the raw view
``PairColouring.rows``: one unchecked byte per ordered pair, built on the
first read (at most 3n^2 bytes for bnn, n^2 for kn).  ``classify_bipartite``
alone compares whole class-0 rows of ``entries``, which already have that
layout.  ``check_certificate``, the structure witnesses and the oracles read
only the validated ``colour_bit`` or the canonical ``entries``, never the
view, so a wrong view cannot make them agree with a wrong solver.

File format: a header line ``<kind> <n> [r] [palette]`` followed by one
body line.  For materialized colourings the body is an ASCII string over
``{0,1}`` (two colours) or ``{0,1,2}`` (three colours) in canonical edge
order, with 0=red, 1=blue, 2=green.  Rule-backed ``rxn`` colourings use a
body line ``split s_1 s_2 ... s_r`` giving the sizes of the distinguished
class halves.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from enum import IntEnum
from functools import cached_property

import numpy as np

__all__ = [
    "Colour",
    "RED",
    "BLUE",
    "GREEN",
    "triple_index",
    "pair_index",
    "transversal_index",
    "TripleColouring",
    "PairColouring",
    "HyperSplitSizes",
    "TransversalColouring",
    "SplitStructure",
    "parse_colouring",
    "serialize_colouring",
]


class Colour(IntEnum):
    """Edge colour; canonical order RED < BLUE < GREEN."""

    RED = 0
    BLUE = 1
    GREEN = 2

    @property
    def letter(self) -> str:
        return self.name.lower()


RED = Colour.RED
BLUE = Colour.BLUE
GREEN = Colour.GREEN

_COLOUR_NAMES = {c.name.lower(): c for c in Colour}


def other_colour(c: int) -> Colour:
    """The other colour in a two-colour context."""
    if c not in (0, 1):
        raise ValueError(f"not a 2-palette colour: {c}")
    return Colour(1 - int(c))


def colour_from_name(name: str) -> Colour:
    try:
        return _COLOUR_NAMES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown colour {name!r}") from None


# ---------------------------------------------------------------------------
# canonical edge indexing


def triple_index(a: int, b: int, c: int) -> int:
    """Colex rank of the unordered triple {a, b, c} (independent of n)."""
    if a > b:
        a, b = b, a
    if b > c:
        b, c = c, b
        if a > b:
            a, b = b, a
    if a == b or b == c:
        raise ValueError(f"triple has repeated vertices: {a},{b},{c}")
    return c * (c - 1) * (c - 2) // 6 + b * (b - 1) // 2 + a


def pair_index(a: int, b: int) -> int:
    """Colex rank of the unordered pair {a, b}."""
    if a > b:
        a, b = b, a
    if a == b:
        raise ValueError(f"pair has repeated vertex: {a}")
    return b * (b - 1) // 2 + a


def transversal_index(n: int, r: int, locals_: tuple[int, ...]) -> int:
    """Mixed-radix rank of a transversal edge given local ids per class."""
    if len(locals_) != r:
        raise ValueError(f"expected {r} vertices, got {len(locals_)}")
    idx = 0
    for v in locals_:
        if not 0 <= v < n:
            raise ValueError(f"local id {v} out of range for n={n}")
        idx = idx * n + v
    return idx


def _n_edges(kind: str, n: int, r: int | None = None) -> int:
    """Edge count of a host: the length of its materialised body."""
    if kind == "h3":
        return n * (n - 1) * (n - 2) // 6
    if kind == "kn":
        return n * (n - 1) // 2
    if kind == "bnn":
        return n * n
    if kind == "rxn":
        if r is None or r < 1:
            raise ValueError("rxn host needs uniformity r >= 1")
        return n ** r
    raise ValueError(f"unknown host kind {kind!r}")


# Largest h3, kn or bnn host that is generated or parsed, in edges: an h3
# host of n = 1000 (166,167,000 triples) fits, a bnn host of n = 16,384 just
# fits.
EDGE_CAP = 1 << 28


def _check_edge_cap(kind: str, n: int) -> None:
    """Raise ValueError, before anything is allocated, if the h3, kn or bnn
    host on n vertices (per class for bnn) has more than EDGE_CAP edges."""
    if _n_edges(kind, n) > EDGE_CAP:
        raise ValueError(f"{kind} host with n={n} exceeds the edge cap {EDGE_CAP}")


_BYTE_VALUES = bytes(range(256))


def _in_palette(entries, palette: int, message: str) -> bytes:
    """`entries` as bytes; ValueError(`message`) unless every byte is below
    `palette`.  Deleting the palette's bytes in C leaves a byte iff some
    entry is outside it; an int sequence with a value outside 0-255 is
    refused by the conversion."""
    entries = bytes(entries)
    if entries.translate(None, _BYTE_VALUES[:palette]):
        raise ValueError(message)
    return entries


def _bits(mask: int):
    """The set bits of `mask`, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pair_edges(kind: str, n: int):
    """The edges of a kn or bnn host, as global-id pairs, in the order of
    `PairColouring.entries`."""
    if kind == "kn":
        return ((u, v) for v in range(n) for u in range(v))
    return ((a, n + b) for a in range(n) for b in range(n))


# ---------------------------------------------------------------------------
# colourings


@dataclass(slots=True, unsafe_hash=True, repr=False)
class TripleColouring:
    """2-colouring of all triples of [n], bit-packed in colex order."""

    n: int
    bits: bytes

    kind = "h3"
    palette = 2

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("triple colouring needs n >= 3 for any edge to exist")
        m = _n_edges("h3", self.n)
        if len(self.bits) != (m + 7) // 8:
            raise ValueError(f"expected {(m + 7) // 8} bytes for n={self.n}, got {len(self.bits)}")
        self.bits = bytes(self.bits)

    @property
    def n_edges(self) -> int:
        return _n_edges("h3", self.n)

    @property
    def n_vertices(self) -> int:
        return self.n

    @classmethod
    def from_digits(cls, n: int, digits) -> "TripleColouring":
        """Build from the 0/1 colour values of all triples in colex order."""
        vals = np.asarray(digits)
        m = _n_edges("h3", n)
        if vals.shape != (m,):
            raise ValueError(f"expected {m} digits for n={n}, got {vals.size}")
        if m and (vals.min() < 0 or vals.max() > 1):
            raise ValueError("colour outside 2-palette")
        bits = np.packbits(vals.astype(np.uint8, copy=False), bitorder="little")
        return cls(n, bits.tobytes())

    @classmethod
    def from_int(cls, n: int, value: int) -> "TripleColouring":
        """Decode colouring index `value`: bit i is the colour of triple i."""
        m = _n_edges("h3", n)
        if not 0 <= value < (1 << m):
            raise ValueError("colouring index out of range")
        return cls(n, value.to_bytes((m + 7) // 8, "little"))

    @classmethod
    def constant(cls, n: int, colour: int) -> "TripleColouring":
        return cls.from_digits(n, np.full(_n_edges("h3", n), colour))

    def colour_bit(self, a: int, b: int, c: int) -> int:
        i = triple_index(a, b, c)
        return (self.bits[i >> 3] >> (i & 7)) & 1

    def digits(self) -> np.ndarray:
        """Colour values of all triples in colex order, one uint8 each."""
        return np.unpackbits(np.frombuffer(self.bits, np.uint8), count=self.n_edges,
                             bitorder="little")

    def __repr__(self):
        return f"TripleColouring(n={self.n})"


# Byte of the raw view at a position that is not an edge: the diagonal, and
# a class-0 vertex's own class.  It equals no colour.
NO_EDGE = 255

# ASCII binary digits to colour bytes, for `PairColouring.from_int`
_BIT_COLOURS = bytes.maketrans(b"01", bytes([RED, BLUE]))


@dataclass(slots=True, unsafe_hash=True, repr=False)
class PairColouring:
    """Colouring of a complete (kn) or complete bipartite (bnn) graph.

    Entries are one byte per edge in canonical order.  For bipartite hosts
    vertex ids are global: class 0 is 0..n-1, class 1 is n..2n-1.

    `rows` is the raw colour view the solvers read: `rows[u][v]` is the
    colour of edge uv, for global ids, with no check.  It is built on the
    first read and kept out of `==`, `hash` and the text form.  For kn,
    each of the n rows has n bytes, with NO_EDGE on the diagonal.  For bnn,
    a class-0 row has 2n bytes, NO_EDGE over its own class; a class-1 row
    has the n bytes towards class 0 only, so a same-class read there falls
    off its end: 3n^2 bytes in all.  The view checks nothing.  It is the
    only way the solvers in `bipartite` and `threecolour` read colours, and
    `check_certificate`, the structure witnesses and the oracles never read
    it: they read the validated `colour_bit` and `entries`, and share no
    code with it.
    """

    kind: str
    n: int
    palette: int
    entries: bytes
    _rows: list[bytes] | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        kind, n, palette, entries = self.kind, self.n, self.palette, self.entries
        if kind not in ("kn", "bnn"):
            raise ValueError(f"unknown pair host {kind!r}")
        if palette not in (2, 3):
            raise ValueError(f"palette must be 2 or 3, got {palette}")
        if n < 1:
            raise ValueError("n must be positive")
        m = _n_edges(kind, n)
        if len(entries) != m:
            raise ValueError(f"expected {m} entries, got {len(entries)}")
        self.entries = _in_palette(entries, palette, "entry outside palette")

    @property
    def n_edges(self) -> int:
        return len(self.entries)

    @property
    def rows(self) -> list[bytes]:
        """The raw colour view (see the class docstring)."""
        if self._rows is None:
            self._rows = self._build_rows()
        return self._rows

    def _build_rows(self) -> list[bytes]:
        n, entries = self.n, self.entries
        pad = bytes([NO_EDGE])
        if self.kind == "bnn":
            return [pad * n + entries[a * n : (a + 1) * n] for a in range(n)] + [
                entries[b::n] for b in range(n)
            ]
        # kn: in colex order vertex u's edges to v < u are one slice; its
        # edges to v > u are column u of the lower triangle, padded to a
        # square, read from the diagonal down
        low = [entries[v * (v - 1) // 2 : v * (v + 1) // 2] for v in range(n)]
        square = b"".join(row + pad * (n - v) for v, row in enumerate(low))
        return [low[u] + square[u * (n + 1) :: n] for u in range(n)]

    @property
    def n_vertices(self) -> int:
        return self.n if self.kind == "kn" else 2 * self.n

    # -- vertex helpers (bipartite) ------------------------------------
    def side(self, u: int) -> int:
        """Partition class of global vertex id u (bnn only)."""
        return 0 if u < self.n else 1

    def class_vertices(self, side: int) -> range:
        n = self.n
        return range(0, n) if side == 0 else range(n, 2 * n)

    # -- colour lookups ------------------------------------------------
    def edge_ordinal(self, u: int, v: int) -> int:
        n = self.n
        if self.kind == "kn":
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("vertex id out of range")
            return pair_index(u, v)
        if u > v:
            u, v = v, u
        if not (0 <= u < n and n <= v < 2 * n):
            raise ValueError(f"not a bipartite edge: ({u},{v})")
        return u * n + (v - n)

    def colour_bit(self, u: int, v: int) -> int:
        return self.entries[self.edge_ordinal(u, v)]

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_function(cls, kind: str, n: int, palette: int, fn) -> "PairColouring":
        """fn(u, v) -> colour value, called on global ids in canonical order."""
        return cls(kind, n, palette, bytes(int(fn(u, v)) for u, v in _pair_edges(kind, n)))

    @classmethod
    def from_int(cls, kind: str, n: int, value: int) -> "PairColouring":
        """Decode a 2-palette colouring index: bit i colours edge i."""
        m = _n_edges(kind, n)
        if not 0 <= value < (1 << m):
            raise ValueError("colouring index out of range")
        # the m binary digits of value below a leading 1, least significant
        # first, mapped from ASCII digits to colour bytes in one C-level pass
        return cls(kind, n, 2, bin(value | 1 << m)[:2:-1].encode().translate(_BIT_COLOURS))

    @classmethod
    def constant(cls, kind: str, n: int, palette: int, colour: int) -> "PairColouring":
        return cls(kind, n, palette, bytes([colour]) * _n_edges(kind, n))

    def __repr__(self):
        return f"PairColouring({self.kind}, n={self.n}, palette={self.palette})"


@dataclass(frozen=True)
class HyperSplitSizes:
    """Sizes of the distinguished halves V_i^1 in a rule-backed split.

    Vertex v in class i belongs to the first half iff its local id is
    below s[i]; both halves of every class must be non-empty.
    """

    r: int
    n: int
    s: tuple[int, ...]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if len(self.s) != self.r:
            raise ValueError(f"expected {self.r} sizes, got {len(self.s)}")
        for si in self.s:
            if not 1 <= si <= self.n - 1:
                raise ValueError(f"part size {si} leaves an empty half for n={self.n}")

    @cached_property
    def half(self) -> bytes:
        """1 at global id u iff u lies in its class's distinguished half.

        Built on first use, so a rule-backed host costs O(r) until its
        colours are read, whatever its n."""
        return b"".join(b"\x01" * si + bytes(self.n - si) for si in self.s)

    def side(self, v: int) -> range:
        """The global ids of v's class with v's `half` entry, as one range
        (v included): the distinguished half or the rest of the class."""
        first = v - v % self.n
        mid = first + self.s[v // self.n]
        return range(first, mid) if v < mid else range(mid, first + self.n)

    def colour_bit(self, edge) -> int:
        """Colour of a transversal edge given as global ids, unchecked: red
        (0) iff an even number of its vertices lie in the distinguished
        halves."""
        return sum(map(self.half.__getitem__, edge)) & 1

    def table(self) -> bytes:
        """The colours of all n**r transversal edges in mixed-radix order,
        an xor of the half table over one class at a time; unchecked, so
        callers bound n**r first."""
        half = np.frombuffer(self.half, np.uint8).reshape(self.r, self.n)
        t = half[0]
        for row in half[1:]:
            t = (t[:, None] ^ row).ravel()
        return t.tobytes()


MATERIALIZE_CAP = 1 << 24


def _check_materializable(n: int, r: int | None) -> None:
    """Raise ValueError unless an rxn table of n**r entries fits
    MATERIALIZE_CAP.  For |n| >= 2 and r past the cap's bit length the
    power exceeds the cap, so it is refused without computing a power whose
    size grows with r."""
    too_long = abs(n) >= 2 and r is not None and r >= MATERIALIZE_CAP.bit_length()
    if too_long or _n_edges("rxn", n, r) > MATERIALIZE_CAP:
        raise ValueError(f"n**r exceeds materialization cap {MATERIALIZE_CAP}")


@dataclass(slots=True, unsafe_hash=True, repr=False)
class TransversalColouring:
    """2-colouring of the transversal edges of the r-partite host.

    Backed either by an explicit table of n**r entries (mixed-radix order)
    or by a split rule that answers queries with no storage.  A rule-backed
    host differs from its materialised form under `==`.
    """

    r: int
    n: int
    _: KW_ONLY
    rule: HyperSplitSizes | None = None
    entries: bytes | None = None

    kind = "rxn"
    palette = 2

    def __post_init__(self):
        r, n, rule, entries = self.r, self.n, self.rule, self.entries
        if (rule is None) == (entries is None):
            raise ValueError("exactly one of rule/entries must be given")
        if rule is not None and (rule.r, rule.n) != (r, n):
            raise ValueError("rule shape mismatch")
        if n < 1:
            raise ValueError("n must be positive")
        if entries is not None:
            _check_materializable(n, r)
            m = _n_edges("rxn", n, r)
            if len(entries) != m:
                raise ValueError(f"expected {m} entries")
            self.entries = _in_palette(entries, 2, "entry outside 2-palette")

    @property
    def n_vertices(self) -> int:
        return self.r * self.n

    @property
    def n_edges(self) -> int:
        return _n_edges("rxn", self.n, self.r)

    def vertex_class(self, u: int) -> int:
        return u // self.n

    def locals_of(self, edge: tuple[int, ...]) -> tuple[int, ...]:
        """Local ids per class of a transversal edge given as global ids."""
        if len(edge) != self.r:
            raise ValueError(f"edge must have {self.r} vertices")
        slots: list[int] = [-1] * self.r
        for u in edge:
            cls_ = u // self.n
            if not 0 <= cls_ < self.r or slots[cls_] >= 0:
                raise ValueError(f"not a transversal edge: {edge}")
            slots[cls_] = u % self.n
        return tuple(slots)

    def colour_bit(self, edge: tuple[int, ...]) -> int:
        locs = self.locals_of(edge)
        if self.rule is not None:
            return self.rule.colour_bit(edge)
        return self.entries[transversal_index(self.n, self.r, locs)]

    def materialize(self) -> "TransversalColouring":
        if self.entries is not None:
            return self
        _check_materializable(self.n, self.r)
        return TransversalColouring(self.r, self.n, entries=self.rule.table())

    def __repr__(self):
        backing = "rule" if self.rule is not None else "materialized"
        return f"TransversalColouring(r={self.r}, n={self.n}, {backing})"


@dataclass(frozen=True)
class SplitStructure:
    """Witness that a 2-coloured bnn host is split-coloured.

    a1/a2 partition class 0 and b1/b2 partition class 1 (global ids,
    sorted); red edges are exactly (a1 x b1) u (a2 x b2).
    """

    a1: tuple[int, ...]
    a2: tuple[int, ...]
    b1: tuple[int, ...]
    b2: tuple[int, ...]

    def __post_init__(self):
        if not (self.a1 and self.a2 and self.b1 and self.b2):
            raise ValueError("all four split parts must be non-empty")

    def verify(self, col: PairColouring) -> bool:
        n = col.n
        return (
            sorted(self.a1 + self.a2) == list(range(n))
            and sorted(self.b1 + self.b2) == list(range(n, 2 * n))
            and _red_blocks(col, self.a1, self.b1)
        )


_FLIP = bytes.maketrans(bytes([RED, BLUE]), bytes([BLUE, RED]))


def _red_blocks(col, a1, b1) -> bool:
    """Whether `col` is a 2-coloured bnn host whose red edges are exactly
    (a1 x b1) u (a2 x b2), with a2 and b2 the rest of each class, either
    possibly empty: an a1 vertex's row is red towards b1 and blue elsewhere,
    and every other class-0 row is its complement.  Read row by row."""
    if col.kind != "bnn" or col.palette != 2:
        return False
    n, entries, in_a1 = col.n, col.entries, set(a1)
    row1 = bytearray([BLUE]) * n
    for b in b1:
        row1[b - n] = RED
    row1, row2 = bytes(row1), bytes(row1.translate(_FLIP))
    return all(entries[a * n : (a + 1) * n] == (row1 if a in in_a1 else row2) for a in range(n))


# ---------------------------------------------------------------------------
# text serialization

_KIND_ALIASES = {"b2": "bnn", "b3": "bnn"}


def serialize_colouring(col) -> str:
    """Canonical two-line text form; parse(serialize(c)) == c bit-exactly."""
    if isinstance(col, TripleColouring):
        head, values = f"h3 {col.n}", col.digits()
    elif isinstance(col, PairColouring):
        head, values = f"{col.kind} {col.n}", col.entries
        if col.palette != 2:
            head += f" {col.palette}"
    elif isinstance(col, TransversalColouring):
        head, values = f"rxn {col.n} {col.r}", col.entries
        if col.rule is not None:
            return f"{head}\nsplit {' '.join(str(si) for si in col.rule.s)}\n"
    else:
        raise TypeError(f"not a colouring: {col!r}")
    body = (np.frombuffer(values, np.uint8) + ord("0")).tobytes().decode("ascii")
    return f"{head}\n{body}\n"


def parse_colouring(data: bytes | str):
    """Parse the two-line format from a file's bytes, or from text, which is
    encoded once as UTF-8; raises ValueError on malformed input.

    Lines end at LF, CR LF or CR.  The header's tokens are split on
    whitespace; the body is every later line stripped of ASCII whitespace,
    joined."""
    if isinstance(data, str):
        data = data.encode()
    if not data.isascii():
        # bytes that are not UTF-8 fail as reading them as text did
        data.decode()
    lines = _lines(data)
    start, end = next(lines, (0, 0))
    header = data[start:end].decode()
    if not header.strip():
        raise ValueError("expected a header line and a body line")
    head = header.split()
    body = _body(data, lines)
    kind = _KIND_ALIASES.get(head[0], head[0])
    if kind not in ("h3", "kn", "bnn", "rxn"):
        raise ValueError(f"unknown host kind {head[0]!r}")
    try:
        n = int(head[1])
    except (IndexError, ValueError):
        raise ValueError("header missing vertex count") from None

    r = None
    palette = 2
    if kind == "rxn":
        try:
            r = int(head[2])
        except (IndexError, ValueError):
            raise ValueError("rxn header needs uniformity r") from None
        if body[:5] == b"split":
            sizes = tuple(int(t) for t in bytes(body).decode().split()[1:])
            return TransversalColouring(r, n, rule=HyperSplitSizes(r, n, sizes))
        _check_materializable(n, r)
    elif kind != "h3" and len(head) > 2:
        palette = int(head[2])
    if n < 1:
        raise ValueError("n must be positive")
    if kind == "h3" and n < 3:
        raise ValueError("triple colouring needs n >= 3 for any edge to exist")
    if kind != "rxn":
        _check_edge_cap(kind, n)
    values = _parse_digits(body, palette, _n_edges(kind, n, r))
    if kind == "h3":
        return TripleColouring.from_digits(n, values)
    if kind == "rxn":
        return TransversalColouring(r, n, entries=values.tobytes())
    return PairColouring(kind, n, palette, values.tobytes())


# what bytes.strip removes
_SPACE = b" \t\n\r\x0b\x0c"


def _lines(data: bytes):
    """(start, end) offsets of each line of `data`, found in one pass: a
    line ends at LF, CR LF or CR (the LF of a CR LF ends an empty line)."""
    size, start = len(data), 0
    lf = cr = -1
    while start < size:
        if lf < start:
            lf = data.find(b"\n", start)
            lf = size if lf < 0 else lf
        if cr < start:
            cr = data.find(b"\r", start)
            cr = size if cr < 0 else cr
        end = min(lf, cr)
        yield start, end
        start = end + 1


def _body(data: bytes, lines):
    """The given lines of `data`, each stripped of ASCII whitespace, joined.
    One line with nothing to strip, the format's own body, comes back as a
    view of `data`, not a copy."""
    view = memoryview(data)
    pieces = []
    for start, end in lines:
        line = view[start:end]
        if line and (line[0] in _SPACE or line[-1] in _SPACE):
            line = bytes(line).strip()
        if line:
            pieces.append(line)
    return pieces[0] if len(pieces) == 1 else b"".join(pieces)


def _parse_digits(body, palette: int, m: int) -> np.ndarray:
    """Colour values of a materialised body: `m` ASCII digits below
    `palette`.  The body is UTF-8, so the first byte that is not such a
    digit starts the character an error names."""
    values = np.frombuffer(body, np.uint8) - np.uint8(ord("0"))
    if values.size and values.max() >= palette:
        at = int(np.argmax(values >= palette))
        ch = bytes(body[at : at + 4]).decode("utf-8", "ignore")[0]
        raise ValueError(f"character {ch!r} outside palette {palette}")
    if values.size != m:
        raise ValueError(f"body length {values.size} != {m} edges")
    return values
