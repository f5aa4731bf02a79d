"""Partition certificates and the universal checker.

A certificate lists monochromatic pieces (paths or cycles with a declared
colour and vertex sequence) claimed to partition the host's vertex set.
Checking is independent of any solver: disjointness, exact coverage,
per-piece structural validity for the host, and monochromaticity of every
edge a piece uses.

Degenerate pieces follow the usual conventions: the empty path/cycle, a
single vertex and (for cycles) a single edge are all accepted; a cycle on
at most two vertices is treated as monochromatic in any declared colour.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .colourings import (
    Colour,
    PairColouring,
    TransversalColouring,
    TripleColouring,
    colour_from_name,
)

__all__ = ["Piece", "PartitionCertificate", "CheckResult", "check_certificate", "certify"]


@dataclass(frozen=True)
class Piece:
    kind: str  # "path" | "cycle"
    colour: Colour
    vertices: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("path", "cycle"):
            raise ValueError(f"unknown piece kind {self.kind!r}")

    def to_obj(self):
        return {
            "kind": self.kind,
            "colour": self.colour.letter,
            "vertices": list(self.vertices),
        }

    @classmethod
    def from_obj(cls, obj) -> "Piece":
        """Piece from its JSON object; raises ValueError on any malformed
        field (bools are not accepted as vertices)."""
        if not isinstance(obj, dict):
            raise ValueError(f"piece is not an object: {obj!r}")
        colour, vertices = obj.get("colour"), obj.get("vertices")
        if not isinstance(colour, str):
            raise ValueError(f"unknown colour {colour!r}")
        if not isinstance(vertices, list) or any(type(v) is not int for v in vertices):
            raise ValueError(f"piece vertices are not a list of ints: {vertices!r}")
        return cls(obj.get("kind"), colour_from_name(colour), tuple(vertices))


def _host_ref(col) -> dict:
    if isinstance(col, TripleColouring):
        return {"kind": "h3", "n": col.n}
    if isinstance(col, PairColouring):
        return {"kind": col.kind, "n": col.n, "palette": col.palette}
    if isinstance(col, TransversalColouring):
        return {"kind": "rxn", "n": col.n, "r": col.r}
    raise TypeError(f"not a colouring: {col!r}")


@dataclass(frozen=True)
class PartitionCertificate:
    host: dict
    pieces: tuple[Piece, ...]

    @classmethod
    def for_colouring(cls, col, pieces) -> "PartitionCertificate":
        return cls(_host_ref(col), tuple(pieces))

    def to_text(self) -> str:
        return json.dumps({"host": self.host, "pieces": [p.to_obj() for p in self.pieces]})

    @classmethod
    def from_text(cls, text: str) -> "PartitionCertificate":
        """Parse the JSON form; raises ValueError on malformed input."""
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("certificate JSON is nested too deeply") from None
        if not (
            isinstance(obj, dict)
            and isinstance(obj.get("host"), dict)
            and isinstance(obj.get("pieces"), list)
        ):
            raise ValueError("certificate is not an object with a host object and a pieces list")
        return cls(obj["host"], tuple(Piece.from_obj(p) for p in obj["pieces"]))

    def nonempty_shape(self) -> tuple[int, int]:
        """(number of non-empty paths, number of non-empty cycles)."""
        np_ = sum(1 for p in self.pieces if p.kind == "path" and p.vertices)
        nc = sum(1 for p in self.pieces if p.kind == "cycle" and p.vertices)
        return np_, nc


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    reason: str | None = None
    piece_index: int | None = None
    detail: tuple = field(default_factory=tuple)

    def __bool__(self):
        return self.ok


_OK = CheckResult(True)


def _bad(reason: str, piece: int | None = None, detail=()) -> CheckResult:
    return CheckResult(False, reason, piece, tuple(detail))


def check_certificate(col, cert: PartitionCertificate) -> CheckResult:
    """Verify a certificate against a colouring; violations are returned,
    never raised."""
    host = _host_ref(col)
    if cert.host != host:
        return _bad("host-mismatch", detail=(cert.host, host))

    n_vertices = col.n_vertices

    seen: set[int] = set()
    for idx, piece in enumerate(cert.pieces):
        for v in piece.vertices:
            if not 0 <= v < n_vertices:
                return _bad("vertex-out-of-range", idx, (v,))
            if v in seen:
                return _bad("disjointness", idx, (v,))
            seen.add(v)
        res = _check_piece(col, piece, idx)
        if not res.ok:
            return res
        if piece.colour >= getattr(col, "palette", 2):
            return _bad("colour-outside-palette", idx, (piece.colour,))
    if len(seen) != n_vertices:
        missing = sorted(set(range(n_vertices)) - seen)
        return _bad("coverage", None, tuple(missing[:8]))
    return _OK


def certify(col, pieces) -> PartitionCertificate:
    """Checked certificate of a solver's pieces; RuntimeError on a violation."""
    cert = PartitionCertificate.for_colouring(col, pieces)
    res = check_certificate(col, cert)
    if not res.ok:
        raise RuntimeError(f"internal verification failed: {res.reason}")
    return cert


def _check_piece(col, piece: Piece, idx: int) -> CheckResult:
    vs = piece.vertices
    k = len(vs)

    if isinstance(col, TripleColouring):
        if piece.kind != "path":
            return _bad("unsupported-piece-kind-for-host", idx)
        for i in range(k - 2):
            c = col.colour_bit(vs[i], vs[i + 1], vs[i + 2])
            if c != piece.colour:
                return _bad("monochromaticity", idx, (vs[i], vs[i + 1], vs[i + 2]))
        return _OK

    if isinstance(col, TransversalColouring):
        if piece.kind != "path":
            return _bad("unsupported-piece-kind-for-host", idx)
        r = col.r
        for i in range(max(0, k - r + 1)):
            window = vs[i : i + r]
            classes = sorted(col.vertex_class(u) for u in window)
            if classes != list(range(r)):
                return _bad("not-transversal-window", idx, tuple(window))
            if col.colour_bit(tuple(window)) != piece.colour:
                return _bad("monochromaticity", idx, tuple(window))
        return _OK

    # pair hosts
    bip = col.kind == "bnn"
    edges: list[tuple[int, int]] = [(vs[i], vs[i + 1]) for i in range(k - 1)]
    if piece.kind == "cycle":
        if k >= 3:
            edges.append((vs[-1], vs[0]))
        if bip and k >= 3 and k % 2 != 0:
            return _bad("cycle-does-not-close", idx)
    for u, v in edges:
        if bip and col.side(u) == col.side(v):
            return _bad("edge-within-class", idx, (u, v))
    colour_free = piece.kind == "cycle" and k <= 2
    if not colour_free:
        for u, v in edges:
            if col.colour_bit(u, v) != piece.colour:
                return _bad("monochromaticity", idx, (u, v))
    return _OK
