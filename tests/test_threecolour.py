import hashlib
import itertools
import random
import tracemalloc

import pytest

import monopart.bipartite as bp
import monopart.threecolour as tc
from monopart.certificates import check_certificate
from monopart.colourings import BLUE, GREEN, RED, PairColouring
from monopart.generators import gen_random, gen_three_colour_split
from monopart.threecolour import (
    _search_path,
    partition3_bipartite,
    partition3_complete,
    path_and_balanced_block,
    path_and_two_balanced_blocks,
)
from tests.conftest import all_bnn_colourings


def test_carve_all_red_complete():
    col = PairColouring.constant("kn", 5, 2, 0)
    seq, block = path_and_balanced_block(col)
    assert seq == [0, 1, 2, 3, 4] and not block


def test_carve_all_blue_complete():
    col = PairColouring.constant("kn", 5, 2, 1)
    seq, block = path_and_balanced_block(col)
    assert len(seq) == 1 and len(block.side1) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_carve_complete_exhaustive(n):
    for idx in range(1 << (n * (n - 1) // 2)):
        col = PairColouring.from_int("kn", n, idx)
        seq, block = path_and_balanced_block(col)
        assert len(seq) + 2 * len(block.side1) == n
        assert len(set(seq) | set(block.side1) | set(block.side2)) == n
        for i in range(len(seq) - 1):
            assert col.colour_bit(seq[i], seq[i + 1]) == RED
        for u in block.side1:
            for w in block.side2:
                assert col.colour_bit(u, w) == BLUE


def test_carve_all_blue_bipartite():
    col = PairColouring.constant("bnn", 3, 2, 1)
    seq, a, b = path_and_two_balanced_blocks(col)
    assert seq == [] and len(a.side1) + len(b.side1) == 3


def test_carve_all_red_bipartite():
    col = PairColouring.constant("bnn", 3, 2, 0)
    seq, a, b = path_and_two_balanced_blocks(col)
    assert len(seq) == 6 and not a and not b


@pytest.mark.parametrize("n", [1, 2, 3])
def test_carve_bipartite_exhaustive(n):
    for idx, col in all_bnn_colourings(n):
        seq, a, b = path_and_two_balanced_blocks(col)
        assert len(seq) % 2 == 0
        assert len(seq) + 2 * len(a.side1) + 2 * len(b.side1) == 2 * n
        assert len(a.side1) <= len(b.side1)
        for block in (a, b):
            assert all(u < n for u in block.side1)
            assert all(u >= n for u in block.side2)
            for u in block.side1:
                for w in block.side2:
                    assert col.colour_bit(u, w) == BLUE
        for i in range(len(seq) - 1):
            assert col.colour_bit(seq[i], seq[i + 1]) == RED


def test_partition3_complete_shapes(rng):
    for seed in range(1000):
        n = 3 + seed % 10
        cert = partition3_complete(gen_random("kn", n, 3, seed=seed))
        np_, nc = cert.nonempty_shape()
        assert (np_ <= 2 and nc <= 1) or (np_ <= 1 and nc <= 3), (seed, np_, nc)


def test_partition3_complete_mono_hosts():
    cert = partition3_complete(PairColouring.constant("kn", 6, 3, 2))
    np_, nc = cert.nonempty_shape()
    assert np_ + nc == 1  # one green piece covers everything
    cert = partition3_complete(PairColouring.constant("kn", 7, 3, 0))
    assert cert.nonempty_shape() == (1, 0)


def test_partition3_bipartite_shapes():
    for seed in range(1000):
        n = 1 + seed % 8
        cert = partition3_bipartite(gen_random("bnn", n, 3, seed=seed))
        np_, nc = cert.nonempty_shape()
        assert (np_ <= 3 and nc <= 2) or (np_ <= 2 and nc <= 4), (seed, np_, nc)


def test_partition3_bipartite_never_exceeds_six_pieces():
    for seed in range(300):
        n = 2 + seed % 8
        cert = partition3_bipartite(gen_random("bnn", n, 3, seed=7_000 + seed))
        assert len([p for p in cert.pieces if p.vertices]) <= 6
        cert = partition3_complete(gen_random("kn", 3 + seed % 9, 3, seed=9_000 + seed))
        assert len([p for p in cert.pieces if p.vertices]) <= 4


def test_partition3_split_instances():
    for s0 in itertools.product(range(1, 4), repeat=3):
        for s1 in itertools.product(range(1, 4), repeat=3):
            if sum(s0) != sum(s1):
                continue
            col = gen_three_colour_split(s0, s1)
            cert = partition3_bipartite(col)
            np_, nc = cert.nonempty_shape()
            assert (np_ <= 3 and nc <= 2) or (np_ <= 2 and nc <= 4)


def test_all_red_cross_fixture():
    # blocks carry blue/green splits while every cross edge is red, forcing
    # the two-red-cycles fallback
    def fn(u, w):
        b = w - 4
        if (u < 2) == (b < 2):
            return BLUE if (u % 2) == (w % 2) else GREEN
        return RED

    col = PairColouring.from_function("bnn", 4, 3, fn)
    cert = partition3_bipartite(col)
    assert cert.nonempty_shape() == (0, 2)
    assert all(p.colour == RED for p in cert.pieces if p.kind == "cycle")


def test_partition3_rejects_wrong_palette():
    with pytest.raises(ValueError):
        partition3_complete(PairColouring.constant("kn", 4, 2, 0))
    with pytest.raises(ValueError):
        partition3_bipartite(PairColouring.constant("bnn", 4, 2, 0))


def _mask(vertices):
    """The bitset of a vertex collection, as the carved-path helpers take it."""
    return sum(1 << v for v in set(vertices))


def _masks(red):
    return [_mask(nbrs) for nbrs in red]


def _members(mask):
    return {v for v in range(mask.bit_length()) if mask >> v & 1}


def test_search_path_has_no_depth_limit():
    # the only hit is the whole 5,000-vertex chain, far past the recursion limit
    n = 5000
    red = _masks([{w for w in (u - 1, u + 1) if 0 <= w < n} for u in range(n)])

    def feasible(used, seq):
        return "whole" if len(seq) == n else None

    seq, payload = _search_path(range(n), red, feasible)
    assert seq == list(range(n)) and payload == "whole"


@pytest.mark.parametrize("solve, kind, seed, digest", [
    (partition3_complete, "kn", 0, "574f1f9e98294e351e9dc393257f1b329e0b4cfdc0defa711847468639b62f38"),
    (partition3_complete, "kn", 1, "659fb3d518972adfd3cacee3a72729fdf16206835691e1a0a31891fd9b3c6922"),
    (partition3_bipartite, "bnn", 0, "479e9374d6826f31ad95435f98f6517012658289a446c1249d8fa6a957f20597"),
    (partition3_bipartite, "bnn", 1, "98fc34d1a797fce94818c4a60a21ba6b7a61676a3e3bf547caf751f592555998"),
], ids=["kn-0", "kn-1", "bnn-0", "bnn-1"])
def test_partition3_certificates_pinned_at_n128(solve, kind, seed, digest):
    # hosts where the carved path needs backtracking past its first descent
    # (all but bnn-1), at a size where the search once took a separate route
    cert = solve(gen_random(kind, 128, 3, seed=seed))
    assert hashlib.sha256(cert.to_text().encode()).hexdigest() == digest


def test_partition3_bipartite_classifies_each_block_once(monkeypatch):
    calls = []
    real = bp.classify_bipartite

    def counted(col):
        calls.append(col)
        return real(col)

    monkeypatch.setattr(bp, "classify_bipartite", counted)
    monkeypatch.setattr(tc, "classify_bipartite", counted)
    for seed in range(20):
        col = gen_random("bnn", 16, 3, seed=seed)
        _seq, a, b = path_and_two_balanced_blocks(col)
        calls.clear()
        partition3_bipartite(col)
        assert len(calls) == bool(a) + bool(b), seed


@pytest.mark.parametrize("kind, n", [("kn", 9), ("bnn", 6)])
def test_red_neighbours_match_colour_lookups(kind, n):
    col = gen_random(kind, n, 3, seed=3)
    red = tc._red_neighbours(col)
    for u in range(col.n_vertices):
        others = range(col.n_vertices) if kind == "kn" else col.class_vertices(1 - col.side(u))
        assert _members(red[u]) == {w for w in others if w != u and col.colour_bit(u, w) == RED}, u


def _brute_half_split_exists(vertices, red):
    if len(vertices) % 2:
        return False
    for x in itertools.combinations(vertices, len(vertices) // 2):
        y = set(vertices) - set(x)
        if not any(red[u] & y for u in x):
            return True
    return False


def _brute_two_block_split_exists(r0, r1, red):
    if len(r0) != len(r1):
        return False
    for k in range(len(r0) + 1):
        for a1 in itertools.combinations(r0, k):
            b1 = set(r0) - set(a1)
            for a2 in itertools.combinations(r1, k):
                b2 = set(r1) - set(a2)
                if not any(red[u] & set(a2) for u in a1) and not any(red[u] & b2 for u in b1):
                    return True
    return False


def _largest_component(vertices, red):
    left, largest = set(vertices), 0
    while left:
        comp, todo = set(), [left.pop()]
        while todo:
            u = todo.pop()
            comp.add(u)
            todo.extend(red[u] & left)
            left -= red[u]
        largest = max(largest, len(comp))
    return largest


def _random_red_graph(rng, ids, pairs):
    # edge density from sparse to dense, so that some remainders have a
    # component larger than half of them and some split
    p = rng.choice([0.1, 0.25, 0.5, 0.8])
    red = [set() for _ in ids]
    for u, w in pairs:
        if rng.random() < p:
            red[u].add(w)
            red[w].add(u)
    return red


def test_half_split_early_exit_matches_brute_force():
    rng = random.Random(13)
    ids = range(10)
    pairs = list(itertools.combinations(ids, 2))
    seen = {"exit": 0, "split": 0}
    for _ in range(1500):
        red = _random_red_graph(rng, ids, pairs)
        vertices = sorted(rng.sample(ids, rng.randint(0, 10)))
        even = len(vertices) % 2 == 0
        seen["exit"] += even and 2 * _largest_component(vertices, red) > len(vertices) > 0
        got = tc._half_split(_mask(vertices), _masks(red))
        assert (got is not None) == _brute_half_split_exists(vertices, red), (vertices, red)
        if got is not None:
            seen["split"] += 1
            x, y = got
            assert x == sorted(x) and y == sorted(y) and len(x) == len(y)
            assert sorted(x + y) == vertices
            assert not any(red[u] & set(y) for u in x)
    assert seen["exit"] > 100 and seen["split"] > 100, seen


def test_two_block_split_early_exit_matches_brute_force():
    rng = random.Random(17)
    n = 5
    ids = range(2 * n)
    pairs = [(a, n + b) for a in range(n) for b in range(n)]
    seen = {"exit": 0, "split": 0}
    for _ in range(1500):
        red = _random_red_graph(rng, ids, pairs)
        size = rng.randint(0, n)
        r0 = sorted(rng.sample(range(n), size))
        r1 = sorted(rng.sample(range(n, 2 * n), size if rng.random() < 0.9 else rng.randint(0, n)))
        seen["exit"] += 2 * _largest_component(r0 + r1, red) > len(r0 + r1) > 0
        got = tc._two_block_split(_mask(r0), _mask(r1), _masks(red))
        assert (got is not None) == _brute_two_block_split_exists(r0, r1, red), (r0, r1, red)
        if got is not None:
            seen["split"] += 1
            (a1, a2), (b1, b2) = got
            assert len(a1) == len(a2) and len(b1) == len(b2) and len(a1) <= len(b1)
            assert sorted(a1 + b1) == r0 and sorted(a2 + b2) == r1
            assert not any(red[u] & set(a2) for u in a1)
            assert not any(red[u] & set(b2) for u in b1)
    assert seen["exit"] > 100 and seen["split"] > 100, seen


class _CountingList(list):
    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("solve, kind, n", [
    (partition3_complete, "kn", 256),
    (partition3_bipartite, "bnn", 128),
], ids=["kn-256", "bnn-128"])
def test_carved_path_search_adjacency_reads(monkeypatch, solve, kind, n):
    # the search reads a vertex's red neighbours once as it extends the
    # path, and each feasibility check stops its component scan once a
    # component holds more than half of the remainder: after two or three
    # vertices on a random host (scanning the whole remainder reads about
    # 65 per host vertex at these sizes)
    made = []

    def counting(col):
        made.append(_CountingList(red_neighbours(col)))
        return made[-1]

    red_neighbours = tc._red_neighbours
    monkeypatch.setattr(tc, "_red_neighbours", counting)
    for seed in range(3):
        made.clear()
        col = gen_random(kind, n, 3, seed=seed)
        solve(col)
        assert made and sum(r.reads for r in made) <= 4 * col.n_vertices, seed


def _block_by_lookups(col, left, right):
    """The block's local 2-colouring read edge by edge through colour_bit."""
    local = {BLUE: 0, GREEN: 1}
    right = sorted(right)
    return PairColouring("bnn", len(right), 2, bytes(
        local[col.colour_bit(u, w)] for u in sorted(left) for w in right
    ))


def _carved_blocks(col):
    if col.kind == "kn":
        return [path_and_balanced_block(col)[1]]
    return list(path_and_two_balanced_blocks(col)[1:])


@pytest.mark.parametrize("kind", ["kn", "bnn"])
def test_induced_block_matches_colour_lookups(kind):
    rng = random.Random(11)
    checked = 0
    for seed in range(40):
        col = gen_random(kind, 4 + seed % 9, 3, seed=seed)
        for block in _carved_blocks(col):
            m = len(block.side1)
            # the carved block and equal-size sub-blocks of it: none has a red edge
            for size in sorted(s for s in {m, m - 1, m // 2} if s > 0):
                left = rng.sample(block.side1, size)
                right = rng.sample(block.side2, size)
                assert tc._induced_block(col, left, right) == _block_by_lookups(col, left, right)
                checked += 1
    assert checked >= 60


@pytest.mark.parametrize("kind", ["kn", "bnn"])
def test_induced_block_refuses_a_red_edge(kind):
    col = gen_random(kind, 6, 3, seed=4)
    left = range(col.n) if kind == "bnn" else range(3)
    right = range(col.n, 2 * col.n) if kind == "bnn" else range(3, 6)
    u, w = next((u, w) for u in left for w in right if col.colour_bit(u, w) == RED)
    with pytest.raises(ValueError, match="block contains a carved-colour edge"):
        tc._induced_block(col, [u], [w])
    with pytest.raises(ValueError, match="block contains a carved-colour edge"):
        tc._induced_block(col, left, right)


# ---------------------------------------------------------------------------
# the set-based carved-path search the bitset one replaced, kept as a
# reference for its first hit


def _ref_red_components(vertices, red):
    fresh = set(vertices)
    half = len(fresh) // 2
    comps = []
    for v in sorted(vertices):
        if v not in fresh:
            continue
        fresh.discard(v)
        comp = [v]
        queue = [v]
        while queue:
            for w in red[queue.pop()] & fresh:
                fresh.discard(w)
                comp.append(w)
                queue.append(w)
            if len(comp) > half:
                return None
        comps.append(sorted(comp))
    return comps


def _ref_half_split(vertices, red):
    vertices = sorted(vertices)
    if len(vertices) % 2:
        return None
    target = len(vertices) // 2
    comps = _ref_red_components(vertices, red)
    if comps is None:
        return None
    sizes = [len(c) for c in comps]
    achievable = [set() for _ in range(len(sizes) + 1)]
    achievable[len(sizes)].add(0)
    for i in range(len(sizes) - 1, -1, -1):
        for s in achievable[i + 1]:
            achievable[i].add(s)
            achievable[i].add(s + sizes[i])
    if target not in achievable[0]:
        return None
    x, y = [], []
    need = target
    for i, comp in enumerate(comps):
        if need - sizes[i] >= 0 and (need - sizes[i]) in achievable[i + 1]:
            x.extend(comp)
            need -= sizes[i]
        else:
            y.extend(comp)
    return sorted(x), sorted(y)


def _ref_bip_components(r0, r1, red):
    side0 = set(r0)
    comps = []
    whole = _ref_red_components(list(r0) + list(r1), red)
    if whole is None:
        return None
    for c in whole:
        if len(c) > 1:
            comps.append(([u for u in c if u in side0], [u for u in c if u not in side0]))
    iso0 = sorted(set(r0) - {u for c0, _ in comps for u in c0})
    iso1 = sorted(set(r1) - {u for _, c1 in comps for u in c1})
    return comps, iso0, iso1


def _ref_two_block_split(r0, r1, red):
    r0, r1 = sorted(r0), sorted(r1)
    if len(r0) != len(r1):
        return None
    parts = _ref_bip_components(r0, r1, red)
    if parts is None:
        return None
    comps, iso0, iso1 = parts
    f0, f1 = len(iso0), len(iso1)
    layers = [{(0, 0): None}]
    for c0, c1 in comps:
        nxt = {}
        for (d, s) in layers[-1]:
            ka = (d + len(c0), s + len(c0))
            kb = (d - len(c1), s)
            if ka not in nxt:
                nxt[ka] = ((d, s), True)
            if kb not in nxt:
                nxt[kb] = ((d, s), False)
        layers.append(nxt)
    best = None
    for (d, s) in layers[-1]:
        if -f0 <= d <= f1:
            cand = (s + max(0, -d), d, s)
            if best is None or cand < best:
                best = cand
    if best is None:
        return None
    _, d, s = best
    choose = []
    cur = (d, s)
    for i in range(len(comps), 0, -1):
        parent, took_a = layers[i][cur]
        choose.append(took_a)
        cur = parent
    choose.reverse()
    a1, a2, b1, b2 = [], [], [], []
    for (c0, c1), took_a in zip(comps, choose):
        if took_a:
            a1.extend(c0)
            b2.extend(c1)
        else:
            b1.extend(c0)
            a2.extend(c1)
    a0 = max(0, -d)
    a1.extend(iso0[:a0])
    b1.extend(iso0[a0:])
    a2.extend(iso1[: d + a0])
    b2.extend(iso1[d + a0 :])
    a1, a2, b1, b2 = sorted(a1), sorted(a2), sorted(b1), sorted(b2)
    if len(a1) > len(b1):
        a1, a2, b1, b2 = b1, b2, a1, a2
    return (a1, a2), (b1, b2)


def _ref_search_path(candidates_start, red, feasible):
    used, seq = set(), []
    hit = feasible(used, seq)
    if hit is not None:
        return [], hit
    dead = set()
    stack = [iter(candidates_start)]
    while stack:
        for w in stack[-1]:
            if w in used:
                continue
            used.add(w)
            if (w, frozenset(used)) in dead:
                used.discard(w)
                continue
            seq.append(w)
            payload = feasible(used, seq)
            if payload is not None:
                return seq, payload
            stack.append(iter(sorted(red[w])))
            break
        else:
            stack.pop()
            if seq:
                dead.add((seq[-1], frozenset(used)))
                used.discard(seq.pop())
    return None


def _ref_carve(col):
    """The reference search's (seq, blocks) and its feasibility-check count."""
    n, nv = col.n, col.n_vertices
    others = (lambda u: range(nv)) if col.kind == "kn" else (lambda u: col.class_vertices(1 - col.side(u)))
    red = [{w for w in others(u) if w != u and col.colour_bit(u, w) == RED} for u in range(nv)]
    calls = []

    def feasible(used, seq):
        calls.append(1)
        rest = [v for v in range(nv) if v not in used]
        if col.kind == "kn":
            return _ref_half_split(rest, red)
        if len(seq) % 2:
            return None
        return _ref_two_block_split([v for v in rest if v < n], [v for v in rest if v >= n], red)

    return _ref_search_path(range(nv), red, feasible), len(calls)


def _host_with_red(kind, n, is_red, rng):
    """A 3-coloured host whose red edges are the pairs `is_red` accepts and
    whose other edges are blue or green at random."""
    return PairColouring.from_function(
        kind, n, 3, lambda u, w: RED if is_red(u, w) else rng.choice([BLUE, GREEN])
    )


def _two_cliques(kind, k):
    # red graph: two disjoint cliques of k and k + 1 vertices (kn, n = 2k + 1),
    # or red blocks K_{k,k} and K_{k+1,k+1} (bnn, n = 2k + 1)
    n = 2 * k + 1
    if kind == "kn":
        return n, lambda u, w: (u < k) == (w < k)
    return n, lambda u, w: (u < k) == (w - n < k)


def test_bitset_search_keeps_the_first_hit():
    rng = random.Random(23)
    hosts = []
    for _ in range(150):
        p = rng.choice([0.1, 0.25, 0.5, 0.8])
        hosts.append(_host_with_red("kn", rng.randint(1, 12), lambda u, w: rng.random() < p, rng))
        hosts.append(_host_with_red("bnn", rng.randint(1, 6), lambda u, w: rng.random() < p, rng))
    backtracked = 0
    for kind in ("kn", "bnn"):
        for k in range(1, 5):
            hosts.append(_host_with_red(kind, *_two_cliques(kind, k), rng))
    for col in hosts:
        (seq, blocks), calls = _ref_carve(col)
        backtracked += calls > len(seq) + 1
        if col.kind == "kn":
            got_seq, block = path_and_balanced_block(col)
            got = [(list(block.side1), list(block.side2))]
            want = [blocks]
        else:
            got_seq, a, b = path_and_two_balanced_blocks(col)
            got = [(list(a.side1), list(a.side2)), (list(b.side1), list(b.side2))]
            want = list(blocks)
        assert (got_seq, got) == (seq, want), col.entries
    assert backtracked >= 10, backtracked


@pytest.mark.parametrize("kind, n", [("kn", 512), ("kn", 2048), ("bnn", 256), ("bnn", 1024)])
def test_red_adjacency_takes_under_a_byte_per_edge(kind, n):
    # bitsets take n^2/8 bytes (about 0.25-0.4 bytes per edge); one set of
    # ints per vertex took about 40
    col = gen_random(kind, n, 3, seed=1)
    col.rows  # noqa: B018 - the raw view is the host's, not the adjacency's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        red = tc._red_neighbours(col)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(red) == col.n_vertices
    assert held <= col.n_edges, held / col.n_edges


# ---------------------------------------------------------------------------
# the bitset subset sum against the set and dict DPs it replaced


def _small_blocks(rng, sizes, ids):
    """Red sets on `ids` made of disjoint blocks: each block takes the next
    a_i vertices of each id range in `ids` (a_i drawn from `sizes`) and is
    complete between its parts, or a clique when `ids` has one range."""
    red = {v: set() for r in ids for v in r}
    starts = [r.start for r in ids]
    while any(s < r.stop for s, r in zip(starts, ids)):
        parts = []
        for i, r in enumerate(ids):
            a = rng.choice(sizes)
            parts.append(range(starts[i], min(starts[i] + a, r.stop)))
            starts[i] = parts[-1].stop
        members = [v for p in parts for v in p]
        for u in members:
            same = next(p for p in parts if u in p)
            red[u] |= {w for w in members if w != u and (len(ids) == 1 or w not in same)}
    return [red[v] for v in sorted(red)]


def _size_ties(sizes):
    """Whether two components have equal `sizes`: then two choice lists
    reach the same subset sum, and the old DPs kept the first of them."""
    return len(set(sizes)) < len(sizes)


def test_half_split_matches_the_set_dp():
    rng = random.Random(29)
    ties = 0
    for _ in range(300):
        n = rng.randint(1, 40)
        red = _small_blocks(rng, [1, 1, 2, 3, 4], [range(n)])
        vertices = sorted(rng.sample(range(n), rng.randint(0, n)))
        want = _ref_half_split(vertices, red)
        assert tc._half_split(_mask(vertices), _masks(red)) == want, (vertices, red)
        ties += want is not None and _size_ties([len(c) for c in _ref_red_components(vertices, red)])
    assert ties >= 50, ties


def test_two_block_split_matches_the_dict_dp():
    rng = random.Random(31)
    ties = 0
    for _ in range(300):
        n = rng.randint(1, 24)
        red = _small_blocks(rng, [0, 1, 1, 2, 3], [range(n), range(n, 2 * n)])
        size = rng.randint(0, n)
        r0 = sorted(rng.sample(range(n), size))
        r1 = sorted(rng.sample(range(n, 2 * n), size if rng.random() < 0.9 else rng.randint(0, n)))
        want = _ref_two_block_split(r0, r1, red)
        assert tc._two_block_split(_mask(r0), _mask(r1), _masks(red)) == want, (r0, r1, red)
        ties += want is not None and _size_ties(
            [(len(c0), len(c1)) for c0, c1 in _ref_bip_components(r0, r1, red)[0]])
    assert ties >= 50, ties


def test_two_block_split_of_many_small_blocks_in_bounded_memory():
    # red K_{a,b} blocks with a, b in 1..3 cover n = 200 per class: about
    # 100 components, whose per-layer dicts of (d, s) states held 92 MB
    n, rng = 200, random.Random(7)
    red = _small_blocks(rng, [1, 2, 3], [range(n), range(n, 2 * n)])
    masks, full0 = _masks(red), (1 << n) - 1
    tracemalloc.start()
    try:
        got = tc._two_block_split(full0, full0 << n, masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (a1, a2), (b1, b2) = got
    assert len(a1) + len(b1) == n and not any(red[u] & set(a2) for u in a1)
    assert peak < 8 << 20, peak / 2**20


def test_remainder_block_takes_the_v_branch(monkeypatch):
    # two balanced blocks whose inner edges follow a blue/green split with
    # unequal parts, and mostly red cross edges: both blocks are split, and
    # after the wipe paths one remainder block is V-coloured
    col = PairColouring("bnn", 7, 3, bytes.fromhex(
        "01020202000200000000000102020000000001020200000000020101020101010000000201010100000002010101000200"))
    calls = []
    real = tc.v_two_cycles

    def spy(local, structure):
        calls.append(structure)
        return real(local, structure)

    monkeypatch.setattr(tc, "v_two_cycles", spy)
    cert = partition3_bipartite(col)
    assert len(calls) == 1 and calls[0] is not None
    assert check_certificate(col, cert).ok and cert.nonempty_shape() == (1, 3)
