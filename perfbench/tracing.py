"""Span tracer that instruments monopart from outside.

Every plain function listed in a module's ``__all__`` is wrapped, and the
wrapper is bound in place of the original in every ``monopart`` module
namespace that holds it, so calls made from inside the package are caught
too.  The package source stays unedited; ``Tracer.uninstall`` restores the
original bindings.

A span is (name, start, end, parent span, instance id, pass).  Spans are
kept in compact arrays while the run lasts and written out at the end.
A span's self time is its duration minus the time its child spans cover,
so private helpers (``_profile``, ``_cycle_colours``, ``_frames``) land in
the self time of their public caller.
"""

from __future__ import annotations

import importlib
import inspect
import tracemalloc
from array import array
from contextlib import contextmanager
from time import thread_time as clock  # the clock workloads.CLOCK times instances with

import numpy as np

MODULES = (
    "colourings",
    "generators",
    "tightpaths",
    "bipartite",
    "multipartite",
    "threecolour",
    "certificates",
    "oracles",
    "cli",
)

# Layer entry names, ``<module>.<entry>``.  Functions of an ``__all__`` not
# listed here are still wrapped, under their own name.
ENTRY = {
    "tightpaths.spanning_bicoloured_path": "span",
    "tightpaths.split_into_two_mono": "cut",
    "tightpaths.classify_tight_path": "classify",
    "bipartite.classify_bipartite": "classify",
    "bipartite.find_good_c4": "good_c4",
    "bipartite.find_balanced_c4": "balanced_c4",
    "bipartite.near_mono_spanning_path": "near_mono",
    "bipartite.extend_good_cycle": "extend",
    "bipartite.spanning_bicoloured_or_mono_cycle": "spanning_cycle",
    "bipartite.partition_path_cycle": "partition",
    "bipartite.partition_path_cycle_coloured": "partition_coloured",
    "bipartite.split_three_paths": "split_fallback",
    "bipartite.split_three_cycles": "split_fallback",
    "bipartite.split_all_cycles": "split_fallback",
    "bipartite.convert_paths_to_cycle": "convert",
    "bipartite.v_two_cycles": "v_cycles",
    "threecolour.path_and_balanced_block": "carve",
    "threecolour.path_and_two_balanced_blocks": "carve",
    "threecolour.partition3_complete": "partition3",
    "threecolour.partition3_bipartite": "partition3",
    "certificates.check_certificate": "check",
    "colourings.serialize_colouring": "serialize",
    "colourings.parse_colouring": "parse",
    "generators.splitmix64_stream": "stream",
    "generators.gen_random": "gen",
    "generators.gen_split_bipartite": "gen",
    "generators.gen_v_colouring": "gen",
    "generators.gen_recoloured_split": "gen",
    "generators.gen_three_colour_split": "gen",
    "multipartite.min_cover_exact": "min_cover",
    "multipartite.verify_counting": "report",
    "multipartite.random_mono_tight_path": "report",
    "multipartite.check_side_consistency": "report",
    "oracles.enumerate_all": "enumerate",
}

# Edge-index arithmetic runs once per colour lookup, millions of times per
# instance; wrapping it would make the trace measure the wrapper.
SKIP = {
    "colourings.triple_index",
    "colourings.pair_index",
    "colourings.bipartite_index",
    "colourings.transversal_index",
}

# Entry points whose allocation peak is taken with tracemalloc, in passes
# numbered below 0 only (the corpus build and an untimed peak pass): it
# slows every allocation several fold.
PEAK = {"colourings.serialize", "colourings.parse", "generators.gen"}


def _outcome_fails(name: str, result) -> bool:
    """A returned verdict that counts as a failure of the layer."""
    return name == "certificates.check" and not result.ok


def _payload_bytes(name: str, args, result) -> int:
    if name == "colourings.serialize":
        return len(result)
    if name == "colourings.parse":
        return len(args[0])
    return 0


class Tracer:
    """Records spans and per-name counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.instance_id = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.instance = -1
        self.pass_no = -1
        # (pass, name, stat) -> value, stat in raised/failed/hits/bytes/peak_mb
        self.counts: dict[tuple[int, str, str], float] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance_id.append(self.instance)
        self.pass_id.append(self.pass_no)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        except BaseException:
            self._count(name, "raised", 1)
            raise
        finally:
            self._close(idx)

    def _count(self, name: str, stat: str, value: float) -> None:
        key = (self.pass_no, name, stat)
        if stat == "peak_mb":
            self.counts[key] = max(self.counts.get(key, 0.0), value)
        else:
            self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        peak = name in PEAK
        counts_hits = name == "bipartite.balanced_c4"
        tracer = self

        def traced(*args, **kwargs):
            own_peak = peak and tracer.pass_no < 0 and not tracemalloc.is_tracing()
            if own_peak:
                tracemalloc.start()
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._count(name, "raised", 1)
                raise
            finally:
                tracer._close(idx)
                if own_peak:
                    tracer._count(name, "peak_mb", tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
            if _outcome_fails(name, result):
                tracer._count(name, "failed", 1)
            if counts_hits and result is not None:
                tracer._count(name, "hits", 1)
            nbytes = _payload_bytes(name, args, result)
            if nbytes:
                tracer._count(name, "bytes", nbytes)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- instrumentation ---------------------------------------------------
    def install(self) -> None:
        """Bind wrappers over every public function of the package."""
        pkg = importlib.import_module("monopart")
        mods = [pkg] + [importlib.import_module(f"monopart.{m}") for m in MODULES]
        originals = {}
        for mod in mods:
            short = mod.__name__.rpartition(".")[2]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                key = f"{short}.{attr}"
                if inspect.isfunction(fn) and key not in SKIP:
                    originals[fn] = f"{short}.{ENTRY.get(key, attr)}"
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        # certificate text is a method, so it is wrapped on the class
        cert = importlib.import_module("monopart.certificates").PartitionCertificate
        to_text = cert.__dict__["to_text"]
        from_text = cert.__dict__["from_text"]
        self._restore.append((cert, "to_text", to_text))
        self._restore.append((cert, "from_text", from_text))
        cert.to_text = self._wrap(to_text, "certificates.text")
        cert.from_text = classmethod(self._wrap(from_text.__func__, "certificates.text"))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "instance": np.frombuffer(self.instance_id, dtype=np.int32).copy(),
            "pass": np.frombuffer(self.pass_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def span_times(arr: dict[str, np.ndarray]):
    """(duration, self time, outermost flag) of every span.

    A span is outermost for its name when its parent has another name, so
    a name's total time does not count nested calls of the same name twice.
    """
    dur = arr["end"] - arr["start"]
    parent = arr["parent"]
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    names = arr["name_id"]
    parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)
    return dur, dur - child, parent_name != names


def pass_tables(tracer: Tracer, instance_keys: list[str]) -> dict[int, dict[str, float]]:
    """Per-pass layer figures, keyed ``<module>.<entry>.<stat>``.

    Stats: calls, s (outermost spans), self_s, raised, failed, hits, bytes,
    peak_mb; ``<name>.@<key>.s`` sums a name's outermost spans over the
    instances whose key (``group/n``) is ``key``; ``threecolour.blocks.s``
    is bipartite time spent directly under a 3-colour partition;
    ``trace.spanned_s`` is the time covered by root spans.  Pass -1 holds
    the spans of the corpus build, pass -2 those of the peak pass.
    """
    arr = tracer.arrays()
    dur, self_t, outer = span_times(arr)
    nid, parent, inst = arr["name_id"], arr["parent"], arr["instance"]
    k = len(tracer.names)
    parent_name = np.where(parent >= 0, nid[np.maximum(parent, 0)], -1)
    is_bip = np.array([n.startswith("bipartite.") for n in tracer.names] + [False])
    part3 = tracer._ids.get("threecolour.partition3", -2)
    keys = np.array(instance_keys + [""], dtype=object)
    tables: dict[int, dict[str, float]] = {}
    for p in np.unique(arr["pass"]).tolist():
        m = arr["pass"] == p
        mo = m & outer
        calls = np.bincount(nid[m], minlength=k)
        total = np.bincount(nid[mo], weights=dur[mo], minlength=k)
        own = np.bincount(nid[m], weights=self_t[m], minlength=k)
        t: dict[str, float] = {}
        for i, name in enumerate(tracer.names):
            t[f"{name}.calls"] = int(calls[i])
            t[f"{name}.s"] = float(total[i])
            t[f"{name}.self_s"] = float(own[i])
        blocks = m & is_bip[nid] & (parent_name == part3)
        t["threecolour.blocks.s"] = float(dur[blocks].sum())
        t["trace.spanned_s"] = float(dur[m & (parent < 0)].sum())
        sel = mo & (inst >= 0)
        for i, key, d in zip(nid[sel].tolist(), keys[inst[sel]].tolist(), dur[sel].tolist()):
            name = f"{tracer.names[i]}.@{key}.s"
            t[name] = t.get(name, 0.0) + d
        tables[p] = t
    for (p, name, stat), value in tracer.counts.items():
        tables.setdefault(p, {})[f"{name}.{stat}"] = value
    return tables
