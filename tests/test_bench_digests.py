"""Byte-identity gate: the benchmark corpora at seed 1 keep their
certificate digests and failed counts.

The solvers are deterministic, so a refactor must leave every certificate
the same.  Each workload's corpus is built with ``perfbench/workloads.py``
and run once through ``run_pass``, without the frozen reference; the
digest hashes every operation's certificate text in corpus order.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

SEED = 1


@pytest.mark.parametrize("workload, digest, failed", [
    ("random-large", "a8a4d7ef", 0),
    ("adversarial", "55fb73f8", 0),
    ("tiny-exhaustive", "ff9efc3f", 0),
    # the rxn r = 3 file's cover search raises (a known defect)
    ("cli-files", "c5f0a183", 1),
])
def test_seed1_certificates_are_byte_identical(workload, digest, failed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # cli-files writes its files under ./perfbench/out
    corpus = workloads.build(workload, SEED)
    try:
        result = workloads.run_pass(corpus)
    finally:
        corpus.close()
    assert (result.digest[:8], result.failed) == (digest, failed), result.failures
