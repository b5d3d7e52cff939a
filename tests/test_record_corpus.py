"""A tier-1 slice of the record corpus (``scripts/ci_record_corpus.py``).

Re-runs the golden run of every setup, with and without the pruner's
access-trace recorder, and a few (setup, structure, fault model) cells
that reach the fetch path and the issue queue, and requires the golden
cycles, statistics, access-trace digests and record streams to equal
the frozen ``tests/data/record_corpus.json``.  The full matrix runs in
CI.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import ci_record_corpus as corpus                          # noqa: E402


def test_corpus_covers_the_full_matrix():
    pinned = corpus.load_corpus()
    assert pinned["injections"] == corpus.INJECTIONS
    assert pinned["seed"] == corpus.SEED
    assert set(pinned["golden"]) == set(corpus.SETUPS)
    assert set(pinned["cells"]) == {corpus.cell_key(*c)
                                    for c in corpus.full_matrix()}


def test_slice_matches_the_corpus():
    got = corpus.run_corpus(corpus.SLICE, corpus.SETUPS)
    assert set(got["golden"]) == set(corpus.SETUPS)
    assert len(got["cells"]) == len(corpus.SLICE)
    assert corpus.differences(got, corpus.load_corpus()) == []
