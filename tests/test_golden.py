"""Every golden digest must still match, bit for bit.

The digests were recorded before the MEE's read, write and replay
entries were merged into one per-event kernel, and before
``simulate()``, the sweep compiler and ``simulate_multicore`` shared
one data-side walk, so they are an oracle that shares neither: direct
``simulate()``, the sweep's plan replay and the multicore model must
each reproduce the recorded results on their own. The ``wear``
digests were recorded while ``simulate()`` still replayed through its
own loop and wear tracking still wrapped the engine's write methods,
so they pin the one replay loop and the engine's own wear recording.
The ``scatter`` digests were recorded while boot aging still freed
frame by frame, the AMNT++ restructure still looked regions up twice
and cache sets still held line objects (see ``tests/golden.py`` for the
cases and how to re-record them).
"""

import pytest

from repro.workloads.registry import compiled_cache_clear
from tests.golden import CASE_SETS, load_golden


@pytest.fixture(autouse=True)
def _clean_caches():
    compiled_cache_clear()
    yield
    compiled_cache_clear()


@pytest.mark.parametrize("case_set", sorted(CASE_SETS))
def test_digests_match_recording(case_set):
    golden = load_golden()
    expected = {
        label: digest
        for label, digest in golden.items()
        if label.startswith(f"{case_set}/")
    }
    actual = dict(CASE_SETS[case_set]())
    assert sorted(actual) == sorted(expected)
    mismatched = sorted(
        label for label in expected if actual[label] != expected[label]
    )
    assert not mismatched, f"digests moved: {mismatched}"
