"""The benchmark's library-mix workload at its default seed, checked as the benchmark checks it.

The hetero tuner, ridge rotation and hetero bootstrap are pinned there to
1e-12 of `bench/reference/library_mix.json`; running the same body and
checks here makes a drift in them fail the tests, not only the benchmark.
The bench modules are imported without writing bytecode next to them.
"""

import sys
from pathlib import Path

import suretune

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_modules():
    sys.path.insert(0, str(BENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import checks
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))
    return checks, workloads


def test_seed_zero_body_passes_every_check():
    checks, workloads = _bench_modules()
    mix = workloads.LibraryMix(suretune, workloads.DEFAULT_SEED)
    result = mix.check(mix.body())
    assert sorted(result) == sorted(checks.LIBRARY_CHECKS)
    assert result == {op: [] for op in checks.LIBRARY_CHECKS}
