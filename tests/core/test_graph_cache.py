"""The HB unroll cache: bounded to its measured reuse distance."""

from repro.core.analysis import hb
from repro.gen.generator import generate_many
from repro.gen.oracle import OracleConfig, check_program


def test_default_bound_is_the_global_caches():
    assert hb.GraphCache().maxsize == hb.GRAPH_CACHE_SIZE
    assert hb.GRAPH_CACHE.maxsize == hb.GRAPH_CACHE_SIZE


def test_one_check_program_still_hits():
    # The oracle's verify, race and payload passes ask for the same
    # per-target unrolls back to back, within the bound.
    hb.GRAPH_CACHE.clear()
    (gp,) = generate_many([3], mode="clean")
    assert check_program(gp, OracleConfig(fuzz_seeds=0)).ok
    assert hb.GRAPH_CACHE.hits > 0
    assert hb.GRAPH_CACHE.hits <= hb.GRAPH_CACHE.misses


def test_never_exceeds_its_bound():
    cache = hb.GraphCache()
    for i in range(3 * hb.GRAPH_CACHE_SIZE):
        cache.put(str(i), hb.CachedUnroll(tracers=[], graph=None))
        assert len(cache) <= hb.GRAPH_CACHE_SIZE
    assert len(cache) == hb.GRAPH_CACHE_SIZE
    # Least recently used out first: the newest keys survive.
    assert cache.get(str(3 * hb.GRAPH_CACHE_SIZE - 1)) is not None
    assert cache.get("0") is None


def test_global_cache_bounded_across_many_programs():
    hb.GRAPH_CACHE.clear()
    config = OracleConfig(fuzz_seeds=0)
    for gp in generate_many(list(range(20)), mode="mix"):
        check_program(gp, config)
        assert len(hb.GRAPH_CACHE) <= hb.GRAPH_CACHE_SIZE
    assert hb.GRAPH_CACHE.hits > 0
