"""Tests for the LRU block cache."""

from repro.lsm.cache import LRUCache


def test_get_miss_returns_none():
    cache = LRUCache(100)
    assert cache.get("missing") is None


def test_insert_then_get():
    cache = LRUCache(100)
    cache.insert("k", "v", 10)
    assert cache.get("k") == "v"


def test_eviction_at_capacity():
    cache = LRUCache(100)
    cache.insert("a", 1, 60)
    cache.insert("b", 2, 60)  # evicts a
    assert cache.get("a") is None
    assert cache.get("b") == 2


def test_lru_order_respects_recency():
    cache = LRUCache(100)
    cache.insert("a", 1, 40)
    cache.insert("b", 2, 40)
    cache.get("a")  # refresh a
    cache.insert("c", 3, 40)  # evicts b, the least recent
    assert cache.get("a") == 1
    assert cache.get("b") is None
    assert cache.get("c") == 3


def test_replace_updates_charge():
    cache = LRUCache(100)
    cache.insert("k", "small", 10)
    cache.insert("k", "big", 90)
    assert cache.usage == 90
    assert cache.get("k") == "big"


def test_oversized_entry_rejected():
    cache = LRUCache(50)
    cache.insert("huge", "x", 100)
    assert cache.get("huge") is None
    assert cache.usage == 0


def test_oversized_replace_keeps_existing_entry():
    # Regression: an over-capacity insert used to pop the key first,
    # destroying the cached entry it then declined to replace.
    cache = LRUCache(50)
    cache.insert("k", "old", 10)
    cache.insert("k", "too big", 100)  # rejected...
    assert cache.get("k") == "old"  # ...without evicting the old value
    assert cache.usage == 10


def test_oversized_insert_does_not_disturb_lru_order():
    cache = LRUCache(50)
    cache.insert("a", 1, 20)
    cache.insert("b", 2, 20)
    cache.insert("a", "giant", 100)  # rejected; "a" keeps its slot
    cache.insert("c", 3, 20)  # evicts "a" (still least recent)
    assert cache.get("a") is None
    assert cache.get("b") == 2
    assert cache.get("c") == 3


def test_erase():
    cache = LRUCache(100)
    cache.insert("k", 1, 10)
    cache.erase("k")
    assert cache.get("k") is None
    assert cache.usage == 0
    cache.erase("not-there")  # no-op


def test_clear():
    cache = LRUCache(100)
    cache.insert("a", 1, 10)
    cache.insert("b", 2, 10)
    cache.clear()
    assert len(cache) == 0
    assert cache.usage == 0


def test_contains():
    cache = LRUCache(100)
    cache.insert("k", 1, 1)
    assert "k" in cache
    assert "j" not in cache


def test_hit_rate():
    cache = LRUCache(100)
    cache.insert("k", 1, 1)
    cache.get("k")
    cache.get("miss")
    assert cache.hit_rate == 0.5


def test_zero_capacity_accepts_nothing():
    cache = LRUCache(0)
    cache.insert("k", 1, 1)
    assert cache.get("k") is None


def test_usage_never_exceeds_capacity():
    cache = LRUCache(64)
    for i in range(100):
        cache.insert(i, i, 7)
        assert cache.usage <= 64


def test_pop_all_returns_values_without_counting():
    cache = LRUCache(100)
    cache.insert("a", 1, 10)
    cache.insert("b", 2, 10)
    cache.get("a")
    rate = cache.hit_rate
    assert sorted(cache.pop_all()) == [1, 2]
    assert len(cache) == 0
    assert cache.usage == 0
    assert cache.hit_rate == rate
