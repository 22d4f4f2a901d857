"""Point registry: measurement cache, command-drain semantics, interning,
dirty-set flush and delta subscribers."""

import math

from repro.pointdb import PointRegistry, PointType, parse_bool


def test_set_get_defaults(write_point):
    registry = PointRegistry()
    assert registry.get("missing") is None
    assert registry.get("missing", 7) == 7
    assert registry.size == 0  # a text read never interns the key
    write_point(registry, "meas/bus/vm_pu", 1.02)
    assert registry.get("meas/bus/vm_pu") == 1.02


def test_typed_getters(write_point):
    registry = PointRegistry()
    write_point(registry, "a", "not-a-number")
    assert registry.get_float(registry.resolve("a"), 9.9) == 9.9
    write_point(registry, "b", 3)
    assert registry.get_float(registry.resolve("b")) == 3.0
    write_point(registry, "c", 0)
    assert registry.get_bool(registry.resolve("c")) is False
    assert registry.get_bool(registry.resolve("missing"), True) is True


def test_keys_prefix_scan(write_point):
    registry = PointRegistry()
    write_point(registry, "meas/a/p", 1)
    write_point(registry, "meas/b/p", 2)
    write_point(registry, "status/cb/closed", True)
    assert registry.keys("meas/") == ["meas/a/p", "meas/b/p"]
    assert len(registry.keys()) == 3
    assert registry.snapshot("status/") == {"status/cb/closed": True}


def test_command_drain_exactly_once():
    registry = PointRegistry()
    cb1 = registry.resolve("cmd/CB1/close")
    cb2 = registry.resolve("cmd/CB2/close")
    registry.write_command(cb1, False, writer="ied1", time_us=100)
    registry.write_command(cb2, True, writer="ied2", time_us=200)
    drained = registry.drain_commands()
    assert [(w.key, w.value, w.writer) for w in drained] == [
        ("cmd/CB1/close", False, "ied1"),
        ("cmd/CB2/close", True, "ied2"),
    ]
    assert registry.drain_commands() == []
    registry.write_command(cb1, True, writer="ied1", time_us=300)
    assert len(registry.drain_commands()) == 1


def test_command_visible_via_get_immediately():
    registry = PointRegistry()
    registry.write_command(registry.resolve("cmd/CB1/close"), False)
    assert registry.get("cmd/CB1/close") is False


def test_command_history_is_audit_log():
    registry = PointRegistry()
    handle = registry.resolve("cmd/CB1/close")
    for index in range(5):
        registry.write_command(handle, index % 2 == 0, time_us=index)
    registry.drain_commands()
    assert len(registry.command_history) == 5


def test_subscription_callbacks(write_point):
    registry = PointRegistry()
    watched = registry.resolve("watched")
    seen = []
    registry.subscribe(watched, lambda handle, value: seen.append(value))
    write_point(registry, "watched", 1)
    write_point(registry, "other", 2)
    registry.write_command(watched, 3)
    registry.write_command(watched, 3)  # unchanged: no callback
    assert seen == [1, 3]


def test_container_protocol(write_point):
    registry = PointRegistry()
    write_point(registry, "b", 1)
    write_point(registry, "a", 2)
    registry.resolve("z")  # interned, never written
    assert len(registry) == 2
    assert list(registry) == ["a", "b"]


# ---------------------------------------------------------------------------
# get_bool string truthiness (regression: bool("false") is True)
# ---------------------------------------------------------------------------


def test_get_bool_parses_string_truthiness():
    registry = PointRegistry()
    handle = registry.resolve("s")
    for text in ("false", "False", "0", "off", "no", ""):
        registry.write_now(handle, text)
        assert registry.get_bool(handle) is False, text
    for text in ("true", "TRUE", "1", "on", "yes"):
        registry.write_now(handle, text)
        assert registry.get_bool(handle) is True, text
    registry.write_now(handle, "2.5")
    assert registry.get_bool(handle) is True
    registry.write_now(handle, "garbage")
    assert registry.get_bool(handle, True) is True
    assert registry.get_bool(handle, False) is False


def test_parse_bool_non_strings():
    assert parse_bool(0) is False and parse_bool(3) is True
    assert parse_bool(None, True) is True
    assert parse_bool(True) is True and parse_bool(False) is False


# ---------------------------------------------------------------------------
# PointRegistry: interning, typed slots, dirty-set flush, delta subscribers
# ---------------------------------------------------------------------------


def test_registry_interning_stable_across_resolution():
    registry = PointRegistry()
    first = registry.resolve("meas/B1/vm_pu", PointType.FLOAT)
    again = registry.resolve("meas/B1/vm_pu")
    third = registry.resolve("meas/B1/vm_pu", PointType.BOOL)
    assert first.index == again.index == third.index
    assert again.ptype is PointType.FLOAT  # first non-ANY type sticks
    other = registry.resolve("meas/B2/vm_pu")
    assert other.index != first.index
    assert registry.size == 2


def test_registry_type_refinement_from_any():
    registry = PointRegistry()
    loose = registry.resolve("status/CB1/closed")
    assert loose.ptype is PointType.ANY
    typed = registry.resolve("status/CB1/closed", PointType.BOOL)
    assert typed.index == loose.index
    assert typed.ptype is PointType.BOOL
    registry.write(typed, "false")
    assert registry.read(typed) is False  # typed slot coerces strings


def test_registry_write_suppresses_unchanged():
    registry = PointRegistry()
    handle = registry.resolve("meas/L1/p_mw", PointType.FLOAT)
    assert registry.write(handle, 4.0) is True
    assert registry.write(handle, 4.0) is False
    assert registry.generation(handle) == 1
    assert registry.write(handle, 4.1) is True
    assert registry.generation(handle) == 2
    assert registry.suppressed_writes == 1


def test_registry_nan_writes_are_not_always_fresh():
    registry = PointRegistry()
    handle = registry.resolve("meas/L1/i_ka", PointType.FLOAT)
    assert registry.write(handle, float("nan")) is True
    assert registry.write(handle, float("nan")) is False
    assert math.isnan(registry.read(handle))


def test_registry_dirty_flush_clears_and_fires_once_per_change():
    registry = PointRegistry()
    h_a = registry.resolve("a", PointType.FLOAT)
    h_b = registry.resolve("b", PointType.FLOAT)
    seen = []
    registry.subscribe(h_a, lambda handle, value: seen.append((handle.key, value)))
    registry.subscribe(h_b, lambda handle, value: seen.append((handle.key, value)))
    # A batch that writes a twice and b with an unchanged value.
    registry.write(h_a, 1.0)
    registry.write(h_a, 2.0)
    registry.write(h_b, 5.0)
    registry.write(h_b, 5.0)
    assert registry.flush() == 2
    # One callback per changed point, carrying the latest value.
    assert seen == [("a", 2.0), ("b", 5.0)]
    # The dirty set is clear: nothing more to flush, no more callbacks.
    assert registry.flush() == 0
    assert registry.pending_dirty == 0
    registry.write(h_a, 2.0)  # unchanged → not dirty
    assert registry.flush() == 0
    assert seen == [("a", 2.0), ("b", 5.0)]


def test_registry_write_now_immediate_delivery():
    registry = PointRegistry()
    handle = registry.resolve("x")
    seen = []
    registry.subscribe(handle, lambda h, v: seen.append(v))
    assert registry.write_now(handle, 1) is True
    assert seen == [1]
    assert registry.write_now(handle, 1) is False
    assert seen == [1]
    assert registry.flush() == 0  # write_now left nothing dirty


def test_registry_write_now_supersedes_batched_write():
    registry = PointRegistry()
    handle = registry.resolve("x")
    seen = []
    registry.subscribe(handle, lambda h, v: seen.append(v))
    registry.write(handle, 1)  # batched, dirty
    assert registry.write_now(handle, 2) is True  # delivered immediately
    assert seen == [2]
    assert registry.pending_dirty == 0  # the batched write is superseded
    assert registry.flush() == 0  # nothing delivered twice
    registry.write(handle, 3)
    assert registry.pending_dirty == 1  # no double-count from stale entries
    assert registry.flush() == 1
    assert seen == [2, 3]


def test_registry_generation_counters_for_pull_consumers():
    registry = PointRegistry()
    handle = registry.resolve("meas/B1/vm_pu", PointType.FLOAT)
    assert registry.generation(handle) == 0  # never written
    last_seen = registry.generation(handle)
    registry.write(handle, 1.0)
    assert registry.generation(handle) != last_seen
    last_seen = registry.generation(handle)
    registry.write(handle, 1.0)  # suppressed
    assert registry.generation(handle) == last_seen


def test_registry_string_views_match_database_api(write_point):
    registry = PointRegistry()
    write_point(registry, "meas/a/p", 1)
    handle = registry.resolve("meas/b/p", PointType.FLOAT)
    registry.write(handle, 2.0)
    registry.flush()
    assert registry.keys("meas/") == ["meas/a/p", "meas/b/p"]
    assert registry.snapshot("meas/") == {"meas/a/p": 1, "meas/b/p": 2.0}
    assert registry.get("meas/b/p") == 2.0
    # Keys interned but never written are invisible to the text views.
    registry.resolve("meas/ghost/p")
    assert registry.get("meas/ghost/p", "absent") == "absent"
    assert "meas/ghost/p" not in registry.keys()
    assert registry.size == 3


def test_registry_stats_accounting():
    registry = PointRegistry()
    handle = registry.resolve("a", PointType.FLOAT)
    registry.write(handle, 1.0)
    registry.write(handle, 1.0)
    registry.flush()
    stats = registry.stats()
    assert stats["writes"] == 2
    assert stats["changed_writes"] == 1
    assert stats["suppressed_writes"] == 1
    assert stats["flushes"] == 1
