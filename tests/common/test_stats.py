"""Tests for the statistics registry."""

import multiprocessing
import pickle
import random
from collections import defaultdict

import pytest

from repro.common.stats import Stats


def test_inc_and_get():
    s = Stats()
    s.inc("wq", "appends")
    s.inc("wq", "appends", 2)
    assert s.get("wq", "appends") == 3


def test_get_default():
    s = Stats()
    assert s.get("nothing", "here") == 0
    assert s.get("nothing", "here", default=7) == 7


def test_set_overwrites():
    s = Stats()
    s.inc("a", "x", 10)
    s.set("a", "x", 3)
    assert s.get("a", "x") == 3


def test_namespace_view():
    s = Stats()
    s.inc("bank.0", "reads", 3)
    s.inc("bank.0", "writes", 4)
    s.inc("bank.1", "reads", 9)
    assert s.namespace("bank.0") == {"reads": 3, "writes": 4}


def test_ratio():
    s = Stats()
    s.inc("cc", "hits", 3)
    s.inc("cc", "accesses", 4)
    assert s.ratio("cc", "hits", "accesses") == 0.75
    assert s.ratio("cc", "hits", "missing-denominator") == 0.0


def test_iteration_is_sorted():
    s = Stats()
    s.inc("b", "z")
    s.inc("a", "y")
    order = [(space, counter) for space, counter, _ in s]
    assert order == [("a", "y"), ("b", "z")]


def test_integer_values_render_without_decimals():
    s = Stats()
    s.inc("a", "n", 2.0)
    assert s.get("a", "n") == 2
    assert isinstance(s.get("a", "n"), int)


# -- slots -----------------------------------------------------------------


def test_a_slot_is_reported_once_bumped():
    s = Stats()
    slot = s.slot("slots", "bumped")
    assert s.snapshot() == {}
    assert s.get("slots", "bumped", default=7) == 7
    s.values[slot] += 1
    assert s.snapshot() == {("slots", "bumped"): 1.0}


def test_a_slot_written_to_zero_is_reported():
    s = Stats()
    s.slot("slots", "zeroed")
    s.set("slots", "zeroed", 0)
    assert s.snapshot() == {("slots", "zeroed"): 0}
    s.inc("slots", "inc0", 0)
    assert s.get("slots", "inc0", default=7) == 0


def test_slots_are_shared_across_instances():
    a, b = Stats(), Stats()
    assert a.slot("slots", "shared") == b.slot("slots", "shared")
    a.inc("slots", "shared", 5)
    assert b.get("slots", "shared") == 0
    assert b.snapshot() == {}


def test_empty_stats_pickles():
    s = pickle.loads(pickle.dumps(Stats()))
    assert s.snapshot() == {}
    s.inc("wq", "appends")
    assert s.get("wq", "appends") == 1


# -- differential: the slot table against the dict it replaced -------------


class DictStats:
    """The ``defaultdict``-backed registry the slot table replaced.

    Hot components bumped ``values[(namespace, counter)] += n`` on this
    dict directly; a read of a missing key inserts it at ``0.0``.
    """

    def __init__(self):
        self.values = defaultdict(float)

    def inc(self, namespace, counter, amount=1):
        self.values[(namespace, counter)] += amount

    def set(self, namespace, counter, value):
        self.values[(namespace, counter)] = value

    def get(self, namespace, counter, default=0):
        value = self.values.get((namespace, counter), default)
        return int(value) if float(value).is_integer() else value

    def namespace(self, namespace):
        return {
            counter: value
            for (space, counter), value in self.values.items()
            if space == namespace
        }

    def ratio(self, namespace, num, den):
        d = self.values.get((namespace, den), 0)
        if not d:
            return 0.0
        return self.values.get((namespace, num), 0) / d

    def snapshot(self):
        return dict(self.values)

    def __iter__(self):
        for (space, counter), value in sorted(self.values.items()):
            yield space, counter, value


def _typed(value):
    return value, type(value)


def _assert_same(stats, ref, keys):
    """Every reader of ``stats`` and ``ref`` agrees, value and type."""
    assert {k: _typed(v) for k, v in stats.snapshot().items()} == {
        k: _typed(v) for k, v in ref.snapshot().items()
    }
    assert [(s, c, _typed(v)) for s, c, v in stats] == [
        (s, c, _typed(v)) for s, c, v in ref
    ]
    spaces = sorted({space for space, _ in keys})
    counters = sorted({counter for _, counter in keys})
    for space in spaces:
        assert {k: _typed(v) for k, v in stats.namespace(space).items()} == {
            k: _typed(v) for k, v in ref.namespace(space).items()
        }
        for num in counters:
            for den in counters:
                assert _typed(stats.ratio(space, num, den)) == _typed(
                    ref.ratio(space, num, den)
                )
    for space, counter in keys:
        for default in (0, 7, 2.5):
            assert _typed(stats.get(space, counter, default)) == _typed(
                ref.get(space, counter, default)
            )


#: The differential's operations; hot bumps dominate, as in a run.
_OPS = ("hot", "hot", "hot", "peak", "inc", "set", "pickle", "foreign")


@pytest.mark.parametrize("seed", range(12))
def test_slot_table_matches_dict_registry(seed):
    """Randomized hot bumps (positive amounts, as every hot component
    makes), running peaks, ``inc`` (zero and negative amounts too), ``set``
    (int 0 too, as the warm-up reset writes it), pickle round-trips and
    keys registered by other instances: every reader must see what the
    dict-backed registry shows."""
    rng = random.Random(seed)
    spaces = ("wq", f"diff{seed}.a", f"diff{seed}.b")
    keys = [(space, counter) for space in spaces for counter in ("x", "y", "z")]
    hot = keys[: len(keys) // 2 + 1]
    stats, ref = Stats(), DictStats()
    foreign = []

    def attach():
        # What a component built on ``stats`` holds: its slots and list.
        return stats.values, {key: stats.slot(*key) for key in hot}

    vals, slots = attach()
    _assert_same(stats, ref, keys)
    for step in range(300):
        op = rng.choice(_OPS)
        if op == "hot":
            key = rng.choice(hot)
            amount = rng.choice((1, rng.randint(1, 9), rng.uniform(0.5, 400.0)))
            vals[slots[key]] += amount
            ref.values[key] += amount
        elif op == "peak":
            key = rng.choice(hot)
            n = rng.randint(1, 64)
            if n > vals[slots[key]]:
                vals[slots[key]] = n
            if n > ref.values[key]:
                ref.values[key] = n
        elif op == "inc":
            key = rng.choice(keys)
            amount = rng.choice((0, 0.0, -1, -2.5, 1, 3, 0.25))
            stats.inc(*key, amount)
            ref.inc(*key, amount)
        elif op == "set":
            key = rng.choice(keys)
            value = rng.choice((0, 0.0, 1, 4, 2.5, -3))
            stats.set(*key, value)
            ref.set(*key, value)
        elif op == "pickle":
            stats = pickle.loads(pickle.dumps(stats))
            ref = pickle.loads(pickle.dumps(ref))
            vals, slots = attach()
        else:
            # Another instance grows the registry past this one's list.
            key = (f"foreign{seed}", str(step))
            Stats().slot(*key)
            foreign.append(key)
        _assert_same(stats, ref, keys + foreign[-3:])


# -- across processes ------------------------------------------------------


def _child_stats():
    """Run in a fresh interpreter, whose registry numbers slots its own way."""
    for counter in ("b", "a"):
        Stats().slot("child.only", counter)
    stats = Stats()
    stats.values[stats.slot("wq", "appends")] += 3
    stats.inc("child.only", "n", 2)
    stats.set("child.only", "zero", 0)
    return stats


def test_stats_pickle_by_name_across_processes():
    """A ``Stats`` sent back from a worker reads the same in the parent,
    whose registry numbers the same keys differently."""
    for counter in ("first", "second"):
        Stats().slot("parent.only", counter)
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        stats = pool.apply(_child_stats)
    assert {k: _typed(v) for k, v in stats.snapshot().items()} == {
        ("wq", "appends"): _typed(3.0),
        ("child.only", "n"): _typed(2.0),
        ("child.only", "zero"): _typed(0),
    }
    assert stats.get("wq", "appends") == 3
    assert stats.get("parent.only", "first", default=7) == 7
