"""The closed-loop driver's accounting and the percentile rule."""

import pytest

from ledger.driver import percentile, run_closed_loop, supports


class ScriptedClient:
    """Calls carry ``ops_per_call`` operations; listed call indices raise."""

    def __init__(self, ops_per_call=1, failing=()):
        self.ops_per_call = ops_per_call
        self.failing = set(failing)
        self.begun, self.finished = [], []

    def begin(self, i):
        self.begun.append(i)
        return ("insert" if i % 5 == 0 else "knn"), self.ops_per_call

    def call(self, i):
        if i in self.failing:
            raise RuntimeError(f"call {i} was shed")
        return i * 2

    def done(self, i, out):
        assert out == i * 2
        self.finished.append(i)


def test_p90_needs_a_hundred_samples():
    assert supports(100, 90) and not supports(99, 90)
    assert supports(20, 50) and not supports(19, 50)
    assert supports(1000, 99) and not supports(999, 99)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_fixed_count_window_counts_every_operation():
    client = ScriptedClient(ops_per_call=16, failing={12})
    window = run_closed_loop([client], first=10, max_calls=5)
    assert client.begun == [10, 11, 12, 13, 14]
    assert client.finished == [10, 11, 13, 14]  # the failed call records nothing
    assert window.attempted_ops == 80 and window.failed_ops == 16
    assert window.completed_ops == 64
    assert len(window.latencies) == 4 and window.calls_per_client == [5]
    assert window.ops_of("insert") == 16 and window.ops_of("knn") == 48
    assert len(window.latencies_of("insert")) == 1
    assert len(window.errors) == 1 and "was shed" in window.errors[0]
    assert window.wall > 0


def test_two_clients_run_the_same_indices_and_merge():
    clients = [ScriptedClient(), ScriptedClient(failing={1})]
    window = run_closed_loop(clients, max_calls=4)
    assert [c.begun for c in clients] == [[0, 1, 2, 3]] * 2
    assert window.attempted_ops == 8 and window.failed_ops == 1
    assert sorted(window.calls_per_client) == [4, 4]


def test_time_bounded_window_stops_after_the_deadline():
    client = ScriptedClient()
    window = run_closed_loop([client], seconds=0.05)
    assert window.wall >= 0.05
    assert window.attempted_ops == len(client.begun) > 1


def test_exactly_one_stop_rule():
    with pytest.raises(ValueError):
        run_closed_loop([ScriptedClient()])
    with pytest.raises(ValueError):
        run_closed_loop([ScriptedClient()], max_calls=1, seconds=1.0)

