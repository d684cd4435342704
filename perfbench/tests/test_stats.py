"""Percentile choice and open-loop timing."""

import pytest

from perfbench.stats import OpenLoop, highest_percentile, percentile


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 0.9) == 90  # 10 samples lie above it
    assert percentile(values[:99], 0.9) is None  # only 9 would
    assert percentile(values, 0.95) is None
    assert percentile(values, 0.95, min_beyond=5) == 95


def test_highest_percentile_backs_off_to_what_the_samples_support():
    assert highest_percentile(list(range(1000))) == (0.99, 989)
    assert highest_percentile(list(range(100)))[0] == 0.9
    assert highest_percentile(list(range(40)))[0] == 0.75
    assert highest_percentile(list(range(30)))[0] == 0.5
    assert highest_percentile(list(range(15))) is None


def test_percentile_rejects_bad_quantiles():
    with pytest.raises(ValueError):
        percentile([1.0], 1.0)


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, dt):
        self.now += dt


def test_latency_counts_from_due_time_when_the_generator_stalls():
    clock = Clock()
    loop = OpenLoop.at_rate(0.0, rate=1.0, n=4, clock=clock, sleep=clock.sleep)
    done = []

    def send(i):
        if i == 1:
            clock.now += 2.5  # the second send stalls the generator
        done.append(clock.now + 0.1)  # every request then takes 0.1 s

    loop.run(send)
    assert loop.sent == [0.0, 1.0, 3.5, 3.5]
    assert loop.late_max == pytest.approx(1.5)
    # A send-to-done timer would report 0.1 s for every request; timed
    # from its due time, each delayed request carries the stall.
    assert loop.latencies(done) == pytest.approx([0.1, 2.6, 1.6, 0.6])
