"""Set-up probes are spread over a workload's pauses."""

import pytest

from perfbench.run import SetupProbes


@pytest.mark.parametrize("pauses", [1, 4, 6, 7, 10])
def test_every_probe_is_taken_once_over_the_pauses(pauses, monkeypatch):
    probes = SetupProbes("tddft-cs1", 0, "unused", total=7)
    monkeypatch.setattr(probes, "_probe", lambda: 1.0)
    shares = []
    for i in range(pauses):
        before = len(probes.times)
        probes.pause(i, pauses)
        shares.append(len(probes.times) - before)
    assert sum(shares) == 7
    assert max(shares) - min(shares) <= 1
