"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Prints the run-configuration header and
notes as ``#`` lines, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric
with ``--trace 1``.  Exits non-zero without a result if the program
cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("tddft-cs1", "service-mix")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60.0


def _load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` (and nothing else)."""
    sys.path[0:1] = [SRC, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {SRC}")


class SetupProbes:
    """Set-up time, sampled by fresh processes timed from spawn to ``ready``.

    A workload calls :meth:`pause` at each of its ``n`` pauses (between
    campaigns, between service rounds); the ``SETUP_PROBES`` probes are
    spread over them, so that they sample the whole run, not one end of it.
    """

    def __init__(self, workload: str, seed: int, workdir: str, total: int = SETUP_PROBES):
        self.args = [workload, str(seed)]
        self.workdir = workdir
        self.total = total
        self.times: list[float] = []

    def pause(self, i: int, n: int) -> None:
        """Pause ``i`` of ``n`` (0-based): take this pause's share of probes."""
        for _ in range(self.total * (i + 1) // n - self.total * i // n):
            self.times.append(self._probe())

    def _probe(self) -> float:
        probe = os.path.join(ROOT, "perfbench", "setup_probe.py")
        where = os.path.join(self.workdir, f"probe-{len(self.times)}")
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, probe, *self.args, where], stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        return t1 - t0


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _units(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[section]}


def _run(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    from perfbench import methodology, service_mix
    from perfbench.stats import median

    if trace:
        if workload == "service-mix":
            return service_mix.traced(seed, seconds, workdir)
        return methodology.traced(seed)
    probes = SetupProbes(workload, seed, workdir)
    if workload == "service-mix":
        out = service_mix.measure(seed, seconds, workdir, probes.pause)
    else:
        out = methodology.measure(seed, seconds, probes.pause)
    if len(probes.times) != SETUP_PROBES:
        raise RuntimeError(f"took {len(probes.times)} set-up probes, not {SETUP_PROBES}")
    out["metrics"].update({
        "setup_s": median(probes.times),
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
        "children_peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
    })
    out.setdefault("notes", {})["setup_s_samples"] = [round(t, 4) for t in probes.times]
    return out


def _write_spans(workload: str, seed: int, spans) -> str:
    from dataclasses import asdict

    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}.spans.json")
    with open(path, "w") as f:
        json.dump([asdict(s) for s in spans], f)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    from perfbench.runconfig import run_config

    service = (
        {"pool_size": 2, "fsync": "always"} if args.workload == "service-mix" else {}
    )
    print("# config " + json.dumps(run_config(ROOT, **service), sort_keys=True), flush=True)
    units = _units("per_layer" if args.trace else "end_to_end")
    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        out = _run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if "spans" in out:
        print(f"# spans {_write_spans(args.workload, args.seed, out.pop('spans'))}")
    if out.get("notes"):
        print("# notes " + json.dumps(out["notes"], sort_keys=True))
    for problem in out["problems"]:
        print(f"# CHECK FAILED: {problem}")
    missing = sorted(set(units) - set(out["metrics"]))
    if missing:
        raise RuntimeError(f"workload did not produce {missing}")
    result = {
        "correct": not out["problems"] and out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {
            name: {"value": float(out["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
