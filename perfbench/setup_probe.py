"""Set-up probe: a fresh process that readies one workload, says ``ready``, exits.

``python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR``.  The parent
times from spawning this process to reading ``ready``: interpreter
start, imports, building the application, space and methodology, and
for ``service-mix`` the registry, supervisor, server and warm pool.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(workload: str, seed: int, workdir: str) -> None:
    # Replace this script's directory: the program comes from src/.
    sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]
    if workload == "service-mix":
        from perfbench import service_mix

        service_mix.setup_only(workdir)
        return
    from perfbench import methodology

    methodology.build(methodology.campaign_seeds(seed)[0])
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
