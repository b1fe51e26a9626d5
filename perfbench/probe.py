"""Set-up probe: load what an offline workload needs, then print ``ready``.

``python3 perfbench/probe.py <workload>`` imports the program modules the
workload calls and loads the compiled step kernel (the lazy part of the
program's set-up), so the launching process can time launch to ready.
"""

from __future__ import annotations

import sys

MODULES = {
    "fig6-paper": ("repro.experiments.config", "repro.experiments.figure6"),
    "stream-fine": ("repro.generator.arrivals", "repro.simulation.workload"),
    "stream-coarse": ("repro.generator.arrivals", "repro.simulation.workload"),
}


def main(workload: str) -> None:
    import importlib

    for name in MODULES[workload]:
        importlib.import_module(name)
    from repro.simulation.vectorized_compiled import resolve_backend

    resolve_backend("auto")  # loads (building on first use) the C kernel
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
