"""Write reference.npz: the final state of every workload in every mode.

    python3 perfbench/reference.py

Run from the root of a source checkout.  The file holds, per workload and
mode, the final h, hu and hw at the sample nodes of
`workloads.final_fields`, as the solver in `src/` computes them.  The
correctness gate compares every run with it, so it must be written by the
solver the benchmark was defined on and rewritten only by a change that
alters the solver's results on purpose, never to make a failing run pass.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nhswe.driver import simulate  # noqa: E402
from worker import MODES  # noqa: E402
from workloads import REFERENCE, WORKLOADS, final_fields, reference_key  # noqa: E402


def main() -> int:
    arrays = {}
    for name, workload in WORKLOADS.items():
        for mode in MODES:
            spec, init = workload.build()
            crit = workload.criterion if mode == "adaptive" else None
            result = simulate(spec, init, mode, crit)
            for field, values in final_fields(result).items():
                arrays[reference_key(name, mode, field)] = values
            print(f"{name} {mode}: t = {result.final_state.time:.6g} s")
    np.savez_compressed(REFERENCE, **arrays)
    print(f"wrote {REFERENCE.name}: {len(arrays)} arrays")
    return 0


if __name__ == "__main__":
    sys.exit(main())
