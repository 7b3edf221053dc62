"""Recompute the stored reference values of the ``moles_nuclear`` instances.

Usage, from the root of the repository::

    python3 bench/make_reference.py

For the full-size instance and the self-check's tiny one, runs the
library's reference solve (diminishing-step projected subgradient descent,
best value seen) on the unpermuted instance and writes
``bench/reference_nuclear.json`` with the instance description, the step
budget, the seed, the reference value and the certified lower bound at the
reference point.  It takes about a quarter of a minute.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import NUCLEAR_REFERENCE, MolesNuclear  # noqa: E402

BUDGET = 10 ** 5
SEED = 0


def main() -> None:
    records = []
    for tiny in (False, True):
        workload = MolesNuclear(tiny=tiny)
        f_ref, lower_bound = workload.reference(BUDGET, SEED)
        records.append({"instance": workload.describe(), "budget": BUDGET, "seed": SEED,
                        "f_ref": f_ref, "lower_bound": lower_bound})
        print(json.dumps(records[-1]), flush=True)
    NUCLEAR_REFERENCE.write_text(json.dumps({"references": records}, indent=2) + "\n")


if __name__ == "__main__":
    main()
