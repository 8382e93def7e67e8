"""Regenerate the pinned warm order-2 weight table.

    python3 perfbench/pin_table.py

Integrates all 36 order-2 star graphs at the library default budget
with seed 0 (the table the acceptance suite builds for criteria 7 and
9), adds the two exact order-1 entries that every star call inserts,
and writes perfbench/data/o2_table.json plus its provenance record.
The benchmark refuses a table whose sha256 differs from the record.
Takes about 80 s on a 2-core machine.
"""
from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from starquant import __version__  # noqa: E402
from starquant.graphs import star_graphs  # noqa: E402
from starquant.weights import IntegrationConfig, WeightTable  # noqa: E402

SEED = 0
TABLE = HERE / "data" / "o2_table.json"
PROVENANCE = HERE / "data" / "o2_table.provenance.json"


def main() -> int:
    t0 = time.perf_counter()
    cfg = IntegrationConfig(seed=SEED)
    table = WeightTable()
    table.ensure(star_graphs(2), cfg, use_exact=False)
    table.ensure(star_graphs(1), cfg, use_exact=True)
    text = json.dumps(table.to_json_obj(), indent=2, sort_keys=True) + "\n"
    TABLE.write_text(text)
    budgets = sorted({est.n_samples for _, est in table if est.n_samples})
    record = {
        "file": TABLE.name,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "seed": SEED,
        "budget": "library default per graph",
        "n_samples_per_graph": budgets,
        "entries": len(table),
        "versions": {
            "starquant": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "build_seconds": round(time.perf_counter() - t0, 1),
    }
    PROVENANCE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {TABLE} ({len(table)} entries) in "
          f"{record['build_seconds']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
