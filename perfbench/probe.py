"""Time one fresh-process set-up: import railplan, load the scenario, assemble.

    python3 perfbench/probe.py SCENARIO_CFG

Prints one JSON object with the three times and the assembled sizes.
"""

from __future__ import annotations

import json
import sys
import time


def sizes(assembled) -> dict[str, int]:
    """Instance size of an assembled scenario."""
    return {
        "nodes": len(assembled.network.nodes),
        "links": len(assembled.network.links),
        "arcs": assembled.expanded.n_arcs,
        "od_pairs": len(assembled.od.demand),
        "origins": len(assembled.od.by_origin()),
        "yards": len(assembled.network.yards()),
        "corridors": len(assembled.corridors),
    }


def main(cfg: str) -> int:
    t0 = time.perf_counter()
    from railplan import scenario_io
    import railplan.cli  # noqa: F401  (the CLI's own imports count as set-up)

    t1 = time.perf_counter()
    scenario = scenario_io.load_scenario(cfg)
    t2 = time.perf_counter()
    assembled = scenario_io.assemble(scenario)
    t3 = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": t1 - t0,
                "load_s": t2 - t1,
                "assemble_s": t3 - t2,
                "sizes": sizes(assembled),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
