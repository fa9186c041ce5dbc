"""The benchmark's metrics.

Names, units and better directions are those of ``BENCHMARK.json`` at
the repository root.  This module adds, for each per-layer metric, the
end-to-end metric and the workloads it should move.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

SPEC = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
)

#: name -> unit.  One value per workload, from untraced runs.
END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

#: name -> unit.  Medians over the traced calls of a run.
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Reported next to the end-to-end metrics but not in ``BENCHMARK.json``:
#: it reads 0 whenever the program is correct, and the result line's
#: ``attempted``/``failed`` fields already carry it.
ERROR_RATE = ("error_rate", "ratio")

BATCH = "skyserver-batch"
PARALLEL = "skyserver-parallel"
ADHOC = "adhoc-store-streaming"
SKYSERVER = (BATCH, PARALLEL)
ALL = (BATCH, PARALLEL, ADHOC)
MUST_REPEAT = "none (must repeat exactly)"

#: per-layer metric -> (end-to-end metric it moves, workloads where).
MOVES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "validate.busy_s": ("wall_s", ALL),
    "dedup.busy_s": ("wall_s", ALL),
    "parse.busy_s": ("wall_s", ALL),
    "mine.busy_s": ("wall_s", ALL),
    "detect.busy_s": ("wall_s", ALL),
    "registry.busy_s": ("wall_s", (BATCH,)),
    "solve.busy_s": ("wall_s", ALL),
    "unaccounted_s": ("wall_s", (ADHOC, PARALLEL)),
    "skeleton.hit_ratio": ("wall_s", SKYSERVER),
    "skeleton.cold_builds": ("wall_s", (ADHOC,)),
    "skeleton.evictions": ("wall_s", (ADHOC,)),
    "skeleton.preload_s": ("wall_s", (ADHOC,)),
    "skeleton.builds_per_template": ("wall_s", (ADHOC,)),
    "skeleton.build_s": ("wall_s", (ADHOC,)),
    "skeleton.materialised": ("wall_s", (BATCH,)),
    "skeleton.materialise_s": ("wall_s", (BATCH,)),
    "sqlparser.scan_s": ("wall_s", (ADHOC,)),
    "sqlparser.parse_s": ("wall_s", (ADHOC,)),
    "patterns.sws_s": ("wall_s", (BATCH,)),
    "patterns.registry_s": ("wall_s", (BATCH,)),
    "detect.instances": (MUST_REPEAT, ALL),
    "solve.solved": (MUST_REPEAT, ALL),
    "parallel.shard_s": ("wall_s", (PARALLEL,)),
    "parallel.encode_s": ("wall_s", (PARALLEL,)),
    "parallel.wait_s": ("wall_s", (PARALLEL,)),
    "parallel.merge_s": ("wall_s", (PARALLEL,)),
    "parallel.bytes_shipped": ("peak_rss_mb", (PARALLEL,)),
    "parallel.worker_cpu_s": ("wall_s", (PARALLEL,)),
    "parallel.shard_skew": ("wall_s", (PARALLEL,)),
    "parallel.shards_retried": ("wall_s", (PARALLEL,)),
    "store.witness_load_s": ("wall_s, peak_rss_mb", (ADHOC,)),
    "store.read_s": ("wall_s, peak_rss_mb", (ADHOC,)),
    "store.checkpoint_s": ("wall_s, peak_rss_mb", (ADHOC,)),
    "trace_overhead": ("none (traced / untraced wall_s)", ALL),
}


def layer_map() -> Dict[str, Dict[str, object]]:
    """The per-layer → end-to-end map, as plain data for reports."""
    return {
        m["name"]: {
            "unit": m["unit"],
            "better": m["better"],
            "moves": MOVES[m["name"]][0],
            "on": list(MOVES[m["name"]][1]),
        }
        for m in SPEC["per_layer"]
    }
