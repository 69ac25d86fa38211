"""Parallel experiment orchestration with content-addressed caching.

The harness turns the paper's evaluation — a large grid of independent
(topology, workload, load, routing, seed) points — into declarative,
JSON-serializable :class:`ExperimentSpec` objects, executes them across
a multiprocessing worker pool with per-task timeouts and bounded
retries, caches completed points on disk keyed by spec content hash +
library version, and records structured :class:`RunRecord` results that
reconstitute into the :mod:`repro.analysis` renderers.

Drive it from Python::

    from repro.harness import ExperimentSpec, Runner, ResultCache

    specs = [ExperimentSpec(topology={"family": "fattree", "k": 4},
                            workload={"pattern": "permute", "fraction": x,
                                      "sizes": "pfabric",
                                      "mean_flow_bytes": 200_000,
                                      "load": 0.3},
                            routing=r, seed=1)
             for x in (0.2, 0.6, 1.0) for r in ("ecmp", "hyb")]
    result = Runner(jobs=4, cache=ResultCache(".repro-cache")).run(specs)

or from the shell: ``python -m repro sweep sweep.json``.
"""

from .cache import DEFAULT_CACHE_DIR, ResultCache
from .execute import execute_spec
from .records import (
    ResultsStore,
    RunRecord,
    provenance,
    record_value,
    series_from_records,
)
from .runner import Runner, SweepResult
from .shard import (
    MergeResult,
    ShardCoordinator,
    ShardSpec,
    merge_records,
    merge_stores,
    partition,
    select_shard,
    shard_of,
    sweep_hash,
)
from .spec import (
    ENGINES,
    TOPOLOGY_FAMILIES,
    WORKLOAD_PATTERNS,
    ExperimentSpec,
    SpecError,
    expand_sweep,
    load_sweep_file,
)

__all__ = [
    "ExperimentSpec",
    "SpecError",
    "ENGINES",
    "TOPOLOGY_FAMILIES",
    "WORKLOAD_PATTERNS",
    "expand_sweep",
    "load_sweep_file",
    "execute_spec",
    "RunRecord",
    "ResultsStore",
    "provenance",
    "record_value",
    "series_from_records",
    "ResultCache",
    "DEFAULT_CACHE_DIR",
    "Runner",
    "SweepResult",
    "ShardSpec",
    "ShardCoordinator",
    "MergeResult",
    "shard_of",
    "partition",
    "select_shard",
    "sweep_hash",
    "merge_records",
    "merge_stores",
]
