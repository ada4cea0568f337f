"""Experiment harness: registry, caching, parallel execution, artifacts.

The one execution path for the paper's tables and figures. The CLI
(``python -m repro.experiments.harness run ...``), the ``benchmarks/``
suite and the ``examples/`` scripts all go through this package, so
results, caching and artifact emission behave identically everywhere.

Public surface::

    from repro.experiments.harness import (
        ExperimentRun, ResultCache, execute, run_many, resolve,
        get_registry, get_spec, cache_key,
    )
"""

from repro.experiments.harness.artifacts import (  # noqa: F401
    ARTIFACT_SCHEMA_VERSION,
    csv_rows,
    to_jsonable,
)
from repro.experiments.harness.cache import (  # noqa: F401
    CACHE_DIRNAME,
    ResultCache,
    cache_key,
    source_fingerprint,
)
from repro.experiments.harness.executor import (  # noqa: F401
    ExperimentRun,
    execute,
    run_many,
)
from repro.experiments.harness.registry import (  # noqa: F401
    ExperimentSpec,
    all_tags,
    get_registry,
    get_spec,
    resolve,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "CACHE_DIRNAME",
    "ExperimentRun",
    "ExperimentSpec",
    "ResultCache",
    "all_tags",
    "cache_key",
    "csv_rows",
    "execute",
    "get_registry",
    "get_spec",
    "resolve",
    "run_many",
    "source_fingerprint",
    "to_jsonable",
]
