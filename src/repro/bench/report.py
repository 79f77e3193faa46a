"""Report generation: the full experiment record as text.

``write_report`` regenerates every table/figure (and optionally the
ablations) and writes their text tables to a file; ``results_full.txt``
is ``write_report("results_full.txt", include_ablations=True)``, pinned
by ``tests/bench/test_results_full.py``.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, List, Optional, Union

from .ablations import ABLATIONS
from .figures import EXPERIMENTS
from .results import ExperimentResult


def generate_results(
    experiments: Optional[Iterable[str]] = None,
    include_ablations: bool = False,
) -> List[ExperimentResult]:
    """Run the selected experiments (default: all paper figures/tables),
    then, with ``include_ablations``, every ablation not already listed."""
    names = list(experiments) if experiments is not None else list(EXPERIMENTS)
    if include_ablations:
        names += [name for name in ABLATIONS if name not in names]
    results = []
    for name in names:
        if name in EXPERIMENTS:
            results.append(EXPERIMENTS[name]())
        elif name in ABLATIONS:
            results.append(ABLATIONS[name]())
        else:
            raise KeyError(f"unknown experiment {name!r}")
    return results


def render_text(results: Iterable[ExperimentResult]) -> str:
    out = io.StringIO()
    for result in results:
        out.write(result.to_table())
        out.write("\n\n")
    return out.getvalue()


def write_report(
    path: Union[str, Path],
    experiments: Optional[Iterable[str]] = None,
    include_ablations: bool = False,
) -> Path:
    """Regenerate experiments and write them to ``path``.

    Args:
        path: output file.
        experiments: experiment ids to run (default: all paper ones).
        include_ablations: also run the ablation studies.
    """
    path = Path(path)
    path.write_text(
        render_text(generate_results(experiments, include_ablations))
    )
    return path

