"""Report generation: the full experiment record as text or Markdown.

``write_report`` regenerates every table/figure (and optionally the
ablations) and renders them to a file — the mechanism behind
``results_full.txt`` and the measured column of EXPERIMENTS.md.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, List, Optional, Union

from .ablations import ABLATIONS
from .figures import EXPERIMENTS
from .results import ExperimentResult, _fmt


def generate_results(
    experiments: Optional[Iterable[str]] = None,
    include_ablations: bool = False,
) -> List[ExperimentResult]:
    """Run the selected experiments (default: all paper figures/tables)."""
    names = list(experiments) if experiments is not None else list(EXPERIMENTS)
    results = []
    for name in names:
        if name in EXPERIMENTS:
            results.append(EXPERIMENTS[name]())
        elif name in ABLATIONS:
            results.append(ABLATIONS[name]())
        else:
            raise KeyError(f"unknown experiment {name!r}")
    if include_ablations and experiments is None:
        results.extend(fn() for fn in ABLATIONS.values())
    return results


def render_text(results: Iterable[ExperimentResult]) -> str:
    out = io.StringIO()
    for result in results:
        out.write(result.to_table())
        out.write("\n\n")
    return out.getvalue()


def render_markdown(results: Iterable[ExperimentResult]) -> str:
    """GitHub-flavoured Markdown rendering of the experiment record."""
    out = io.StringIO()
    for result in results:
        out.write(f"## {result.experiment}: {result.description}\n\n")
        out.write("| " + " | ".join(result.columns) + " |\n")
        out.write("|" + "---|" * len(result.columns) + "\n")
        for row in result.rows:
            cells = [_fmt(row.get(c, "")) for c in result.columns]
            out.write("| " + " | ".join(cells) + " |\n")
        if result.summary:
            out.write("\n")
            for key, value in result.summary.items():
                paper = result.paper.get(key)
                suffix = f" (paper: {paper:g})" if paper is not None else ""
                out.write(f"- **{key}**: {value:.2f}{suffix}\n")
        out.write("\n")
    return out.getvalue()


def write_report(
    path: Union[str, Path],
    experiments: Optional[Iterable[str]] = None,
    include_ablations: bool = False,
    fmt: str = "text",
) -> Path:
    """Regenerate experiments and write them to ``path``.

    Args:
        path: output file.
        experiments: experiment ids to run (default: all paper ones).
        include_ablations: also run the ablation studies.
        fmt: ``"text"`` or ``"markdown"``.
    """
    if fmt not in ("text", "markdown"):
        raise ValueError(f"unknown format {fmt!r}")
    results = generate_results(experiments, include_ablations)
    renderer = render_text if fmt == "text" else render_markdown
    path = Path(path)
    path.write_text(renderer(results))
    return path

