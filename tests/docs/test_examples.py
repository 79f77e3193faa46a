"""Docs CI gate: every ```python block in docs/*.md must execute.

The guides promise runnable examples; this suite keeps the promise from
rotting. Blocks of one file run top to bottom in a shared namespace
(the guides are written to be pasted into a REPL in order). A block
preceded by an HTML comment containing ``docs-ci: skip`` is not
executed — for fragments and host/network-dependent examples — but it
is still compiled, so skipped blocks cannot hide syntax errors.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.runtime import schedule

DOCS_DIR = Path(__file__).resolve().parents[2] / "docs"

SKIP_MARKER = "docs-ci: skip"

_FENCE_OPEN = re.compile(r"^```python\s*$")
_FENCE_CLOSE = re.compile(r"^```\s*$")


@dataclasses.dataclass
class Block:
    """One fenced python block: where it starts, its code, and whether
    the author marked it execution-exempt."""

    path: Path
    lineno: int  # 1-based line of the opening fence
    code: str
    skipped: bool

    @property
    def label(self) -> str:
        return f"{self.path.name}:{self.lineno}"


def extract_blocks(path: Path):
    """Parse one markdown file into its python blocks, in order.

    The skip marker is an HTML comment on the last non-blank line
    before the opening fence, e.g. ``<!-- docs-ci: skip (why) -->``.
    """
    blocks = []
    lines = path.read_text().splitlines()
    i = 0
    while i < len(lines):
        if _FENCE_OPEN.match(lines[i]):
            preceding = ""
            for back in range(i - 1, -1, -1):
                if lines[back].strip():
                    preceding = lines[back]
                    break
            body = []
            j = i + 1
            while j < len(lines) and not _FENCE_CLOSE.match(lines[j]):
                body.append(lines[j])
                j += 1
            if j == len(lines):
                raise AssertionError(
                    f"{path.name}:{i + 1}: unclosed ```python fence"
                )
            blocks.append(
                Block(
                    path=path,
                    lineno=i + 1,
                    code="\n".join(body) + "\n",
                    skipped=SKIP_MARKER in preceding,
                )
            )
            i = j
        i += 1
    return blocks


def doc_files():
    files = sorted(DOCS_DIR.glob("*.md"))
    assert files, f"no docs found under {DOCS_DIR}"
    return files


@pytest.fixture(autouse=True)
def fresh_table():
    """Guide examples share the process-wide timing table; isolate them
    from the rest of the suite (and from each other across files)."""
    schedule.TIMINGS.clear()
    yield
    schedule.TIMINGS.clear()


class TestExtraction:
    def test_every_guide_is_covered(self):
        names = {p.name for p in doc_files()}
        assert {
            "architecture.md",
            "dsl_reference.md",
            "performance.md",
            "runtime_guide.md",
            "simulation_internals.md",
        } <= names

    def test_the_guides_actually_contain_examples(self):
        counts = {
            p.name: len(extract_blocks(p)) for p in doc_files()
        }
        assert counts["simulation_internals.md"] >= 5
        assert counts["runtime_guide.md"] >= 4

    def test_skip_marker_detected(self):
        blocks = extract_blocks(DOCS_DIR / "dsl_reference.md")
        assert any(b.skipped for b in blocks)


@pytest.mark.parametrize(
    "path", doc_files(), ids=lambda p: p.name
)
class TestDocsExecute:
    def test_python_blocks_run(self, path):
        blocks = extract_blocks(path)
        if not blocks:
            pytest.skip(f"{path.name} has no python blocks")
        namespace = {"__name__": f"docs_{path.stem}"}
        for block in blocks:
            compiled = compile(block.code, block.label, "exec")
            if block.skipped:
                continue  # syntax-checked above, never executed
            try:
                exec(compiled, namespace)
            except Exception as exc:  # pragma: no cover - failure path
                raise AssertionError(
                    f"docs example at {block.label} failed: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
