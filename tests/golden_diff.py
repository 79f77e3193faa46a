"""Compare a generated text with its committed copy under
``tests/golden/``, failing with the first differing lines."""

import difflib
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"


def assert_matches_golden(text, name):
    want = (GOLDEN_DIR / name).read_text()
    if text == want:
        return
    diff = difflib.unified_diff(
        want.splitlines(),
        text.splitlines(),
        f"tests/golden/{name}",
        "now",
        lineterm="",
    )
    raise AssertionError(
        f"{name} moved; first differing lines:\n"
        + "\n".join(list(diff)[:20])
    )
