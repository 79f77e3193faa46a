"""Compare a generated text, or a map of per-artifact SHA-256s, with
its committed copy under ``tests/golden/``, failing with what moved."""

import difflib
import json
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


def digests_json(digests):
    """A map of SHA-256s as its committed text, in enumeration order."""
    return json.dumps(digests, indent=1) + "\n"


def assert_digests_match(digests, name):
    """Compare a map of per-artifact SHA-256s with the committed
    ``tests/golden/<name>``, failing with every artifact that moved."""
    want = json.loads((GOLDEN_DIR / name).read_text())
    if digests == want:
        return
    moved = [k for k in want if k in digests and digests[k] != want[k]]
    missing = [k for k in want if k not in digests]
    new = [k for k in digests if k not in want]
    raise AssertionError(
        f"{name}: moved {moved}, missing {missing}, new {new}"
    )
