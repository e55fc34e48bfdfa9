"""Executable documentation: every fenced ```python block in README.md
and docs/*.md runs, in order, in one namespace per file.

Non-runnable snippets in the docs use ```console / ```text fences; a
python fence is a promise that the code works against the current tree.
Blocks run chdir'd into a fresh tmp dir, so snippets may freely write
artifact files (``index.save("graph.npz")`` and friends).
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_FENCE = re.compile(r"^```python\s*$(.*?)^```\s*$",
                    re.MULTILINE | re.DOTALL)


def _documents() -> list[Path]:
    return [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def _blocks(path: Path) -> list[str]:
    return [match.group(1) for match in _FENCE.finditer(path.read_text())]


def test_docs_directory_exists():
    names = {path.name for path in _documents()}
    assert {"README.md", "ARCHITECTURE.md", "SERVING.md",
            "CLI.md"} <= names


@pytest.mark.parametrize("path", _documents(), ids=lambda p: p.name)
def test_python_blocks_execute(path, tmp_path, monkeypatch):
    blocks = _blocks(path)
    if not blocks:
        pytest.skip(f"{path.name} has no python blocks")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {"__name__": f"docs_{path.stem.lower()}"}
    for number, block in enumerate(blocks, 1):
        code = compile(block, f"{path.name}[python block {number}]", "exec")
        try:
            exec(code, namespace)
        except Exception as exc:
            pytest.fail(
                f"{path.name} python block {number} does not execute "
                f"against the current tree: {exc!r}\n---\n{block}")


@pytest.mark.parametrize("path", _documents(), ids=lambda p: p.name)
def test_no_anonymous_fences(path):
    """Every fence declares a language: python runs, console/text don't."""
    inside = False
    for number, line in enumerate(path.read_text().splitlines(), 1):
        stripped = line.strip()
        if not stripped.startswith("```"):
            continue
        if not inside:
            assert stripped[3:].strip(), \
                f"{path.name}:{number}: fence without a language label"
        inside = not inside
    assert not inside, f"{path.name}: unclosed fence"
