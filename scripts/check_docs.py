"""Docs checks run by CI (and locally): links resolve, examples execute.

Three passes, zero dependencies:

1. **Link check** — every relative markdown link/image target in the
   checked documents must exist in the working tree (external links are
   syntax-checked only, so the job stays hermetic).
2. **Executable examples** — every fenced ``json`` block that is a spec
   document (contains a ``"spec"`` tag) is piped through
   ``repro run - --json``, so the README's worked `SPEC.json` cannot rot.
3. **Schema vocabulary** — every kind in the spec layer's builder tables,
   every ``faults`` knob and preset and every engine/collection value is
   named (in backticks) in ``README.md``, so the prose cannot silently fall
   behind the tables it describes.

Exit code 0 when everything holds; prints one line per failure otherwise.

Run directly::

    python scripts/check_docs.py [FILES...]
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_DOCUMENTS = ("README.md", "docs/ARCHITECTURE.md")

#: Inline markdown links/images: [text](target) — target up to the first
#: closing paren (no nested-paren targets in this repo's docs).
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_FENCED_JSON = re.compile(r"```json\n(.*?)```", re.DOTALL)


def check_links(document: Path) -> list[str]:
    failures = []
    text = document.read_text()
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue  # pure in-page anchor
        resolved = (document.parent / path).resolve()
        if not resolved.exists():
            failures.append(f"{document}: broken link -> {target}")
    return failures


def check_spec_snippets(document: Path) -> list[str]:
    failures = []
    for index, block in enumerate(_FENCED_JSON.findall(document.read_text())):
        try:
            data = json.loads(block)
        except json.JSONDecodeError as exc:
            failures.append(f"{document}: json block #{index} does not parse: {exc}")
            continue
        if not isinstance(data, dict) or "spec" not in data:
            continue  # illustrative fragment, not a runnable document
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "-", "--json"],
            input=block,
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        if completed.returncode != 0:
            tail = (completed.stderr or completed.stdout).strip().splitlines()[-3:]
            failures.append(
                f"{document}: spec block #{index} failed under `repro run -`: "
                + " | ".join(tail)
            )
    return failures


def check_schema_vocabulary(readme: Path) -> list[str]:
    sys.path.insert(0, str(REPO / "src"))
    from repro.api import FAULT_PRESETS, RuntimeSpec
    from repro.api.specs import _KIND_TABLES
    from repro.sim.faults import FAULT_KNOBS

    vocabulary = {f"{what} kind": table for what, (table, *_rest) in _KIND_TABLES.items()}
    vocabulary.update(
        {
            "faults knob": FAULT_KNOBS,
            "faults preset": FAULT_PRESETS,
            "engine": RuntimeSpec.ENGINES,
            "collection": RuntimeSpec.COLLECTIONS,
        }
    )
    text = readme.read_text()
    return [
        f"{readme}: {group} `{word}` is in the schema but not in the README"
        for group, words in vocabulary.items()
        for word in words
        if f"`{word}`" not in text
    ]


def main(argv: list[str] | None = None) -> int:
    arguments = argv if argv is not None else sys.argv[1:]
    documents = [Path(arg) for arg in arguments] or [
        REPO / name for name in DEFAULT_DOCUMENTS
    ]
    failures: list[str] = []
    for document in documents:
        if not document.exists():
            failures.append(f"missing document: {document}")
            continue
        failures.extend(check_links(document))
        failures.extend(check_spec_snippets(document))
        if document.resolve() == REPO / "README.md":
            failures.extend(check_schema_vocabulary(document))
    for failure in failures:
        print(failure)
    if not failures:
        print(f"docs ok: {', '.join(str(d) for d in documents)}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
