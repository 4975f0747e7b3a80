#!/usr/bin/env python3
"""AST-based repo invariant lint (CI: the lint job runs this after ruff).

Enforces repo-specific rules generic linters can't see:

1. **No builtin ``hash()`` in fingerprint/wire modules.**  Python's
   ``hash()`` is salted per process; anything that feeds a cache key, a
   wire document, or a deterministic corpus seed must use a content hash
   (``hashlib``/``zlib.crc32``) instead.  Defining ``__hash__`` and
   calling ``hash()`` on in-process dict keys elsewhere is fine.
2. **Every ``api/schema.py`` wire dataclass round-trips and is documented.**
   Each ``@dataclass`` in the wire schema must have ``to_dict`` and
   ``from_dict`` members and be named in ``docs/API.md``.
3. **No naive ``datetime.now()`` / ``utcnow()`` / ``today()``.**  Wire
   and bench documents carry UTC timestamps; a ``now()`` call must
   pass a timezone.
4. **No mutable default arguments** (``def f(x=[])``), anywhere under
   ``src/``.
5. **No unpickling anywhere under ``src/``.**  ``pickle.load``/``loads``
   and ``marshal.load``/``loads`` run arbitrary code on hostile bytes, so
   no byte stream is ever decoded that way; wire documents are JSON.  The
   process pool's own pickling inside :mod:`concurrent.futures` stays
   (it is not a call in ``src/``).

Every :data:`WIRE_MODULES` entry must name an existing file, so rule 1
can never silently cover nothing.

Exit status 0 when clean, 1 with ``file:line: message`` findings otherwise.
Run from the repo root: ``python tools/check_invariants.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: modules whose outputs must be stable across processes (rule 1)
WIRE_MODULES = (
    "src/repro/service/fingerprint.py",
    "src/repro/api/schema.py",
    "src/repro/scenarios/corpus.py",
    "src/repro/analysis/diagnostics.py",
)

#: (module, function) pairs that decode untrusted bytes into objects (rule 5)
UNPICKLERS = frozenset(
    (module, name) for module in ("pickle", "marshal") for name in ("load", "loads")
)

SCHEMA_MODULE = "src/repro/api/schema.py"
API_DOC = "docs/API.md"


def _iter_defaults(node: ast.AST):
    args = node.args
    for default in list(args.defaults) + [d for d in args.kw_defaults if d is not None]:
        yield default


def check_file(path: Path, findings: list) -> None:
    rel = path.relative_to(REPO).as_posix()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    is_wire = rel in WIRE_MODULES

    for node in ast.walk(tree):
        # rule 1: builtin hash() in wire modules
        if (
            is_wire
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
        ):
            findings.append(
                f"{rel}:{node.lineno}: builtin hash() in a fingerprint/wire module "
                "(salted per process; use hashlib or zlib.crc32)"
            )
        # rule 5: unpickling, as a call or through a from-import
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and (node.func.value.id, node.func.attr) in UNPICKLERS
        ):
            findings.append(
                f"{rel}:{node.lineno}: {node.func.value.id}.{node.func.attr}() "
                "executes code from its input; decode JSON instead"
            )
        if isinstance(node, ast.ImportFrom) and any(
            (node.module, alias.name) in UNPICKLERS for alias in node.names
        ):
            findings.append(
                f"{rel}:{node.lineno}: importing an unpickler from {node.module}; "
                "decode JSON instead"
            )
        # rule 3: naive datetime calls
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in ("utcnow", "today"):
                findings.append(
                    f"{rel}:{node.lineno}: datetime.{attr}() is naive; use "
                    "datetime.now(timezone.utc)"
                )
            elif attr == "now" and not node.args and not node.keywords:
                base = node.func.value
                if isinstance(base, ast.Name) and base.id in ("datetime", "date"):
                    findings.append(
                        f"{rel}:{node.lineno}: naive datetime.now(); pass a timezone "
                        "(datetime.now(timezone.utc))"
                    )
        # rule 4: mutable default arguments
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for default in _iter_defaults(node):
                if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set")
                ):
                    findings.append(
                        f"{rel}:{default.lineno}: mutable default argument in "
                        f"{node.name}(); use None or a dataclass field factory"
                    )


def check_schema_coverage(findings: list) -> None:
    """Rule 2: wire dataclasses round-trip and appear in docs/API.md."""
    path = REPO / SCHEMA_MODULE
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    doc_text = (REPO / API_DOC).read_text(encoding="utf-8")
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorated = any(
            (isinstance(dec, ast.Name) and dec.id == "dataclass")
            or (
                isinstance(dec, ast.Call)
                and isinstance(dec.func, ast.Name)
                and dec.func.id == "dataclass"
            )
            for dec in node.decorator_list
        )
        if not decorated:
            continue
        members = {
            item.name for item in node.body if isinstance(item, ast.FunctionDef)
        }
        for required in ("to_dict", "from_dict"):
            if required not in members:
                findings.append(
                    f"{SCHEMA_MODULE}:{node.lineno}: wire dataclass {node.name} "
                    f"has no {required}()"
                )
        if node.name not in doc_text:
            findings.append(
                f"{SCHEMA_MODULE}:{node.lineno}: wire dataclass {node.name} "
                f"is not documented in {API_DOC}"
            )


def check_wire_modules(findings: list) -> None:
    """Rule 1's module list must not name files that no longer exist."""
    for rel in WIRE_MODULES:
        if not (REPO / rel).is_file():
            findings.append(
                f"tools/check_invariants.py: WIRE_MODULES names missing file {rel}"
            )


def main() -> int:
    findings: list = []
    check_wire_modules(findings)
    for path in sorted(SRC.rglob("*.py")):
        check_file(path, findings)
    check_schema_coverage(findings)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} invariant violation(s)", file=sys.stderr)
        return 1
    print("invariants ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
