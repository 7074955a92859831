"""Documentation lint: links, public-API docstrings, code fences, the
``Network(...)`` parameter table, protocol/filter constant names, and
back-ticked file paths.

Six checks, all cheap enough for every CI run:

1. **Links** — every relative Markdown link in ``README.md`` and
   ``docs/*.md`` must resolve to a file in the repo, and a ``#anchor``
   fragment must match a heading in the target document (GitHub's
   slug rules: lowercase, punctuation stripped, spaces to dashes).
   External (``http(s)://``, ``mailto:``) links are not fetched.

2. **Docstrings** — every public module, class, function and method in
   the modules listed in ``DOCSTRING_MODULES`` (the observability and
   serving surfaces this repo documents in ``docs/observability.md``,
   ``docs/gateway.md`` and ``docs/api.md``) must carry a docstring.
   "Public" means the name and every enclosing scope avoid a leading
   underscore; ``__init__`` is exempt when its class is documented.

3. **Python fences** — every fenced ```` ```python ```` block in the
   tracked docs must ``compile()`` (syntax only; nothing is executed).
   Prose snippets that elide bodies with ``...`` stay valid Python, so
   this catches typos, bad indentation, and API drift pasted from old
   revisions.

4. **Network parameters** — the rows of the ``Network(topology, ...)``
   table in ``docs/api.md`` are exactly the keyword parameters of
   ``Network.__init__`` (read from the source with ``ast``), so adding
   or deleting a parameter without touching the table fails CI.

5. **Constant names** — every back-ticked ``TAG_*`` / ``WAVE_*`` /
   ``SFILTER_*`` / ``TFILTER_*`` name in ``README.md`` and ``docs/*.md``
   is exported (``__all__``, read with ``ast``) by
   ``repro.core.protocol`` or ``repro.filters.registry``, so deleting or
   renaming a constant without touching the docs fails CI.

6. **File paths** — every back-ticked path ending in ``.py``, ``.json``,
   ``.md`` or ``.yml`` in ``README.md``, ``docs/*.md`` and
   ``EXPERIMENTS.md`` names a file that exists: one with a ``/`` under
   the repo root or ``src/``, a bare file name anywhere in the repo.  A
   ``::test`` suffix is ignored.  Deleting or renaming a file without
   touching the docs fails CI.

Usage::

    python tools/check_docs.py

Exits 1 with one line per violation, 0 when clean.
"""

from __future__ import annotations

import ast
import os
import re
import sys
import textwrap
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Markdown files (repo-relative) whose relative links must resolve.
DOC_FILES = [
    "README.md",
    "ROADMAP.md",
    *sorted(
        str(p.relative_to(REPO_ROOT)) for p in (REPO_ROOT / "docs").glob("*.md")
    ),
]

#: Modules (repo-relative) whose public API must be docstring-complete.
DOCSTRING_MODULES = [
    "src/repro/obs/__init__.py",
    "src/repro/obs/metrics.py",
    "src/repro/obs/snapshot.py",
    "src/repro/obs/tracing.py",
    "src/repro/core/network.py",
    "src/repro/core/chunking.py",
    "src/repro/gateway/__init__.py",
    "src/repro/gateway/admission.py",
    "src/repro/gateway/coalesce.py",
    "src/repro/gateway/gateway.py",
    "src/repro/gateway/query.py",
    "src/repro/gateway/responder.py",
    "src/repro/gateway/session.py",
]

# [text](target) — excludes images (![alt](...)) via the lookbehind.
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
_PY_FENCE_RE = re.compile(r"^```python[^\n]*\n(.*?)^```", re.DOTALL | re.MULTILINE)
_CONSTANT_RE = re.compile(r"`((?:TAG|WAVE|SFILTER|TFILTER)_[A-Z0-9_]+)`")

#: Modules whose ``__all__`` defines the constant names docs may cite.
CONSTANT_MODULES = ["src/repro/core/protocol.py", "src/repro/filters/registry.py"]

#: Docs whose back-ticked file paths must exist (ROADMAP.md and
#: CHANGES.md name files that are gone or not written yet).
PATH_DOC_FILES = [f for f in DOC_FILES if f != "ROADMAP.md"] + ["EXPERIMENTS.md"]
_PATH_RE = re.compile(r"`([\w./-]+\.(?:py|json|md|yml))(?:::[^`]*)?`")


def github_slug(heading: str) -> str:
    """GitHub's heading → anchor slug transform (close enough: strip
    Markdown emphasis/code ticks, lowercase, drop punctuation, dash
    the spaces)."""
    text = re.sub(r"[`*_]", "", heading.strip())
    text = re.sub(r"[^\w\- ]", "", text.lower())
    return text.replace(" ", "-")


def heading_anchors(markdown: str) -> set:
    """All anchor slugs a Markdown document exposes."""
    body = _CODE_FENCE_RE.sub("", markdown)
    return {github_slug(m.group(1)) for m in _HEADING_RE.finditer(body)}


def iter_links(markdown: str) -> Iterator[str]:
    """Every non-image link target, with code fences masked out."""
    body = _CODE_FENCE_RE.sub("", markdown)
    for m in _LINK_RE.finditer(body):
        yield m.group(1)


def check_links(repo: Path) -> List[str]:
    """Broken-link report lines for every tracked doc file."""
    problems: List[str] = []
    for rel in DOC_FILES:
        doc = repo / rel
        if not doc.exists():
            continue
        text = doc.read_text()
        for target in iter_links(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            if path_part:
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    problems.append(f"{rel}: broken link -> {target}")
                    continue
                if anchor and resolved.suffix == ".md":
                    if github_slug(anchor) not in heading_anchors(
                        resolved.read_text()
                    ):
                        problems.append(f"{rel}: missing anchor -> {target}")
            elif anchor:  # same-document fragment
                if github_slug(anchor) not in heading_anchors(text):
                    problems.append(f"{rel}: missing anchor -> {target}")
    return problems


def _public_defs(
    tree: ast.Module,
) -> Iterator[Tuple[str, ast.AST]]:
    """Yield (dotted name, node) for every public def/class, including
    methods of public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if sub.name.startswith("_"):
                            continue
                        yield f"{node.name}.{sub.name}", sub


def check_docstrings(repo: Path) -> List[str]:
    """Missing-docstring report lines for the listed modules."""
    problems: List[str] = []
    for rel in DOCSTRING_MODULES:
        path = repo / rel
        if not path.exists():
            problems.append(f"{rel}: module listed in check_docs.py is missing")
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        if ast.get_docstring(tree) is None:
            problems.append(f"{rel}: missing module docstring")
        for name, node in _public_defs(tree):
            if ast.get_docstring(node) is None:
                problems.append(
                    f"{rel}:{node.lineno}: missing docstring on {name}"
                )
    return problems


def check_python_fences(repo: Path) -> List[str]:
    """Syntax-error report lines for fenced ```python blocks.

    Each block is compiled (never executed) with the doc file and the
    fence's first line number as the filename, so a violation points
    at the exact snippet.
    """
    problems: List[str] = []
    for rel in DOC_FILES:
        doc = repo / rel
        if not doc.exists():
            continue
        text = doc.read_text()
        for m in _PY_FENCE_RE.finditer(text):
            line = text.count("\n", 0, m.start(1)) + 1
            source = textwrap.dedent(m.group(1))
            try:
                compile(source, f"{rel}:{line}", "exec")
            except SyntaxError as exc:
                problems.append(
                    f"{rel}:{line}: python fence does not compile "
                    f"({exc.msg}, fence line {exc.lineno})"
                )
    return problems


def check_network_table(repo: Path) -> List[str]:
    """Report lines where the ``Network(topology, ...)`` table in
    ``docs/api.md`` and ``Network.__init__``'s keyword parameters differ."""
    tree = ast.parse((repo / "src/repro/core/network.py").read_text())
    init = next(
        fn
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "Network"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
    )
    args = init.args
    params = [a.arg for a in args.args + args.kwonlyargs][2:]  # self, topology
    section = (repo / "docs/api.md").read_text().partition(
        "### `Network(topology, ...)`"
    )[2]
    table = section[section.index("\n|"):].partition("\n\n")[0]
    rows = re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE)
    return [
        f"docs/api.md: Network parameter `{name}` has no table row"
        for name in params
        if name not in rows
    ] + [
        f"docs/api.md: table row `{name}` is not a Network parameter"
        for name in rows
        if name not in params
    ]


def _exported_names(path: Path) -> set:
    """The string entries of a module's ``__all__`` list literal."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def check_constant_names(repo: Path) -> List[str]:
    """Report lines for back-ticked protocol/filter constants that no
    module in ``CONSTANT_MODULES`` exports (ROADMAP.md is exempt: it
    names constants that do not exist yet)."""
    exported = set().union(*(_exported_names(repo / m) for m in CONSTANT_MODULES))
    problems: List[str] = []
    for rel in DOC_FILES:
        doc = repo / rel
        if rel == "ROADMAP.md" or not doc.exists():
            continue
        for name in sorted(set(_CONSTANT_RE.findall(doc.read_text())) - exported):
            problems.append(f"{rel}: `{name}` is not an exported constant")
    return problems


def check_file_paths(repo: Path) -> List[str]:
    """Report lines for back-ticked file paths that name no file."""
    names: set = set()
    for _dir, subdirs, files in os.walk(repo):
        if ".git" in subdirs:
            subdirs.remove(".git")
        names.update(files)
    problems: List[str] = []
    for rel in PATH_DOC_FILES:
        doc = repo / rel
        if not doc.exists():
            continue
        body = _CODE_FENCE_RE.sub("", doc.read_text())
        for path in sorted(set(_PATH_RE.findall(body))):
            if "/" in path:
                found = (repo / path).exists() or (repo / "src" / path).exists()
            else:
                found = path in names
            if not found:
                problems.append(f"{rel}: `{path}` names no file in the repo")
    return problems


def main() -> int:
    """Run all six checks; print violations; exit non-zero on any."""
    problems = (
        check_links(REPO_ROOT)
        + check_docstrings(REPO_ROOT)
        + check_python_fences(REPO_ROOT)
        + check_network_table(REPO_ROOT)
        + check_constant_names(REPO_ROOT)
        + check_file_paths(REPO_ROOT)
    )
    for line in problems:
        print(line)
    if problems:
        print(f"FAIL: {len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    print(f"OK: links + docstrings + python fences + Network table + "
          f"constant names + file paths clean across {len(DOC_FILES)} docs, "
          f"{len(DOCSTRING_MODULES)} modules")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
