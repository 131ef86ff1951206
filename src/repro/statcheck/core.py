"""fluxlint core: source model, rule framework, suppression, engine.

A lint run parses each Python file once into a :class:`SourceModule`
(source text + AST + suppression directives), instantiates every selected
:class:`LintRule` against it, and collects :class:`Violation` records.
Rules are :class:`ast.NodeVisitor` subclasses registered through
:func:`register_rule`; each owns one rule id and decides with
:meth:`LintRule.applies_to` which files it inspects.

The registry here is the rule catalogue for the whole package: the
interprocedural (``flow``) and profile-guided (``perf``) rules register
through the same decorator under their own ``kind``, and every engine picks
its rules with :func:`resolve_rules`.

Suppression directives, checked per emitted violation:

* ``# fluxlint: disable=RULE1,RULE2`` on the violating line;
* ``# fluxlint: disable-next-line=RULE`` on the line above it;
* ``# fluxlint: disable-file=RULE`` anywhere in the file.

``RULE`` may be ``all`` to suppress every rule.  Suppressions are meant to
be rare and justified — pair each with a trailing comment explaining why
the invariant does not apply (see docs/static_analysis.md).
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

from ..errors import FluxionError

__all__ = [
    "Violation",
    "LintParseError",
    "SourceModule",
    "LintRule",
    "RULE_KINDS",
    "register_rule",
    "all_rules",
    "resolve_rules",
    "LintEngine",
    "lint_source",
    "lint_paths",
]


class LintParseError(FluxionError):
    """Raised when a file handed to fluxlint is not valid Python."""


@dataclass(frozen=True, order=True)
class Violation:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


_DIRECTIVE = re.compile(
    r"#\s*fluxlint:\s*(disable|disable-next-line|disable-file)"
    r"\s*=\s*([A-Za-z0-9_,\s]+)"
)


def _parse_rule_list(raw: str) -> Set[str]:
    return {part.strip().upper() for part in raw.split(",") if part.strip()}


@dataclass
class SourceModule:
    """A parsed source file plus its suppression directives."""

    path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: line number -> rule ids suppressed on that line ("ALL" = every rule)
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: rule ids suppressed for the whole file
    file_suppressions: Set[str] = field(default_factory=set)

    @classmethod
    def parse(cls, source: str, path: str = "<string>") -> "SourceModule":
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise LintParseError(
                f"{path}:{exc.lineno or 0}: cannot parse: {exc.msg}"
            ) from exc
        except ValueError as exc:
            # e.g. "source code string cannot contain null bytes"
            raise LintParseError(f"{path}:0: cannot parse: {exc}") from exc
        module = cls(path=path, source=source, tree=tree,
                     lines=source.splitlines())
        module._collect_directives()
        return module

    def _collect_directives(self) -> None:
        for lineno, text in enumerate(self.lines, start=1):
            if "fluxlint" not in text:
                continue
            for match in _DIRECTIVE.finditer(text):
                kind, raw = match.group(1), match.group(2)
                rules = _parse_rule_list(raw)
                if kind == "disable-file":
                    self.file_suppressions |= rules
                elif kind == "disable-next-line":
                    bucket = self.line_suppressions.setdefault(lineno + 1, set())
                    bucket |= rules
                else:
                    bucket = self.line_suppressions.setdefault(lineno, set())
                    bucket |= rules

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        rule_id = rule_id.upper()
        if "ALL" in self.file_suppressions or rule_id in self.file_suppressions:
            return True
        on_line = self.line_suppressions.get(line, ())
        return "ALL" in on_line or rule_id in on_line


class LintRule(ast.NodeVisitor):
    """Base class for fluxlint rules.

    Subclasses set :attr:`rule_id` / :attr:`summary`, optionally override
    :meth:`applies_to`, and call :meth:`report` from their ``visit_*``
    methods.  One instance is created per (rule, file) pair, so instance
    state is per-file scratch space.
    """

    rule_id: str = ""
    summary: str = ""
    kind: str = "lint"

    def __init__(self, module: SourceModule) -> None:
        self.module = module
        self.violations: List[Violation] = []

    @classmethod
    def applies_to(cls, path: str) -> bool:
        """Whether this rule inspects the file at ``path`` (default: all)."""
        return True

    def run(self) -> List[Violation]:
        """Execute the rule over the module and return its violations."""
        self.visit(self.module.tree)
        return self.violations

    def report(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        if not self.module.is_suppressed(self.rule_id, line):
            self.violations.append(
                Violation(self.module.path, line, col, self.rule_id, message)
            )


#: the engines a rule can belong to; ``kind`` on a rule class names one
RULE_KINDS = ("lint", "flow", "perf")

#: every registered rule of every kind, keyed by rule id
_REGISTRY: Dict[str, type] = {}


def register_rule(rule_cls: type) -> type:
    """Class decorator adding ``rule_cls`` to the one rule registry.

    Rule ids are unique across kinds: the id alone picks the class, its
    summary and the engine (``rule_cls.kind``) that runs it.
    """
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    if rule_cls.kind not in RULE_KINDS:
        raise ValueError(
            f"{rule_cls.__name__} has kind {rule_cls.kind!r}; "
            f"expected one of {RULE_KINDS}"
        )
    if rule_cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id}")
    _REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def all_rules(kind: Optional[str] = None) -> Dict[str, type]:
    """The registered rules keyed by rule id; of one ``kind``, or all."""
    return {
        rule_id: rule_cls
        for rule_id, rule_cls in _REGISTRY.items()
        if kind is None or rule_cls.kind == kind
    }


def resolve_rules(
    kind: str,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[type]:
    """The ``kind`` rules to run, in id order: ``select`` (default: every
    rule of the kind) minus ``ignore``.  Ids of no such rule raise."""
    registry = all_rules(kind)
    chosen = {r.upper() for r in select} if select is not None else set(registry)
    dropped = {r.upper() for r in ignore} if ignore is not None else set()
    unknown = (chosen | dropped) - set(registry)
    if unknown:
        raise FluxionError(
            f"unknown {kind} rule ids: {sorted(unknown)}; "
            f"known: {sorted(registry)}"
        )
    return [registry[rule_id] for rule_id in sorted(chosen - dropped)]


class LintEngine:
    """Runs a selected set of rules over files or source strings.

    Parameters
    ----------
    select:
        Rule ids to run (default: every registered lint rule).
    ignore:
        Rule ids to exclude after selection.
    """

    def __init__(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ) -> None:
        self.rules: List[Type[LintRule]] = resolve_rules("lint", select, ignore)

    # ------------------------------------------------------------------
    def lint_source(self, source: str, path: str = "<string>") -> List[Violation]:
        """Lint one source string as if it lived at ``path``."""
        module = SourceModule.parse(source, path)
        violations: List[Violation] = []
        for rule_cls in self.rules:
            if rule_cls.applies_to(module.path):
                violations.extend(rule_cls(module).run())
        return sorted(violations)

    def lint_file(self, path: str, cache: Optional["object"] = None) -> List[Violation]:
        with open(path, "rb") as handle:
            raw = handle.read()
        key = None
        if cache is not None:
            key = cache.key(_normalize(path), raw)
            cached = cache.get(key)
            if cached is not None:
                return cached
        try:
            source = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # UnicodeDecodeError is a ValueError, *not* an OSError — without
            # this it escaped the CLI's error handling as a traceback.
            raise LintParseError(
                f"{_normalize(path)}:0: cannot decode as UTF-8: {exc}"
            ) from exc
        violations = self.lint_source(source, _normalize(path))
        if cache is not None and key is not None:
            cache.put(key, violations)
        return violations

    def lint_paths(
        self,
        paths: Sequence[str],
        jobs: int = 1,
        cache: Optional["object"] = None,
    ) -> Tuple[List[Violation], int]:
        """Lint files and directory trees; returns (violations, files seen).

        ``jobs > 1`` fans the file list out over a multiprocessing pool;
        ``cache`` is a :class:`repro.statcheck.cache.LintCache` (results are
        keyed by content hash, so hits skip parsing entirely).
        """
        files = list(_expand(paths))
        violations: List[Violation] = []
        if jobs > 1 and len(files) > 1:
            violations = self._lint_parallel(files, jobs, cache)
        else:
            for path in files:
                violations.extend(self.lint_file(path, cache=cache))
        return sorted(violations), len(files)

    def _lint_parallel(
        self,
        files: Sequence[str],
        jobs: int,
        cache: Optional["object"],
    ) -> List[Violation]:
        import multiprocessing

        rule_ids = [rule_cls.rule_id for rule_cls in self.rules]
        cache_root = getattr(cache, "root", None)
        tasks = [(path, rule_ids, cache_root) for path in files]
        violations: List[Violation] = []
        with multiprocessing.Pool(processes=min(jobs, len(files))) as pool:
            for ok, payload in pool.imap_unordered(_lint_worker, tasks):
                if not ok:
                    pool.terminate()
                    raise LintParseError(payload)
                violations.extend(payload)
        return violations


def _normalize(path: str) -> str:
    return path.replace(os.sep, "/")


def _expand(paths: Sequence[str]) -> Iterable[str]:
    seen: Set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        full = os.path.join(dirpath, name)
                        if full not in seen:
                            seen.add(full)
                            yield full
        elif path.endswith(".py") or os.path.isfile(path):
            if path not in seen:
                seen.add(path)
                yield path
        else:
            raise FluxionError(f"no such file or directory: {path}")


#: per-process engine cache for the --jobs worker pool, keyed by rule ids
_WORKER_ENGINES: Dict[Tuple[str, ...], "LintEngine"] = {}


def _lint_worker(task: Tuple[str, List[str], Optional[str]]) -> Tuple[bool, "object"]:
    """Pool worker: lint one file, returning (ok, violations-or-error)."""
    path, rule_ids, cache_root = task
    key = tuple(rule_ids)
    engine = _WORKER_ENGINES.get(key)
    if engine is None:
        engine = LintEngine(select=rule_ids)
        _WORKER_ENGINES[key] = engine
    cache = None
    if cache_root is not None:
        from .cache import LintCache

        cache = LintCache(root=cache_root, rule_ids=rule_ids)
    try:
        return True, engine.lint_file(path, cache=cache)
    except (LintParseError, OSError, FluxionError) as exc:
        return False, str(exc)


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Convenience wrapper: lint one source string with a fresh engine."""
    return LintEngine(select=select, ignore=ignore).lint_source(source, path)


def lint_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    jobs: int = 1,
    cache: Optional["object"] = None,
) -> Tuple[List[Violation], int]:
    """Convenience wrapper: lint files/trees with a fresh engine."""
    engine = LintEngine(select=select, ignore=ignore)
    return engine.lint_paths(paths, jobs=jobs, cache=cache)
