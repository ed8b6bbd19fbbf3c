"""Custom source lints over the ``repro`` package (stdlib ``ast`` only).

Three repo-specific rules that generic linters cannot know about, each
protecting an invariant the serving stack silently depends on:

**fingerprint-purity** -- every ``@dataclass`` with a ``fingerprint``
method must fold each declared field into the digest (directly, through
a same-class helper method, or wholesale via ``dataclasses.asdict``), or
carry an explicit entry in :data:`FINGERPRINT_ALLOWLIST` with a one-line
justification.  Fingerprints are cache-key components: a result-affecting
field outside the fingerprint is a cache-key collision -- two different
runs sharing one cached result -- which a warm multi-tenant ``repro
serve`` daemon would then serve forever.

**env-policy** -- every ``os.environ`` / ``os.getenv`` read outside
``repro/config.py`` must route through the :mod:`repro.config` helpers
(``positive_int_env`` / ``str_env`` / ``list_env`` / ``flag_env``), so
all knobs share one parse/strip/warn policy and the environment-variable
catalogue in ``docs/service.md`` stays authoritative.

**lock-discipline** -- module-level ``_*_CACHE`` ``OrderedDict`` caches
must have a paired ``_*_CACHE_LOCK`` and may only be mutated inside a
``with <that lock>:`` block.  These caches are shared across the
threaded daemon's request handlers; an unlocked ``popitem`` during a
concurrent ``move_to_end`` corrupts the dict.

All three run from ``repro check --source`` (and CI); findings are
:class:`~repro.analysis.findings.Finding` records with ``path:line``
locators.  No third-party dependencies: plain :mod:`ast`.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Union

from repro.analysis.findings import Finding

FINGERPRINT_ALLOWLIST: Dict[str, str] = {
    "SimulationOptions.method": (
        "the resolved backend's name+version are separate simulation-cache "
        "key components; hashing the *requested* method would split "
        "backend=/method= spellings of the same run"
    ),
    "SimulationOptions.batch": (
        "execution strategy, not distribution content: batched replay is "
        "held to <= 1e-10 of sequential, so both land under one cache key"
    ),
    "PipelineConfig.name": (
        "pipelines are content-addressed (passes + overrides); renamed "
        "aliases deliberately share compilation-cache entries"
    ),
    "PipelineConfig.description": "cosmetic documentation, never affects output",
    "NoiseProgram._superop": (
        "lazily derived fused lowering, fully determined by the "
        "fingerprinted moments"
    ),
    "NoiseProgram._trajectory_plan": (
        "lazily derived trajectory plan, fully determined by the "
        "fingerprinted moments"
    ),
}
"""Fields deliberately excluded from their dataclass's ``fingerprint``.

Keys are ``"ClassName.field"``; values are the one-line justification
the purity analyzer demands (see ``docs/analysis.md`` for the policy).
``NoiseProgram._fingerprint`` needs no entry: the method reads it, so
the analyzer sees it as covered."""

CACHE_NAME_PATTERN = re.compile(r"^_[A-Za-z0-9_]*_CACHE$")
"""Module-level names the lock-discipline lint treats as shared caches."""

_MUTATING_METHODS = frozenset(
    {
        "clear",
        "pop",
        "popitem",
        "update",
        "setdefault",
        "move_to_end",
        "__setitem__",
        "__delitem__",
    }
)

_ENV_EXEMPT_FILES = ("config.py",)
"""Files (relative to the lint root) allowed to touch ``os.environ``."""


def default_source_root() -> Path:
    """The installed ``repro`` package directory (the default lint root)."""
    import repro

    return Path(repro.__file__).resolve().parent


def iter_source_files(root: Union[str, Path]) -> List[Path]:
    """Every ``*.py`` file under ``root``, sorted for stable reports."""
    return sorted(Path(root).rglob("*.py"))


def run_source_lints(
    root: Optional[Union[str, Path]] = None,
    allowlist: Optional[Mapping[str, str]] = None,
) -> List[Finding]:
    """Run all three lints over a source tree (default: the repro package).

    ``allowlist`` overrides :data:`FINGERPRINT_ALLOWLIST` (tests pass
    ``{}`` to exercise detection on synthetic trees).
    """
    root_path = Path(root).resolve() if root is not None else default_source_root()
    effective_allowlist = (
        dict(allowlist) if allowlist is not None else dict(FINGERPRINT_ALLOWLIST)
    )
    findings: List[Finding] = []
    seen_classes: Dict[str, Set[str]] = {}
    for path in iter_source_files(root_path):
        rel = path.relative_to(root_path).as_posix()
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
        except SyntaxError as error:
            findings.append(
                Finding(
                    check="parse",
                    where=f"{rel}:{error.lineno or 0}",
                    message=f"file does not parse: {error.msg}",
                )
            )
            continue
        if rel not in _ENV_EXEMPT_FILES:
            findings += _check_env_policy(tree, rel)
        findings += _check_lock_discipline(tree, rel)
        findings += _check_fingerprint_purity(
            tree, rel, effective_allowlist, seen_classes
        )
    findings += _check_allowlist_freshness(effective_allowlist, seen_classes)
    return findings


# ---------------------------------------------------------------------------
# env-policy
# ---------------------------------------------------------------------------


def _check_env_policy(tree: ast.AST, rel: str) -> List[Finding]:
    """Flag direct ``os.environ`` / ``os.getenv`` access."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("environ", "getenv")
        ):
            findings.append(
                Finding(
                    check="env-policy",
                    where=f"{rel}:{node.lineno}",
                    message=(
                        f"direct os.{node.attr} access; read environment knobs "
                        "through the repro.config helpers (positive_int_env / "
                        "str_env / list_env / flag_env)"
                    ),
                )
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names = [
                alias.name
                for alias in node.names
                if alias.name in ("environ", "getenv")
            ]
            if names:
                findings.append(
                    Finding(
                        check="env-policy",
                        where=f"{rel}:{node.lineno}",
                        message=(
                            f"importing {', '.join(names)} from os; read "
                            "environment knobs through the repro.config helpers"
                        ),
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------


def _is_plain_dict_value(value: Optional[ast.expr]) -> bool:
    """``OrderedDict()`` / ``dict()`` / ``{}`` -- a bare shared mapping.

    Cache *objects* (``CompilationCache(...)``) are excluded: they own
    their internal lock; the lint targets raw dicts whose callers must
    synchronise themselves.
    """
    if isinstance(value, ast.Dict):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else ""
        )
        return name in ("OrderedDict", "dict")
    return False


def _check_lock_discipline(tree: ast.Module, rel: str) -> List[Finding]:
    """Module-level ``_*_CACHE`` dicts: paired lock, mutations inside it."""
    caches: Dict[str, int] = {}
    locks: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if CACHE_NAME_PATTERN.match(target.id) and _is_plain_dict_value(value):
                caches[target.id] = stmt.lineno
            elif target.id.endswith("_LOCK"):
                locks.add(target.id)
    if not caches:
        return []
    findings: List[Finding] = []
    for cache, lineno in sorted(caches.items()):
        if f"{cache}_LOCK" not in locks:
            findings.append(
                Finding(
                    check="lock-discipline",
                    where=f"{rel}:{lineno}",
                    message=(
                        f"module-level cache {cache} has no paired {cache}_LOCK; "
                        "shared caches need a lock for the threaded daemon"
                    ),
                )
            )
    visitor = _LockVisitor(set(caches), rel)
    visitor.visit(tree)
    return findings + visitor.findings


class _LockVisitor(ast.NodeVisitor):
    """Track which locks are held lexically; flag unlocked cache mutation."""

    def __init__(self, caches: Set[str], rel: str):
        self.caches = caches
        self.rel = rel
        self.held: Set[str] = set()
        self.findings: List[Finding] = []

    def visit_With(self, node: ast.With) -> None:
        entered = {
            item.context_expr.id
            for item in node.items
            if isinstance(item.context_expr, ast.Name)
        }
        added = entered - self.held
        self.held |= added
        self.generic_visit(node)
        self.held -= added

    def _flag(self, cache: str, node: ast.AST, what: str) -> None:
        if f"{cache}_LOCK" in self.held:
            return
        self.findings.append(
            Finding(
                check="lock-discipline",
                where=f"{self.rel}:{node.lineno}",
                message=(
                    f"{what} of {cache} outside 'with {cache}_LOCK:'; every "
                    "mutation of a module-level cache must hold its lock"
                ),
            )
        )

    def _check_subscript_target(self, target: ast.expr, node: ast.AST, what: str) -> None:
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and target.value.id in self.caches
        ):
            self._flag(target.value.id, node, what)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_subscript_target(target, node, "item assignment")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_subscript_target(node.target, node, "augmented assignment")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_subscript_target(node.target, node, "item assignment")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_subscript_target(target, node, "item deletion")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.caches
            and func.attr in _MUTATING_METHODS
        ):
            self._flag(func.value.id, node, f".{func.attr}() call")
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# fingerprint-purity
# ---------------------------------------------------------------------------


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _declared_fields(node: ast.ClassDef) -> Dict[str, int]:
    """Dataclass fields (AnnAssign targets, minus ClassVars) -> line numbers."""
    fields: Dict[str, int] = {}
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        annotation_names = {
            sub.id for sub in ast.walk(stmt.annotation) if isinstance(sub, ast.Name)
        } | {
            sub.attr
            for sub in ast.walk(stmt.annotation)
            if isinstance(sub, ast.Attribute)
        }
        if "ClassVar" in annotation_names:
            continue
        fields[stmt.target.id] = stmt.lineno
    return fields


def _method_coverage(
    methods: Mapping[str, ast.FunctionDef], start: str
) -> "tuple[Set[str], bool]":
    """``(self.X names read, whole-instance digest?)`` reachable from ``start``.

    Follows same-class helper calls transitively (``fingerprint`` ->
    ``to_json_dict``); a ``dataclasses.asdict(self)`` / ``astuple(self)``
    anywhere in the closure counts as covering every field.
    """
    referenced: Set[str] = set()
    covers_all = False
    visited: Set[str] = set()
    worklist = [start]
    while worklist:
        name = worklist.pop()
        if name in visited or name not in methods:
            continue
        visited.add(name)
        for node in ast.walk(methods[name]):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                referenced.add(node.attr)
                if node.attr in methods:
                    worklist.append(node.attr)
            elif isinstance(node, ast.Call) and node.args:
                func = node.func
                func_name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else ""
                )
                first = node.args[0]
                if (
                    func_name in ("asdict", "astuple")
                    and isinstance(first, ast.Name)
                    and first.id == "self"
                ):
                    covers_all = True
    return referenced, covers_all


def _check_fingerprint_purity(
    tree: ast.AST,
    rel: str,
    allowlist: Mapping[str, str],
    seen_classes: Dict[str, Set[str]],
) -> List[Finding]:
    """Every field of a fingerprinted dataclass is hashed or allowlisted."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not _is_dataclass_decorated(node):
            continue
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "fingerprint" not in methods:
            continue
        fields = _declared_fields(node)
        seen_classes[node.name] = set(fields)
        referenced, covers_all = _method_coverage(methods, "fingerprint")
        if covers_all:
            continue
        for field_name, lineno in sorted(fields.items()):
            if field_name in referenced:
                continue
            if f"{node.name}.{field_name}" in allowlist:
                continue
            findings.append(
                Finding(
                    check="fingerprint-purity",
                    where=f"{rel}:{lineno}",
                    message=(
                        f"{node.name}.{field_name} is not folded into "
                        f"{node.name}.fingerprint() and has no allowlist entry; "
                        "an unhashed result-affecting field is a cache-key "
                        "collision (add it to the digest with a schema bump, or "
                        "allowlist it with a justification)"
                    ),
                )
            )
    return findings


def _check_allowlist_freshness(
    allowlist: Mapping[str, str], seen_classes: Mapping[str, Set[str]]
) -> List[Finding]:
    """Allowlist entries must be well-formed and name real fields.

    Field existence is only validated for classes that appeared in the
    scanned tree, so lints over synthetic test trees don't trip on the
    production allowlist; a stale entry for a renamed/removed field of a
    scanned class is flagged so the allowlist cannot rot silently.
    """
    findings: List[Finding] = []
    for key, justification in sorted(allowlist.items()):
        class_name, _, field_name = key.partition(".")
        if not field_name or not str(justification).strip():
            findings.append(
                Finding(
                    check="fingerprint-allowlist",
                    message=(
                        f"malformed allowlist entry {key!r}: keys are "
                        "'ClassName.field' and need a non-empty justification"
                    ),
                )
            )
            continue
        fields = seen_classes.get(class_name)
        if fields is not None and field_name not in fields:
            findings.append(
                Finding(
                    check="fingerprint-allowlist",
                    message=(
                        f"stale allowlist entry {key!r}: {class_name} declares "
                        f"no field {field_name!r} (remove or update the entry)"
                    ),
                )
            )
    return findings
