"""RL005 -- fault-site registry.

PR 8's deterministic fault injector derives per-site seeds from the site
*name*, so a typo'd site string at a hook call site would silently never
fire (the plan registers ``"planstore_load"``, the call site asks for
``"planstore_laod"``) and the CI fault matrix would green-light an
uncovered path.  This rule resolves the registered site set from the
``SITE_*`` string constants in ``runtime/faults.py`` and requires every
site argument passed to a fault hook (``maybe_inject``,
``maybe_corrupt``, ``_fault_hook``, ``_corrupt_hook``) to be a member --
whether written as a string literal or through a module-level constant
(the ``FAULT_SITE = "kernel_dispatch"`` idiom in ``he/kernels.py``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence

from ..core import REPO_ROOT, Finding, ParsedModule, Rule, register

_HOOK_NAMES = {"maybe_inject", "maybe_corrupt", "_fault_hook", "_corrupt_hook"}


def _registered_sites(tree: ast.Module) -> set[str]:
    """``SITE_* = "name"`` constants (and ALL_SITES members) in faults.py."""
    sites: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if target.id.startswith("SITE_") and isinstance(value, ast.Constant):
                if isinstance(value.value, str):
                    sites.add(value.value)
            elif target.id == "ALL_SITES" and isinstance(value, (ast.Tuple, ast.List)):
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(element.value, str):
                        sites.add(element.value)
    return sites


def _module_string_constants(tree: ast.Module) -> dict[str, str]:
    """Top-level ``NAME = "literal"`` bindings, for resolving Name args."""
    constants: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                constants[target.id] = node.value.value
    return constants


def _imported_site_names(tree: ast.Module) -> set[str]:
    """Names imported from the faults module (assumed registered)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and "faults" in node.module:
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


@register
class FaultSiteRegistryRule(Rule):
    rule_id = "RL005"
    summary = "fault-hook site names are members of the registered site set"
    fix_hint = (
        "use a SITE_* constant from repro.runtime.faults (or register the "
        "new site there, with seeds and tests)"
    )

    def __init__(self) -> None:
        self._sites: set[str] | None = None

    def prepare(self, modules: Sequence[ParsedModule]) -> None:
        self._sites = None
        for module in modules:
            if module.name_matches("runtime/faults.py"):
                self._sites = _registered_sites(module.tree)
                return
        fallback = REPO_ROOT / "src" / "repro" / "runtime" / "faults.py"
        if fallback.exists():
            self._sites = _registered_sites(ast.parse(fallback.read_text()))

    def applies_to(self, module: ParsedModule) -> bool:
        # The registry module itself builds site names structurally.
        return self._sites is not None and not module.name_matches("runtime/faults.py")

    def check(self, module: ParsedModule) -> Iterable[Finding]:
        sites = self._sites or set()
        constants = _module_string_constants(module.tree)
        imported = _imported_site_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name not in _HOOK_NAMES or not node.args:
                continue
            site = node.args[0]
            if isinstance(site, ast.Constant) and isinstance(site.value, str):
                if site.value not in sites:
                    yield self.finding(
                        module, site.lineno,
                        f"fault site {site.value!r} is not registered in "
                        "runtime/faults.py",
                    )
            elif isinstance(site, ast.Name):
                if site.id in imported:
                    continue  # SITE_* import from the registry
                resolved = constants.get(site.id)
                if resolved is not None and resolved not in sites:
                    yield self.finding(
                        module, site.lineno,
                        f"fault site constant {site.id}={resolved!r} is not "
                        "registered in runtime/faults.py",
                    )
