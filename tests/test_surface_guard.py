"""Every public function and method of softmech has a caller outside the unit tests.

A public name that only unit tests reach is surface nobody uses: it is either
deleted or, if a unit test needs it as an oracle, moved into that test.  The
callers that count are softmech's own modules (not ``__init__.py``, which
only re-exports), the demos, the tools, the benchmark and the acceptance
suite.  The scan reads the sources with ``ast``: a function counts as
reached by a name, an attribute, an import or a string naming it (the
benchmark's tracer looks functions up by name), a method by an attribute or
a string; a use inside the function's own body does not count.  The
``cmd_*`` functions are reached through ``cli.main``'s ``globals()`` lookup.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "softmech"

# module.name -> why the name stays without a caller
ALLOWED = {
    "smoothness.forbidden_region_slope": "paper claim: the two-option lower bound, for the planned tradeoff table",
    "submodular.pow_error_bound": "paper claim: the power mechanism's coverage loss, for the planned frontier",
    "submodular.exp_error_bound": "paper claim: the exponential mechanism's coverage loss, for the planned frontier",
    "submodular.insensitivity_t": "paper claim: the t of pow_error_bound, for the planned frontier",
    "submodular.sensitivity_linf": "paper claim: the s_inf of both error bounds, for the planned frontier",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions(source: str) -> list[tuple[str, str, bool]]:
    """(qualified name, bare name, is a method) of each public top-level
    function and each public method of a public class in the source."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and _public(node.name):
            found.append((node.name, node.name, False))
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            found.extend((f"{node.name}.{sub.name}", sub.name, True) for sub in node.body
                         if isinstance(sub, ast.FunctionDef) and _public(sub.name))
    return found


def references(source: str) -> list[tuple[str, bool, tuple[str, ...]]]:
    """(name, could name a method, qualified names of the enclosing
    definitions) of every use of a name in the source."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (f"{scope[-1]}.{node.name}" if scope else node.name,)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, False, scope))
        elif isinstance(node, ast.alias):
            found.append((node.name.rpartition(".")[2], False, scope))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, True, scope))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append((node.value, True, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def caller_files() -> list[Path]:
    files = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    for folder, pattern in (("demos", "*.py"), ("tools", "*.py"), ("perfbench", "**/*.py")):
        files += sorted((ROOT / folder).glob(pattern))
    return files + [ROOT / "tests" / "test_acceptance.py"]


def unreached() -> list[str]:
    """module.name of every public function and method that nothing reaches."""
    uses = {path: references(path.read_text(encoding="utf-8")) for path in caller_files()}
    missing = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for qualname, name, method in definitions(path.read_text(encoding="utf-8")):
            if name.startswith("cmd_"):
                continue
            reached = any(
                used == name and (attr or not method) and not (where == path and qualname in scope)
                for where, found in uses.items()
                for used, attr, scope in found
            )
            if not reached:
                missing.append(f"{path.stem}.{qualname}")
    return missing


def test_scanner_sees_each_form():
    source = (
        "import json\n"
        "from .mod import imported\n"
        "class Spec:\n"
        "    def used(self): return self.other()\n"
        "    def other(self): return 1\n"
        "    def by_string(self): pass\n"
        "    def by_bare_name(self): pass\n"
        "    def recursive(self): return self.recursive()\n"
        "def called(): return helper(), by_bare_name\n"
        "def helper(): return called\n"
        "def self_only(): return self_only()\n"
        "LOOKUP = ('by_string', json.dumps)\n"
    )
    defined = {qualname for qualname, _, _ in definitions(source)}
    assert defined == {"Spec.used", "Spec.other", "Spec.by_string", "Spec.by_bare_name", "Spec.recursive",
                       "called", "helper", "self_only"}
    uses = references(source)
    assert ("imported", False, ()) in uses and ("dumps", True, ()) in uses
    assert ("other", True, ("Spec", "Spec.used")) in uses and ("by_string", True, ()) in uses
    assert ("by_bare_name", False, ("called",)) in uses  # a bare name cannot reach a method
    assert ("self_only", False, ("self_only",)) in uses  # its own body: not a caller


def test_every_public_name_has_a_caller():
    extra = [name for name in unreached() if name not in ALLOWED]
    assert not extra, ("only unit tests reach these; delete them, or move them into the test "
                       "that uses them as an oracle:\n" + "\n".join(extra))


def test_every_allowed_name_is_defined_and_still_uncalled():
    # an entry whose name gained a caller, or went away, no longer needs its place
    defined = {f"{path.stem}.{qualname}" for path in SRC.glob("*.py")
               for qualname, _, _ in definitions(path.read_text(encoding="utf-8"))}
    assert set(ALLOWED) <= defined, f"gone: {sorted(set(ALLOWED) - defined)}"
    called = set(ALLOWED) - set(unreached())
    assert not called, f"now called: {sorted(called)}"
