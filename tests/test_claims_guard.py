"""Outside the mechanism table, no module decides what a kind claims by its name.

Each kind's claims live in ``mechanisms.MECHANISM_KINDS`` and are read through
``MechanismSpec``; a comparison with a kind name, or with a parameter name,
anywhere else in ``softmech`` is a second copy of the table.  The scan reads
the source with ``ast``, so strings in docstrings and error messages do not
count.
"""

import ast
from pathlib import Path

import softmech
from softmech.mechanisms import MECHANISM_KINDS

SRC = Path(softmech.__file__).parent
NAMES = set(MECHANISM_KINDS) | {"delta", "lambda"}

# (module, function) -> why the site may name a kind
ALLOWED = {
    ("smoothness.py", "_designed_rows"): "builds the witness pairs known for exp and sparsemax; witnesses, not claims",
}


def _strings(node):
    """The string constants of a comparison operand, in tuple, list and set literals too."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for elt in node.elts:
            yield from _strings(elt)


def name_comparisons(source: str) -> list[tuple[str | None, int, str]]:
    """(enclosing function, line, name) of every comparison with a kind name
    or a parameter name in the source."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                found.extend((func, node.lineno, s) for s in _strings(operand) if s in NAMES)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def scanned_modules():
    return [path for path in sorted(SRC.glob("*.py")) if path.name != "mechanisms.py"]


def test_scanner_sees_each_form():
    source = (
        "def f(mech, kind):\n"
        "    if mech.kind == 'plsoftmax': pass\n"
        "    if mech.kind not in ('exp', 'pow'): pass\n"
        "    if kind.param == 'delta': pass\n"
        "    if 'lambda' != kind.param: pass\n"
        "    if mech.kind == 'uniform' or mode == 'scale': pass\n"
        "    raise ValueError('needs exp or pow')\n"
    )
    assert [(line, name) for _, line, name in name_comparisons(source)] == [
        (2, "plsoftmax"), (3, "exp"), (3, "pow"), (4, "delta"), (5, "lambda")]


def test_no_module_names_a_kind_outside_the_table():
    assert len(scanned_modules()) >= 10
    offending = [
        f"{path.name}:{line} {func}() compares with {name!r}"
        for path in scanned_modules()
        for func, line, name in name_comparisons(path.read_text(encoding="utf-8"))
        if (path.name, func) not in ALLOWED
    ]
    assert not offending, "read the claim from MechanismSpec instead:\n" + "\n".join(offending)


def test_every_allowed_site_still_names_a_kind():
    # an entry whose site has gone would let a new comparison in unnoticed
    for module, func in ALLOWED:
        found = name_comparisons((SRC / module).read_text(encoding="utf-8"))
        assert any(f == func for f, _, _ in found), f"{module}:{func} no longer names a kind; drop its entry"
