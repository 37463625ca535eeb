"""Public API that nothing uses is deleted, not maintained.

Every name a ``cdgps`` module exports in ``__all__`` must be referenced
somewhere other than its own definition and ``__all__`` entry: in the
package, the demos, the benchmark, or the acceptance gate.  The other unit
tests do not count as users.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cdgps"
USERS = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
         + sorted((ROOT / "benchmarks").glob("*.py"))
         + [ROOT / "tests" / "test_acceptance.py"])


def _exports(tree):
    """The module's ``__all__`` assignment node and the names it lists."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "__all__"):
            return node, [elt.value for elt in node.value.elts]
    return None, []


def _references(tree, skip):
    """Identifiers and attributes that code in ``tree`` reads.  Imports,
    assignment targets, strings and the ``skip`` subtree do not count."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and not isinstance(node.ctx, ast.Store)):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unused_exports(package, users):
    """``module.name`` of every export of a module in ``package`` that no
    file in ``users`` references."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in users}
    exports = {path: _exports(tree) for path, tree in trees.items()
               if path.parent == package}
    used = set()
    for path, tree in trees.items():
        used |= _references(tree, exports.get(path, (None, []))[0])
    return sorted(f"{path.stem}.{name}"
                  for path, (_, names) in exports.items()
                  for name in names if name not in used)


def test_every_export_has_a_user():
    assert unused_exports(PACKAGE, USERS) == []


def test_an_export_used_only_where_it_is_defined_is_caught(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    module = package / "mod.py"
    module.write_text('__all__ = ["LIMIT", "lonely", "helper"]\n'
                      "LIMIT = 3\n\n\n"
                      "def lonely():\n    return helper()\n\n\n"
                      "def helper():\n    return LIMIT\n")
    assert unused_exports(package, [module]) == ["mod.lonely"]
    user = tmp_path / "user.py"
    user.write_text("from pkg.mod import lonely\n")
    assert unused_exports(package, [module, user]) == ["mod.lonely"]
    user.write_text("from pkg.mod import lonely\n\nlonely()\n")
    assert unused_exports(package, [module, user]) == []
