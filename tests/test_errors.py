"""Every refusal in `src/oblix` is one of the classes in `oblix.errors`,
and every one of those classes is some refusal."""

import ast
import pathlib

import oblix.errors

SRC = pathlib.Path(oblix.errors.__file__).resolve().parent
TAXONOMY = {name for name, obj in vars(oblix.errors).items()
            if isinstance(obj, type) and issubclass(obj, oblix.errors.OblixError)}
# (module, function, class) raised outside the taxonomy: the daemon's
# per-frame deadline, which `_DaemonHandler` catches and never lets out
OUTSIDE_TAXONOMY = {("protocol.py", "_recv_exact", "TimeoutError")}


class _Raises(ast.NodeVisitor):
    """(module, enclosing function, raised class, line) of each raise that
    names a class; a bare ``raise`` re-raises what was caught."""

    def __init__(self, module: str):
        self.module, self.function, self.found = module, None, []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Raise(self, node):
        if node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            self.found.append((self.module, self.function, ast.unparse(exc),
                               node.lineno))


def _raises() -> list[tuple[str, str | None, str, int]]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Raises(path.name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    return found


def test_every_raise_names_a_class_of_the_taxonomy():
    outside = [r for r in _raises()
               if r[2] not in TAXONOMY and r[:3] not in OUTSIDE_TAXONOMY]
    assert outside == []


def test_every_class_of_the_taxonomy_is_raised():
    # the base class is what callers catch; every subclass must be raised
    raised = {r[2] for r in _raises()}
    assert TAXONOMY - raised == {"OblixError"}


def test_the_taxonomy_has_seven_classes():
    assert TAXONOMY == {"OblixError", "ShapeError", "RangeError", "ConfigError",
                        "InputError", "ProtocolError", "InternalError"}
