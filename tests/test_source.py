import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "cliffordkit"


def test_no_assert_statements():
    # `python -O` strips assert statements, and every check must survive it
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"
