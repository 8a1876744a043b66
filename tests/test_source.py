import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).parent.parent / "src" / "cliffordkit"


def test_no_assert_statements():
    # `python -O` strips assert statements, and every check must survive it
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"


def test_cli_import_loads_no_dataclasses_or_inspect():
    # a fresh `cliffordkit` process pays for every module it imports; these
    # two cost about 10 ms and nothing in the package needs them
    code = ("import sys; before = set(sys.modules); import cliffordkit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
