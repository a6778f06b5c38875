import ast
from pathlib import Path


def test_oracles_import_nothing_from_the_package():
    # the dense references check the package's kernels, so they must not share code with them
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported and not [name for name in imported if name.split(".")[0] in ("vtqg", "")]
