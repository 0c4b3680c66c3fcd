import ast
import sys
from pathlib import Path

import invsub


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_exported_name_resolves():
    missing = [name for name in invsub.__all__ if not hasattr(invsub, name)]
    assert missing == []


def test_exports_are_unique_and_public():
    assert len(set(invsub.__all__)) == len(invsub.__all__)
    assert [name for name in invsub.__all__ if _is_private(name)] == []


def test_signature_type_is_block_config():
    assert "JordanSignature" not in invsub.__all__
    assert not hasattr(invsub, "JordanSignature")
    assert "BlockConfig" in invsub.__all__


def test_runtime_imports_only_the_standard_library():
    outside = []
    for path in sorted(Path(invsub.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []
