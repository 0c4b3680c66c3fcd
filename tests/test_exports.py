import ast
import copy
import pickle
import re
import sys
from pathlib import Path

import pytest

import invsub


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_exported_name_resolves():
    missing = [name for name in invsub.__all__ if not hasattr(invsub, name)]
    assert missing == []


def test_exports_are_unique_and_public():
    assert len(set(invsub.__all__)) == len(invsub.__all__)
    assert [name for name in invsub.__all__ if _is_private(name)] == []


@pytest.mark.parametrize(
    "removed",
    [
        "JordanSignature",
        "SquarefreeDecomposition",
        "squarefree_decompose",
        "jordan_signature",
        "is_count_finite",
    ],
)
def test_signature_type_is_block_config(removed):
    assert removed not in invsub.__all__
    assert not hasattr(invsub, removed)
    assert "BlockConfig" in invsub.__all__


@pytest.mark.parametrize(
    "owner, name",
    [
        (invsub.RationalPolynomial, name)
        for name in ("zero", "one", "x", "__neg__", "__add__", "__sub__", "__mul__", "__rmul__")
    ]
    + [(invsub.RationalMatrix, name) for name in ("__add__", "__sub__", "scaled", "trace")],
    ids=lambda value: value if isinstance(value, str) else value.__name__,
)
def test_arithmetic_that_only_tests_called_is_gone(owner, name):
    # tests/_oracles.py does this arithmetic on Fraction lists of its own
    assert not hasattr(owner, name)


def test_version_is_read_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    dynamic = config["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "invsub.__version__"}


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


def _private_names_in_docstrings(tree: ast.Module) -> set[str]:
    nodes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = (ast.get_docstring(node) or "" for node in ast.walk(tree) if isinstance(node, nodes))
    return {name for doc in docstrings for name in re.findall(r"``(_[A-Za-z]\w*)``", doc)}


def _defined_names(tree: ast.Module) -> set[str]:
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
    return defined


@pytest.mark.parametrize(
    "path", sorted(Path(invsub.__file__).parent.glob("*.py")), ids=lambda path: path.name
)
def test_docstrings_name_only_private_helpers_that_exist(path):
    # a docstring that names a deleted helper describes code that is gone
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _private_names_in_docstrings(tree) - _defined_names(tree) == set()


_CONFIG = invsub.BlockConfig((1,), (2, 1))
_VALUES = [
    (_CONFIG, "real_multiplicities"),
    (invsub.Multipartition((2, 1), ((1, 1), (1,))), "composition"),
    (invsub.RationalMatrix([[1, "1/2"], ["-2/3", 4]]), "integer_rows"),
    (invsub.RationalPolynomial([3, "-1/2", 0, 2]), "integer_coefficients"),
    (invsub.attainable_counts(5), "values"),
    (invsub.SubspaceCount.finite(_CONFIG, invsub.dimension_profile(_CONFIG)), "profile"),
]


@pytest.mark.parametrize(
    "value, field", _VALUES, ids=[type(value).__name__ for value, _ in _VALUES]
)
def test_value_types_copy_pickle_and_stay_frozen(value, field):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)
    for name in (field, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
