import ast
import copy
import importlib.util
import math
import os
import pickle
import re
import subprocess
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


# the interpreter's own SHA-256 module, which invsub.cli imports by both
# of its names: _sha256 up to Python 3.11 and _sha2 from 3.12, and each
# version's sys.stdlib_module_names lists only its own
BUILTIN_SHA256 = {"_sha2", "_sha256"}


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
                if name.split(".")[0] not in sys.stdlib_module_names | BUILTIN_SHA256:
                    outside.append(f"{path.name}: {name}")
    assert outside == []


# module -> the package modules it imports at module level, the package
# root as "__init__": combinatorics and spectrum compute M_n, exactalg and
# analyzer count the invariant subspaces of a given matrix, and only
# analyzer reads both
LAYERS = {
    "__init__": set(),
    "combinatorics": {"__init__"},
    "spectrum": {"__init__", "combinatorics"},
    "exactalg": {"__init__"},
    "analyzer": {"__init__", "combinatorics", "spectrum", "exactalg"},
    "cli": {"__init__", "spectrum"},
}
# module -> the package modules it imports inside a function: only cli
# defers the matrix algebra, to the commands that run it
DEFERRED = {"cli": {"exactalg", "analyzer"}}


def _package_imports(nodes, modules: set[str]) -> set[str]:
    imported = set()
    for node in nodes:
        if node.module:
            imported.add(node.module)
        else:
            # ``from . import name`` names a submodule or a root attribute
            imported.update(
                alias.name if alias.name in modules else "__init__" for alias in node.names
            )
    return imported


def test_package_imports_follow_the_layers():
    paths = sorted(Path(invsub.__file__).parent.glob("*.py"))
    modules = {path.stem for path in paths}
    found = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        functions = [node for node in nodes if isinstance(node, ast.FunctionDef)]
        in_functions = {id(node) for function in functions for node in ast.walk(function)}
        imports = [node for node in nodes if isinstance(node, ast.ImportFrom) and node.level]
        found[path.stem] = (
            _package_imports([node for node in imports if id(node) not in in_functions], modules),
            _package_imports([node for node in imports if id(node) in in_functions], modules),
        )
    assert found == {module: (LAYERS[module], DEFERRED.get(module, set())) for module in LAYERS}


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
_VALUES = {
    "BlockConfig": (_CONFIG, "real_multiplicities"),
    "Multipartition": (invsub.Multipartition((2, 1), ((1, 1), (1,))), "composition"),
    "RationalMatrix": (invsub.RationalMatrix([[1, "1/2"], ["-2/3", 4]]), "integer_rows"),
    "RationalPolynomial": (invsub.RationalPolynomial([3, "-1/2", 0, 2]), "integer_coefficients"),
    "SpectrumSet": (invsub.attainable_counts(5), "values"),
    "SpectrumSet-12": (invsub.attainable_counts(12), "n"),
    "SubspaceCount": (invsub.SubspaceCount(_CONFIG), "signature"),
}


@pytest.mark.parametrize("value, field", _VALUES.values(), ids=list(_VALUES))
def test_value_types_copy_pickle_and_stay_frozen(value, field):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)
    for name in (field, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


@pytest.mark.parametrize("value", [value for value, _ in _VALUES.values()], ids=list(_VALUES))
def test_value_types_store_exactly_their_match_args(value):
    # every field goes through FrozenValue._store, under its name in
    # __match_args__ and under no other name
    cls = type(value)
    assert list(vars(value)) == list(cls.__match_args__)
    twin = cls._of(*value._fields())
    assert twin == value
    assert vars(twin) == vars(value)


_PAIR = invsub.BlockConfig((1,), (2, 1))
_PINNED_REPRS = [
    (_PAIR, "BlockConfig(complex_pair_multiplicities=(1,), real_multiplicities=(2, 1))"),
    (invsub.SpectrumSet(2, (3, 4)), "SpectrumSet(n=2, values=(3, 4))"),
    (invsub.SubspaceCount(), "SubspaceCount(signature=None)"),
    (
        invsub.SubspaceCount(invsub.BlockConfig((), (1,))),
        "SubspaceCount(signature=BlockConfig(complex_pair_multiplicities=(),"
        " real_multiplicities=(1,)))",
    ),
    (
        invsub.Multipartition((0, 2), ((), (1, 1))),
        "Multipartition(composition=(0, 2), partitions=((), (1, 1)))",
    ),
    (invsub.RationalPolynomial([1, "-1/2"]), "RationalPolynomial(-1/2*x + 1)"),
    (invsub.RationalMatrix([[1, "1/2"], [0, 3]]), "RationalMatrix([[1, 1/2], [0, 3]])"),
]


@pytest.mark.parametrize(
    "value, text", _PINNED_REPRS, ids=[type(value).__name__ for value, _ in _PINNED_REPRS]
)
def test_value_type_reprs(value, text):
    assert repr(value) == text


def test_value_types_take_keywords():
    assert invsub.BlockConfig(complex_pair_multiplicities=(1,), real_multiplicities=(1, 2)) == _PAIR
    assert invsub.SpectrumSet(n=2, values=(3, 4)) == invsub.SpectrumSet(2, (3, 4))
    assert invsub.Multipartition(composition=(2,), partitions=((2,),)).partitions == ((2,),)
    assert invsub.SubspaceCount(signature=_PAIR).count == 12
    assert invsub.RationalPolynomial(coefficients=[0, 1]).degree == 1
    assert invsub.RationalMatrix(rows=[[2]]).n == 1


def test_subspace_count_defaults_to_infinite():
    outcome = invsub.SubspaceCount()
    assert outcome.signature is None and outcome.profile is None
    assert outcome == invsub.SubspaceCount(None)
    assert outcome.count is None and not outcome.is_finite


@pytest.mark.parametrize(
    "build",
    [
        lambda: invsub.BlockConfig((1,)),
        lambda: invsub.BlockConfig((1,), (2,), (3,)),
        lambda: invsub.BlockConfig((1,), real=(2,)),
        lambda: invsub.SpectrumSet(2),
        lambda: invsub.SpectrumSet(2, (3, 4), 5),
        lambda: invsub.Multipartition((1,)),
        lambda: invsub.Multipartition((1,), ((1,),), ()),
        lambda: invsub.SubspaceCount(None, None),
        lambda: invsub.SubspaceCount(profile=(1, 1)),
        lambda: invsub.RationalPolynomial(),
        lambda: invsub.RationalPolynomial([1], [2]),
        lambda: invsub.RationalMatrix(),
        lambda: invsub.RationalMatrix([[1]], 2),
    ],
)
def test_value_types_reject_missing_and_extra_arguments(build):
    with pytest.raises(TypeError):
        build()


def test_value_types_match_positional_patterns():
    match _PAIR:
        case invsub.BlockConfig(pairs, reals):
            assert (pairs, reals) == ((1,), (2, 1))
    match invsub.SpectrumSet(2, (3, 4)):
        case invsub.SpectrumSet(n, values):
            assert (n, values) == (2, (3, 4))
    match invsub.Multipartition((2,), ((1, 1),)):
        case invsub.Multipartition(composition, partitions):
            assert (composition, partitions) == ((2,), ((1, 1),))
    match invsub.SubspaceCount():
        case invsub.SubspaceCount(None):
            pass
        case _:
            pytest.fail("SubspaceCount() did not match (None,)")
    match invsub.SubspaceCount(_PAIR):
        case invsub.SubspaceCount(signature):
            assert signature == _PAIR
    match invsub.RationalPolynomial(["1/2", 1]):
        case invsub.RationalPolynomial(denominator, coefficients):
            assert (denominator, coefficients) == (2, (1, 2))
    match invsub.RationalMatrix([["1/3"]]):
        case invsub.RationalMatrix(denominator, rows):
            assert (denominator, rows) == (3, ((1,),))


def test_value_types_equal_only_their_own_class():
    assert (_PAIR == ((1,), (2, 1))) is False
    assert invsub.BlockConfig((1,), (2,)) != ((1,), (2,))
    assert invsub.BlockConfig.__eq__(_PAIR, ((1,), (2, 1))) is NotImplemented
    assert invsub.SpectrumSet(2, (3, 4)) != (2, (3, 4))
    # same field values, other class
    assert invsub.SpectrumSet(1, (1, 2)) != invsub.RationalPolynomial([1, 2])

    class Subclass(invsub.BlockConfig):
        pass

    assert Subclass((1,), (2, 1)) != _PAIR


@pytest.mark.parametrize("value, field", _VALUES.values(), ids=list(_VALUES))
def test_value_types_refuse_deletion(value, field):
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert hasattr(value, field)


# module -> why ``import invsub, invsub.cli`` must not load it: each
# costs startup time in every command, and all but dataclasses and
# inspect load in the functions that use them
NOT_LOADED_AT_IMPORT = {
    "invsub.exactalg": "the largest module to compile, and spectrum and table never run it",
    "invsub.analyzer": "invsub.cli imports it in count_invariant_subspaces and selfcheck",
    "dataclasses": "the value types share one small base, in the package root",
    "inspect": "slow to import, and dataclasses brings it",
    "argparse": "invsub.cli loads it in build_parser and _positive_int",
    "json": "invsub.cli loads it for JSON documents and reports",
    "hashlib": "invsub.cli loads it only in a build without the built-in SHA-256 modules",
    "_hashlib": "hashlib brings OpenSSL with it, 3.3 MB resident",
    "fractions": "only a non-integer value crossing the API loads it",
    "decimal": "fractions loads it",
    "numbers": "fractions loads it",
}
# what fractions brings; no command on an integer document loads these
FRACTIONS = {"fractions", "decimal", "numbers"}
# the exact matrix algebra: analyze and selfcheck load both, spectrum
# and table neither
ALGEBRA = {"invsub.exactalg", "invsub.analyzer"}
GOLDEN = Path(__file__).parent / "golden"


def run_fresh(code, *argv):
    """Run ``code`` with ``argv`` in a fresh ``python -S``, so that no site
    hook loads a module first, from the golden inputs; return its exit
    status, its stdout and the modules loaded when it exits."""
    report = "import atexit, sys; atexit.register(lambda: sys.stderr.write(' '.join(sys.modules)))"
    code = f"{report}; {code}"
    env = {**os.environ, "PYTHONPATH": str(Path(invsub.__file__).resolve().parent.parent)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        cwd=GOLDEN / "inputs", env=env, capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout, set(done.stderr.split())


def run_main_fresh(*argv):
    """invsub.cli.main(argv) in a fresh process, as by ``run_fresh``."""
    return run_fresh("from invsub.cli import main; sys.exit(main(sys.argv[1:]))", *argv)


@pytest.fixture(scope="module")
def loaded_at_import():
    status, _, loaded = run_fresh("import invsub, invsub.cli")
    assert status == 0 and "invsub.cli" in loaded
    return loaded


@pytest.mark.parametrize("module", NOT_LOADED_AT_IMPORT)
def test_import_does_not_load(loaded_at_import, module):
    assert module not in loaded_at_import, NOT_LOADED_AT_IMPORT[module]


# the argv of a command on integers and its golden stdout
INTEGER_COMMANDS = [
    (["analyze", "integer.txt"], "analyze-integer.text"),
    (["analyze", "integer.txt", "--format", "json"], "analyze-integer.json"),
    (["analyze", "blocks16.txt"], "analyze-blocks16.text"),
    (["analyze", "blocks16.txt", "--format", "json"], "analyze-blocks16.json"),
    (["spectrum", "8"], "spectrum-8.text"),
    (["spectrum", "8", "--format", "json"], "spectrum-8.json"),
    (["table", "6", "--format", "json"], "table-6.json"),
    (["selfcheck", "--max-n", "4"], "selfcheck-4.text"),
    (["selfcheck", "--max-n", "4", "--format", "json"], "selfcheck-4.json"),
]


@pytest.mark.parametrize(
    "argv, expected", INTEGER_COMMANDS, ids=[" ".join(argv) for argv, _ in INTEGER_COMMANDS]
)
def test_integer_commands_never_load_fractions(argv, expected):
    status, out, loaded = run_main_fresh(*argv)
    golden = (GOLDEN / "expected" / expected).read_text(encoding="utf-8")
    assert (status, out) == (0, golden)
    assert ALGEBRA & loaded == (ALGEBRA if argv[0] in ("analyze", "selfcheck") else set())
    assert FRACTIONS & loaded == set()


# hashlib and the OpenSSL it loads
HASHLIB = {"hashlib", "_hashlib"}
JSON_COMMANDS = [(argv, expected) for argv, expected in INTEGER_COMMANDS if "json" in argv]


@pytest.mark.parametrize(
    "argv, expected", JSON_COMMANDS, ids=[" ".join(argv) for argv, _ in JSON_COMMANDS]
)
def test_json_reports_never_load_openssl(argv, expected):
    if not any(map(importlib.util.find_spec, BUILTIN_SHA256)):
        pytest.skip("this interpreter was built without its own SHA-256 module")
    status, out, loaded = run_main_fresh(*argv)
    golden = (GOLDEN / "expected" / expected).read_text(encoding="utf-8")
    assert (status, out) == (0, golden)
    assert HASHLIB & loaded == set()
    assert BUILTIN_SHA256 & loaded


_REPORT_TWICE = """
from invsub.cli import _report
_report("spectrum", {"n": 1}, {})


class Spy:
    def find_spec(self, name, path=None, target=None):
        print(name)


sys.meta_path.insert(0, Spy())
_report("spectrum", {"n": 1}, {})
"""


def test_a_second_report_searches_for_no_module():
    # a module that is not there is searched for on sys.path again at
    # every import: trying _sha2 first on 3.11 cost 0.2 ms per analyze
    status, out, _ = run_fresh(_REPORT_TWICE)
    assert (status, out) == (0, "")


def test_json_report_falls_back_to_hashlib():
    # as in a build configured without the built-in hash modules
    status, out, loaded = run_fresh(
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
        "from invsub.cli import main; sys.exit(main(sys.argv[1:]))",
        "analyze", "integer.txt", "--format", "json",
    )
    golden = (GOLDEN / "expected" / "analyze-integer.json").read_text(encoding="utf-8")
    assert (status, out) == (0, golden)
    assert "hashlib" in loaded


# integer inputs whose products, inverse, evaluations and quotients are
# rational: the inverse has denominator det(A) = 25
_A = [[2, 1, 0], [0, 3, 1], [1, 0, 4]]
_B = [[1, -2, 0], [3, 0, 5], [0, 7, -1]]
_F, _G = [1, 0, -3, 0, 2], [1, -1, 3]  # divided by 3x^2 - x + 1, not monic
_COMPUTE = f"""
from invsub.exactalg import RationalMatrix, RationalPolynomial, evaluate_at_matrix, min_poly
a, b = RationalMatrix({_A}), RationalMatrix({_B})
inverse = a.inverse()
q, r = divmod(RationalPolynomial({_F}), RationalPolynomial({_G}))
matrices = [a * b, inverse, evaluate_at_matrix(min_poly(a), a),
            RationalMatrix.block_diagonal([inverse, b, inverse]), evaluate_at_matrix(q, a)]
print([(m.denominator, m.integer_rows) for m in matrices])
print([(p.denominator, p.integer_coefficients) for p in (q, r)])
"""


def _fraction_product(x, y):
    return [[sum(p * q for p, q in zip(row, col)) for col in zip(*y)] for row in x]


def test_computed_rationals_of_integer_inputs_never_load_fractions():
    # every result is rebuilt from its integer form with Fraction here, in
    # the test process, and checked by Fraction arithmetic of its own
    from fractions import Fraction

    status, out, loaded = run_fresh(_COMPUTE)
    assert status == 0
    assert FRACTIONS & loaded == set()
    matrices, polynomials = map(ast.literal_eval, out.splitlines())
    for d, ints in [(d, [x for row in rows for x in row]) for d, rows in matrices] + polynomials:
        assert d > 0 and math.gcd(d, *ints) == 1
    product, inverse, annihilated, blocks, q_of_a = (
        [[Fraction(x, d) for x in row] for row in rows] for d, rows in matrices
    )
    (dq, q), (dr, r) = polynomials
    q, r = [Fraction(c, dq) for c in q], [Fraction(c, dr) for c in r]
    assert product == _fraction_product(_A, _B)
    assert _fraction_product(_A, inverse) == [[int(i == j) for j in range(3)] for i in range(3)]
    assert annihilated == [[0] * 3 for _ in range(3)]
    zero = [0] * 3
    assert blocks == (
        [row + zero + zero for row in inverse]
        + [zero + row + zero for row in _B]
        + [zero + zero + row for row in inverse]
    )
    # F = Q G + R with deg R < deg G
    qg = [0] * len(_F)
    for i, x in enumerate(q):
        for j, y in enumerate(_G):
            qg[i + j] += x * y
    assert [x + (r[k] if k < len(r) else 0) for k, x in enumerate(qg)] == _F
    assert len(r) < len(_G)
    # Q(A) by Horner on Fraction rows
    expected = [[Fraction(0)] * 3 for _ in range(3)]
    for c in reversed(q):
        expected = _fraction_product(expected, _A)
        expected = [[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(expected)]
    assert q_of_a == expected


_PRINT = f"""
from invsub.exactalg import RationalMatrix, min_poly
from invsub.analyzer import real_jordan_block
inverse = RationalMatrix({_A}).inverse()
print(repr(inverse))
print(min_poly(inverse))
print(repr(RationalMatrix([["1/2", "-3/4"], ["5", "7/3"]])))
print(repr(real_jordan_block(0, "1/2", 2)))
"""


def test_printing_reading_and_jordan_layout_never_load_fractions():
    # A^-1 = adj(A) / 25, and its minimal polynomial is the reversed
    # characteristic polynomial x^3 - 9x^2 + 26x - 25 of A over -25
    status, out, loaded = run_fresh(_PRINT)
    assert status == 0
    assert FRACTIONS & loaded == set()
    assert out.splitlines() == [
        "RationalMatrix([[12/25, -4/25, 1/25], [1/25, 8/25, -2/25], [-3/25, 1/25, 6/25]])",
        "x^3 - 26/25*x^2 + 9/25*x - 1/25",
        "RationalMatrix([[1/2, -3/4], [5, 7/3]])",
        "RationalMatrix([[0, -1/2, 1, 0], [1/2, 0, 0, 1], [0, 0, 0, -1/2], [0, 0, 1/2, 0]])",
    ]


def test_spectrum_library_never_loads_the_matrix_algebra():
    status, _, loaded = run_fresh(
        "import invsub.spectrum as s; m6 = s.attainable_counts(6); "
        "sys.exit(len(s.attainable_counts(8)) != 32 or s.attainable_counts_bruteforce(6) != m6"
        " or set(map(s.count_for_config, list(s.enumerate_configs(6)))) != set(m6))"
    )
    assert status == 0 and "invsub.spectrum" in loaded
    assert ALGEBRA & loaded == set()


@pytest.mark.parametrize("output_format", ["text", "json"])
@pytest.mark.parametrize("document", ["rational.txt", "pairs.json"])
def test_rational_documents_never_load_fractions(document, output_format):
    # the library reads a p/q token straight into two ints, and the CLI
    # reads no cell itself, in text documents and in JSON ones
    status, out, loaded = run_main_fresh("analyze", document, "--format", output_format)
    expected = f"analyze-{Path(document).stem}.{output_format}"
    assert (status, out) == (0, (GOLDEN / "expected" / expected).read_text(encoding="utf-8"))
    assert FRACTIONS & loaded == set()


def test_import_loads_no_submodule_and_no_standard_module():
    _, _, bare = run_fresh("pass")
    _, _, loaded = run_fresh("import invsub")
    assert loaded - bare == {"invsub"}


def test_every_exported_name_is_listed_by_dir():
    assert set(invsub.__all__) <= set(dir(invsub))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from invsub import *", namespace)
    assert {name: namespace.get(name) for name in invsub.__all__} == {
        name: getattr(invsub, name) for name in invsub.__all__
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        invsub.no_such_name


def test_submodules_still_import_from_the_package():
    from invsub import spectrum

    assert spectrum is sys.modules["invsub.spectrum"]
    assert invsub.attainable_counts is spectrum.attainable_counts
    # in a fresh process, before any name of exactalg was resolved
    status, _, loaded = run_fresh(
        "import invsub; from invsub import exactalg; "
        "sys.exit(exactalg is not sys.modules['invsub.exactalg'])"
    )
    assert status == 0 and "invsub.analyzer" not in loaded


def test_values_unpickle_after_import_alone():
    # pickle finds each class in the submodule that defines it; the fresh
    # process compares what it loads with the values it builds itself
    build = (
        "[invsub.RationalMatrix([[1, '1/2'], [0, 3]]),"
        " invsub.SubspaceCount(invsub.BlockConfig((1,), (2, 1))),"
        " invsub.attainable_counts(5)]"
    )
    status, _, _ = run_fresh(
        "import invsub, pickle; loaded = pickle.loads(bytes.fromhex(sys.argv[1])); "
        f"sys.exit(loaded != {build})",
        pickle.dumps(eval(build)).hex(),
    )
    assert status == 0
