"""Package surface: the star import, the export list, the version, no
unused import, the import order of the modules, no documented command
the CLI lacks, and README's Python examples run."""

import argparse
import ast
import re
import warnings
from pathlib import Path

import pytest

import loopsim
from loopsim import cli

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
README = ROOT / "README.md"
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from loopsim import *", namespace)
    assert [name for name in loopsim.__all__ if name not in namespace] == []


def test_all_has_no_duplicates():
    assert len(loopsim.__all__) == len(set(loopsim.__all__))


def _project() -> dict:
    """The [project] table of pyproject.toml, as setuptools reads it."""
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():
        # older setuptools flags [tool.setuptools] tables as beta
        warnings.simplefilter("ignore")
        return read_configuration(PYPROJECT)["project"]


def test_pyproject_reads_the_package_version():
    assert _project()["version"] == loopsim.__version__


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names an import binds that its scope never reads, as "line: name".

    The scope of an import is the innermost function or class around it,
    or the module. A scope reads every name used anywhere inside it, and
    the module also reads the names its __all__ lists.
    """
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and "__all__" in {
                getattr(target, "id", None) for target in node.targets}:
            exported |= set(ast.literal_eval(node.value))
    unused = []

    def scan(scope, read):
        read = read | {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        nodes = list(ast.iter_child_nodes(scope))
        while nodes:
            node = nodes.pop()
            if isinstance(node, SCOPES):
                scan(node, set())
                continue
            nodes.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name != "*" and name not in read:
                        unused.append(f"{node.lineno}: {name}")

    scan(tree, exported)
    return unused


@pytest.mark.parametrize("path", sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/loopsim", "tests", "demos", "tools")
    for path in (ROOT / folder).glob("*.py")
))
def test_no_unused_import(path):
    assert _unused_imports(ast.parse((ROOT / path).read_text(encoding="utf-8"))) == []


# the loopsim modules in import order: each imports only the ones before it
LAYERS = ("data", "density", "regressors", "analytic", "diagnostics", "engine", "harness", "cli")


def _loopsim_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every loopsim module an import anywhere in tree names.

    `from loopsim import a` names a, and `from loopsim.a import x` and
    `import loopsim.a` name a. A bare `import loopsim` names nothing: it
    reads __version__, which a module uses only once the package is loaded.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # a relative import inside the package
                module = f"loopsim.{module}".rstrip(".")
            top, _, rest = module.partition(".")
            if top != "loopsim":
                continue
            if rest:
                found.append((node.lineno, rest.partition(".")[0]))
            else:
                found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "loopsim" and rest:
                    found.append((node.lineno, rest.partition(".")[0]))
    return found


def test_each_module_imports_only_the_modules_listed_before_it():
    package = ROOT / "src" / "loopsim"
    assert sorted(LAYERS) == sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    late = []
    for k, module in enumerate(LAYERS):
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        late += [f"{module}.py:{line}: {name}" for line, name in _loopsim_imports(tree)
                 if name not in LAYERS[:k]]
    assert late == []


def test_the_package_imports_no_scipy_and_depends_on_numpy_alone():
    """scipy is a reference for the tests only: no module under src/loopsim
    imports it, and [project].dependencies names numpy alone."""
    found = []
    for path in sorted((ROOT / "src" / "loopsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.partition(".")[0] == "scipy"]
    assert found == []
    assert [re.match(r"[\w.-]+", dep).group() for dep in _project()["dependencies"]] == ["numpy"]


def test_the_package_names_no_extended_precision_type():
    """Every statistic computes in float64, so its bits do not depend on the
    platform's long double (80 bits on x86-64, 128 on aarch64, 64 on
    macOS and Windows)."""
    found = [f"{path.name}:{lineno}: {match}"
             for path in sorted((ROOT / "src" / "loopsim").glob("*.py"))
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             for match in re.findall(r"longdouble|float128|float96", line)]
    assert found == []


def _documented_commands() -> set[tuple[str, str]]:
    """Every `loopsim <word>` command line in README's code blocks and in the
    demo docstrings, as (file, word)."""
    texts = {"README.md": "".join(re.findall(
        r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S))}
    for path in sorted((ROOT / "demos").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        texts[path.relative_to(ROOT).as_posix()] = ast.get_docstring(tree) or ""
    return {(name, word) for name, text in texts.items()
            for word in re.findall(r"^\s*loopsim\s+(\S+)", text, re.M)}


def test_documented_commands_are_the_cli_subcommands():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    documented = _documented_commands()
    assert {(name, word) for name, word in documented if word not in commands.choices} == set()
    assert set(commands.choices) <= {word for name, word in documented if name == "README.md"}


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
