import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "fcmcodec"


def imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


# __init__.py imports names only to export them.
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def names(node: ast.AST) -> set:
    """Every name, and every attribute's name, inside node."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}


def classifying_handlers(tree: ast.Module):
    """Lines of the except clauses that catch DomainError or
    UnicodeDecodeError and name InvariantError in their body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            body = set().union(*map(names, node.body))
            if names(node.type) & {"DomainError", "UnicodeDecodeError"} and "InvariantError" in body:
                yield node.lineno


# `errors.ByteReader.build` and `.text` are the one place where a value read
# from bytes that its type refuses becomes an InvariantError.
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "errors.py"))
def test_bytes_refused_by_a_value_type_classified_in_errors_only(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert list(classifying_handlers(tree)) == []
