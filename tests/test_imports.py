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


def owner_free_nodes(tree: ast.Module, owners: set):
    """Every node of tree outside the functions and classes named in owners."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in owners:
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def constants(node: ast.AST) -> set:
    return {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)}


def sample_range_sites(tree: ast.Module, owners: set):
    """Lines of the comparisons, in the functions not named in owners, that
    name sample_max or a name the function binds to what it returns."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name not in owners:
            bound = {"sample_max"}
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and "sample_max" in names(node.value):
                    bound |= {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            for node in ast.walk(fn):
                if isinstance(node, ast.Compare) and names(node) & bound:
                    yield node.lineno


def rule_sites(tree: ast.Module, module: str):
    """(rule, line) of each statement of a coding rule outside its owner:
    the bit-depth range and the sample ceiling (codec.sample_max), the qp
    range (codec.check_qp), the codec ids (codec.codec_id), a frame's rank
    (codec._check_frame_shape), its samples' range (codec._check_samples)
    and the label's UTF-8 encoding (tensor.label_bytes)."""
    owners = {
        "codec.py": {"sample_max", "check_qp", "codec_id", "_check_frame_shape", "_check_samples"},
        "tensor.py": {"label_bytes"},
    }.get(module, set())
    for line in sample_range_sites(tree, owners):
        yield "sample range", line
    for node in owner_free_nodes(tree, owners):
        if (
            isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
            and "CodecId" in names(node)
        ):
            yield "codec ids", node.lineno
        if isinstance(node, ast.Raise) and any("no codec registered" in str(c) for c in constants(node)):
            yield "codec ids", node.lineno
        if isinstance(node, ast.Compare) and {8, 16} <= constants(node):
            yield "bit depth range", node.lineno
        if isinstance(node, ast.Compare) and {0, 63} <= constants(node):
            yield "qp range", node.lineno
        # vcm.py's pixel sequences are a format of their own: frames of 1-16
        # bit samples.
        if (
            module != "vcm.py"
            and isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.LShift)
            and isinstance(node.left, ast.Constant)
            and node.left.value == 1
            and "bit_depth" in names(node.right)
        ):
            yield "sample ceiling", node.lineno
        if module != "vcm.py" and isinstance(node, ast.Compare) and "ndim" in names(node) and 2 in constants(node):
            yield "frame rank", node.lineno
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "encode"
            and {"utf-8", "utf8"} & {str(c).lower() for c in constants(node)}
        ):
            yield "UTF-8 label", node.lineno


# Each coding rule is stated once, in the module that owns the format it
# describes, and every other module calls its owner.
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_each_coding_rule_stated_by_its_owner_only(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert list(rule_sites(tree, module)) == []


def integer_type_tests(tree: ast.Module):
    """Lines that test a value's type for an integer: every np.integer, and
    every isinstance call that names bool."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "integer":
            yield node.lineno
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and "bool" in names(node):
            yield node.lineno


# `errors.integer_in` is the one rule for an integer field of any value type.
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "errors.py"))
def test_integer_fields_checked_in_errors_only(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert list(integer_type_tests(tree)) == []


# `tensor._float64_chunks` is the one float64 chunk walker, for every
# elementwise stage and every sum: no other module names its chunk size, so
# none walks chunks of its own.
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "tensor.py"))
def test_chunk_size_named_in_tensor_only(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert "_CHUNK" not in names(tree) | set(imported_names(tree))


def import_sources(tree: ast.Module) -> set:
    """The last dotted part of every module that tree imports from."""
    sources = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sources |= {node.module or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            sources |= {alias.name for alias in node.names}
    return {source.rpartition(".")[2] for source in sources}


# vcm.py's pixel sequences are a format of their own: it shares errors.py
# with the feature codec, and nothing of codec.py.
def test_vcm_imports_nothing_from_codec():
    assert "codec" not in import_sources(ast.parse((SRC / "vcm.py").read_text(encoding="utf-8")))


# The frame codecs need nothing of the feature tensors: the BLOCK_DCT encoder
# fills its transform chunks from the frame itself.
def test_codec_imports_nothing_from_tensor():
    assert "tensor" not in import_sources(ast.parse((SRC / "codec.py").read_text(encoding="utf-8")))


def masked_gathers(tree: ast.Module):
    """(function, line) of each subscript whose index is a comparison, or a
    name that its function binds to one: a boolean-mask gather or scatter."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        masks = {
            target.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Compare)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(fn):
            index = node.slice if isinstance(node, ast.Subscript) else None
            if isinstance(index, ast.Compare) or (isinstance(index, ast.Name) and index.id in masks):
                yield fn.name, node.lineno


# numpy's boolean-mask indexing branches on every element and mispredicts on
# sparse masks: on perfbench's pyramid_dct levels, about 40% nonzero, the
# BLOCK_DCT encoder's masked gather took 405 of the 560 us that its pair
# symbols took per P3 frame. The codec indexes by position instead.
def test_codec_gathers_by_position_not_by_mask():
    tree = ast.parse((SRC / "codec.py").read_text(encoding="utf-8"))
    assert list(masked_gathers(tree)) == []
