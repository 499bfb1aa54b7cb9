"""Source-layout guards: each of these decisions is written in one place.

``measurement._shifted_fft`` is the only place that calls ``np.fft.fft``,
and only ``measurement.py`` uses it: every kernel, posterior and cost
table (``_kernel_on_grid``, ``_cost_on_grid``) goes through it there.
``states._freeze`` is the only place that makes a value object's array
read-only. The package re-exports its modules' ``__all__`` by ``*``
imports, so each public name is listed once, in its module. The CLI's
options are added only by ``cli._build_parser``, from its one table, and
only ``cli.main`` prints a result through ``cli._emit``. Only
``cost._circulant_eigenvalues`` takes the real DFT of a symmetric
circulant's column, for the matvec's embedding and the solver's
preconditioner alike. Only ``cost._cost_forms`` picks, point by point,
the form of a cost that does not cancel, for ``cost.evaluate_cost`` and
``measurement._cost_on_grid`` alike. The library runs on the caller's
thread: no module imports a thread or process pool. The one ``qclock``
logger is made at the top of ``states.py``, and only ``states._record``
writes on it, one DEBUG record in one ``layer: name=value ...`` format.
The solver takes every vector norm with ``solver._norm``: no module calls
``np.linalg.norm``.
"""

import ast
from pathlib import Path

import qclock

SOURCES = sorted(Path(qclock.__file__).parent.glob("*.py"))


def _enclosing_functions(tree):
    """Yield (node, name of the innermost enclosing function or None)."""
    stack = [(tree, None)]
    while stack:
        node, function = stack.pop()
        yield node, function
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        stack.extend((child, function) for child in ast.iter_child_nodes(node))


def _is_np_fft_fft(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "fft"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "fft"
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id in ("np", "numpy")
    )


def _names_shifted_fft(node):
    if isinstance(node, ast.Name):
        return node.id == "_shifted_fft"
    if isinstance(node, ast.Attribute):
        return node.attr == "_shifted_fft"
    if isinstance(node, ast.alias):
        return node.name == "_shifted_fft"
    return False


def test_one_complex_transform_used_only_in_measurement():
    fft_sites, users = set(), set()
    for path in SOURCES:
        for node, function in _enclosing_functions(ast.parse(path.read_text())):
            if _is_np_fft_fft(node):
                fft_sites.add((path.name, function))
            if _names_shifted_fft(node):
                users.add(path.name)
    assert fft_sites == {("measurement.py", "_shifted_fft")}
    assert users == {"measurement.py"}


def _is_flags_writeable(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "writeable"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "flags"
    )


def test_arrays_are_frozen_only_by_one_helper():
    sites = [
        (path.name, function)
        for path in SOURCES
        for node, function in _enclosing_functions(ast.parse(path.read_text()))
        if isinstance(node, ast.Assign) and any(map(_is_flags_writeable, node.targets))
    ]
    assert sites == [("states.py", "_freeze")]


def test_package_imports_its_modules_names_only_by_star():
    tree = ast.parse(Path(qclock.__file__).read_text())
    explicit = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module is not None
        for alias in node.names
        if alias.name != "*"
    ]
    assert explicit == []


def _called_name(node):
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        if isinstance(node.func, ast.Name):
            return node.func.id
    return None


def test_cli_options_are_built_in_one_place_and_printed_by_main():
    tree = ast.parse((Path(qclock.__file__).parent / "cli.py").read_text())
    parser_sites, emit_sites = set(), set()
    for node, function in _enclosing_functions(tree):
        name = _called_name(node)
        if name in ("add_argument", "add_parser"):
            parser_sites.add(function)
        if name == "_emit":
            emit_sites.add(function)
    assert parser_sites == {"_build_parser"}
    assert emit_sites == {"main"}


def _is_real_of_rfft(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "real"
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr == "rfft"
    )


def test_one_circulant_eigenvalue_builder():
    sites = [
        (path.name, function)
        for path in SOURCES
        for node, function in _enclosing_functions(ast.parse(path.read_text()))
        if _is_real_of_rfft(node)
    ]
    assert sites == [("cost.py", "_circulant_eigenvalues")]


def test_one_cost_form_rule():
    definitions, callers = [], set()
    for path in SOURCES:
        for node, function in _enclosing_functions(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "_cost_forms":
                definitions.append(path.name)
            if _called_name(node) == "_cost_forms":
                callers.add((path.name, function))
    assert definitions == ["cost.py"]
    assert callers == {("cost.py", "evaluate_cost"), ("measurement.py", "_cost_on_grid")}


def test_one_logger_and_one_debug_record_helper():
    loggers, debug_sites = [], set()
    for path in SOURCES:
        for node, function in _enclosing_functions(ast.parse(path.read_text())):
            name = _called_name(node)
            if name == "getLogger":
                loggers.append((path.name, function, ast.literal_eval(node.args[0])))
            if name == "debug":
                debug_sites.add((path.name, function))
    assert loggers == [("states.py", None, "qclock")]
    assert debug_sites == {("states.py", "_record")}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_threads_or_processes():
    banned = {"threading", "concurrent", "multiprocessing"}
    imports = {
        (path.name, module)
        for path in SOURCES
        for module in _imported_modules(ast.parse(path.read_text()))
        if module.split(".")[0] in banned
    }
    assert imports == set()


def _is_linalg_norm(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "norm"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "linalg"
    )


def test_no_module_calls_np_linalg_norm():
    sites = [
        (path.name, node.lineno)
        for path in SOURCES
        for node, _ in _enclosing_functions(ast.parse(path.read_text()))
        if _is_linalg_norm(node)
    ]
    assert sites == []
