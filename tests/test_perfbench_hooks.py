"""The benchmark's tracer names package functions by string: a renamed or
deleted function would silently zero the per-layer metric behind its name.
Every name it lists must be one that ``Tracer.install`` wraps.  Its hooks
also import package classes and read ``RateBound`` attributes, whose
renaming would fail only a traced benchmark run."""
import ast
import importlib
import inspect
import pathlib
import types

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# deleted from the package; the benchmark still names it until its next change
KNOWN_STALE = {"beta.MonteCarloMixture.__call__"}


def _tracing():
    """perfbench/tracing.py as a module, executed from its text so that
    nothing is written next to it."""
    mod = types.ModuleType("perfbench_tracing")
    mod.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


def _wrapped(tracing, name: str) -> bool:
    """Whether ``install`` wraps ``name``: a function defined in its layer
    module, or a method defined in a class of that module."""
    layer, *path = name.split(".")
    if layer not in tracing.LAYERS or len(path) not in (1, 2):
        return False
    mod = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
    obj = vars(mod).get(path[0])
    if getattr(obj, "__module__", None) != mod.__name__:
        return False
    if len(path) == 1:
        return inspect.isfunction(obj)
    return inspect.isclass(obj) and inspect.isfunction(vars(obj).get(path[1]))


def test_every_traced_name_is_wrapped():
    tracing = _tracing()
    names = set(tracing.BUCKET_ROOTS) | set(tracing.Tracer()._hooks)
    stale = {name for name in names if not _wrapped(tracing, name)}
    assert stale <= KNOWN_STALE, f"traced names missing from the package: {sorted(stale - KNOWN_STALE)}"
    assert "samplers.nig_decay_estimate" in names and "samplers.finite_simulate" in names


def test_every_name_the_hooks_import_or_read_exists():
    """Each ``from wpgibbs... import X`` in the tracer names a package class,
    and each attribute it reads off a ``RateBound`` (``rb``) exists on one,
    on the closed-form path and on the numeric one."""
    from wpgibbs import GridKStar, Linear, RateBound

    tree = ast.parse(TRACING.read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wpgibbs")
                for alias in node.names]
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "rb"}
    assert {name for _, name in imported} >= {"GridKStar", "Clamped"}
    assert read >= {"_table", "saturated"}
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"tracer imports missing from the package: {missing}"
    for rb in (RateBound(Linear(1.0)), RateBound(GridKStar((0.1, 0.25), (0.01, 0.05)))):
        assert all(hasattr(rb, attr) for attr in read), sorted(a for a in read if not hasattr(rb, a))
