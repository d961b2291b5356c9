"""The benchmark's tracer names package functions by string: a renamed or
deleted function would silently zero the per-layer metric behind its name.
Every name it lists must be one that ``Tracer.install`` wraps."""
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
