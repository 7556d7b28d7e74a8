"""The docstring examples run, with the package's public names in scope."""

import doctest
import importlib
import pkgutil

import dlagraph


def test_docstring_examples_pass():
    public = {name: getattr(dlagraph, name) for name in dlagraph.__all__}
    attempted = 0
    failed = {}
    for info in pkgutil.iter_modules(dlagraph.__path__):
        module = importlib.import_module(f"dlagraph.{info.name}")
        result = doctest.testmod(module, extraglobs=public, report=False)
        attempted += result.attempted
        if result.failed:
            failed[info.name] = result.failed
    assert not failed, f"failing docstring examples per module: {failed}"
    assert attempted >= 10
