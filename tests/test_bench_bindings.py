import importlib

from conftest import load_fdbench_module


def test_every_name_the_traced_benchmark_binds_resolves():
    # fdbench/tracing.py wraps these attributes by name; a rename would break only the traced benchmark
    tracing = load_fdbench_module("tracing")
    missing = []
    for owner_path, attr, _ in tracing.TARGETS:
        mod_name, _, cls_name = owner_path.partition(":")
        owner = importlib.import_module(mod_name)
        if cls_name:
            owner = getattr(owner, cls_name)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{owner_path}.{attr}")
    assert missing == []
