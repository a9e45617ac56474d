"""The benchmark's seeded scenario documents, for tests that pin what the package makes of them."""

import importlib.util
import sys
from pathlib import Path


def bench_gen():
    """``bench/gen.py``, the generator of the benchmark's inputs, as a module."""
    name = "ledid_bench_gen"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


def workload_documents(seed):
    """The generated documents of every benchmark workload for ``seed``, by name."""
    gen = bench_gen()
    return {key: text for workload in gen.WORKLOADS
            for key, text in gen.make_workload(workload, seed).documents.items()}
