import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# names the benchmark worker replaces outside LAYERS: mark_phase times the
# final evaluation, and the tracer wraps the window source factory
PATCHED = [("capest", "monte_carlo_eval"), ("cli", "dine_estimate"),
           ("data", "window_batches"), ("cli", "window_batches")]


def test_benchmark_patch_sites_resolve():
    # perfbench looks these names up on the dicap modules at run time; a
    # prune that removes one breaks `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [site for layer in tracing.LAYERS.values() for site in layer]
    assert len(sites) >= 24
    for where, attr in sites + PATCHED:
        mod_name, _, cls_name = where.partition(".")
        owner = importlib.import_module(f"dicap.{mod_name}")
        if cls_name:
            owner = getattr(owner, cls_name)
        assert callable(getattr(owner, attr, None)), f"{where}.{attr}"
