"""The benchmark's layer tracer (``perfbench/layertrace.py``) wraps pipeline
functions by module and name, and some of its hooks bind the wrapped
function's arguments by name.  A rename on either side would turn a traced
layer into zeros (or fail the traced run) without failing any pipeline
test, so these checks pin both."""

import importlib.util
import inspect
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", os.path.join(ROOT, "perfbench", "layertrace.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bound_names(hook) -> set:
    """Argument names a hook reads from ``bound.arguments``."""
    return set(re.findall(r'bound\.arguments\["(\w+)"\]', inspect.getsource(hook)))


def test_every_layer_entry_resolves():
    lt = _layertrace()
    missing = [f"{m}.{q}" for _, m, q, _ in lt.ENTRIES if lt._resolve(m, q) is None]
    assert missing == []
    assert all(hasattr(lt.Tracer, hook) for *_, hook in lt.ENTRIES)


def test_bound_argument_names_exist():
    lt = _layertrace()
    bound = {}
    for _, module, qualname, hook in lt.ENTRIES:
        names = _bound_names(getattr(lt.Tracer, hook))
        if names:
            params = set(inspect.signature(lt._resolve(module, qualname)[2]).parameters)
            assert names <= params, (qualname, names - params)
            bound[qualname] = names
    assert bound == {
        "verify_pairs": {"pairs", "lsh_cfg", "tau"},
        "assign_clusters": {"edges"},
        "hash_exchange": {"ds", "pkey_col", "num_partitions"},
    }
