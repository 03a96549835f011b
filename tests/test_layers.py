"""The functions that perfbench times as layers stay traceable.

``perfbench/spans.py`` wraps a module's public functions only where
``inspect.isfunction`` holds and the function is the module's own.  A
``functools.cache`` or ``lru_cache`` decorator makes it a wrapper object
instead, and the layer would drop out of the per-layer metrics unseen.
"""

import inspect

import pytest

from biasforge import bounds, cli, distill, gadget, noise

LAYERS = [
    (bounds, "breakdown"),
    (bounds, "e_xl_bound"),
    (bounds, "e_zl_bound"),
    (distill, "rm15_code"),
    (distill, "rm15_map"),
    (distill, "rm15_acceptance"),
    (distill, "plan"),
    (gadget, "enumerate_branches"),
    (gadget, "correction_table"),
    (noise, "enumerate_faults"),
    (noise, "estimate_rates_mc"),
    (cli, "main"),
]


@pytest.mark.parametrize("module, name", LAYERS, ids=[f"{m.__name__}.{n}" for m, n in LAYERS])
def test_layer_is_a_plain_function(module, name):
    fn = getattr(module, name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == module.__name__
