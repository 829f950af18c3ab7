"""The count hooks of labbench/layers.py read the wrapped functions'
arguments by name. A renamed parameter would fail only a traced benchmark
run of a workload that calls its function, so check the names here, read
from the hooks' source."""

import ast
import importlib
import inspect
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "labbench" / "layers.py"


def _hooked_parameters():
    """{"module.function": names the hook reads as arguments[name]}."""
    tree = ast.parse(LAYERS_PY.read_text())
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    hooked = {}
    for key, hook in zip(table.keys, table.values):
        if not isinstance(hook, ast.Lambda):
            continue
        args = hook.args.args[0].arg
        hooked[key.value] = {
            node.slice.value for node in ast.walk(hook.body)
            if isinstance(node, ast.Subscript)
            and getattr(node.value, "id", None) == args
            and isinstance(node.slice, ast.Constant)}
    return hooked


def test_count_hooks_read_parameters_of_their_functions():
    hooked = _hooked_parameters()
    read = set().union(*hooked.values())
    # the parameters README names; the parse must find at least these
    assert {"count", "n_bounces", "pts", "T", "n_centers", "path"} <= read
    for name, params in hooked.items():
        module, function = name.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"semiclass_lab.{module}"), function)
        missing = params - set(inspect.signature(fn).parameters)
        assert not missing, f"{name} has no parameter {sorted(missing)}"
