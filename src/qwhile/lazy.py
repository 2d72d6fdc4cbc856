"""Module attributes that stand for a function of another module, which
is imported only when the attribute is first called."""
from __future__ import annotations

import importlib


def on_first_call(namespace: dict, module: str, name: str):
    """A stand-in for the function `name` of `module`, to be bound to
    `name` in `namespace` (a module's globals()). Its first call imports
    `module` and binds `name` to the function itself, so later calls go
    there directly. When `name` no longer holds the stand-in, because a
    caller such as a profiler has wrapped it, the binding is left alone
    and the stand-in passes each call on to the function."""
    def stand_in(*args, **kwargs):
        function = getattr(importlib.import_module(module), name)
        if namespace.get(name) is stand_in:
            namespace[name] = function
        return function(*args, **kwargs)

    stand_in.__name__ = stand_in.__qualname__ = name
    return stand_in
