"""The one way the config tests patch a scenario config and list its keys.

A key path is a dotted string of the dict keys and list indices that lead
to a value, such as "system.drift.a.1.1" for the second row's second entry
of a tanh drift's matrix. A patch maps key paths to values, or to DELETE.
"""

import copy
import functools
import operator


class _Delete:
    def __repr__(self):
        return "DELETE"


#: The value of a patch that deletes its key instead of setting it.
DELETE = _Delete()


def _keys(path):
    return [int(key) if key.isdigit() else key for key in path.split(".")]


def patched(config, patch):
    """A copy of config with each key path of patch set to its value, or
    deleted where the value is DELETE, in the order that patch lists them."""
    config = copy.deepcopy(config)
    for path, value in patch.items():
        *parents, last = _keys(path)
        node = functools.reduce(operator.getitem, parents, config)
        if value is DELETE:
            del node[last]
        else:
            node[last] = copy.deepcopy(value)
    return config


def key_paths(node, prefix=""):
    """The key path of every dict key and list entry under node, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        path = f"{prefix}{key}"
        yield path
        yield from key_paths(value, f"{path}.")
