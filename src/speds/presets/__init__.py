"""Named run configurations, one per reproduced figure or control experiment.

Each preset is a checked-in JSON config file under ``speds/presets/``; the
CLI's ``--preset`` flag resolves names through this module, and ``--config``
accepts a file with the same schema.
"""

import json
from importlib import resources

from ..errors import InvalidInput

_PKG = __name__


def available_presets():
    """Sorted names of all bundled preset configs."""
    names = []
    for entry in resources.files(_PKG).iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[: -len(".json")])
    return sorted(names)


def load_preset(name):
    """The parsed config dict for a bundled preset, named as ``available_presets`` lists it.

    The name's file is opened directly; the directory is listed only to word
    the error for a name that is no bundled file (a path included).
    """
    entry = resources.files(_PKG) / f"{name}.json"
    if entry.name != f"{name}.json" or not entry.is_file():
        raise InvalidInput(
            f"unknown preset {name!r}; available: {', '.join(available_presets())}"
        )
    with entry.open() as fh:
        return json.load(fh)
