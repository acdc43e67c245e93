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
    """The parsed config dict for a bundled preset, named as ``available_presets`` lists it."""
    if name not in available_presets():
        raise InvalidInput(
            f"unknown preset {name!r}; available: {', '.join(available_presets())}"
        )
    with (resources.files(_PKG) / f"{name}.json").open() as fh:
        return json.load(fh)
