"""Check that importing cablecal and its CLI loads the standard library only.

    python -S tests/stdlib_only.py [PATH ...]

Imports ``cablecal`` and ``cablecal.cli`` with PATH put first on
``sys.path`` (by default the site directories, where an installed wheel
lives) and exits 1 naming every loaded module that is neither in
``sys.stdlib_module_names`` nor part of ``cablecal``.  ``pyproject.toml``
declares ``dependencies = []``; a third-party import that the host happens
to have installed would pass every other test.  Run it with ``-S``, so that
no ``.pth`` file in a site directory imports anything first.
"""

import site
import sys

sys.path[0:0] = sys.argv[1:] or site.getsitepackages()

import cablecal
import cablecal.cli

foreign = sorted(
    name
    for name in sys.modules
    if name.partition(".")[0] not in (*sys.stdlib_module_names, "cablecal", "__main__")
)
if foreign:
    sys.exit(f"importing cablecal loaded modules outside the standard library: {', '.join(foreign)}")
print(f"cablecal from {cablecal.__file__}: {len(sys.modules)} modules loaded, all standard library or cablecal")
