"""simlint rule modules.

Importing this package registers every rule with
:mod:`repro.analysis.registry`.  Add new rule modules to the import list
below; each rule documents its id, scope and rationale on the class.
"""

from __future__ import annotations

from . import (  # noqa: F401  — imported for registration side effects
    determinism,
    encapsulation,
    hygiene,
    numerics,
    speccheck,
    taint,
)
