"""bonematch: matching deficiency, induced-bone structure, levelling-matching
bounds, and the extremal constructions that attain them.

The package re-exports the ``__all__`` of each module below; see the module
docstrings for the contracts.
"""

from . import canon, errors, families, graphs, harness, lm, matching, serialize, structure
from .canon import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .families import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .lm import *  # noqa: F401,F403
from .matching import *  # noqa: F401,F403
from .serialize import *  # noqa: F401,F403
from .structure import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (canon, errors, families, graphs, harness, lm, matching, serialize,
                               structure) for name in module.__all__] + ["__version__"]
