"""Shared pytest setup.

pyproject.toml turns every warning into an error.  When a ``hypothesis``
test fails, the hypothesis pytest plugin imports
``hypothesis.extra._patching`` inside the report hook, and that import
chain (libcst, then ``mypy_extensions``) emits a ``DeprecationWarning``.
Raised inside the hook, it stops the run with INTERNALERROR, so one
failing property test would hide every test after it.  Importing the
module once here, with its warnings silenced, makes the plugin's later
import a cache hit; the warning filters themselves stay as they are.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:     # the plugin skips its patch suggestion too
        pass
