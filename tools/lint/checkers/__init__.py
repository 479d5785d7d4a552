"""Checker registry: every rule the lint suite runs, in code order.

Adding a checker (full recipe in ``docs/static-analysis.md``): write a
:class:`~tools.lint.core.Checker` (one file at a time) or
:class:`~tools.lint.core.RepoChecker` (whole checkout) subclass in a
module here, give it a stable unused ``RL`` code, append an instance to
:data:`ALL_CHECKERS`, add positive + negative fixture tests to
``tests/test_lint.py``, and document the code in the rule table.
"""

from .boundary import SubmitPicklableChecker, TaskFieldChecker
from .deadcode import DeadModuleChecker
from .determinism import DeterminismChecker
from .docs import (CliExampleChecker, CrossRefChecker, DocLinkChecker,
                   DocNameChecker, DocstringChecker)
from .envreg import EnvRegistryChecker
from .exceptions import ExceptionHygieneChecker
from .slots import SlotsChecker

#: The suite, in rule-code order.
ALL_CHECKERS = (
    DeterminismChecker(),
    ExceptionHygieneChecker(),
    SubmitPicklableChecker(),
    TaskFieldChecker(),
    SlotsChecker(),
    EnvRegistryChecker(),
    DocLinkChecker(),
    CliExampleChecker(),
    DocstringChecker(),
    CrossRefChecker(),
    DocNameChecker(),
    DeadModuleChecker(),
)

__all__ = ["ALL_CHECKERS"]
