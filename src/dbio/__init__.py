"""Degradation-aware microgrid investment planning (DBIO pipeline).

Importing the package loads none of its submodules, so ``dbio.cli`` can set
the BLAS thread count before numpy loads. Library code imports from the
submodules (``dbio.scenario``, ``dbio.planning``, ...).
"""

__version__ = "0.1.0"


class DbioError(Exception):
    """Base of every error dbio raises on purpose. Each module's root error
    class (``ScenarioError``, ``MilpError``, ``ModelBuildError``,
    ``DegradationError``, ``ValidationError``, ``SizingError``) also keeps
    its builtin base (``ValueError`` or ``RuntimeError``)."""
