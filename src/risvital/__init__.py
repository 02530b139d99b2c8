"""RIS-assisted radar vital-sign monitoring simulator."""

__version__ = "0.3.0"

from .scenario import Scenario
from .strategy import StrategyConfig
