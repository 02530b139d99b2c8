"""RIS-assisted radar vital-sign monitoring simulator."""

__version__ = "0.4.0"

from .scenario import Scenario
from .strategy import StrategyConfig
