"""Terminal rendering helpers for experiment outputs."""

from .tables import render_table
from .charts import bar_chart

__all__ = ["render_table", "bar_chart"]
