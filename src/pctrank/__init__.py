"""Percentile rank class attribution with exact rational arithmetic.

Rank documents by citation count, give each one its exact quantile interval,
attribute it to percentile rank classes under four counting rules, and compute
the I3, R and PP indicators, flagging every point that lands exactly on a
class boundary.
"""

from .cli import __version__, main
from .indicators import (
    AmbiguityReport,
    BoundaryFlag,
    ClassCounts,
    IndicatorResult,
    RuleDisagreement,
    compare_rules,
    compute_indicators,
)
from .io import read_records, render_attributions
from .model import (
    BoundaryAmbiguityError,
    CitationRecord,
    ConfigError,
    DataError,
    DocumentSet,
    PctrankError,
    PRClass,
    PRScheme,
    QuantileInterval,
    RankedSet,
    SchemeError,
    TieGroup,
    builtin_scheme,
    interval_for,
    rank,
    theoretical_total,
)
from .scoring import (
    BoundaryPolicy,
    CountingRule,
    FractionalAttribution,
    MidpointRoute,
    PointAttribution,
    RoundingMode,
    attribute_all,
)

# The names README "Library" documents, with the enums and errors they take
# or raise. Other names are imported from their module, such as `pctrank.io`.
__all__ = [
    "AmbiguityReport",
    "BoundaryAmbiguityError",
    "BoundaryFlag",
    "BoundaryPolicy",
    "CitationRecord",
    "ClassCounts",
    "CountingRule",
    "DataError",
    "DocumentSet",
    "FractionalAttribution",
    "IndicatorResult",
    "MidpointRoute",
    "PRClass",
    "PRScheme",
    "PointAttribution",
    "QuantileInterval",
    "RankedSet",
    "RoundingMode",
    "RuleDisagreement",
    "SchemeError",
    "TieGroup",
    "attribute_all",
    "builtin_scheme",
    "compare_rules",
    "compute_indicators",
    "interval_for",
    "rank",
    "read_records",
    "render_attributions",
    "theoretical_total",
]
