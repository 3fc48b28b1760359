"""Percentile rank class attribution with exact rational arithmetic.

Rank documents by citation count, give each one its exact quantile interval,
attribute it to percentile rank classes under four counting rules, and compute
the I3, R and PP indicators, flagging every point that lands exactly on a
class boundary.
"""

from .cli import __version__, main
from .errors import (
    BoundaryAmbiguityError,
    ConfigError,
    DataError,
    PctrankError,
    SchemeError,
)
from .io import (
    DEFAULT_GROUP,
    DEFAULT_PRECISION,
    SCHEMA_VERSION,
    decimal_str,
    interval_percent_str,
    partition_by_group,
    percent_str,
    read_records,
    render_attributions,
    render_indicators,
    render_report,
    render_scheme_detail,
    render_scheme_list,
)
from .indicators import (
    AmbiguityReport,
    BoundaryFlag,
    ClassCounts,
    IndicatorResult,
    RuleDisagreement,
    class_counts,
    compare_rules,
    compute_indicators,
    i3,
    per_doc_score,
    pp_top,
    r_indicator,
)
from .model import (
    BUILTIN_SCHEME_NAMES,
    CitationRecord,
    DocumentSet,
    PRClass,
    PRScheme,
    builtin_scheme,
    load_custom_scheme,
    parse_fraction,
    scheme_from_boundaries,
    scheme_to_document,
    theoretical_total,
    topx_scheme,
)
from .ranking import QuantileInterval, RankedSet, TieGroup, interval_for, rank
from .scoring import (
    POINT_RULES,
    Attribution,
    BoundaryPolicy,
    CountingRule,
    FractionalAttribution,
    MidpointRoute,
    PointAttribution,
    RoundingMode,
    attribute_all,
)

# The names README "Library" documents, with the enums and errors they take
# or raise; the other imports above stay importable from the package.
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
    "rank",
    "read_records",
    "render_attributions",
]
