"""Exact framed Homfly invariants of the decorated Hopf link."""

from .ring import (
    ConsistencyError,
    LaurentPoly,
    RingElem,
    determinant,
    det_fractions,
    format_poly,
    format_ring_elem,
    parse_poly,
    parse_ring_elem,
    ring_elem_from_json,
    ring_elem_to_json,
)
from .partitions import (
    EMPTY,
    Partition,
    column_partition,
    hook_partition,
    partitions_of,
    partitions_up_to,
    pieri_column,
    row_partition,
)
from .series import (
    TruncatedSeries,
    required_degree,
    schur_of_series,
)
from .hopf import (
    complete_series,
    content_polynomial,
    curl_identity_check,
    elementary_series,
    elementary_series_by_rows,
    elementary_series_empty,
    eval_unknot,
    framing_factor,
    hopf_column_row_closed,
    hopf_invariant,
)
from .sln import (
    Sl2Check,
    SlNResult,
    hopf_sln_minor,
    hopf_sln_substitution,
    sl2_quantum_check,
    vandermonde_minor,
)

__version__ = "0.1.0"
