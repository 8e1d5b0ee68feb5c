"""String, set, hybrid and numeric similarity measures.

:mod:`~repro.similarity.kernels` holds the per-pair interned-id twins of
the set-based measures; :mod:`~repro.similarity.batch` holds the
chunk-level batch-columnar kernels the hot loops route through. Both
return bit-identical values to the string references here. The
string-set references for the blocker probes, the blocking debugger and
feature extraction are test oracles in ``tests/oracles/string_paths.py``.
"""

from . import batch, kernels
from .extra import TfIdfCosine, affine_gap, bag_distance, bag_similarity
from .hybrid import SoftTfIdf, monge_elkan
from .numeric import (
    absolute_difference,
    exact_match,
    extract_year,
    relative_difference,
    year_gap,
    years_within,
)
from .sequence import (
    jaro,
    jaro_winkler,
    levenshtein_distance,
    levenshtein_similarity,
    needleman_wunsch,
    smith_waterman,
)
from .set_based import (
    cosine_bag,
    cosine_set,
    dice,
    jaccard,
    overlap_coefficient,
    overlap_size,
)

__all__ = [
    "SoftTfIdf",
    "TfIdfCosine",
    "affine_gap",
    "bag_distance",
    "bag_similarity",
    "absolute_difference",
    "batch",
    "cosine_bag",
    "cosine_set",
    "dice",
    "exact_match",
    "extract_year",
    "jaccard",
    "jaro",
    "jaro_winkler",
    "kernels",
    "levenshtein_distance",
    "levenshtein_similarity",
    "monge_elkan",
    "needleman_wunsch",
    "overlap_coefficient",
    "overlap_size",
    "relative_difference",
    "smith_waterman",
    "year_gap",
    "years_within",
]
