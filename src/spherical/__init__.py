"""Spherical permutations: four equivalent classifiers and the symmetric
group combinatorics behind them.

Composition is ``u * w``: apply w first, then u.
"""

from .bruhat import (
    BruhatInterval,
    bruhat_leq,
    build_interval,
    first_dominance_failure,
    is_boolean_lattice,
)
from .classify import (
    BACKENDS,
    CrossCheckReport,
    Disagreement,
    PatternCatalog,
    catalog,
    cross_check,
    explain,
    is_spherical,
    parabolic_quotient,
    verify_catalog_characterizations,
)
from .divisibility import DivisibilityWitness, is_divisible
from .permutations import (
    GeneratorSet,
    PatternOccurrence,
    Permutation,
    avoids_all,
    first_pattern_occurrence,
    longest_parabolic,
    relative_order,
    symmetric_group,
)
from .reduced_words import (
    enumerate_reduced_words,
    is_boolean_by_words,
    repetition_free_word,
    spherical_witness_word,
    word_to_permutation,
    word_to_text,
)
from .tree import DensityRow, density_table

__all__ = [
    "BACKENDS",
    "BruhatInterval",
    "CrossCheckReport",
    "DensityRow",
    "Disagreement",
    "DivisibilityWitness",
    "GeneratorSet",
    "PatternCatalog",
    "PatternOccurrence",
    "Permutation",
    "avoids_all",
    "bruhat_leq",
    "build_interval",
    "catalog",
    "cross_check",
    "density_table",
    "enumerate_reduced_words",
    "explain",
    "first_dominance_failure",
    "first_pattern_occurrence",
    "is_boolean_by_words",
    "is_boolean_lattice",
    "is_divisible",
    "is_spherical",
    "longest_parabolic",
    "parabolic_quotient",
    "relative_order",
    "repetition_free_word",
    "spherical_witness_word",
    "symmetric_group",
    "verify_catalog_characterizations",
    "word_to_permutation",
    "word_to_text",
]
