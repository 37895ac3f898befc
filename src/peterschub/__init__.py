"""Exact-arithmetic Schubert calculus on Peterson varieties.

Root systems are generated by reflection closure in simple-root
coordinates, Weyl group elements are handled as reduced words, every
class evaluation at a torus fixed point is one dynamic program over the
weak-order ideal below the class, with a subword sum over its reduced
words as the oracle, and Monk structure constants are read off a few
fixed points by Monk's rule and certified at all of them.
"""

from .billey import (
    LocalizationValue,
    billey_eval_bruteforce,
    billey_eval_dp,
    earliest_sound_window,
)
from .errors import InvariantViolation, Rejected
from .peterson import (
    class_eval,
    coxeter_word,
    expansion_residuals,
    full_subset,
    giambelli_eval,
    giambelli_ratio,
    monk_eval,
    monk_structure_constants,
)
from .rootsys import (
    LieTypeLabel,
    Root,
    RootSystem,
    build_root_system,
    height,
    highest_root,
    is_negative_root,
    is_positive_root,
    positive_count_formula,
    reflect,
    root_poset_covers,
)
from .weyl import (
    Word,
    act,
    braid_variant,
    element_matrix,
    element_words,
    inversion_root,
    inversion_roots,
    is_reduced,
    longest_element_word,
    reduced_words,
)

__version__ = "0.1.0"

__all__ = [
    "InvariantViolation",
    "LieTypeLabel",
    "LocalizationValue",
    "Rejected",
    "Root",
    "RootSystem",
    "Word",
    "act",
    "billey_eval_bruteforce",
    "billey_eval_dp",
    "braid_variant",
    "build_root_system",
    "class_eval",
    "coxeter_word",
    "earliest_sound_window",
    "element_matrix",
    "element_words",
    "expansion_residuals",
    "full_subset",
    "giambelli_eval",
    "giambelli_ratio",
    "height",
    "highest_root",
    "inversion_root",
    "inversion_roots",
    "is_negative_root",
    "is_positive_root",
    "is_reduced",
    "longest_element_word",
    "monk_eval",
    "monk_structure_constants",
    "positive_count_formula",
    "reduced_words",
    "reflect",
    "root_poset_covers",
    "__version__",
]
