"""rootspin: exact combinatorics of zero signed root sums on flag manifolds."""

from .certs import CertificateFamily, assembled_witness, certificate, lower_bound, verify
from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InternalCheckError,
    InvalidRankError,
    LengthMismatchError,
    ResourceLimitError,
    RootspinError,
)
from .rootsys import FamilyRank, RootSystem, format_root_list, positive_roots, root_count
from .sigsum import (
    CountResult,
    ExistenceResult,
    LatticeBasis,
    ObstructionResult,
    analyze,
    count,
    count_bruteforce,
    count_mitm,
    enumerate_zero_signs,
    exists_strong_dependence,
    hnf,
    obstruction_2L,
    signed_sum,
)
from .spinor import Scalar, SpinorElement, act_e, act_x, act_y, cartan_act, invariant_dimension

__version__ = "0.1.0"

__all__ = [
    "CertificateFamily",
    "CountResult",
    "DimensionMismatchError",
    "ExistenceResult",
    "FamilyRank",
    "IndexOutOfRangeError",
    "InternalCheckError",
    "InvalidRankError",
    "LatticeBasis",
    "LengthMismatchError",
    "ObstructionResult",
    "ResourceLimitError",
    "RootSystem",
    "RootspinError",
    "Scalar",
    "SpinorElement",
    "act_e",
    "act_x",
    "act_y",
    "analyze",
    "assembled_witness",
    "cartan_act",
    "certificate",
    "count",
    "count_bruteforce",
    "count_mitm",
    "enumerate_zero_signs",
    "exists_strong_dependence",
    "format_root_list",
    "hnf",
    "invariant_dimension",
    "lower_bound",
    "obstruction_2L",
    "positive_roots",
    "root_count",
    "signed_sum",
    "verify",
]
