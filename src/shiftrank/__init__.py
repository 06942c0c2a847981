"""shiftrank: certified exact rank intervals on the crossed product of the full shift."""

from .crossed import (
    CrossedElement,
    TruncatedElement,
    supports_level,
    truncate,
    truncation_epsilon,
)
from .engine import RankInterval, auto_refine, rank_interval, rank_report
from .errors import (
    BadConfig,
    BadLetter,
    DivisionByZero,
    ExprSyntaxError,
    IndexOutOfRange,
    LevelMismatch,
    LevelTooSmall,
    MalformedSegment,
    ShiftRankError,
    ZeroEvaluationPoint,
)
from .expressions import parse_expr, render_element
from .fields import QQ, Field, ModInt, PrimeField, RationalField, field_from_spec
from .laurent import LaurentPoly
from .linalg import laurent_evaluate, laurent_matrix_rank, matrix_rank, minor_expansion_rank
from .periodic import PeriodicPoint, evaluation_rank, periodic_rank_kt, psi_laurent, rho_finite
from .represent import (
    WordMatrix,
    matrix_unit_element,
    occurrence_project,
    occurrences,
    project_element,
    project_matrix,
    segment_element,
)
from .space import (
    BINARY,
    ClopenSet,
    LocallyConstantFn,
    SystemConfig,
    cylinder,
    level_base,
    parse_system,
)
from .towers import (
    LevelScheme,
    ReturnWord,
    TowerFamily,
    bratteli_edges,
    bratteli_export,
    enumerate_return_words,
    get_family,
    iter_return_words,
    mass_deficit,
    tower_tail,
    verify_mass_identity,
)

__version__ = "0.1.0"
