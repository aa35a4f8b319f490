"""Resource caps.

All enumeration-heavy operations check a cap before building anything
big, so a typo in parameters fails fast instead of hanging.  The tuple-space
cap is a value of each `Field` (`Field(ell, dim, cap_tuples=...)`, default
DEFAULT_CAP_TUPLES); every tuple-cap check reads it from the field in hand.
Groups have no cap: they are never enumerated, only acted on through
generator permutations.
"""
from __future__ import annotations

MAX_ELL = 251
MAX_DIM = 16
DEFAULT_CAP_TUPLES = 2 ** 24
# linear maps V^k -> V^k' enumerated exhaustively: ell^(k*k') entries
DEFAULT_CAP_MAPS = 2 ** 20
# strong antisymmetry: forward generators whose Schreier loops are checked
DEFAULT_BUDGET_SATURATION = 10 ** 6
