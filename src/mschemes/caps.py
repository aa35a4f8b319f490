"""Resource caps.

All enumeration-heavy operations check a cap before materializing anything
big, so a typo in parameters fails fast instead of hanging.  The tuple-space
cap can be overridden with the MSCHEME_CAP_TUPLES environment variable, which
the CLI's --cap sets for the duration of one command.  Groups have no cap:
they are never enumerated, only acted on through generator permutations.
"""
from __future__ import annotations

import os

MAX_ELL = 251
MAX_DIM = 16
DEFAULT_CAP_TUPLES = 2 ** 24
# linear maps V^k -> V^k' enumerated exhaustively: ell^(k*k') entries
DEFAULT_CAP_MAPS = 2 ** 20
# groupoid saturation: distinct partial bijections
DEFAULT_BUDGET_SATURATION = 10 ** 6


def cap_tuples() -> int:
    val = os.environ.get("MSCHEME_CAP_TUPLES")
    return int(val) if val is not None else DEFAULT_CAP_TUPLES
