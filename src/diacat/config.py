"""Resource caps.

Desk-scale guardrails: constructions refuse to allocate structure tensors
above a dimension cap (the tensors grow cubically), and brute-force
enumerations refuse above a candidate cap.  The DIACAT_MAX_DIM environment
variable sets the dimension cap, and nothing else; the candidate cap is a
per-call argument (``--cap`` on the command line).
"""

from __future__ import annotations

import os

from .errors import ParseError, ResourceCapExceeded
from .fields import Field, Rationals

DEFAULT_MAX_DIM_FP = 512
DEFAULT_MAX_DIM_Q = 128
DEFAULT_SEARCH_CAP = 2 ** 20


def max_dim(field: Field) -> int:
    env = os.environ.get("DIACAT_MAX_DIM")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(
                f"DIACAT_MAX_DIM must be an integer, got {env!r}") from None
    if isinstance(field, Rationals):
        return DEFAULT_MAX_DIM_Q
    return DEFAULT_MAX_DIM_FP


def guard_dim(field: Field, dim: int):
    cap = max_dim(field)
    if dim > cap:
        raise ResourceCapExceeded(dim, cap, field.name)
