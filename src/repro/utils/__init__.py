"""Shared low-level helpers: bit manipulation and byte packing (the
analysis heap's collector pause lives in :mod:`repro.utils.heap`)."""

from repro.utils.bits import (
    align_up,
    bit,
    bits,
    ror32,
    sign_extend,
    to_signed32,
    to_unsigned32,
)

__all__ = [
    "align_up",
    "bit",
    "bits",
    "ror32",
    "sign_extend",
    "to_signed32",
    "to_unsigned32",
]
