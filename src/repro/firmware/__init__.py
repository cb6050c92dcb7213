"""Firmware containers, filesystems, extraction, and the boot model.

The pipeline stages mirror the paper's §IV implementation: a firmware
image arrives as an opaque blob; a Binwalk-style signature scanner
(:mod:`repro.firmware.binwalk`) drives the recursive UnpackParser
registry (:mod:`repro.firmware.unpack` + plugins in
:mod:`repro.firmware.parsers`), which carves the containers
(:mod:`repro.firmware.image`) and unpacks the filesystems
(:mod:`repro.firmware.simplefs`, :mod:`repro.firmware.logfs`,
:mod:`repro.firmware.cramfs`) down to the binary of interest, which
is loaded for analysis.  :mod:`repro.firmware.emulation` is
the FIRMADYNE-style full-system boot model behind Figure 1.
"""

from repro.firmware.binwalk import extract_tree, scan
from repro.firmware.image import FirmwareImage, pack_trx, pack_uimage
from repro.firmware.simplefs import SimpleFS
from repro.firmware.unpack import (
    ExtractionTree,
    RecursiveExtractor,
    UnpackParser,
    register,
    registered_parsers,
)

__all__ = [
    "ExtractionTree",
    "FirmwareImage",
    "RecursiveExtractor",
    "SimpleFS",
    "UnpackParser",
    "extract_tree",
    "pack_trx",
    "pack_uimage",
    "register",
    "registered_parsers",
    "scan",
]
