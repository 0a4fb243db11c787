"""Custom Function Unit abstraction: interface, emulation, RTL, testing."""

from .interface import CfuError, CfuModel, NullCfu, cfu_op, make_cfu_macro
from .rtl import CfuPorts, CombinationalCfu, RtlCfu, RtlCfuAdapter
from .testing import (
    FirmwareRun,
    GoldenReport,
    assert_equivalent,
    assert_firmware_equivalent,
    random_sequence,
    run_firmware,
    run_sequence,
)

__all__ = [
    "CfuError",
    "CfuModel",
    "CfuPorts",
    "CombinationalCfu",
    "FirmwareRun",
    "GoldenReport",
    "NullCfu",
    "RtlCfu",
    "RtlCfuAdapter",
    "assert_equivalent",
    "assert_firmware_equivalent",
    "cfu_op",
    "make_cfu_macro",
    "random_sequence",
    "run_firmware",
    "run_sequence",
]
