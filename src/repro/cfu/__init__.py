"""Custom Function Unit abstraction: interface, emulation, RTL, testing."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "interface": ["CfuError", "CfuModel", "NullCfu", "cfu_op",
                  "make_cfu_macro"],
    "rtl": ["CfuPorts", "CombinationalCfu", "RtlCfu", "RtlCfuAdapter"],
    "testing": ["FirmwareRun", "GoldenReport", "assert_equivalent",
                "assert_firmware_equivalent", "random_sequence",
                "run_firmware", "run_sequence"],
})
