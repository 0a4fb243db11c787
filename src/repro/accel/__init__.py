"""CFU gateware library: the MNV2 ladder CFUs (CFU1) and the KWS CFU (CFU2)."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "audio": ["FftButterflyCfu", "FftButterflyRtl", "cfu3_resources"],
    "library": ["ByteReverseCfu", "ByteReverseRtl", "LIBRARY", "MinMaxCfu",
                "MinMaxRtl", "PopcountCfu", "PopcountRtl", "SimdAddCfu",
                "SimdAddRtl"],
    "kws.model": ["KwsCfu"],
    "kws.rtl": ["KwsCfu2Rtl"],
    "mnv2.model": ["Mnv2Cfu"],
    "mnv2.resources": ["STAGES as MNV2_STAGES", "stage_resources"],
    "mnv2.rtl": ["Cfu1Rtl", "Mac4Rtl", "PostprocRtl"],
    "winograd": ["WinogradCfu", "WinogradRtl", "winograd_resources"],
})
