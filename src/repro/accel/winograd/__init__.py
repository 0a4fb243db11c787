"""The Winograd F(2x2,3x3) CFU family: model, gateware, resources."""

from ... import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "model": ["CFG_BIAS", "CFG_CHANNEL", "CFG_DEPTH", "CFG_MULT",
              "CFG_OUTPUT", "CFG_RESET", "CFG_RESTART", "CFG_SHIFT",
              "F3_CONFIG", "F3_RUN_DW", "F3_RUN_PW", "F3_STATE",
              "F3_WRITE_FILT", "F3_WRITE_INPUT", "WinogradCfu",
              "transform_filter"],
    "resources": ["winograd_resources"],
    "rtl": ["WinogradRtl"],
})
