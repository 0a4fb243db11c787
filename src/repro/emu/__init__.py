"""System emulation: Renode-style ISA+RTL co-simulation and VCD capture."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "renode": ["Emulator"],
    "sessions": ["SessionClient", "SessionManager", "SessionServerThread"],
    "waveform": ["VcdWriter", "capture_cfu_waveform"],
})
