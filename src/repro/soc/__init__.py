"""SoC construction: bus, CSRs, peripherals, builder, linker (LiteX stand-in)."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bus": ["BusError", "RamBacking", "SocBus"],
    "csr": ["CsrBank", "CsrRegister"],
    "linker": ["ImageLayout", "LinkError", "image_sections", "link"],
    "peripherals": ["CtrlRegisters", "DebugBridge", "Peripheral",
                    "SdramController", "SpiFlashController", "Timer", "Uart",
                    "UsbBridge"],
    "soc": ["CSR_BASE", "FLASH_BASE", "MAIN_RAM_BASE", "SRAM_BASE", "Soc"],
})
