"""Performance modeling: caches, memory technologies, cost/energy models,
the whole-model estimator, and the Cortex-M4/CMSIS-NN comparator."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "cache": ["Cache", "expected_miss_rate"],
    "cost": ["CaptureCosts", "CostBreakdown", "CostContext", "CostSnapshot",
             "SystemConfig"],
    "energy": ["ENERGY_PER_EVENT_NJ", "EnergyBreakdown", "EnergyModel",
               "energy_per_inference", "static_power_mw"],
    "estimator": ["FrameworkOverhead", "InferenceEstimate", "OpCost",
                  "estimate_inference"],
    "memories": ["BLOCK_RAM", "DDR3", "ON_CHIP_SRAM", "QSPI_FLASH",
                 "SPI_FLASH", "MemoryMap", "MemoryRegion", "MemoryTech"],
    "vectorized": ["BatchCostModel", "COST_AXES"],
})
