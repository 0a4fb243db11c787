"""TFLite-Micro stand-in: int8 inference with exact TFLite arithmetic."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "arena": ["ArenaPlan", "plan_arena", "tensor_lifetimes"],
    "builder": ["ModelBuilder"],
    "interpreter": ["Interpreter", "KernelRegistry", "reference_registry"],
    "model": ["Model", "Operator"],
    "quantize": ["QuantParams", "multiply_by_quantized_multiplier",
                 "quantize_multiplier", "requantize",
                 "rounding_divide_by_pot",
                 "saturating_rounding_doubling_high_mul"],
    "serialize": ["dump_model", "load_model", "load_model_file",
                  "save_model"],
    "tensor": ["Tensor"],
})
