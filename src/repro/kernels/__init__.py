"""Kernel variants: reference cost models and the optimization ladders."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "api": ["KernelVariant", "VariantSet"],
    "conv1x1": ["LADDER_VARIANTS"],
    "kws": ["KwsSimdConv2D", "KwsSimdDepthwise", "kws_variants"],
    "reference": ["reference_variants"],
    "winograd": ["WinogradDepthwise", "WinogradPointwise",
                 "depthwise_via_winograd_cfu", "pointwise_via_winograd_cfu",
                 "winograd_depthwise", "winograd_pointwise",
                 "winograd_variants"],
})
