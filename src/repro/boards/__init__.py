"""Board models and the resource fitter."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "board": ["ARTY_A7_35T", "BOARDS", "Board", "FOMU", "ICEBREAKER",
              "ORANGECRAB", "get_board"],
    "fitter": ["FitError", "FitResult", "UTILIZATION_LIMIT", "fit",
               "require_fit"],
})
