"""Parameter spaces for black-box optimization (Vizier's study config).

The Fig. 7 design space is built here: the VexRiscv knobs the paper
lists (branch predictor types, caches, multipliers, dividers, shifters,
bypassing, error checking) crossed with the CFU choice — approximately
93,000 design points across the three CFU families.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from ..cpu.vexriscv import BRANCH_PREDICTORS, DIVIDERS, MULTIPLIERS, SHIFTERS, VexRiscvConfig


@dataclass(frozen=True)
class Parameter:
    """A categorical/discrete parameter with an explicit value list."""

    name: str
    values: tuple

    def sample(self, rng):
        return rng.choice(self.values)


class ParameterSpace:
    """An ordered set of parameters; a *point* is a name->value dict."""

    def __init__(self, parameters):
        self.parameters = list(parameters)
        self._by_name = {p.name: p for p in self.parameters}
        if len(self._by_name) != len(self.parameters):
            raise ValueError("duplicate parameter names")

    def __getitem__(self, name):
        return self._by_name[name]

    def __iter__(self):
        return iter(self.parameters)

    def size(self):
        total = 1
        for parameter in self.parameters:
            total *= len(parameter.values)
        return total

    def sample(self, rng=None):
        rng = rng or random.Random()
        return {p.name: p.sample(rng) for p in self.parameters}

    def mutate(self, point, rng, num_mutations=1):
        """Regularized-evolution style mutation: perturb a few parameters."""
        child = dict(point)
        for parameter in rng.sample(self.parameters,
                                    min(num_mutations, len(self.parameters))):
            choices = [v for v in parameter.values
                       if v != point[parameter.name]]
            if choices:
                child[parameter.name] = rng.choice(choices)
        return child

    def grid(self):
        """Lazy exhaustive iteration, last parameter varying fastest.

        The order is a stable part of the contract: the tensorized
        sweep (:mod:`repro.dse.exhaustive`) maps flat C-order indices
        to points assuming exactly this enumeration, and the service's
        ``exhaustive`` algorithm replays suggestions positionally.
        """
        names = [p.name for p in self.parameters]
        for values in itertools.product(*(p.values for p in self.parameters)):
            yield dict(zip(names, values))

    def validate(self, point):
        for parameter in self.parameters:
            if point.get(parameter.name) not in parameter.values:
                raise ValueError(
                    f"invalid value {point.get(parameter.name)!r} "
                    f"for {parameter.name}"
                )


CACHE_SIZES = (0, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072)


def vexriscv_space():
    """The soft-CPU half of the Fig. 7 space (31,104 points)."""
    return ParameterSpace([
        Parameter("bypassing", (False, True)),
        Parameter("branch_prediction", tuple(BRANCH_PREDICTORS)),
        Parameter("multiplier", tuple(MULTIPLIERS)),
        Parameter("divider", tuple(DIVIDERS)),
        Parameter("shifter", tuple(SHIFTERS)),
        Parameter("hw_error_checking", (False, True)),
        Parameter("icache_bytes", CACHE_SIZES),
        Parameter("dcache_bytes", CACHE_SIZES),
        Parameter("icache_ways", (1, 2)),
    ])


def point_to_cpu_config(point):
    """Materialize a space point as a VexRiscvConfig."""
    return VexRiscvConfig(
        bypassing=point["bypassing"],
        branch_prediction=point["branch_prediction"],
        multiplier=point["multiplier"],
        divider=point["divider"],
        shifter=point["shifter"],
        hw_error_checking=point["hw_error_checking"],
        icache_bytes=point["icache_bytes"],
        icache_ways=point["icache_ways"],
        dcache_bytes=point["dcache_bytes"],
    )
