"""Seeded instance generators for experiments and test corpora.

All randomness flows through a PCG64 stream, so a (kind, knobs, seed) tuple
reproduces the same instance file byte for byte; the generator identity is
recorded in the file header.  Weights are drawn as tenths of integers to keep
the serialized values exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ConcaveModularOracle, CoverageOracle, Instance, Item,
                   ModularOracle)
from .policy import is_indispensable

GENERATOR_ALGORITHM = "pcg64"

KINDS = ("modular", "coverage", "concave_modular", "planted")

_PLANT_RETRIES = 100

#: a generated instance is built in memory: at most this many items, and for
#: coverage at most MAX_COVER_CELLS item-element pairs (n * element_count)
MAX_ITEMS = 10 ** 5
MAX_COVER_CELLS = 10 ** 7


class GenerationError(RuntimeError):
    """Generation could not satisfy its postcondition."""


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int
    size_max: int = 10
    seed: int = 0
    elements: int | None = None       # coverage: element universe size
    cover_density: float = 0.5        # coverage: per-element cover probability
    exponent: float = 0.5             # concave_modular

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise GenerationError(f"unknown generator kind {self.kind!r}")
        if self.n < 1 or (self.kind == "planted" and self.n < 2):
            raise GenerationError(f"n={self.n} too small for kind {self.kind!r}")
        if self.n > MAX_ITEMS:
            raise GenerationError(f"n={self.n} exceeds the limit of {MAX_ITEMS} items")
        # planted draws weights up to 250 * size_max tenths as int64
        if not 1 <= self.size_max <= 2 ** 53:
            raise GenerationError(f"size_max must lie in [1, 2**53], got {self.size_max}")
        if self.seed < 0:
            raise GenerationError(f"seed must be nonnegative, got {self.seed}")
        if self.elements is not None and self.elements < 1:
            raise GenerationError(f"elements must be at least 1, got {self.elements}")
        if not 0.0 <= self.cover_density <= 1.0:  # also refuses NaN
            raise GenerationError(
                f"cover density must be a finite number in [0, 1], "
                f"got {self.cover_density!r}")
        if self.kind == "coverage" and self.n * self.element_count > MAX_COVER_CELLS:
            raise GenerationError(
                f"elements={self.element_count} with n={self.n} gives more than "
                f"{MAX_COVER_CELLS} item-element cells")

    @property
    def element_count(self) -> int:  # coverage: elements, by default max(2, n)
        return self.elements or max(2, self.n)

    def header(self) -> dict:
        h = {"algorithm": GENERATOR_ALGORITHM, "kind": self.kind,
             "n": self.n, "size_max": self.size_max, "seed": self.seed}
        if self.kind == "coverage":
            h["elements"] = self.element_count
            h["cover_density"] = self.cover_density
        if self.kind == "concave_modular":
            h["exponent"] = self.exponent
        return h


def _ids(n: int) -> list[str]:
    return [f"i{k:02d}" for k in range(n)]


def _weights(rng: np.random.Generator, ids: list[str]) -> dict[str, float]:
    return {i: int(rng.integers(1, 101)) / 10.0 for i in ids}


def _sizes(rng: np.random.Generator, ids: list[str], size_max: int) -> list[Item]:
    return [Item(i, int(rng.integers(1, size_max + 1))) for i in ids]


def generate_instance(spec: GeneratorSpec) -> Instance:
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    if spec.kind == "modular":
        ids = _ids(spec.n)
        return Instance(tuple(_sizes(rng, ids, spec.size_max)),
                        ModularOracle(_weights(rng, ids)))

    if spec.kind == "concave_modular":
        ids = _ids(spec.n)
        return Instance(tuple(_sizes(rng, ids, spec.size_max)),
                        ConcaveModularOracle(_weights(rng, ids), spec.exponent))

    if spec.kind == "coverage":
        ids = _ids(spec.n)
        m = spec.element_count
        elements = [f"e{k:02d}" for k in range(m)]
        weights = {e: int(rng.integers(1, 101)) / 10.0 for e in elements}
        covers = {}
        for i in ids:
            chosen = [e for e, r in zip(elements, rng.random(m)) if r < spec.cover_density]
            if not chosen:  # empty covers would produce a zero-value singleton
                chosen = [elements[int(rng.integers(0, m))]]
            covers[i] = chosen
        return Instance(tuple(_sizes(rng, ids, spec.size_max)),
                        CoverageOracle(weights, covers))

    return _generate_planted(spec, rng)


def _generate_planted(spec: GeneratorSpec, rng: np.random.Generator) -> Instance:
    """Modular instance guaranteed to contain an indispensable item.

    A dense unit-size item plus a larger item whose weight exceeds it but
    whose density does not; random fillers can spoil the plant, so the result
    is verified and resampled if needed.
    """
    size_max = max(2, spec.size_max)
    ids = _ids(spec.n)
    for _ in range(_PLANT_RETRIES):
        small_w_tenths = int(rng.integers(80, 251))
        big_size = int(rng.integers(2, size_max + 1))
        # upper half of the window keeps the plant alive next to dense fillers
        lo = max(small_w_tenths + 1, (small_w_tenths * (big_size + 1) + 1) // 2)
        big_w_tenths = int(rng.integers(lo, small_w_tenths * big_size))
        items = [Item(ids[0], 1), Item(ids[1], big_size)]
        weights = {ids[0]: small_w_tenths / 10.0, ids[1]: big_w_tenths / 10.0}
        for i in ids[2:]:
            items.append(Item(i, int(rng.integers(1, size_max + 1))))
            weights[i] = int(rng.integers(1, 101)) / 10.0
        instance = Instance(tuple(items), ModularOracle(weights))
        if is_indispensable(instance, ids[1]).indispensable:
            return instance
    raise GenerationError(
        f"could not plant an indispensable item in {_PLANT_RETRIES} attempts "
        f"(spec={spec})")
