import random

import pytest

from g2kummer.corpus import default_corpus
from g2kummer.synthesis import synthesize_formula_set

ACCEPTANCE_SEED = 0x5EED


@pytest.fixture(scope="session")
def corpus():
    return default_corpus()


class FormulaCache:
    """Synthesizes each corpus curve's formula set once per session."""

    def __init__(self, corpus):
        self._curves = dict(corpus)
        self._cache = {}

    def __getitem__(self, name):
        if name not in self._cache:
            rng = random.Random((ACCEPTANCE_SEED, name).__repr__())
            self._cache[name] = synthesize_formula_set(self._curves[name], rng)
        return self._cache[name]

    def curve(self, name):
        return self._curves[name]

    def names(self):
        return list(self._curves)


@pytest.fixture(scope="session")
def formula_cache(corpus):
    return FormulaCache(corpus)
