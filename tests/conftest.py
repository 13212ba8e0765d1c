import numpy as np
import pytest

from sentaxis.vectors import EmbeddingTable

from corpus_helpers import make_corpus


@pytest.fixture
def tiny_corpus():
    """Three short documents with rule-matching bigrams."""
    return make_corpus([
        [("a", "DT"), ("great", "JJ"), ("movie", "NN"), (".", ".")],
        [("it", "PRP"), ("was", "VBD"), ("very", "RB"), ("bad", "JJ"), (".", ".")],
        [("the", "DT"), ("plot", "NN"), ("moved", "VBD"), ("fast", "RB"), (".", ".")],
    ])


@pytest.fixture
def toy_table():
    """Five words with hand-chosen geometry in 3 dimensions."""
    words = ["anchor", "east", "north", "shared", "west"]
    matrix = np.array([
        [1.0, 0.0, 0.0],   # anchor
        [1.0, 0.2, 0.0],   # east: close to anchor
        [0.0, 1.0, 0.0],   # north: orthogonal to anchor
        [1.0, 1.0, 0.0],   # shared: between anchor and north
        [-1.0, 0.0, 0.0],  # west: opposite anchor
    ])
    return EmbeddingTable(words, matrix)
