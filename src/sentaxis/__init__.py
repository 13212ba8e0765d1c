"""Sentiment-axis lexicon induction from word embeddings, with a PMI baseline."""

__version__ = "0.1.0"
