"""Span tracing around sentaxis's public functions, from outside the program.

Each traced site is a module attribute that a caller looks up at call time
(``evaluation.train_sgns``, ``pmi.so_phrase``, ...). Installing a
:class:`Tracer` replaces that attribute with a wrapper that records a span
(site, start, end, parent span) and, where the result carries one, a count.
Spans stay in memory until the run's process writes them out.

A layer's self time is the duration of its spans minus the part covered by
their child spans, so the self times of all layers add up to the root span
(``cli.main``).
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import defaultdict

# Traced site -> the layer group its time and counts are reported under.
SITES = {
    "cli.main": "cli",
    "cli.load_tagged_corpus": "corpus.load_corpus",
    "evaluation.load_tagged_corpus": "corpus.load_corpus",
    "cli.load_labeled_reviews": "corpus.load_reviews",
    "evaluation.load_labeled_reviews": "corpus.load_reviews",
    "evaluation.load_polarity_lexicon": "corpus.load_lexicon",
    "evaluation.train_sgns": "sgns.train",
    "evaluation.load_embeddings": "vectors.load",
    "evaluation.save_embeddings": "vectors.save",
    "patterns.extract_phrases": "patterns.extract",
    "pmi.extract_phrases": "patterns.extract",
    "patterns.select_point_words": "patterns.select",
    "pmi.build_near_index": "pmi.index",
    "pmi.classify_review_pmi": "pmi.classify",
    "pmi.so_phrase": "pmi.so_phrase",
    "axis.build_distance_matrix": "axis.distance_matrix",
    "axis.principal_axis": "axis.principal_axis",
    "pca.top_two_components": "pca.top_two",
    "axis.score_vocabulary": "axis.score",
    "axis.save_axis": "axis.save",
    "axis.save_orientation_lexicon": "axis.save",
    "axis.save_projection_csv": "axis.save",
    "evaluation.evaluate": "evaluation.evaluate",
    "evaluation.evaluate_pmi": "evaluation.evaluate",
    "evaluation.write_report": "evaluation.write_report",
}


def _vectors_loaded(result, args, kwargs):
    return {"vectors.rows": len(result), "vectors.file_bytes": os.path.getsize(args[0])}


def _classified(result, args, kwargs):
    return {"pmi.phrase_lookups": result.n_phrases, "pmi.no_phrase": int(result.no_phrase)}


def _evaluated(result, args, kwargs):
    return {"evaluation.reviews": result.n_total, "evaluation.undecided": result.n_undecided}


# Traced site -> function of (result, args, kwargs) giving counts to add. A
# counter runs inside its parent's span, so it only reads sizes; counts that
# need a pass over the data come from the benchmark's own inputs instead.
COUNTERS = {
    "evaluation.train_sgns": lambda r, a, k: {"sgns.vocab_size": len(r)},
    "evaluation.load_embeddings": _vectors_loaded,
    "patterns.extract_phrases": lambda r, a, k: {"patterns.phrases": len(r)},
    "pmi.extract_phrases": lambda r, a, k: {"patterns.phrases": len(r)},
    "patterns.select_point_words": lambda r, a, k: {"patterns.point_words": len(r.words)},
    "pmi.build_near_index": lambda r, a, k: {"pmi.index_terms": len(r.postings)},
    "pmi.classify_review_pmi": _classified,
    "axis.score_vocabulary": lambda r, a, k: {"axis.scored_words": len(r.scores)},
    "evaluation.evaluate": _evaluated,
    "evaluation.evaluate_pmi": _evaluated,
}


class Tracer:
    """In-memory span recorder; install() patches every site in SITES."""

    def __init__(self):
        self.spans: list = []  # [site, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.last: dict[str, object] = {}  # site -> last result, for end-of-run counts
        self._stack: list[int] = []

    def install(self) -> None:
        for site in SITES:
            module_name, _, attr = site.rpartition(".")
            module = importlib.import_module(f"sentaxis.{module_name}")
            # A site that no longer exists must fail loudly, not trace nothing.
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(site, original))

    def _wrap(self, site: str, func):
        counter = COUNTERS.get(site)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [site, start, end, parent]
            if counter is not None:
                for key, value in counter(result, args, kwargs).items():
                    counts[key] += value
            if site in ("pmi.build_near_index", "axis.principal_axis"):
                self.last[site] = result
            return result

        traced.__wrapped__ = func
        return traced

    def dump(self) -> dict:
        counts = dict(self.counts)
        index = self.last.get("pmi.build_near_index")
        if index is not None:
            counts["pmi.near_pairs"] = len(index.near_hits)
        projection = self.last.get("axis.principal_axis")
        if projection is not None:
            counts["axis.pc1_explained"] = float(projection.explained_variance[0])
        return {"spans": self.spans, "counts": counts}


def self_times(spans) -> dict[str, float]:
    """Self time per layer group: span duration minus its children's durations."""
    child_time = [0.0] * len(spans)
    for site, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for (site, start, end, _), covered in zip(spans, child_time):
        totals[SITES[site]] += (end - start) - covered
    return dict(totals)


def inclusive_times(spans) -> dict[str, float]:
    """Total span duration per layer group, counting only outermost spans of a group."""
    group_of = [SITES[site] for site, *_ in spans]
    totals: dict[str, float] = defaultdict(float)
    for i, (site, start, end, parent) in enumerate(spans):
        ancestor = parent
        while ancestor >= 0 and group_of[ancestor] != group_of[i]:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            totals[group_of[i]] += end - start
    return dict(totals)


def site_calls(spans) -> dict[str, int]:
    calls: dict[str, int] = defaultdict(int)
    for site, *_ in spans:
        calls[site] += 1
    return dict(calls)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(trace: dict, corpus_tokens: int, sgns_tokens: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, named as in BENCHMARK.json.

    ``corpus_tokens`` is the number of tokens in the loaded corpus and review
    files, ``sgns_tokens`` the number SGNS trains on (epochs x in-vocabulary
    tokens); both are known from the inputs.
    """
    spans, counts = trace["spans"], trace["counts"]
    own = defaultdict(float, self_times(spans))
    inclusive = defaultdict(float, inclusive_times(spans))
    calls = defaultdict(int, site_calls(spans))
    c = defaultdict(float, counts)
    corpus_load = own["corpus.load_corpus"] + own["corpus.load_reviews"]
    extract_calls = calls["patterns.extract_phrases"] + calls["pmi.extract_phrases"]
    classify_calls = calls["pmi.classify_review_pmi"]
    return {
        "cli.self_s": own["cli"],
        "corpus.load_corpus_s": own["corpus.load_corpus"],
        "corpus.load_reviews_s": own["corpus.load_reviews"],
        "corpus.load_lexicon_s": own["corpus.load_lexicon"],
        "corpus.tokens_per_s": _rate(corpus_tokens, corpus_load),
        "sgns.train_s": own["sgns.train"],
        "sgns.tokens_per_s": _rate(sgns_tokens, own["sgns.train"]),
        "sgns.vocab_size": c["sgns.vocab_size"],
        "vectors.load_s": own["vectors.load"],
        "vectors.rows_per_s": _rate(c["vectors.rows"], own["vectors.load"]),
        "vectors.file_bytes": c["vectors.file_bytes"],
        "vectors.save_s": own["vectors.save"],
        "patterns.extract_s": own["patterns.extract"],
        "patterns.extract_calls": extract_calls,
        "patterns.phrases": c["patterns.phrases"],
        "patterns.select_s": own["patterns.select"],
        "patterns.point_words": c["patterns.point_words"],
        "pmi.index_s": own["pmi.index"],
        "pmi.index_terms": c["pmi.index_terms"],
        "pmi.classify_s": own["pmi.classify"],
        "pmi.so_phrase_s": own["pmi.so_phrase"],
        "pmi.so_phrase_calls": calls["pmi.so_phrase"],
        "pmi.so_cache_hit_ratio": _ratio(c["pmi.phrase_lookups"] - calls["pmi.so_phrase"],
                                         c["pmi.phrase_lookups"]),
        "pmi.near_pairs": c["pmi.near_pairs"],
        "pmi.no_phrase_ratio": _ratio(c["pmi.no_phrase"], classify_calls),
        "axis.distance_matrix_s": own["axis.distance_matrix"],
        "axis.principal_axis_s": own["axis.principal_axis"],
        "axis.pc1_explained": c["axis.pc1_explained"],
        "axis.score_s": own["axis.score"],
        "axis.scored_words": c["axis.scored_words"],
        "axis.save_s": own["axis.save"],
        "pca.top_two_s": own["pca.top_two"],
        "evaluation.evaluate_s": own["evaluation.evaluate"],
        "evaluation.reviews_per_s": _rate(c["evaluation.reviews"],
                                          inclusive["evaluation.evaluate"]),
        "evaluation.undecided_ratio": _ratio(c["evaluation.undecided"],
                                             c["evaluation.reviews"]),
        "evaluation.write_report_s": own["evaluation.write_report"],
    }


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
