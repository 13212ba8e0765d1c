import numpy as np
import pytest

from sentaxis import axis as axis_mod
from sentaxis.axis import (
    AxisProjection,
    DistanceMatrix,
    SentimentAxis,
    build_distance_matrix,
    build_reference_vectors,
    load_axis,
    load_orientation_lexicon,
    orient_by_seed,
    partition_by_lexicon,
    partition_by_origin,
    principal_axis,
    save_axis,
    save_orientation_lexicon,
    save_projection_csv,
    score_vocabulary,
)
from sentaxis.errors import (
    AmbiguousOrientationError,
    ConfigError,
    DegenerateVectorError,
    InsufficientDataError,
    PartitionError,
    SeedMissingError,
)
from sentaxis.patterns import PointWordSet
from sentaxis.vectors import EmbeddingTable, cosine_distance, cosine_similarity


def sentiment_orientation(word: str, axis: SentimentAxis, table: EmbeddingTable) -> float:
    """Scalar oracle for score_vocabulary: cos(vec_pos, w) - cos(vec_neg, w)."""
    vec = table[word]
    return cosine_similarity(axis.vec_pos, vec) - cosine_similarity(axis.vec_neg, vec)


def points_of(*words) -> PointWordSet:
    return PointWordSet(words=frozenset(words), cutoff=1)


@pytest.fixture
def clustered_table():
    """Two tight clusters plus the seed and filler words."""
    words = ["excellent", "great", "fine", "awful", "bad", "dire", "movie", "the"]
    matrix = np.array([
        [1.0, 0.1, 0.0],    # excellent
        [0.9, 0.2, 0.1],    # great
        [1.1, 0.0, 0.1],    # fine
        [-1.0, 0.1, 0.0],   # awful
        [-0.9, 0.2, 0.1],   # bad
        [-1.1, 0.0, 0.1],   # dire
        [0.0, 1.0, 0.0],    # movie
        [0.05, 0.9, 0.3],   # the
    ])
    return EmbeddingTable(words, matrix)


class TestDistanceMatrix:
    def test_identical_vectors_zero_off_diagonal(self):
        table = EmbeddingTable(["a", "b", "c"],
                               np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        dm = build_distance_matrix(points_of("a", "b", "c"), table)
        i, j = dm.words.index("a"), dm.words.index("b")
        assert dm.d[i, j] == pytest.approx(0.0, abs=1e-12)

    def test_three_vectors_match_hand_computation(self):
        table = EmbeddingTable(["x", "y", "z"],
                               np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        dm = build_distance_matrix(points_of("x", "y", "z"), table)
        def at(a, b):
            return dm.d[dm.words.index(a), dm.words.index(b)]
        assert at("x", "y") == pytest.approx(1.0, abs=1e-9)
        assert at("x", "z") == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), abs=1e-9)
        assert at("y", "z") == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), abs=1e-9)

    def test_symmetry_and_zero_diagonal(self, clustered_table):
        dm = build_distance_matrix(points_of(*clustered_table.words), clustered_table)
        assert np.array_equal(dm.d, dm.d.T)
        assert np.all(np.diag(dm.d) == 0.0)
        assert np.all(dm.d >= 0.0) and np.all(dm.d <= 2.0)

    def test_oov_words_dropped_and_reported(self, clustered_table):
        dm = build_distance_matrix(points_of("great", "bad", "fine", "missing"),
                                   clustered_table)
        assert dm.dropped == ("missing",)
        assert "missing" not in dm.words

    def test_too_few_in_vocabulary_raises(self, clustered_table):
        with pytest.raises(InsufficientDataError):
            build_distance_matrix(points_of("great", "bad", "ghost"), clustered_table)


class TestPartitionByOrigin:
    def proj(self, words, pc1):
        return AxisProjection(words=tuple(words), pc1=np.array(pc1),
                              pc2=np.zeros(len(words)), explained_variance=(1.0, 0.0))

    def test_simple_split(self):
        set_a, set_b = partition_by_origin(self.proj(["w1", "w2"], [0.5, -0.5]))
        assert set_a == ("w1",)
        assert set_b == ("w2",)

    def test_zero_goes_to_first_set(self):
        set_a, set_b = partition_by_origin(self.proj(["w1", "w2"], [0.0, -0.1]))
        assert "w1" in set_a

    def test_one_sided_axis_raises(self):
        with pytest.raises(PartitionError):
            partition_by_origin(self.proj(["w1", "w2"], [0.2, 0.4]))


class TestPartitionByLexicon:
    def test_sign_split(self):
        lex = {"good": 1.2, "bad": -0.8}
        set_a, set_b, dropped = partition_by_lexicon(points_of("good", "bad"), lex)
        assert set_a == ("good",)
        assert set_b == ("bad",)
        assert dropped == ()

    def test_missing_word_reported(self):
        lex = {"good": 1.0, "bad": -1.0}
        _, _, dropped = partition_by_lexicon(points_of("good", "bad", "new"), lex)
        assert dropped == ("new",)

    def test_at_threshold_dropped(self):
        lex = {"good": 1.0, "bad": -1.0, "meh": 0.0}
        _, _, dropped = partition_by_lexicon(points_of("good", "bad", "meh"), lex)
        assert dropped == ("meh",)

    def test_forty_word_fixture_matches_sign_sort(self):
        entries = {f"w{i}": (i - 19.5) / 7.0 for i in range(40)}
        set_a, set_b, dropped = partition_by_lexicon(points_of(*entries), entries)
        assert set(set_a) == {w for w, s in entries.items() if s > 0}
        assert set(set_b) == {w for w, s in entries.items() if s < 0}
        assert dropped == ()

    def test_one_sided_raises(self):
        lex = {"good": 1.0, "fine": 2.0}
        with pytest.raises(PartitionError):
            partition_by_lexicon(points_of("good", "fine"), lex)


class TestReferenceVectors:
    def test_singleton_mean_is_exact(self, clustered_table):
        vec_a, _ = build_reference_vectors(("great",), ("bad",), clustered_table)
        assert np.array_equal(vec_a, clustered_table["great"])

    def test_two_unit_vectors_average(self):
        table = EmbeddingTable(["e1", "e2", "pad"],
                               np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        vec_a, _ = build_reference_vectors(("e1", "e2"), ("pad",), table)
        assert np.allclose(vec_a, [0.5, 0.5])

    def test_ten_word_summation_oracle(self):
        rng = np.random.default_rng(17)
        words = [f"w{i}" for i in range(10)]
        matrix = rng.normal(size=(10, 6))
        table = EmbeddingTable(words, matrix)
        vec_a, _ = build_reference_vectors(tuple(words[:7]), tuple(words[7:]), table)
        # oracle: explicit running sum over the member rows
        total = np.zeros(6)
        for w in sorted(words[:7]):
            total = total + table[w]
        assert np.max(np.abs(vec_a - total / 7.0)) <= 1e-12

    def test_no_in_vocabulary_member_raises(self, clustered_table):
        with pytest.raises(InsufficientDataError):
            build_reference_vectors(("ghost",), ("bad",), clustered_table)

    def test_oov_members_skipped(self, clustered_table):
        vec_a, _ = build_reference_vectors(("great", "ghost"), ("bad",), clustered_table)
        assert np.array_equal(vec_a, clustered_table["great"])


class TestOrientBySeed:
    def test_reference_equal_to_seed_wins(self, clustered_table):
        vec_a = clustered_table["excellent"].copy()
        vec_b = clustered_table["awful"].copy()
        oriented = orient_by_seed(vec_a, vec_b, ("excellent",), ("awful",),
                                  clustered_table, seed="excellent")
        assert np.array_equal(oriented.vec_pos, vec_a)
        assert oriented.pos_words == ("excellent",)

    def test_swapped_arguments_same_outcome(self, clustered_table):
        vec_pos = clustered_table["great"]
        vec_neg = clustered_table["bad"]
        oriented = orient_by_seed(vec_neg, vec_pos, ("bad",), ("great",),
                                  clustered_table, seed="excellent")
        assert np.array_equal(oriented.vec_pos, vec_pos)
        assert oriented.neg_words == ("bad",)

    def test_exact_tie_raises(self):
        table = EmbeddingTable(["seed", "p", "q"],
                               np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
        with pytest.raises(AmbiguousOrientationError):
            orient_by_seed(table["p"].copy(), table["q"].copy(), ("p",), ("q",),
                           table, seed="seed")

    def test_missing_seed_raises(self, clustered_table):
        with pytest.raises(SeedMissingError):
            orient_by_seed(clustered_table["great"], clustered_table["bad"],
                           ("great",), ("bad",), clustered_table, seed="ghost")

    def test_post_hoc_distance_check(self, clustered_table):
        vec_a, vec_b = build_reference_vectors(
            ("great", "fine"), ("awful", "bad", "dire"), clustered_table)
        oriented = orient_by_seed(vec_a, vec_b, ("great", "fine"),
                                  ("awful", "bad", "dire"), clustered_table)
        seed_vec = clustered_table["excellent"]
        assert cosine_distance(oriented.vec_pos, seed_vec) < \
            cosine_distance(oriented.vec_neg, seed_vec)


@pytest.fixture
def oriented_axis(clustered_table):
    vec_a, vec_b = build_reference_vectors(
        ("great", "fine"), ("awful", "bad", "dire"), clustered_table)
    return orient_by_seed(vec_a, vec_b, ("great", "fine"),
                          ("awful", "bad", "dire"), clustered_table)


class TestSentimentOrientation:
    def test_equidistant_word_scores_zero(self):
        table = EmbeddingTable(["seed", "p", "q", "mid"],
                               np.array([[1.0, 0.1], [1.0, 0.0],
                                         [0.0, 1.0], [1.0, 1.0]]))
        oriented = orient_by_seed(table["p"].copy(), table["q"].copy(),
                                  ("p",), ("q",), table, seed="seed")
        assert sentiment_orientation("mid", oriented, table) == pytest.approx(0.0, abs=1e-12)

    def test_word_aligned_with_positive_reference(self, oriented_axis, clustered_table):
        value = sentiment_orientation("great", oriented_axis, clustered_table)
        assert value > 0.0

    def test_five_word_fixture_hand_computed(self, oriented_axis, clustered_table):
        for word in ["excellent", "great", "awful", "movie", "the"]:
            expected = (cosine_similarity(oriented_axis.vec_pos, clustered_table[word])
                        - cosine_similarity(oriented_axis.vec_neg, clustered_table[word]))
            got = sentiment_orientation(word, oriented_axis, clustered_table)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_antisymmetry_under_reference_swap(self, oriented_axis, clustered_table):
        swapped = SentimentAxis(
            pos_words=oriented_axis.neg_words, neg_words=oriented_axis.pos_words,
            vec_pos=oriented_axis.vec_neg, vec_neg=oriented_axis.vec_pos,
            seed=oriented_axis.seed, mode=oriented_axis.mode)
        for word in clustered_table.words:
            assert sentiment_orientation(word, swapped, clustered_table) == \
                -sentiment_orientation(word, oriented_axis, clustered_table)

    def test_oov_raises(self, oriented_axis, clustered_table):
        with pytest.raises(KeyError):
            sentiment_orientation("ghost", oriented_axis, clustered_table)


class TestScoreVocabulary:
    def test_covers_whole_vocabulary(self, oriented_axis, clustered_table):
        lexicon = score_vocabulary(oriented_axis, clustered_table)
        assert set(lexicon.scores) == set(clustered_table.words)

    def test_seed_scores_nonnegative(self, oriented_axis, clustered_table):
        lexicon = score_vocabulary(oriented_axis, clustered_table)
        assert lexicon.scores["excellent"] >= 0.0

    def test_scores_bounded(self, oriented_axis, clustered_table):
        lexicon = score_vocabulary(oriented_axis, clustered_table)
        assert all(-2.0 <= v <= 2.0 for v in lexicon.scores.values())

    def test_matches_scalar_route(self, oriented_axis, clustered_table):
        lexicon = score_vocabulary(oriented_axis, clustered_table)
        for word in clustered_table.words:
            assert lexicon.scores[word] == pytest.approx(
                sentiment_orientation(word, oriented_axis, clustered_table), abs=1e-9)

    def test_partition_sign_consistency_diagnostic(self, oriented_axis, clustered_table):
        # soft diagnostic: report the agreement rate, assert nothing about it
        lexicon = score_vocabulary(oriented_axis, clustered_table)
        agree = sum(
            1 for w in oriented_axis.pos_words if lexicon.scores[w] >= 0
        ) + sum(
            1 for w in oriented_axis.neg_words if lexicon.scores[w] < 0
        )
        total = len(oriented_axis.pos_words) + len(oriented_axis.neg_words)
        print(f"partition sign agreement: {agree}/{total}")

    def test_axis_of_another_dimension_raises(self, oriented_axis):
        with pytest.raises(ConfigError, match="3 and 3 values, word vectors 2"):
            score_vocabulary(oriented_axis, EmbeddingTable(["a", "b"], np.eye(2)))

    def test_fingerprint_recorded(self, oriented_axis, clustered_table):
        lexicon = score_vocabulary(oriented_axis, clustered_table)
        assert lexicon.fingerprint == clustered_table.fingerprint()

    def test_norms_in_blocks_score_like_whole_matrix_norms(self, monkeypatch):
        monkeypatch.setattr(axis_mod, "NORM_BLOCK_ROWS", 3)
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((10, 5)) * 10.0 ** rng.integers(-3, 4, size=(10, 1))
        table = EmbeddingTable([f"w{i}" for i in range(10)], matrix)
        axis = SentimentAxis(("w0",), ("w1",), matrix[0], matrix[1])
        norms = np.linalg.norm(matrix, axis=1)
        sims = [np.clip(matrix @ ref / (norms * np.linalg.norm(ref)), -1.0, 1.0)
                for ref in (matrix[0], matrix[1])]
        scores = score_vocabulary(axis, table).scores
        assert list(scores) == list(table.words)
        assert list(scores.values()) == (sims[0] - sims[1]).tolist()

    def test_zero_vector_in_a_later_norm_block_is_named(self, monkeypatch):
        monkeypatch.setattr(axis_mod, "NORM_BLOCK_ROWS", 3)
        matrix = np.arange(1.0, 41.0).reshape(8, 5)
        matrix[7] = 0.0
        table = EmbeddingTable([f"w{i}" for i in range(8)], matrix)
        axis = SentimentAxis(("w0",), ("w1",), matrix[0], matrix[1])
        with pytest.raises(DegenerateVectorError, match="'w7' has a zero vector"):
            score_vocabulary(axis, table)


class TestScaleInvariance:
    def test_pipeline_invariant_under_global_scaling(self, clustered_table):
        scaled = EmbeddingTable(clustered_table.words, clustered_table.matrix * 7.5)
        points = points_of("great", "fine", "awful", "bad", "dire")

        dm = build_distance_matrix(points, clustered_table)
        dm_scaled = build_distance_matrix(points, scaled)
        assert np.max(np.abs(dm.d - dm_scaled.d)) <= 1e-9

        proj = principal_axis(dm)
        set_a, set_b = partition_by_origin(proj)
        proj_scaled = principal_axis(dm_scaled)
        assert partition_by_origin(proj_scaled) == (set_a, set_b)

        vec_a, vec_b = build_reference_vectors(set_a, set_b, clustered_table)
        oriented = orient_by_seed(vec_a, vec_b, set_a, set_b, clustered_table)
        vec_a2, vec_b2 = build_reference_vectors(set_a, set_b, scaled)
        oriented_scaled = orient_by_seed(vec_a2, vec_b2, set_a, set_b, scaled)
        assert oriented_scaled.pos_words == oriented.pos_words

        base = score_vocabulary(oriented, clustered_table).scores
        after = score_vocabulary(oriented_scaled, scaled).scores
        for word in base:
            assert after[word] == pytest.approx(base[word], abs=1e-9)


class TestPersistence:
    def test_axis_round_trip(self, oriented_axis, tmp_path):
        save_axis(oriented_axis, tmp_path)
        again = load_axis(tmp_path)
        assert again.pos_words == oriented_axis.pos_words
        assert again.neg_words == oriented_axis.neg_words
        assert again.seed == oriented_axis.seed
        assert again.mode == oriented_axis.mode
        assert np.array_equal(again.vec_pos, oriented_axis.vec_pos)
        assert np.array_equal(again.vec_neg, oriented_axis.vec_neg)

    def test_axis_fields_are_stripped(self, oriented_axis, tmp_path):
        path = save_axis(oriented_axis, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("".join(" " + " \t ".join(line.split("\t")) + " \n" for line in lines),
                        encoding="utf-8")
        again = load_axis(path)
        assert (again.pos_words, again.neg_words, again.seed, again.mode) == \
            (oriented_axis.pos_words, oriented_axis.neg_words, oriented_axis.seed,
             oriented_axis.mode)
        assert np.array_equal(again.vec_pos, oriented_axis.vec_pos)
        assert np.array_equal(again.vec_neg, oriented_axis.vec_neg)

    def test_lexicon_round_trip(self, oriented_axis, clustered_table, tmp_path):
        lexicon = score_vocabulary(oriented_axis, clustered_table)
        path = tmp_path / "lexicon.tsv"
        save_orientation_lexicon(lexicon, path)
        again = load_orientation_lexicon(path)
        assert again.scores == lexicon.scores
        assert again.fingerprint == lexicon.fingerprint

    def test_projection_csv_shape(self, clustered_table, tmp_path):
        points = points_of("great", "fine", "awful", "bad", "dire")
        proj = principal_axis(build_distance_matrix(points, clustered_table))
        path = tmp_path / "projection.csv"
        save_projection_csv(proj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "word,pc1,pc2"
        assert len(lines) == len(proj.words) + 1
