import numpy as np
import pytest

from reshare.dataset import Post
from reshare.errors import DataError
from reshare.topics import (
    fit_lda,
    infer_corpus,
    infer_topics,
    load_stopwords,
    perplexity,
    tokenize,
)


def post(pid, text):
    return Post(post_id=pid, author_id="a", is_hate=True, cluster="c0", text=text)


def separable_corpus(n_docs=30, doc_len=12, seed=0):
    """Two disjoint vocabularies: even docs use apple-words, odd docs use rock-words."""
    rng = np.random.default_rng(seed)
    groups = (
        ["apple", "banana", "cherry", "grape", "melon", "peach"],
        ["rock", "stone", "cliff", "gravel", "boulder", "pebble"],
    )
    posts = []
    for d in range(n_docs):
        words = rng.choice(groups[d % 2], size=doc_len)
        posts.append(post(f"p{d}", " ".join(words)))
    return posts, groups


class TestTokenize:
    def test_rule_application(self):
        corpus = tokenize([post("p0", "I HATE this http://x.co \U0001F621")], {"i", "this"})
        toks = [corpus.tokens[i] for i in corpus.documents[0]]
        assert toks == ["hate"]

    def test_url_only_post_is_empty(self):
        corpus = tokenize([post("p0", "http://example.com/abc?q=1")])
        assert corpus.documents[0] == ()

    def test_missing_text_is_empty(self):
        corpus = tokenize([Post(post_id="p0", author_id="a", is_hate=True, cluster="c0")])
        assert corpus.documents[0] == ()

    def test_identical_texts_identical_tokens(self):
        c = tokenize([post("p0", "Wild words here"), post("p1", "Wild words here")])
        assert c.documents[0] == c.documents[1]

    def test_single_char_tokens_dropped(self):
        c = tokenize([post("p0", "a b cd")])
        assert [c.tokens[i] for i in c.documents[0]] == ["cd"]

    def test_stopword_file_one_token_per_line(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("the\nAnd\n\n  of  \n")
        stop = load_stopwords(p)
        assert stop == {"the", "and", "of"}
        c = tokenize([post("p0", "the quick and brown")], stop)
        assert [c.tokens[i] for i in c.documents[0]] == ["quick", "brown"]

    def test_www_urls_and_emoji_stripped(self):
        c = tokenize([post("p0", "look www.bad.site/xyz ❤️ wow")])
        toks = [c.tokens[i] for i in c.documents[0]]
        assert toks == ["look", "wow"]


class TestFitLda:
    def test_separability_top_words(self):
        posts, groups = separable_corpus()
        corpus = tokenize(posts)
        model = fit_lda(corpus, n_topics=2, iterations=150, seed=1, alpha=0.5)
        for k in range(2):
            top = set(model.top_words(k, 5))
            in_a = len(top & set(groups[0]))
            in_b = len(top & set(groups[1]))
            assert in_a == 5 or in_b == 5

    def test_same_seed_identical_phi(self):
        posts, _ = separable_corpus()
        corpus = tokenize(posts)
        m1 = fit_lda(corpus, n_topics=3, iterations=40, seed=9)
        m2 = fit_lda(corpus, n_topics=3, iterations=40, seed=9)
        assert np.array_equal(m1.topic_word, m2.topic_word)

    def test_degenerate_vocabulary(self):
        posts = [post(f"p{d}", "word word word") for d in range(6)]
        corpus = tokenize(posts)
        model = fit_lda(corpus, n_topics=2, iterations=30, seed=0)
        assert model.topic_word.shape[1] == 1
        assert np.allclose(model.topic_word[:, 0], 1.0)

    def test_rows_normalized(self):
        posts, _ = separable_corpus()
        model = fit_lda(tokenize(posts), n_topics=4, iterations=30, seed=2)
        assert np.allclose(model.topic_word.sum(axis=1), 1.0, atol=1e-9)

    def test_too_few_documents(self):
        posts = [post("p0", "alpha beta alpha beta")]
        with pytest.raises(DataError, match="corpus too small"):
            fit_lda(tokenize(posts), n_topics=2, iterations=10, seed=0)

    def test_k_below_two(self):
        posts, _ = separable_corpus()
        with pytest.raises(ValueError):
            fit_lda(tokenize(posts), n_topics=1, iterations=10, seed=0)

    def test_rare_words_pruned(self):
        posts = [post(f"p{d}", "common words everywhere") for d in range(5)]
        posts.append(post("p5", "common words unicorn"))
        model = fit_lda(tokenize(posts), n_topics=2, iterations=10, seed=0)
        assert "unicorn" not in model.vocabulary
        assert "common" in model.vocabulary


class TestInfer:
    def test_empty_document_uniform(self):
        posts, _ = separable_corpus()
        model = fit_lda(tokenize(posts), n_topics=2, iterations=50, seed=3)
        mix = infer_topics(model, [])
        assert np.allclose(mix, 0.5)

    def test_exclusive_words_concentrate(self):
        posts, groups = separable_corpus()
        model = fit_lda(tokenize(posts), n_topics=2, iterations=150, seed=1, alpha=0.2)
        mix = infer_topics(model, list(groups[0]) * 4)
        assert mix.max() >= 0.9

    def test_normalized_and_deterministic(self):
        posts, groups = separable_corpus()
        model = fit_lda(tokenize(posts), n_topics=2, iterations=50, seed=4)
        doc = ["apple", "rock", "banana"]
        m1 = infer_topics(model, doc)
        m2 = infer_topics(model, doc)
        assert np.array_equal(m1, m2)
        assert m1.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(m1 >= 0)

    def test_corpus_batch_matches_single_documents(self):
        posts, _ = separable_corpus()
        posts.append(post("p_empty", "http://example.com"))
        posts.append(post("p_pruned", "unicorn apple rock"))  # unicorn: below min_df
        corpus = tokenize(posts)
        model = fit_lda(corpus, n_topics=3, iterations=40, seed=5)
        mixes = infer_corpus(model, corpus)
        assert corpus.doc_ids == tuple(p.post_id for p in posts)
        assert mixes.shape == (len(posts), 3)
        for mix, doc in zip(mixes, corpus.documents):
            single = infer_topics(model, [corpus.tokens[i] for i in doc])
            np.testing.assert_allclose(mix, single, rtol=0, atol=1e-12)


class TestPerplexity:
    def test_decreases_with_sweeps(self):
        """Median held-out perplexity over 5 seeds drops between sweep 10 and 200.

        The two topic vocabularies share a pool of common words, so topic
        assignments genuinely need sweeps to disentangle.
        """
        rng = np.random.default_rng(5)
        groups = ([f"apple{i:02d}" for i in range(8)], [f"rock{i:02d}" for i in range(8)])
        shared = [f"mid{i:02d}" for i in range(10)]
        posts = []
        for d in range(40):
            own = rng.choice(groups[d % 2], size=14)
            mix = rng.choice(shared, size=14)
            words = np.where(rng.random(14) < 0.3, mix, own)
            posts.append(post(f"p{d}", " ".join(words)))
        corpus = tokenize(posts[:30])
        held_corpus = tokenize(posts[30:])
        early, late = [], []
        for seed in range(5):
            m10 = fit_lda(corpus, n_topics=2, iterations=10, seed=seed, alpha=0.5)
            m200 = fit_lda(corpus, n_topics=2, iterations=200, seed=seed, alpha=0.5)
            early.append(perplexity(m10, held_corpus))
            late.append(perplexity(m200, held_corpus))
        assert np.median(late) < np.median(early)
