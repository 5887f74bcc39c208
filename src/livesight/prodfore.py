"""Next-category forecasting over a room's sold-product sequence.

Each sold product is embedded by its item id and its three hierarchy levels
(four row blocks of one table), projected to the model width, and run through
a causal transformer. Every position is trained to predict the FOLLOWING event's
finest category, so one forward pass supervises all prefixes at once and, at
inference, yields the forecast for every prefix of a room's history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers
from . import tensor as T
from .config import ProdConfig
from .errors import ConfigurationError, SequenceError, VocabularyError
from .metrics import hit_rate
from .optim import ParamStore, train_epochs


@dataclass
class CategoryHierarchy:
    """Three-level category tree plus product membership, as parent arrays."""

    c2_to_c1: np.ndarray
    c3_to_c2: np.ndarray
    p_to_c3: np.ndarray

    def __post_init__(self):
        self.c2_to_c1 = np.asarray(self.c2_to_c1, dtype=np.int64)
        self.c3_to_c2 = np.asarray(self.c3_to_c2, dtype=np.int64)
        self.p_to_c3 = np.asarray(self.p_to_c3, dtype=np.int64)
        if self.c2_to_c1.min() < 0 or self.c3_to_c2.min() < 0 or self.p_to_c3.min() < 0:
            raise VocabularyError("negative parent index in hierarchy")
        if self.c3_to_c2.max() >= self.n_c2:
            raise VocabularyError("level-3 parent outside level-2 vocabulary")
        if self.p_to_c3.max() >= self.n_c3:
            raise VocabularyError("product parent outside level-3 vocabulary")

    @property
    def n_c1(self):
        return int(self.c2_to_c1.max()) + 1

    @property
    def n_c2(self):
        return len(self.c2_to_c1)

    @property
    def n_c3(self):
        return len(self.c3_to_c2)

    @property
    def n_products(self):
        return len(self.p_to_c3)

    @classmethod
    def balanced(cls, n_c1=5, n_c2=20, n_c3=100, n_products=2000):
        if n_c2 % n_c1 or n_c3 % n_c2 or n_products % n_c3:
            raise ConfigurationError(
                f"level sizes {n_c1}/{n_c2}/{n_c3}/{n_products} do not nest evenly"
            )
        return cls(
            c2_to_c1=np.arange(n_c2) // (n_c2 // n_c1),
            c3_to_c2=np.arange(n_c3) // (n_c3 // n_c2),
            p_to_c3=np.arange(n_products) // (n_products // n_c3),
        )

    def c3_children_of_c2(self, c2):
        return np.flatnonzero(self.c3_to_c2 == c2)

    def c3_children_of_c1(self, c1):
        return np.flatnonzero(self.c2_to_c1[self.c3_to_c2] == c1)


def as_events(events):
    events = np.asarray(events, dtype=np.int64)
    if events.ndim != 2 or events.shape[1] != 4:
        raise SequenceError(f"events must be (L, 4) quadruples, got {events.shape}")
    if events.shape[0] == 0:
        raise SequenceError("empty product sequence")
    return events


class ProductModel:
    """Causal transformer over product events, predicting the next level-3 category."""

    def __init__(self, config: ProdConfig, hierarchy: CategoryHierarchy):
        self.config = config
        self.hierarchy = hierarchy
        self.store = ParamStore()
        c = config
        rng = np.random.default_rng([c.seed, 0xBEEF])
        h = hierarchy
        # one table for the four event columns, a block of rows each
        self.event_vocab = (h.n_products, h.n_c1, h.n_c2, h.n_c3)
        self.store.add("emb.events", layers.embedding_init(rng, sum(self.event_vocab), c.d_model))
        self.store.add("pos", layers.embedding_init(rng, c.max_context, c.d_model))
        layers.init_dense(self.store, "inproj", 4 * c.d_model, c.d_model, rng)
        layers.init_encoder(self.store, "enc", c.n_blocks, c.d_model, c.d_ff, rng)
        layers.init_dense(self.store, "head", c.d_model, h.n_c3, rng)

    def embed_sequence(self, events):
        """Events (..., L, 4) -> tokens (..., L, 4D): the item, c1, c2 and c3
        embeddings side by side."""
        return layers.lookup(
            self.store["emb.events"], events, self.event_vocab, ("item", "c1", "c2", "c3")
        )

    def forward_positions(self, events):
        """Events (B, L, 4) -> (per-position next-c3 logits (B, L, |C3|), encodings (B, L, D))."""
        if events.ndim != 3:
            raise SequenceError(f"expected batched events (B, L, 4), got {events.shape}")
        length = events.shape[1]
        if length > self.config.max_context:
            raise SequenceError(
                f"sequence length {length} exceeds max context {self.config.max_context}"
            )
        tokens = self.embed_sequence(events)
        x = T.dense(tokens, self.store["inproj.w"], self.store["inproj.b"])
        x = x + T.take(self.store["pos"], (slice(0, length),))
        enc = layers.encoder(
            x, self.store, "enc", self.config.n_blocks, self.config.heads, causal=True
        )
        logits = T.dense(enc, self.store["head.w"], self.store["head.b"])
        return logits, enc


def truncate_context(events, max_context):
    # keep the most recent events; documented behavior, not an error
    return events[-max_context:] if len(events) > max_context else events


def forecast_prefixes(model, events, ends, k_enc):
    """Forecast after each prefix `events[:end + 1]`, batched.

    Returns distributions (len(ends), |C3|) and the prefix's trailing `k_enc`
    per-position encodings, flattened and zero-filled to k_enc*D for short
    prefixes: row by row what one forward pass over the prefix alone (its
    trailing `max_context` events) gives. Prefixes inside the context share
    one causal pass over the first `max_context` events; each longer prefix
    runs over its own trailing window, so no forecast reads an event after
    its end.
    """
    events = as_events(events)
    m, d = model.config.max_context, model.config.d_model
    ends = np.asarray(ends, dtype=np.int64)
    dist = np.zeros((len(ends), model.hierarchy.n_c3))
    enc_out = np.zeros((len(ends), k_enc * d))
    head = np.flatnonzero(ends < m)
    if len(head):
        with model.store.frozen():
            logits, enc = model.forward_positions(events[None, :m])
            probs = T.softmax(logits).data[0]
        enc = enc.data[0]
        for i, cur in zip(head, ends[head]):
            dist[i] = probs[cur]
            # encodings exist for positions 1..cur; take the trailing k_enc
            tail = enc[max(1, cur + 1 - k_enc) : cur + 1].ravel()
            enc_out[i, : len(tail)] = tail
    late = np.flatnonzero(ends >= m)
    if len(late):
        windows = np.stack([events[end - m + 1 : end + 1] for end in ends[late]])
        with model.store.frozen():
            logits, enc = model.forward_positions(windows)
            dist[late] = T.softmax(logits).data[:, -1]
        tail = enc.data[:, max(1, m - k_enc) :].reshape(len(late), -1)
        enc_out[late, : tail.shape[1]] = tail
    return dist, enc_out


def _pad_batch(sequences):
    l_max = max(len(s) for s in sequences)
    batch = np.zeros((len(sequences), l_max, 4), dtype=np.int64)
    labels = np.zeros((len(sequences), l_max), dtype=np.int64)
    mask = np.zeros((len(sequences), l_max))
    for i, seq in enumerate(sequences):
        n = len(seq)
        batch[i, :n] = seq
        # position t predicts event t+1's level-3 category
        labels[i, : n - 1] = seq[1:, 3]
        mask[i, : n - 1] = 1.0
    return batch, labels, mask


def _suffix_crops(sequences, max_context):
    # every suffix of length >= 2: the same category transition then shows up
    # at many positions, so the positional table cannot carry the answer
    crops = []
    for seq in sequences:
        seq = truncate_context(as_events(seq), max_context)
        for start in range(len(seq) - 1):
            crops.append(seq[start:])
    return crops


def train_product(model, sequences):
    """Dense teacher forcing: every prefix position of every suffix crop is
    supervised; minibatches are grouped by length so padding stays cheap."""
    if not sequences:
        raise SequenceError("no training sequences")
    c = model.config
    crops = _suffix_crops(sequences, c.max_context)
    if not crops:
        raise SequenceError("no position has a successor event to supervise")
    # sort once by length; shuffling batch ORDER keeps epochs stochastic while
    # each batch stays near-uniform in length
    crops.sort(key=len)
    padded = [_pad_batch(crops[lo : lo + c.batch]) for lo in range(0, len(crops), c.batch)]
    order_rng = np.random.default_rng([c.seed, 0x5E])

    def batches():  # weighted by supervised positions: the epoch loss is their mean
        return [(padded[k], padded[k][2].sum()) for k in order_rng.permutation(len(padded))]

    def loss_fn(batch):
        events, labels, mask = batch
        logits, _ = model.forward_positions(events)
        return T.softmax_cross_entropy(logits, labels, mask=mask)

    return list(train_epochs("product forecaster", model.store, loss_fn, batches, c.lr, c.epochs))


def baseline_category(events, method):
    """Reference next-category predictors over an event prefix."""
    events = as_events(events)
    if method == "latest":
        return int(events[-1, 3])
    if method == "most-frequent":
        return int(np.bincount(events[:, 3]).argmax())
    raise ConfigurationError(f"unknown baseline {method!r}")


def evaluate_hitrate(model, sequences):
    """Top-1 next-category accuracy for the model and both baselines, scored
    at every position of each sequence that has a successor event."""
    preds = {"model": [], "latest": [], "most-frequent": []}
    truths = []
    for seq in sequences:
        seq = as_events(seq)
        if len(seq) < 2:
            continue
        probs, _ = forecast_prefixes(model, seq, np.arange(len(seq) - 1), k_enc=0)
        preds["model"].extend(probs.argmax(axis=1).tolist())
        for k in range(1, len(seq)):
            preds["latest"].append(baseline_category(seq[:k], "latest"))
            preds["most-frequent"].append(baseline_category(seq[:k], "most-frequent"))
        truths.extend(seq[1:, 3].tolist())
    return {name: hit_rate(vals, truths) for name, vals in preds.items()}
