"""Multi-task ranking model with optional foresight feature injection.

The foresight inputs arrive as plain numpy constants — forecasts, channel
encodings, and a next-category distribution — so no gradient can reach the
models that produced them. A sample reads the statistic block of its
(room, bucket) key, and the product block of the event on show at that key,
which many keys of a room share. The single trainable bridge is the category
mixing table: `distribution @ c3_mix`, where c3_mix lives in THIS model's
parameter store and the distribution does not.

A batch reaches the trunk as its column parts (the id embeddings, the
standardized statistic block, `dist @ c3_mix` and the standardized product
encodings), and the trunk with its task heads is one `tensor.trunk` node. Its
backward gives an input gradient only to the parts that have a consumer (the
embedding lookup and the mixing product), each from its own row block of the
first-layer weights, so none is computed for the constant foresight columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers
from . import metrics
from . import tensor as T
from .config import VARIANTS, RankConfig
from .errors import ConfigurationError, ContractError, DatasetError, DimensionError
from .optim import ParamStore, train_epochs
from .simgen import FIELD_NAMES
from .tensor import Tensor


@dataclass(frozen=True)
class ForesightBank:
    """Frozen foresight columns in two row spaces: the statistic columns hold
    one row per distinct (room, bucket) key, the product columns one row per
    distinct (room, event on show), which key k reads at `prod_row[k]`.

    Every column is a plain numpy array, checked once when the bank is built
    (or replaced), so no gradient can reach the forecasters behind it.
    """

    room: np.ndarray  # (K,) stream indices, as in SampleTable.room
    bucket: np.ndarray  # (K,) time buckets
    stat_steps: np.ndarray  # (K, N, h_train) forecasts in count scale
    stat_enc: np.ndarray  # (K, N, D) channel encodings
    stat: np.ndarray  # (K, ·) the statistic block the ranker reads
    prod_row: np.ndarray  # (K,) each key's product row
    prod_key: np.ndarray  # (P, 2) room and index in world.events[room] of the event on show
    dist: np.ndarray  # (P, |C3|) next level-3 category distribution
    prod_enc: np.ndarray  # (P, k_enc*D) trailing product encodings, zero-filled
    d_mix: int  # width of the ranker's category mixing table

    def __post_init__(self):
        for name in ("room", "bucket", "stat_steps", "stat_enc", "stat", "prod_row", "prod_key",
                     "dist", "prod_enc"):
            col = getattr(self, name)
            if not isinstance(col, np.ndarray):
                raise ContractError(
                    f"foresight column {name!r} must be a detached numpy array, "
                    f"got {type(col).__name__}; foresight models stay frozen"
                )
            n = len(self.prod_key if name in ("prod_key", "dist", "prod_enc") else self.room)
            if len(col) != n:
                raise ContractError(f"foresight column {name!r} has {len(col)} rows, not {n}")
        row, p = self.prod_row, len(self.prod_key)
        if row.dtype.kind not in "iu" or len(row) and not 0 <= row.min() <= row.max() < p:
            raise ContractError(f"prod_row must hold integer rows in [0, {p}), got {row!r}")

    def __len__(self):
        return len(self.room)


def _uses(variant):
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}")
    return variant in ("+stat", "+both"), variant in ("+prod", "+both")


class RankingModel:
    def __init__(self, config: RankConfig, vocab, tasks, variant, stat_width=0, n_c3=0, d_mix=32, prod_enc_width=0):
        self.config = config
        self.vocab = tuple(vocab)  # each id field's vocabulary size, in FIELD_NAMES order
        self.tasks = tuple(tasks)
        self.variant = variant
        self.use_stat, self.use_prod = _uses(variant)
        if self.use_stat and stat_width <= 0:
            raise ConfigurationError(f"variant {variant} needs a statistic foresight width")
        if self.use_prod and (n_c3 <= 0 or prod_enc_width < 0):
            raise ConfigurationError(f"variant {variant} needs product foresight shapes")
        self.stat_width = stat_width if self.use_stat else 0
        self.prod_enc_width = prod_enc_width if self.use_prod else 0
        self.d_mix = d_mix if self.use_prod else 0
        self.store = ParamStore()
        rng = np.random.default_rng([config.seed, 0xF0])
        # one table for all fields: field k owns the k-th block of vocab[k] rows
        self.store.add("emb.fields", layers.embedding_init(rng, sum(self.vocab), config.emb_width))
        if self.use_prod:
            # unit-ish row scale: a 0.02-scale init would leave the mixture
            # feature ~50x quieter than the standardized blocks next to it
            self.store.add("c3_mix", layers.embedding_init(rng, n_c3, d_mix, scale=0.5))
        self.input_width = (
            config.emb_width * len(FIELD_NAMES)
            + self.stat_width
            + self.d_mix
            + self.prod_enc_width
        )
        layers.init_dense(self.store, "trunk.l1", self.input_width, config.hidden, rng)
        layers.init_dense(self.store, "trunk.l2", config.hidden, config.hidden, rng)
        for task in self.tasks:
            layers.init_dense(self.store, f"head.{task}", config.hidden, 1, rng)
        # train-split standardization of the foresight blocks (counts vs
        # unit-scale embeddings); identity until fitted
        self.stat_norm = (np.zeros(self.stat_width), np.ones(self.stat_width))
        self.enc_norm = (np.zeros(self.prod_enc_width), np.ones(self.prod_enc_width))

    def fit_normalizers(self, bank, rows):
        """Standardize the foresight blocks by their mean and std over the
        samples on bank rows `rows` (the train split), gathered chunk by chunk."""
        if self.use_stat:
            self.stat_norm = _moments(bank.stat, rows)
        if self.use_prod:
            self.enc_norm = _moments(bank.prod_enc, bank.prod_row[rows])

    def features(self, fields, stat=None, dist=None, prod_enc=None):
        """A batch's trunk input as its column parts, in input order: the id
        embeddings, then the standardized statistic block, `dist @ c3_mix` and
        the standardized product encodings, each a (B, ·) tensor the variant
        reads."""
        parts = [layers.lookup(self.store["emb.fields"], fields, self.vocab, FIELD_NAMES)]
        if self.use_stat:
            if stat is None:
                raise ConfigurationError(f"variant {self.variant} requires the statistic part")
            # block scale 1/sqrt(width): a z-scored 280-dim block would
            # otherwise dominate the first-layer preactivations
            scale = 1.0 / np.sqrt(max(self.stat_width, 1))
            parts.append(_standardized(stat, self.stat_norm, scale))
        if self.use_prod:
            if dist is None or prod_enc is None:
                raise ConfigurationError(f"variant {self.variant} requires the product part")
            parts.append(Tensor(np.asarray(dist)) @ self.store["c3_mix"])
            # harder damping than the stat block: these dims mostly restate
            # context the id embeddings already carry
            scale = 1.0 / max(self.prod_enc_width, 1)
            parts.append(_standardized(prod_enc, self.enc_norm, scale))
        return parts

    def forward(self, *parts):
        """Trunk input parts, (B, ·) each and input_width columns together ->
        per-task probabilities (B, n_tasks), as one `tensor.trunk` node."""
        width = sum(p.shape[-1] for p in parts)
        if width != self.input_width:
            raise DimensionError(f"input width {width} != trained width {self.input_width}")
        s = self.store
        heads = [(s[f"head.{t}.w"], s[f"head.{t}.b"]) for t in self.tasks]
        return T.trunk(parts, s["trunk.l1.w"], s["trunk.l1.b"], s["trunk.l2.w"], s["trunk.l2.b"],
                       heads)


def _standardized(block, norm, scale):
    """(block - mean) / std * scale as a constant part, computed in place on
    one copy of `block`."""
    mean, std = norm
    out = np.asarray(block) - mean
    out /= std
    out *= scale
    return Tensor(out)


def rank_loss(predictions, labels):
    """Summed-over-tasks, mean-over-batch binary cross entropy."""
    return T.binary_cross_entropy(predictions, labels)


# rows gathered at a time when fitting the normalizers: ~1 MB at 1,000 columns
NORM_CHUNK = 128


def _column_sum(col, rows, center=None):
    """Axis-0 sum of col[rows] (minus `center`, squared, if given), gathered
    NORM_CHUNK rows at a time. The running total goes in as the first row of
    the next chunk, so the rows are added one by one in order: the same floats
    as numpy's reduction over the whole gathered block."""
    total = np.empty((0, col.shape[1]))
    for lo in range(0, len(rows), NORM_CHUNK):
        chunk = col[rows[lo : lo + NORM_CHUNK]]
        if center is not None:
            chunk -= center
            chunk *= chunk
        total = np.add.reduce(np.concatenate([total, chunk]), axis=0, keepdims=True)
    return total[0]


def _moments(col, rows):
    """(mean, std floored at 1e-6) of col[rows] along axis 0, equal to
    `block.mean(axis=0)` and `block.std(axis=0)` of the gathered block."""
    if col.shape[1] == 1:  # numpy sums a lone column pairwise, not row by row
        block = col[rows]
        mean, std = block.mean(axis=0), block.std(axis=0)
    else:
        mean = _column_sum(col, rows) / len(rows)
        std = np.sqrt(_column_sum(col, rows, center=mean) / len(rows))
    return mean, np.maximum(std, 1e-6)


def _banked(bank, rows, use_stat, use_prod):
    """One batch's foresight blocks, gathered through the batch's bank rows
    (and their `prod_row`); None for a part the variant does not read."""
    stat = bank.stat[rows] if use_stat else None
    prod = bank.prod_row[rows] if use_prod else None
    dist, enc = (bank.dist[prod], bank.prod_enc[prod]) if use_prod else (None, None)
    return stat, dist, enc


def predict(model, batch_input, idx, batch):
    """Probabilities (len(idx), n_tasks) of samples `idx`, forwarded about
    `batch` rows at a time, so no split's whole input is built at once.
    `batch_input(idx)` assembles the trunk input parts of some samples.

    OpenBLAS's matrix-vector kernel, which the one-column task heads use,
    blocks rows by four, so chunks start at multiples of `batch` rounded up
    to a multiple of four, and a one-row tail joins the chunk before it,
    since numpy multiplies a lone row with another BLAS routine. So every
    row gets the same floats as in one forward over all of `idx`.
    """
    step = -(-batch // 4) * 4
    cuts = list(range(step, len(idx), step))
    if cuts and len(idx) - cuts[-1] == 1:
        cuts.pop()
    chunks = np.split(idx, cuts)
    with model.store.frozen():
        return np.concatenate([model.forward(*batch_input(chunk)).data for chunk in chunks])


def split_samples(n, config):
    """The ranker's split of `n` samples: (held_out, train, val, fit) index
    arrays. `config.eval_fraction` of a seeded permutation is held out; a
    tenth of the rest (`val`) picks the stopping epoch and `fit` trains, or
    both are the whole train split when it has a single sample."""
    order = np.random.default_rng([config.seed, 0xE5]).permutation(n)
    n_eval = max(1, int(n * config.eval_fraction))
    ev, tr = order[:n_eval], order[n_eval:]
    n_val = max(1, int(len(tr) * 0.1))
    va, fit = tr[:n_val], tr[n_val:]
    if not len(fit):
        va, fit = tr, tr
    return ev, tr, va, fit


def check_held_out(samples, config):
    """Raise DatasetError unless `train_ranker` can score every task of the
    SampleTable on its held-out split: the split holds both labels of the
    task, and at least one user with both (UAUC and GAUC average over such
    users). Cheap, so it runs before any model trains."""
    ev = split_samples(len(samples), config)[0]
    _, user = np.unique(samples.fields[ev, 0], return_inverse=True)
    seen = np.bincount(user)
    for j, task in enumerate(samples.tasks):
        labels = samples.labels[ev, j]
        where = f"task {task!r}: the held-out split ({len(ev)} of {len(samples)} samples)"
        if not labels.any() or labels.all():
            kind = "positive" if labels.any() else "negative"
            raise DatasetError(f"{where} has only {kind} labels, so its AUC is undefined")
        pos = np.bincount(user, weights=labels)
        if not ((pos > 0) & (pos < seen)).any():
            raise DatasetError(
                f"{where} has no user with both a positive and a negative label, "
                "so its UAUC and GAUC are undefined"
            )


def train_ranker(samples, variant, config, bank=None, rows=None):
    """Train one variant on a SampleTable and report held-out AUC/UAUC/GAUC
    per task of the table, with the table's id vocabulary.

    `bank` is a ForesightBank and `rows[i]` the bank row of sample i; block
    widths come from the bank's column shapes. The only trainable path
    touching foresight is the c3_mix table created here.
    """
    use_stat, use_prod = _uses(variant)
    if (use_stat or use_prod) and (bank is None or rows is None):
        raise ConfigurationError(f"variant {variant} needs a foresight bank and its sample rows")
    if bank is not None and not isinstance(bank, ForesightBank):
        raise ContractError(f"foresight bank must be a ForesightBank, got {type(bank).__name__}")
    shapes = {}
    if bank is not None:
        shapes = dict(stat_width=bank.stat.shape[1], n_c3=bank.dist.shape[1],
                      d_mix=bank.d_mix, prod_enc_width=bank.prod_enc.shape[1])
    tasks = samples.tasks
    model = RankingModel(config, samples.vocab, tasks, variant, **shapes)

    fields, weights = samples.fields, samples.weight
    labels = samples.labels  # the loss casts each batch's rows to float64
    users = fields[:, 0]

    # a slice of train picks the stopping epoch; the held-out slice stays unseen
    ev, tr, va, fit = split_samples(len(samples), config)
    if use_stat or use_prod:
        model.fit_normalizers(bank, rows[tr])

    def batch_input(idx):
        # foresight is gathered per batch: no block holds a row per sample
        stat = dist = enc = None
        if use_stat or use_prod:
            stat, dist, enc = _banked(bank, rows[idx], use_stat, use_prod)
        return model.features(fields[idx], stat=stat, dist=dist, prod_enc=enc)

    epoch_rng = np.random.default_rng([config.seed, 0xE6])

    def batches():
        perm = fit[epoch_rng.permutation(len(fit))]
        return [(perm[lo : lo + config.batch], 1.0) for lo in range(0, len(perm), config.batch)]

    def loss_fn(idx):
        return rank_loss(model.forward(*batch_input(idx)), labels[idx])

    epochs = train_epochs(f"{variant} ranker", model.store, loss_fn, batches, config.lr, config.epochs)
    history = []
    best_val, best_state, best_epoch = np.inf, None, -1
    for epoch, loss in enumerate(epochs):
        history.append(loss)
        val = float(rank_loss(predict(model, batch_input, va, config.batch), labels[va]).data)
        if val < best_val:
            best_val = val
            best_epoch = epoch
            best_state = model.store.values.copy()
        elif epoch - best_epoch >= 3:  # wider variants overfit sooner; stop each at its own knee
            break
    if best_state is not None:
        model.store.values[:] = best_state

    probs_ev = predict(model, batch_input, ev, config.batch)
    report = {}
    for j, task in enumerate(tasks):
        report[task] = {
            "AUC": metrics.auc(probs_ev[:, j], labels[ev, j]),
            "UAUC": metrics.uauc(users[ev], probs_ev[:, j], labels[ev, j]),
            "GAUC": metrics.gauc(users[ev], probs_ev[:, j], labels[ev, j], weights[ev]),
        }
    return model, report, history
