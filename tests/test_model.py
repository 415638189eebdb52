"""Model outputs pinned to the bit, plus the model's input contracts.

The trees were recorded from the unfused implementation (one elementary op
per gate, a fresh validity dot product for every candidate at every layer,
a ``weighted_sum`` merge) and have never changed.  The sentence vectors and
logits were re-recorded once, when the fused kernels moved from one
matrix-vector product per row to one matrix product per call (the Tree-LSTM
cell over all pairs it composes, the leaf map over all words, attention
over all nodes, and the input half of a GRU direction over all steps).
That moved forward values in their last bits, at most 6.3e-16 of an
array's largest entry.  They were re-recorded again when the gates of the
Tree-LSTM cell and the GRU moved to the logistic's tanh form
``0.5 + 0.5 * tanh(x / 2)``, at most 2.4e-15 of an array's largest entry.
Any other reorganization of the hot path must not change a single bit of a
forward value, in any mode.  Floats are stored as
``float.hex`` strings so that equality is exact.
"""

from pathlib import Path

import numpy as np
import pytest

from treeattn.data import PairExample, SentenceExample
from treeattn.tensor import Tape, backward, cross_entropy
from treeattn.training import Checkpoint

from conftest import tiny_pair_model

FIXTURES = Path(__file__).parent / "fixtures"
SEQUENCES = ([2, 3], [4, 2, 3, 3, 1, 4], [3, 2, 4, 1, 2, 4, 4, 3, 2])
MODELS = ("affine.ckpt", "rnn_finetune.ckpt", "tiny")

TREES = {
    ('affine.ckpt', 0): (0,),
    ('affine.ckpt', 1): (0, 0, 2, 0, 0),
    ('affine.ckpt', 2): (3, 3, 0, 4, 2, 2, 0, 0),
    ('rnn_finetune.ckpt', 0): (0,),
    ('rnn_finetune.ckpt', 1): (2, 2, 1, 1, 0),
    ('rnn_finetune.ckpt', 2): (0, 0, 0, 0, 0, 2, 0, 0),
    ('tiny', 0): (0,),
    ('tiny', 1): (3, 1, 1, 0, 0),
    ('tiny', 2): (3, 0, 5, 1, 3, 0, 1, 0),
}
SENTENCE_VECTORS = {
    ('affine.ckpt', 0):
        ['0x1.0823f10e2b458p-2', '0x1.407a00ec01a52p-2'],
    ('affine.ckpt', 1):
        ['0x1.16f5d6ec9c506p-3', '0x1.59c7e3c565c29p-4'],
    ('affine.ckpt', 2):
        ['0x1.d1da45e2103c8p-4', '0x1.e5c8df3c95f76p-3'],
    ('rnn_finetune.ckpt', 0):
        ['-0x1.b6748fc1d2ccap-5', '0x1.cc2ae63916fc7p-7'],
    ('rnn_finetune.ckpt', 1):
        ['-0x1.aaaeaaea94987p-5', '0x1.2ccae78b82ad9p-13'],
    ('rnn_finetune.ckpt', 2):
        ['-0x1.7fdfcb1fade64p-8', '-0x1.0e49f42e4e4e3p-7'],
    ('tiny', 0):
        ['-0x1.4976c3e1b735cp-6', '0x1.a71a02a0f18d9p-5', '-0x1.53dcc381b7aeap-4',
         '-0x1.e7f92efbbab90p-6', '0x1.d8adbc5fff5fcp-7', '-0x1.7715b442a0074p-4',
         '-0x1.c26e3e6036642p-4', '-0x1.124efc1d17cfep-7'],
    ('tiny', 1):
        ['0x1.b5365ea8f147ep-8', '0x1.5f1dd49c42cadp-5', '-0x1.5122c3fe53130p-4',
         '0x1.46d4930a14a18p-6', '0x1.6fdfeb16b0d03p-8', '-0x1.cc6f2bfb96164p-5',
         '-0x1.bd360be95ed1bp-4', '-0x1.0b1f24434d5e8p-5'],
    ('tiny', 2):
        ['0x1.08a5387285a79p-5', '0x1.00780d9c23772p-5', '-0x1.1cdd40c09b341p-5',
         '0x1.3a7403b497083p-6', '-0x1.b752e2186ac12p-6', '-0x1.e2fbe6ff5d5f8p-7',
         '-0x1.5c83b1521adbbp-4', '-0x1.4be73c3a43648p-5'],
}
LOGITS = {
    ('affine.ckpt', 'infer'):
        ['0x1.f8fefc6736cbdp-6', '0x1.ea963b94663bap-4'],
    ('affine.ckpt', 'train'):
        ['0x1.0ce0e856182afp-5', '0x1.0534e10c2c9ffp-3'],
    ('affine.ckpt', 'soft'):
        ['0x1.0e5a11ee4b346p-5', '0x1.06a347a6cc171p-3'],
    ('rnn_finetune.ckpt', 'infer'):
        ['0x1.0859c6aea7bbap-6', '-0x1.6de5c1b37f35dp-8'],
    ('rnn_finetune.ckpt', 'train'):
        ['0x1.be2f38a36ed61p-7', '-0x1.34ca469df5cedp-8'],
    ('rnn_finetune.ckpt', 'soft'):
        ['0x1.8ea78055c74ecp-6', '-0x1.13e561cce7a3fp-7'],
    ('tiny', 'infer'):
        ['0x1.739ec93728bf8p-9', '-0x1.0f9d85c91deacp-5', '0x1.2d31991d47373p-6'],
    ('tiny', 'train'):
        ['0x1.19d72b6a75380p-8', '-0x1.31f2341513937p-5', '0x1.69b3a34fbfbd6p-6'],
    ('tiny', 'soft'):
        ['0x1.7126825e83f78p-7', '-0x1.2a01fd9558560p-5', '0x1.4ea88a8e78708p-6'],
}


def load(name):
    if name == "tiny":
        return tiny_pair_model(seed=42, hidden=8, d_attn=6, d_clf=16)
    return Checkpoint.load(FIXTURES / name).build_model()


def as_hex(values):
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("name", MODELS)
def test_encode_trees_and_sentence_vectors_are_pinned(name):
    model = load(name)
    for i, tokens in enumerate(SEQUENCES):
        encoded = model.encode(tokens)
        assert encoded.tree.merges == TREES[name, i]
        assert as_hex(encoded.sentence.data) == SENTENCE_VECTORS[name, i]


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("mode", ["infer", "train", "soft"])
def test_logits_are_pinned(name, mode):
    model = load(name)
    if model.task == "pair":
        example = PairExample(SEQUENCES[2], SEQUENCES[1], 0)
    else:
        example = SentenceExample(SEQUENCES[2], 0)
    logits = model.logits(example, mode=mode, rng=np.random.default_rng(3))
    assert as_hex(logits.data) == LOGITS[name, mode]


@pytest.mark.parametrize("mode", ["train", "soft"])
def test_noisy_modes_without_rng_name_the_mode(mode):
    model = tiny_pair_model()
    with pytest.raises(ValueError, match=f"mode '{mode}'.*rng"):
        model.logits(PairExample([2, 3], [4, 5], 0), mode=mode)


def test_unknown_leaf_kind_is_named():
    with pytest.raises(ValueError, match="unknown leaf transform 'cnn'"):
        tiny_pair_model(leaf_kind="cnn")


# one example is a batch of one: per sentence its leaf transform, then one
# induction record for both sentences, the pooling per sentence, the pair
# features, the head with a dropout mask on each layer's input, the loss
RNN_LEAVES = ["gru_sequence", "gru_sequence", "leaf_states", "leaf_states"]
POOLED = ["tree_induction", "attention_pool", "attention_pool"]
HEAD = ["sub", "abs", "mul", "concat", "mul", "matmul", "add", "relu", "mul", "matmul",
        "add", "cross_entropy"]


@pytest.mark.parametrize("leaf_kind, finetune, records", [
    ("rnn", False, [*RNN_LEAVES, *POOLED, *HEAD]),
    ("affine", False, [*RNN_LEAVES[2:], *POOLED, *HEAD]),
    ("rnn", True, ["take_rows", "take_rows", *RNN_LEAVES, *POOLED, *HEAD]),
], ids=["rnn-frozen", "affine-frozen", "rnn-finetuned"])
def test_tape_records_of_one_training_example_are_pinned(leaf_kind, finetune, records):
    # the benchmark's train-pair setup (RNN leaf, frozen embeddings, dropout)
    # records 19 ops for one example on one tape; a fine-tuned table adds one
    # lookup per sentence
    model = tiny_pair_model(leaf_kind=leaf_kind, finetune=finetune)
    example = PairExample([2, 3, 4, 5, 6], [7, 2, 8], 1)
    with Tape() as tape:
        loss, _ = model.example_loss(example, "train", np.random.default_rng(0), 0.87)
        backward(tape, loss)
    assert [record.name for record in tape._records] == records
    assert len(records) == {"rnn": 19, "affine": 17}[leaf_kind] + 2 * finetune


def test_tape_records_of_a_training_group_are_pinned():
    # a group's leaves and trees on one tape: the two GRU directions once
    # for the group, then one leaf_states record per sentence and one
    # induction record; each example's pooling, head and loss on its own
    model = tiny_pair_model(leaf_kind="rnn")
    examples = [PairExample([2, 3, 4], [5, 6], 0), PairExample([7], [8, 9, 2, 3], 1),
                PairExample([4, 5], [6, 7, 8], 2)]
    tapes = [Tape() for _ in examples]
    with Tape() as group_tape:
        all_logits = model.batch_logits(examples, "train",
                                        [np.random.default_rng(i) for i in range(3)], 0.87,
                                        tapes)
    assert [record.name for record in group_tape._records] == [
        "gru_sequence", "gru_sequence", *["leaf_states"] * 6, "tree_induction"]
    for tape, logits, example in zip(tapes, all_logits, examples):
        with tape:
            backward(tape, cross_entropy(logits, example.label))
        assert [record.name for record in tape._records] == ["attention_pool"] * 2 + HEAD
    backward(group_tape, None)
    assert all(p.grad is not None for p in model.parameters().values())
