"""Tokenizer, vocabulary, corruption and batching."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from desklm.data import (
    CLS,
    MASK,
    NUM_RESERVED,
    PAD,
    SEP,
    UNK,
    BatchStream,
    MaskedBatch,
    build_vocab,
    corrupt,
    encode_corpus,
    load_corpus,
    make_batch,
    pack,
    tokenize,
)
from desklm.errors import ConfigError, ContractError, IngestionError
from desklm.runconfig import bundled_corpus_path


def test_tokenize_basic():
    assert tokenize("The cat, the CAT!") == ["the", "cat", ",", "the", "cat", "!"]
    assert tokenize("don't stop") == ["don't", "stop"]
    assert tokenize("a1 b2-c3") == ["a1", "b2", "-", "c3"]
    assert tokenize("   \n\t ") == []


def test_reserved_ids_are_pinned():
    assert (PAD, UNK, CLS, SEP, MASK) == (0, 1, 2, 3, 4)
    assert NUM_RESERVED == 5


def test_build_vocab_ranking():
    lines = ["b b b a a c", "a d d"]
    v = build_vocab(lines, cap=NUM_RESERVED + 3)
    # counts: a=3 b=3 d=2 c=1; tie a/b breaks lexicographically
    assert v.tokens == ["a", "b", "d"]
    assert v.token_to_id("a") == 5
    assert v.token_to_id("b") == 6
    assert v.token_to_id("c") == UNK  # fell off the cap
    assert v.token_to_id("zzz") == UNK
    assert len(v) == 8


def test_vocab_roundtrip():
    v = build_vocab(["alpha beta gamma alpha"], cap=16)
    assert v.decode(v.encode(["alpha", "missing"])) == ["alpha", "<unk>"]


def test_build_vocab_errors():
    with pytest.raises(IngestionError):
        build_vocab(["", "   "], cap=32)
    with pytest.raises(ConfigError):
        build_vocab(["a b"], cap=5)


def test_pack_layout():
    row, real = pack([10, 11, 12], 8)
    npt.assert_array_equal(row, [CLS, 10, 11, 12, SEP, PAD, PAD, PAD])
    npt.assert_array_equal(real, [1, 1, 1, 1, 1, 0, 0, 0])
    # truncation keeps CLS and SEP
    row, real = pack(list(range(10, 30)), 6)
    npt.assert_array_equal(row, [CLS, 10, 11, 12, 13, SEP])
    assert real.all()
    with pytest.raises(ConfigError):
        pack([10], 2)


def test_corrupt_respects_specials():
    rng = np.random.default_rng(0)
    row, _ = pack(list(range(10, 40)), 40)
    for _ in range(50):
        xt, pos = corrupt(row, rng, vocab_size=64)
        assert 0 not in pos and (row[pos] != CLS).all() and (row[pos] != SEP).all()
        for p in pos:
            assert row[p] not in (PAD, CLS, SEP)
        # untouched positions are identical
        untouched = np.setdiff1d(np.arange(40), pos)
        npt.assert_array_equal(xt[untouched], row[untouched])


def test_corrupt_target_count():
    rng = np.random.default_rng(1)
    row, _ = pack(list(range(10, 70)), 70)  # 60 maskable
    for _ in range(25):
        _, pos = corrupt(row, rng, vocab_size=128)
        assert len(pos) == round(0.15 * 60)  # exactly 9


def test_corrupt_single_token_row():
    rng = np.random.default_rng(2)
    row, _ = pack([10], 3)
    xt, pos = corrupt(row, rng, vocab_size=64)
    assert pos == [1]  # max(1, round(.15)) = 1


def test_corrupt_no_maskable_raises():
    rng = np.random.default_rng(3)
    with pytest.raises(ContractError):
        corrupt(np.array([CLS, SEP, PAD]), rng, vocab_size=64)


def test_corrupt_run_lengths_bounded():
    rng = np.random.default_rng(4)
    row, _ = pack(list(range(10, 90)), 90)
    for _ in range(40):
        _, pos = corrupt(row, rng, vocab_size=128, span_max=3)
        pos = np.asarray(pos)
        assert pos.size
        # longest run of consecutive chosen positions
        runs, cur = [], 1
        for a, b in zip(pos, pos[1:]):
            if b == a + 1:
                cur += 1
            else:
                runs.append(cur)
                cur = 1
        runs.append(cur)
        assert max(runs) <= 3


def test_corrupt_rewrite_statistics():
    # Monte Carlo over many rows: MASK ~80%, random ~10%, kept ~10%.
    rng = np.random.default_rng(5)
    row, _ = pack(list(range(10, 70)), 70)
    n_mask = n_rand = n_keep = 0
    for _ in range(2000):
        xt, pos = corrupt(row, rng, vocab_size=512)
        for p in pos:
            if xt[p] == MASK:
                n_mask += 1
            elif xt[p] == row[p]:
                n_keep += 1
            else:
                n_rand += 1
    total = n_mask + n_rand + n_keep
    assert abs(n_mask / total - 0.8) < 0.02
    assert abs(n_rand / total - 0.1) < 0.02
    assert abs(n_keep / total - 0.1) < 0.02


def test_corrupt_replacement_never_original_or_special():
    # Every token is the first real id and the only other real id is the
    # next one, so half of all replacement draws hit the original and
    # must be drawn again.
    rng = np.random.default_rng(6)
    row, _ = pack([NUM_RESERVED] * 60, 70)
    kept = slots = replaced = 0
    for _ in range(300):
        xt, pos = corrupt(row, rng, vocab_size=NUM_RESERVED + 2)
        for p in pos:
            assert xt[p] in (MASK, NUM_RESERVED, NUM_RESERVED + 1)
            kept += xt[p] == row[p]
            replaced += xt[p] == NUM_RESERVED + 1
            slots += 1
    assert slots == 300 * 9 and replaced > 0
    # 10% of slots are kept as is; if replacements could land on the
    # original, about 15% would read as kept
    assert kept / slots < 0.12


def test_corrupt_determinism():
    row, _ = pack(list(range(10, 50)), 50)
    a = corrupt(row, np.random.default_rng(77), vocab_size=64)
    b = corrupt(row, np.random.default_rng(77), vocab_size=64)
    npt.assert_array_equal(a[0], b[0])
    assert a[1] == b[1]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mask_rate", [0.5, 0.6, 0.7, 0.8, 0.9])
def test_corrupt_dense_target_stops_when_no_legal_start_is_left(seed, mask_rate):
    # Spans that never touch cannot always cover a dense target: the
    # selection then stops once every maskable slot is chosen or next
    # to a chosen one, with no legal start left to draw
    row = np.array([CLS] + list(range(10, 30)) + [SEP])
    xt, pos = corrupt(row, np.random.default_rng(seed), 30, mask_rate=mask_rate, span_max=3)
    target = round(mask_rate * 20)
    assert 0 < len(pos) <= target
    if len(pos) < target:
        chosen = np.zeros(row.size, dtype=bool)
        chosen[pos] = True
        for i in range(1, row.size - 1):
            assert chosen[i] or chosen[i - 1] or chosen[i + 1], i
    again = corrupt(row, np.random.default_rng(seed), 30, mask_rate=mask_rate, span_max=3)
    npt.assert_array_equal(again[0], xt)
    assert again[1] == pos


class _CountingRng:
    """A Generator's integers and random, counting integers calls."""

    def __init__(self, seed):
        self.rng, self.integer_draws = np.random.default_rng(seed), 0

    def integers(self, *args):
        self.integer_draws += 1
        return self.rng.integers(*args)

    def random(self):
        return self.rng.random()


def test_corrupt_dense_row_draws_a_bounded_number_of_integers():
    # 56 of 62 slots is past what non-touching spans can cover, so the
    # selection stops once no legal start is left: 74 to 1,279 integer
    # draws over 5,000 seeds
    row, _ = pack(list(range(10, 72)), 64)
    for seed in range(10):
        rng = _CountingRng(seed)
        _, pos = corrupt(row, rng, 128, mask_rate=0.9)
        assert len(pos) < 56
        assert rng.integer_draws < 4000


class _ScriptedRng:
    """integers() hands out a fixed script; random() always reads 0.0,
    so every chosen slot becomes MASK."""

    def __init__(self, script):
        self.script = list(script)

    def integers(self, lo, hi):
        value = self.script.pop(0)
        assert lo <= value < hi
        return value

    def random(self):
        return 0.0


def test_corrupt_span_that_reaches_the_row_end_stops_there():
    # six maskable slots and no specials, target 3: a 3-slot span drawn
    # at slot 4 keeps slots 4 and 5 only, and the next span, cut to the
    # one slot left of the target, takes slot 0
    row = np.arange(10, 16)
    rng = _ScriptedRng([4, 3, 0, 3])
    xt, pos = corrupt(row, rng, 30, mask_rate=0.5, span_max=3)
    assert pos == [0, 4, 5] and rng.script == []
    npt.assert_array_equal(xt, [MASK, 11, 12, 13, MASK, MASK])


def test_make_batch_shapes():
    # as wide as the longest packed row, 5 tokens + CLS + SEP
    rows = [[10, 11, 12], [13, 14], [15, 16, 17, 18, 19]]
    batch = make_batch(rows, 8, np.random.default_rng(8), vocab_size=64)
    assert batch.x.shape == batch.x_tilde.shape == (3, 7)
    assert batch.real.shape == (3, 7)
    assert batch.predict.shape == (3, 7)
    assert batch.real[:, -1].any()
    assert batch.predict.any(axis=-1).all()
    assert not (batch.predict & ~batch.real).any()
    # a row longer than n - 2 is cut, and n caps the width
    long = make_batch(rows + [list(range(10, 20))], 8, np.random.default_rng(8),
                      vocab_size=64)
    assert long.x.shape == (4, 8)
    assert long.x[3, -1] == SEP
    for empty in ([], [[]], [[], []]):  # no rows, or no token to mask
        with pytest.raises(ContractError):
            make_batch(empty, 8, np.random.default_rng(0), vocab_size=64)


def test_batch_stream_determinism_and_digest():
    seqs = [[10 + i, 11 + i, 12 + i] for i in range(7)]
    a = BatchStream(seqs, n=8, batch_size=3, vocab_size=64, seed=5)
    b = BatchStream(seqs, n=8, batch_size=3, vocab_size=64, seed=5)
    for _ in range(9):  # crosses an epoch boundary (7 rows, batch 3)
        ba, bb = a.next_batch(), b.next_batch()
        npt.assert_array_equal(ba.x, bb.x)
        npt.assert_array_equal(ba.x_tilde, bb.x_tilde)
        npt.assert_array_equal(ba.predict, bb.predict)
    assert a.digest() == b.digest()
    c = BatchStream(seqs, n=8, batch_size=3, vocab_size=64, seed=6)
    c.next_batch()
    assert c.digest() != a.digest()


def test_batch_stream_reshuffles_and_recorrupts():
    seqs = [[10, 11, 12, 13, 14, 15]] * 4
    s = BatchStream(seqs, n=10, batch_size=4, vocab_size=64, seed=9)
    first = s.next_batch()
    second = s.next_batch()  # same rows, new epoch
    npt.assert_array_equal(first.x, second.x)
    assert (first.x_tilde != second.x_tilde).any() or (first.predict != second.predict).any()


def _spied_stream(seed):
    # 23 rows of lengths 1..7, each told apart by its first token; a pool
    # of 8 batches of 3 is 24 rows, so every pool crosses a pass
    seqs = [[NUM_RESERVED + i] * (1 + (5 * i) % 7) for i in range(23)]
    stream = BatchStream(seqs, n=10, batch_size=3, vocab_size=NUM_RESERVED + 24,
                         seed=seed)
    drawn = []
    draw = stream._draw

    def spy(count):
        pool = draw(count)
        drawn.extend(int(i) for i in pool)
        return pool

    stream._draw = spy
    return stream, seqs, drawn


def test_bucketed_batches_are_sorted_cuts_of_each_pool():
    a, seqs, drawn = _spied_stream(seed=3)
    b, _, _ = _spied_stream(seed=3)
    batches = []
    for _ in range(3 * 8):
        ba, bb = a.next_batch(), b.next_batch()
        for field_ in ("x", "x_tilde", "real", "predict"):
            npt.assert_array_equal(getattr(ba, field_), getattr(bb, field_))
        batches.append(tuple(int(i) - NUM_RESERVED for i in ba.x[:, 1]))
    assert a.digest() == b.digest()
    shuffled = False
    for p in range(3):
        # each pool hands out exactly the rows it drew, cut from their
        # stable sort by length, in an order that is not the sorted one
        pool = sorted(drawn[24 * p:24 * (p + 1)], key=lambda i: len(seqs[i]))
        cuts = [tuple(pool[3 * c:3 * (c + 1)]) for c in range(8)]
        handed = batches[8 * p:8 * (p + 1)]
        assert sorted(handed) == sorted(cuts)
        shuffled |= handed != cuts and handed != cuts[::-1]
    assert shuffled and len(drawn) == 3 * 24


def test_bucketing_trims_the_toy_batches():
    # toy preset shapes, seed 0: the batch width the model computes on is
    # the longest real row; unbucketed batches averaged 24.9 slots
    lines = load_corpus(bundled_corpus_path())
    vocab = build_vocab(lines, cap=512)
    stream = BatchStream(encode_corpus(lines, vocab), n=32, batch_size=16,
                         vocab_size=len(vocab), seed=0)
    widths = []
    for _ in range(200):
        batch = stream.next_batch()
        widths.append(batch.real.sum(axis=-1).max())
        # the batch arrives cut to that width: no column is PAD in every row
        assert batch.x.shape[1] == widths[-1]
    assert np.mean(widths) <= 18.0


def test_encode_corpus():
    v = build_vocab(["aa bb cc"], cap=16)
    seqs = encode_corpus(["aa bb", "cc", ""], v)
    assert len(seqs) == 2
    assert seqs[0] == [v.token_to_id("aa"), v.token_to_id("bb")]
    with pytest.raises(IngestionError):
        encode_corpus([], v)


def test_masked_batch_validation():
    with pytest.raises(ConfigError):
        MaskedBatch(x=np.zeros((2, 4), dtype=np.int64),
                    x_tilde=np.zeros((2, 5), dtype=np.int64),
                    positions=[[], []],
                    real=np.ones((2, 4), dtype=bool))
    with pytest.raises(ConfigError):
        MaskedBatch(x=np.zeros((2, 4), dtype=np.int64),
                    x_tilde=np.zeros((2, 4), dtype=np.int64),
                    positions=[[]],
                    real=np.ones((2, 4), dtype=bool))


def test_bundled_corpus_is_what_the_generator_writes():
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "gen_corpus", root / "tools" / "gen_corpus.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    bundled = (root / "src" / "desklm" / "corpus" / "tiny.txt").read_bytes()
    assert gen.generate().encode("utf-8") == bundled


def test_digest_update_covers_everything():
    # the bytes: x, x_tilde, real, then each row's positions as int64
    x = np.arange(8, dtype=np.int64).reshape(2, 4)
    real = np.ones((2, 4), dtype=bool)
    b0 = MaskedBatch(x=x, x_tilde=x + 1, positions=[[1, 3], [2]], real=real)
    h0 = hashlib.sha256()
    b0.digest_update(h0)
    want = hashlib.sha256(x.tobytes() + (x + 1).tobytes() + real.tobytes()
                          + np.array([1, 3, 2], dtype=np.int64).tobytes())
    assert h0.hexdigest() == want.hexdigest()

    rows = [[10, 11, 12, 13]]
    b1 = make_batch(rows, 8, np.random.default_rng(10), vocab_size=64)
    h1, h2 = hashlib.sha256(), hashlib.sha256()
    b1.digest_update(h1)
    b1.x_tilde = b1.x_tilde.copy()
    b1.x_tilde[0, 1] = MASK
    b1.digest_update(h2)
    assert h1.hexdigest() != h2.hexdigest()
