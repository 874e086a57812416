"""Top-level behavioural guarantees, one test per shipped claim.

Each test prints a single summary line straight to the terminal (outside
pytest's capture) so a full run always shows the scorecard, then asserts
the same condition.
"""

import time

import numpy as np
import pytest

from mlcap import trainer
from mlcap.gradcheck import gradient_check, reference_sequence_check
from mlcap.beam import BeamConfig, beam_block
from mlcap.cli import main as cli_main
from mlcap.data import (
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
    split_dataset,
    synth_generate,
)
from mlcap.metrics import CorpusEval, cider, evaluate_corpus
from mlcap.model import Dims, init_params
from mlcap.rng import substream
from mlcap.trainer import (
    AdamState,
    TrainConfig,
    adam_step,
    decode_images,
    examples_from_records,
    make_batch,
    run_training,
    sequence_loss,
)
from mlcap.vocab import build_vocab
from oracles import exhaustive_decode, forward_sequence, greedy_decode, naive_bleu, naive_cider, random_corpus
from tinymodels import prefix_free_params, random_params


def scorecard(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# shared bilingual experiment: one unified model plus two monolingual models
# trained on identical splits of the synthetic shapes data


@pytest.fixture(scope="module")
def bilingual():
    records = synth_generate(1200, substream(7, "synth"), ["en", "jp"])
    split = split_dataset(records, (1000, 100, 100), substream(7, "split"))
    surface = {
        lang: {t for r in records for c in r.captions if c.language == lang for t in c.tokens}
        for lang in ("en", "jp")
    }

    def train(langs):
        config = TrainConfig(
            epochs=25, batch_size=32, hidden=64, embed=64, seed=7,
            min_count=1, languages=langs,
        )
        return run_training(split, config)

    def decode(result, lang):
        cands = decode_images(result.params, result.vocab, [rec.feature for rec in split.test], lang, 5, 30)
        return [(cand, [c.tokens for c in rec.captions if c.language == lang]) for cand, rec in zip(cands, split.test)]

    started = time.perf_counter()
    unified = train(None)
    unified_pairs = {lang: decode(unified, lang) for lang in ("en", "jp")}
    unified_seconds = time.perf_counter() - started
    mono_pairs = {lang: decode(train((lang,)), lang) for lang in ("en", "jp")}
    return {
        "split": split,
        "surface": surface,
        "unified_pairs": unified_pairs,
        "mono_pairs": mono_pairs,
        "unified_seconds": unified_seconds,
    }


class TestGradientSuite:
    def test_full_loss_gradients_match_finite_differences(self, capsys):
        started = time.perf_counter()
        f, inputs = reference_sequence_check()
        err = gradient_check(f, inputs)
        seconds = time.perf_counter() - started
        ok = err < 1e-5 and seconds < 30.0
        scorecard(capsys, "gradient-suite", ok, f"max rel err {err:.2e}, {seconds:.1f}s")


class TestBeamOracle:
    """One-image ``beam_block`` decodes, the decoder ``mlcap caption`` runs."""

    def test_saturated_beam_equals_exhaustive_and_width_one_equals_greedy(self, capsys):
        started = time.perf_counter()
        checked = 0
        worst = ""
        for seed in range(20):
            max_len = 2 + seed % 2
            params = random_params(vocab=4, embed=3, hidden=4, feature=2, seed=seed)
            feature = np.random.default_rng(1000 + seed).normal(size=2)
            config = BeamConfig(width=4 ** max_len, max_len=max_len)
            top = beam_block(feature[None], 3, params, config)[0][0]
            exact = exhaustive_decode(feature, 3, params, max_len)
            if top[0] != exact[0] or top[1] != exact[1]:
                worst = f"seed {seed}: beam {top} != exhaustive {exact}"
                break
            single = beam_block(feature[None], 3, params, BeamConfig(width=1, max_len=max_len))[0][0]
            greedy = greedy_decode(feature, 3, params, max_len, config.exclude_ids)
            if single[0] != greedy[0] or abs(single[1] - greedy[1]) > 1e-12:
                worst = f"seed {seed}: width-1 {single} != greedy {greedy}"
                break
            checked += 1
        seconds = time.perf_counter() - started
        ok = checked == 20 and seconds < 10.0
        scorecard(capsys, "beam-oracle", ok, worst or f"{checked} models agree, {seconds:.1f}s")


class TestMetricOracles:
    def test_random_corpora_match_brute_force(self, capsys):
        rng = np.random.default_rng(2026)
        worst = 0.0
        for _ in range(100):
            items = random_corpus(rng, n_images=int(rng.integers(1, 11)))
            corpus = CorpusEval.from_pairs(items)
            report = evaluate_corpus(corpus)
            for n in range(1, 5):
                worst = max(worst, abs(getattr(report, f"bleu{n}") - naive_bleu(items, n)))
            worst = max(worst, abs(cider(corpus) - naive_cider(items)))
        ok = worst < 1e-9
        scorecard(capsys, "metric-oracles", ok, f"100 corpora, worst abs diff {worst:.2e}")

    def test_fixed_hand_examples(self, capsys):
        clip = evaluate_corpus(CorpusEval.from_pairs([(["the"] * 3, [["the", "cat"]])])).bleu1
        identity = cider(
            CorpusEval.from_pairs(
                [
                    (["a", "b", "c", "d"], [["a", "b", "c", "d"]]),
                    (["e", "f", "g", "h"], [["e", "f", "g", "h"]]),
                ]
            )
        )
        single = cider(CorpusEval.from_pairs([(["a", "b"], [["a", "b"]])]))
        ok = clip == 1.0 / 3.0 and abs(identity - 1.0) < 1e-12 and single == 0.0
        scorecard(
            capsys, "metric-hand-cases", ok,
            f"clipped precision {clip:.6f}, identity {identity:.12f}, single-image {single:.1f}",
        )


class TestLanguageControl:
    def test_unified_model_meets_purity_match_and_bleu_targets(self, capsys, bilingual):
        stats = {}
        ok = bilingual["unified_seconds"] < 600.0
        for lang in ("en", "jp"):
            pairs = bilingual["unified_pairs"][lang]
            n = len(pairs)
            pure = sum(1 for cand, _ in pairs if cand and set(cand) <= bilingual["surface"][lang]) / n
            exact = sum(1 for cand, refs in pairs if list(cand) == list(refs[0])) / n
            bleu1 = evaluate_corpus(CorpusEval.from_pairs(pairs)).bleu1
            stats[lang] = (pure, exact, bleu1)
            ok = ok and pure >= 0.95 and exact >= 0.90 and bleu1 >= 0.95
        detail = ", ".join(
            f"{lang}: purity {p:.2f} exact {e:.2f} bleu1 {b:.2f}" for lang, (p, e, b) in stats.items()
        )
        scorecard(
            capsys, "language-control", ok,
            f"{detail}, {bilingual['unified_seconds']:.0f}s",
        )


class TestUnifiedVersusMonolingual:
    def test_per_language_cider_gap_is_small(self, capsys, bilingual):
        gaps = {}
        for lang in ("en", "jp"):
            unified = cider(CorpusEval.from_pairs(bilingual["unified_pairs"][lang]))
            mono = cider(CorpusEval.from_pairs(bilingual["mono_pairs"][lang]))
            gaps[lang] = abs(unified - mono)
        ok = all(gap <= 0.10 for gap in gaps.values())
        detail = ", ".join(f"{lang}: gap {gap:.4f}" for lang, gap in gaps.items())
        scorecard(capsys, "unified-vs-monolingual", ok, detail)


class TestOverfitSanity:
    def test_single_example_drives_nll_below_threshold(self, capsys, monkeypatch):
        started = time.perf_counter()
        record = synth_generate(1, substream(3, "synth"), ["en"])[0]
        vocab = build_vocab([(c.language, c.tokens) for c in record.captions], min_count=1)
        batch = make_batch(examples_from_records([record], vocab, ["en"]))
        params = init_params(Dims(len(vocab), 16, 16, record.feature.size), substream(3, "init"))
        # 200 steps at the training-run step size barely move this far from
        # init, so the sanity check runs its optimizer hotter
        monkeypatch.setattr(trainer, "ADAM_ALPHA", 0.05)
        adam = AdamState.for_params(params)
        nll = float("inf")
        epochs = 0
        for epochs in range(1, 201):
            nll, grads = sequence_loss(batch, params)
            adam_step(params, grads, adam)
            if nll < 0.01:
                break
        seconds = time.perf_counter() - started
        ok = nll < 0.01 and seconds < 20.0
        scorecard(
            capsys, "overfit-sanity", ok,
            f"per-token NLL {nll:.4f} after {epochs} epochs, {seconds:.1f}s",
        )


class TestDeterminismAndPersistence:
    def test_identical_runs_and_bit_exact_reload(self, capsys, tmp_path):
        data = tmp_path / "data.jsonl"
        assert cli_main(["synth", "--out", str(data), "--n", "40", "--seed", "11"]) == 0
        args = [
            "train", "--data", str(data), "--split", "30,5,5", "--epochs", "2",
            "--batch", "8", "--hidden", "10", "--embed", "8", "--min-count", "1",
            "--seed", "4", "--best-only",
        ]
        assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
        identical = (
            (tmp_path / "a" / "best.ckpt").read_bytes()
            == (tmp_path / "b" / "best.ckpt").read_bytes()
        )

        ckpt = load_checkpoint(tmp_path / "a" / "best.ckpt")
        params = ckpt.params
        save_checkpoint(tmp_path / "again.ckpt", Checkpoint(params, ckpt.vocab, ckpt.config, ckpt.epoch))
        reloaded = load_checkpoint(tmp_path / "again.ckpt").params
        vocab = ckpt.vocab
        bit_exact = True
        for rec in synth_generate(5, substream(12, "synth"), ["en", "jp"]):
            for cap in rec.captions:
                ids = vocab.encode(cap.tokens, cap.language)
                start = vocab.start_id(cap.language)
                a = forward_sequence(rec.feature, ids, start, params)
                b = forward_sequence(rec.feature, ids, start, reloaded)
                for da, db in zip(a.distributions, b.distributions):
                    bit_exact = bit_exact and da.tobytes() == db.tobytes()
        ok = identical and bit_exact
        scorecard(
            capsys, "determinism-persistence", ok,
            f"rerun identical: {identical}, reload bit-exact: {bit_exact}",
        )


class TestAdamUnit:
    def test_first_step_matches_hand_derivation(self, capsys):
        params = prefix_free_params(np.zeros(3))
        grads = {name: np.zeros_like(p) for name, p in params.named_parameters()}
        grads["b_out"] = np.array([1.0, 0.0, 0.0])
        adam_step(params, grads, AdamState.for_params(params))
        got = float(params.b_out[0])
        diff = abs(got - (-0.000999999990))
        ok = diff < 1e-12
        scorecard(capsys, "adam-first-step", ok, f"update {got:.12f}, |diff| {diff:.1e}")
