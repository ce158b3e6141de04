"""Corpus ingestion, config files, CLI subcommands, and output determinism."""

import dataclasses
import hashlib
import json
import os
import resource
import struct
import subprocess
import sys
import tempfile
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from curvelang import checkpoint, cli, harness, splines
from curvelang import corpus as corpus_module
from curvelang.config import RunConfig, apply_overrides, dump_config, load_config
from curvelang.corpus import ingest, read_text, write_file
from curvelang.errors import CheckpointVersionMismatch, ConfigError, EmptyCorpus, IoError, NonFinite
from curvelang.rng import RngStream

from _oracles import reference_ingest, reference_make_batch, stress


def builtin_file(name, path):
    """The bundled corpus ``name`` written to path; returns the path."""
    write_file(path, read_text(f"builtin:{name}"))
    return path


class TestIngest:
    def test_char_tokenizer(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("abab\nabab\n")
        corpus = ingest(str(path), "char")
        assert corpus.vocab.tokens == ("<pad>", "<mask>", "a", "b")
        assert len(corpus.sequences) == 2
        assert all(len(s) == 4 for s in corpus.sequences)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("")
        with pytest.raises(EmptyCorpus):
            ingest(str(path), "char")

    def test_truncation(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a" * 40 + "b\n")
        corpus = ingest(str(path), "char", max_len=16)
        assert len(corpus.sequences[0]) == 16

    def test_short_lines_dropped(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("a\nabba\nx\n")
        corpus = ingest(str(path), "char")
        assert len(corpus.sequences) == 1

    def test_whitespace_tokenizer(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("the cat sat\nthe cat\n")
        corpus = ingest(str(path), "whitespace")
        assert "the" in corpus.vocab.tokens
        assert len(corpus.sequences) == 2
        with pytest.raises(IoError, match="unknown tokenizer 'words'"):
            ingest(str(path), "words")

    def test_vocab_order_frequency_then_lexicographic(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("bbbaa\ncc bb\n".replace(" ", ""))
        corpus = ingest(str(path), "char")
        # b:5, a:2, c:2 -> b, a, c after reserved ids
        assert corpus.vocab.tokens[2:] == ("b", "a", "c")

    def test_encode_matches_a_per_token_lookup(self, tmp_path):
        path = tmp_path / "e.txt"
        lines = ["the cat sat", "a cat sat on the mat", "the mat"]
        path.write_text("\n".join(lines) + "\n")
        corpus = ingest(str(path), "whitespace")
        vocab = corpus.vocab
        for line, seq in zip(lines, corpus.sequences):
            ids = [vocab.tokens.index(tok) for tok in line.split()]
            assert seq.dtype == np.int64 and seq.tolist() == ids
        assert vocab.encode(["mat", "the", "mat"]).tolist() == [vocab.tokens.index(t) for t in ("mat", "the", "mat")]
        # the token -> id index is built once per vocabulary
        assert vocab.index is vocab.index

    def test_builtin_corpora(self, tmp_path):
        # the bundled corpora are fixed datasets, pinned byte for byte
        digests = {
            "alternating": "312a5a894ae40be025d28c9ebfecef27",
            "grammar3": "32b1bffdfd50ded219b434f7bfca7a53",
            "multimodal": "a15ac2d6c1a4e0542562e423599f81bd",
        }
        for name, digest in digests.items():
            path = builtin_file(name, str(tmp_path / f"{name}.txt"))
            raw = open(path, "rb").read()
            assert hashlib.blake2b(raw, digest_size=16).hexdigest() == digest, name
            assert len(ingest(path, "char").sequences) == 256

    def test_builtin_is_read_from_memory(self, tmp_path):
        for name in ("alternating", "grammar3", "multimodal"):
            from_file = ingest(builtin_file(name, str(tmp_path / f"{name}.txt")), "char", max_len=12)
            from_memory = ingest(f"builtin:{name}", "char", max_len=12)
            assert from_memory.vocab == from_file.vocab
            assert [s.tolist() for s in from_memory.sequences] == [s.tolist() for s in from_file.sequences]
        with pytest.raises(IoError, match="unknown builtin corpus 'nope'"):
            ingest("builtin:nope")

    @staticmethod
    def _random_text(tokenizer):
        """300 seeded lines of 0 to 20 tokens; a few are empty or one token long, some are long."""
        rng = RngStream(47, "ingest").generator()
        letters = list("abcdeé漢ß")
        words = ["the", "cat", "café", "naïve", "über", "straße", "日本", "a", "b"]
        alphabet, sep = (letters, "") if tokenizer == "char" else (words, " ")
        return "".join(sep.join(rng.choice(alphabet, size=int(rng.integers(0, 21)))) + "\n" for _ in range(300))

    @pytest.mark.parametrize(
        "tokenizer, text, max_len",
        [
            # a truncated line, dropped lines (one token, empty), non-ASCII
            # tokens, and a, b, c tied at 4 with é and 漢 tied at 2
            ("char", "abcabcabc\nx\n\ncba\néé漢漢\ncab\n漢\n", 6),
            ("char", None, 12),
            ("char", None, 250),
            # a truncated line, dropped lines (one word, blank), non-ASCII
            # words, and "zeta" tied with "alpha"
            ("whitespace", "the cat sat on the mat and the dog\nsolo\n  \nnaïve café naïve\nüber straße\nzeta alpha\nalpha  zeta\n", 4),
            ("whitespace", None, 5),
            ("whitespace", None, 250),
        ],
    )
    def test_matches_the_per_line_reference(self, tmp_path, tokenizer, text, max_len):
        path = tmp_path / "corpus.txt"
        path.write_text(self._random_text(tokenizer) if text is None else text, encoding="utf-8")
        corpus = ingest(str(path), tokenizer, max_len)
        tokens, sequences = reference_ingest(str(path), tokenizer, max_len)
        assert corpus.vocab.tokens == tokens
        assert len(corpus.sequences) == len(sequences)
        for got, want in zip(corpus.sequences, sequences):
            assert got.dtype == np.int64 and got.tolist() == want.tolist()

    def test_error_messages(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("a\n\nb\n")
        with pytest.raises(EmptyCorpus) as caught:
            ingest(str(path), "char")
        assert str(caught.value) == f"no usable sequences in {path}"
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"caf\xe9 au lait\n")
        for missing in (bad, tmp_path / "missing.txt"):
            with pytest.raises(IoError) as caught:
                ingest(str(missing), "char")
            assert str(caught.value).startswith(f"cannot read corpus {missing}: ")

    @pytest.mark.parametrize("reserved", ["<pad>", "<mask>"])
    def test_a_word_spelled_like_a_reserved_token_is_refused(self, tmp_path, reserved):
        # such a word would get a second id that decodes to the reserved id's text
        path = tmp_path / "words.txt"
        path.write_text(f"the {reserved} sat\nthe cat sat\n")
        with pytest.raises(IoError) as caught:
            ingest(str(path), "whitespace")
        assert str(caught.value) == f"corpus {path} holds the reserved token {reserved!r}"

    def test_resolve_corpus_reads_a_builtin_from_memory_and_writes_its_copy(self, tmp_path):
        # whitespace splits each alternating line into one token, too few to keep
        out = tmp_path / "out"
        with pytest.raises(EmptyCorpus, match="no usable sequences in builtin:alternating"):
            harness.resolve_corpus(RunConfig(tokenizer="whitespace"), str(out))
        assert not out.exists()
        corpus = harness.resolve_corpus(RunConfig(max_len=12), str(out))
        assert corpus.vocab == ingest("builtin:alternating", "char", max_len=12).vocab
        assert (out / "corpus_alternating.txt").read_bytes() == open(builtin_file("alternating", str(tmp_path / "a.txt")), "rb").read()

    def test_each_set_up_builds_a_builtin_once(self, tmp_path, monkeypatch):
        calls = []
        build = corpus_module.BUILTIN_CORPORA["alternating"]
        monkeypatch.setitem(corpus_module.BUILTIN_CORPORA, "alternating", lambda: calls.append(1) or build())
        config = RunConfig(steps=1, log_interval=1, max_len=12)
        for i in range(2):
            harness.resolve_corpus(config, str(tmp_path / f"resolved{i}"))
            assert len(calls) == i + 1
        result = harness.run_training(config, str(tmp_path / "run"))
        assert len(calls) == 3
        harness.run_probe(result.checkpoint_path, result.checkpoint_path, "builtin:alternating", str(tmp_path / "probe"), n_eval=2, n_noise=4, max_len=12)
        assert len(calls) == 4
        for out in ("resolved0", "resolved1", "run", "probe"):
            assert (tmp_path / out / "corpus_alternating.txt").read_text(encoding="utf-8") == build()


class TestMakeBatch:
    def test_matches_buckets_rebuilt_every_step(self, tmp_path):
        paths = [builtin_file(name, str(tmp_path / f"{name}.txt")) for name in ("alternating", "grammar3", "multimodal")]
        # the builtins each hold one line length; this corpus holds many
        rng = RngStream(31, "lines").generator()
        mixed = tmp_path / "mixed.txt"
        mixed.write_text("".join("".join(rng.choice(list("abcd"), size=int(rng.integers(2, 30)))) + "\n" for _ in range(300)))
        paths.append(str(mixed))
        for path in paths:
            corpus = ingest(path, "char")
            assert "buckets" not in vars(corpus)  # built on first use, not at ingest
            for seed in (0, 1, 7):
                for step in range(1, 26):
                    for batch_size in (1, 8):
                        batch = harness.make_batch(corpus, batch_size, seed, step)
                        expected = reference_make_batch(corpus, batch_size, seed, step)
                        assert [x.tobytes() for x in batch] == [x.tobytes() for x in expected], (path, seed, step)
            assert "buckets" in vars(corpus)
        assert len(corpus.buckets) > 20


class TestConfig:
    def test_file_round_trip(self, tmp_path):
        cfg = RunConfig(steps=42, lr=0.5, eta_ratio=None, eta_fixed=3, mode="masked")
        path = tmp_path / "run.cfg"
        path.write_text(dump_config(cfg))
        loaded = load_config(str(path))
        assert loaded == cfg

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\nsteps = 7\nmode = masked\n")
        cfg = load_config(str(path))
        assert cfg.steps == 7 and cfg.mode == "masked"

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_key = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_override_precedence(self):
        cfg = apply_overrides(RunConfig(steps=10), {"steps": 99})
        assert cfg.steps == 99
        assert cfg.seed == 0

    def test_override_clears_optional_field(self):
        cfg = apply_overrides(RunConfig(), {"eta_ratio": None, "eta_fixed": 5})
        assert cfg.eta_ratio is None
        assert cfg.eta_fixed == 5

    def test_flag_clears_optional_field(self, tmp_path):
        out = str(tmp_path / "fix")
        args = tiny_train_args(out, ["--eta-ratio", "none", "--eta-fixed", "3"])
        assert cli.main(args) == 0
        cfg = load_config(os.path.join(out, "run.cfg"))
        assert cfg.eta_ratio is None and cfg.eta_fixed == 3

    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="nonsense")

    def test_eta_exclusivity(self):
        with pytest.raises(ConfigError):
            RunConfig(eta_ratio=0.1, eta_fixed=5)

    def test_run_level_length_range_is_an_unknown_key(self, tmp_path):
        # a run's length range is derived from max_positions, never set
        path = tmp_path / "old.cfg"
        path.write_text("steps = 7\nl_max = 400\n")
        with pytest.raises(ConfigError, match="'l_max'"):
            load_config(str(path))

    def test_unit_norm_is_an_unknown_key(self, tmp_path, capsys):
        # word embeddings always stay on the unit sphere; an older run.cfg still names the switch
        path = tmp_path / "run.cfg"
        path.write_text(dump_config(RunConfig()) + "unit_norm = True\n")
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 2
        assert "unknown config key 'unit_norm'" in capsys.readouterr().err
        assert not out.exists()

    def test_k_curves_times_batch_size_is_bounded(self):
        # the K-curve head runs k_curves * batch_size sequences through the backbone
        RunConfig(k_curves=8192, batch_size=8)
        with pytest.raises(ConfigError, match=r"k_curves \* batch_size must be <= 65536, got 8193 \* 8"):
            RunConfig(k_curves=8193, batch_size=8)
        # a count below one is refused with the model's own message, not passed by the bound
        for k in (0, -3):
            with pytest.raises(ConfigError, match=rf"^k_curves must be >= 1, got {k}$"):
                RunConfig(k_curves=k)

    def test_a_config_is_checked_when_built_and_cannot_change(self):
        config = RunConfig()
        with pytest.raises(ConfigError, match="k_curves"):
            apply_overrides(config, {"k_curves": 8193})
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.k_curves = 8193


def tiny_train_args(out, extra=()):
    return [
        "train",
        "--out", out,
        "--steps", "20",
        "--batch-size", "2",
        "--log-interval", "5",
        "--schedule-steps", "10",
        "--d-model", "16",
        "--d-ff", "32",
        "--embed-dim", "8",
        "--time-dim", "8",
        "--seed", "3",
        *extra,
    ]


class TestTrainCommand:
    def test_writes_losses_and_checkpoint(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert cli.main(tiny_train_args(out)) == 0
        lines = open(os.path.join(out, "losses.csv")).read().strip().split("\n")
        assert lines[0] == "step,diffusion,anchor,total"
        assert len(lines) == 1 + 20 // 5
        assert os.path.exists(os.path.join(out, "model.ckpt"))

    def test_byte_identical_reruns(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert cli.main(tiny_train_args(out_a)) == 0
        assert cli.main(tiny_train_args(out_b)) == 0
        for name in ("losses.csv", "model.ckpt"):
            with open(os.path.join(out_a, name), "rb") as fa, open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_resume_continues_steps(self, tmp_path):
        out1 = str(tmp_path / "first")
        cli.main(tiny_train_args(out1))
        out2 = str(tmp_path / "second")
        args = tiny_train_args(out2, ["--resume", os.path.join(out1, "model.ckpt"), "--steps", "30"])
        assert cli.main(args) == 0
        lines = open(os.path.join(out2, "losses.csv")).read().strip().split("\n")
        steps = [int(x.split(",")[0]) for x in lines[1:]]
        assert steps == [25, 30]

    @pytest.mark.parametrize(
        "extra",
        [[], ["--mode", "masked", "--corpus", "builtin:grammar3", "--dropout", "0.1"], ["--k-curves", "2", "--dropout", "0.1"]],
        ids=["gaussian", "masked-dropout", "k2-dropout"],
    )
    def test_resume_is_exact(self, tmp_path, extra):
        # 20 steps in one run, and 10 steps then a resume to 20, write the same checkpoint
        whole, half, resumed = (str(tmp_path / name) for name in ("whole", "half", "resumed"))
        assert cli.main(tiny_train_args(whole, extra)) == 0
        assert cli.main(tiny_train_args(half, [*extra, "--steps", "10"])) == 0
        args = ["train", "--config", os.path.join(half, "run.cfg"), "--resume", os.path.join(half, "model.ckpt"),
                "--steps", "20", "--out", resumed]
        assert cli.main(args) == 0
        with open(os.path.join(whole, "model.ckpt"), "rb") as fa, open(os.path.join(resumed, "model.ckpt"), "rb") as fb:
            assert fa.read() == fb.read()
        lines = open(os.path.join(whole, "losses.csv")).read().split("\n")
        assert open(os.path.join(resumed, "losses.csv")).read().split("\n") == [lines[0], *lines[3:]]

    def test_resume_into_its_own_checkpoints_directory_is_exact(self, tmp_path):
        # the resumed run renames its new model.ckpt over the file it loaded,
        # which a store backed by that file would see change under it
        whole, half = str(tmp_path / "whole"), str(tmp_path / "half")
        assert cli.main(tiny_train_args(whole)) == 0
        assert cli.main(tiny_train_args(half, ["--steps", "10"])) == 0
        args = ["train", "--config", os.path.join(half, "run.cfg"), "--resume", os.path.join(half, "model.ckpt"),
                "--steps", "20", "--out", half]
        assert cli.main(args) == 0
        with open(os.path.join(whole, "model.ckpt"), "rb") as fa, open(os.path.join(half, "model.ckpt"), "rb") as fb:
            assert fa.read() == fb.read()

    def test_checkpoint_with_the_old_force_k_head_key_loads_and_resumes_exactly(self, tmp_path):
        # v2 files written before the K-curve head followed from k_curves alone carry "force_k_head": false
        whole, half, resumed = (str(tmp_path / name) for name in ("whole", "half", "resumed"))
        assert cli.main(tiny_train_args(whole)) == 0
        assert cli.main(tiny_train_args(half, ["--steps", "10"])) == 0
        path = os.path.join(half, "model.ckpt")
        raw = open(path, "rb").read()
        (header_len,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + header_len])
        assert "force_k_head" not in header
        payload = json.dumps({**header, "force_k_head": False}, sort_keys=True).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(raw[:8] + struct.pack("<Q", len(payload)) + payload + raw[16 + header_len :])
        model, step, loaded_header = checkpoint.load(path)
        assert step == 10 and loaded_header["force_k_head"] is False and not model.k_head
        args = ["train", "--config", os.path.join(half, "run.cfg"), "--resume", path, "--steps", "20", "--out", resumed]
        assert cli.main(args) == 0
        with open(os.path.join(whole, "model.ckpt"), "rb") as fa, open(os.path.join(resumed, "model.ckpt"), "rb") as fb:
            assert fa.read() == fb.read()
        lines = open(os.path.join(whole, "losses.csv")).read().split("\n")
        assert open(os.path.join(resumed, "losses.csv")).read().split("\n") == [lines[0], *lines[3:]]

    def test_corpus_line_outside_the_curve_range_exits_2_without_creating_out(self, tmp_path, capsys):
        # max_positions 40 gives the range [2, 20]; any step may draw the 30-token line
        short = tmp_path / "short.txt"
        short.write_text("ab" * 8 + "\n" + "ba" * 8 + "\n")
        mixed = tmp_path / "mixed.txt"
        mixed.write_text(short.read_text() * 25 + "ab" * 15 + "\n")
        settings = ["--max-positions", "40", "--steps", "60"]
        out = tmp_path / "run"
        assert cli.main(tiny_train_args(str(out), [*settings, "--corpus", str(mixed)])) == 2
        assert "corpus line lengths [30] outside the curve range [2, 20]" in capsys.readouterr().err
        assert not out.exists()
        # a model trained on the short lines refuses them too on resume
        assert cli.main(tiny_train_args(str(out), [*settings, "--corpus", str(short), "--steps", "5"])) == 0
        resumed = tmp_path / "resumed"
        args = tiny_train_args(str(resumed), [*settings, "--corpus", str(mixed), "--resume", str(out / "model.ckpt")])
        assert cli.main(args) == 2
        assert "corpus line lengths [30] outside the curve range [2, 20]" in capsys.readouterr().err
        assert not resumed.exists()

    def test_length_range_flag_is_gone_and_the_long_lines_exit_2_without_creating_out(self, tmp_path, capsys):
        # --l-max 400 once let 300-token lines past the range check, so the
        # first batch of them ended the run with 600 tokens > max_positions 512
        corpus = tmp_path / "mixed.txt"
        corpus.write_text(("ab" * 8 + "\n") * 4 + ("ab" * 150 + "\n") * 4)
        out = tmp_path / "run"
        settings = ["--corpus", str(corpus), "--max-len", "300", "--batch-size", "2"]
        with pytest.raises(SystemExit) as exc:
            cli.main(tiny_train_args(str(out), ["--l-max", "400", *settings]))
        assert exc.value.code == 2
        assert not out.exists()
        assert cli.main(tiny_train_args(str(out), settings)) == 2
        assert "corpus line lengths [300] outside the curve range [2, 256]" in capsys.readouterr().err
        assert not out.exists()

    def test_time_dim_0_trains_samples_and_resumes(self, tmp_path):
        # the time signal then comes from the time bias alone
        first, second, samples = (str(tmp_path / name) for name in ("first", "second", "samples"))
        assert cli.main(tiny_train_args(first, ["--time-dim", "0", "--steps", "10"])) == 0
        assert cli.main(["sample", os.path.join(first, "model.ckpt"), "--length", "16", "--steps", "3", "--n", "2", "--out", samples]) == 0
        args = ["train", "--config", os.path.join(first, "run.cfg"), "--resume", os.path.join(first, "model.ckpt"), "--steps", "20", "--out", second]
        assert cli.main(args) == 0
        masked = ["--time-dim", "0", "--mode", "masked", "--corpus", "builtin:grammar3", "--k-curves", "2", "--dropout", "0.1"]
        assert cli.main(tiny_train_args(str(tmp_path / "masked"), masked)) == 0

    def test_builtin_corpus_error_names_the_builtin_and_leaves_no_out(self, tmp_path, capsys):
        # whitespace splits each alternating line into one token, too few to keep
        out = tmp_path / "run"
        assert cli.main(tiny_train_args(str(out), ["--tokenizer", "whitespace"])) == 2
        err = capsys.readouterr().err
        assert "no usable sequences in builtin:alternating" in err
        assert tempfile.gettempdir() not in err
        assert not out.exists()

    @pytest.mark.parametrize("eta_fixed", ["0", "-3"])
    def test_fixed_degree_below_1_exits_2_without_creating_out(self, tmp_path, capsys, eta_fixed):
        out = tmp_path / "bad"
        assert cli.main(tiny_train_args(str(out), ["--eta-ratio", "none", "--eta-fixed", eta_fixed])) == 2
        assert f"eta_fixed must be >= 1, got {eta_fixed}" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_past_budget_rejected(self, tmp_path):
        out1 = str(tmp_path / "first")
        cli.main(tiny_train_args(out1))
        out2 = str(tmp_path / "second")
        args = tiny_train_args(out2, ["--resume", os.path.join(out1, "model.ckpt"), "--steps", "20"])
        assert cli.main(args) == 2

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--mode", "masked"], "mode"),
            (["--d-model", "32"], "backbone.d_model"),
            (["--seed", "9"], "seed"),
            (["--steps", "20"], "already at step 20"),
            pytest.param(["--corpus", "builtin:grammar3"], "resume checkpoint has vocab", id="extra4-vocabulary"),
            (["--k-curves", "2"], "k_curves"),
            (["--lambda-anchor", "0.5"], "lambda_anchor"),
            (["--schedule-kind", "linear"], "schedule.kind"),
            (["--n-ratio", "1.5"], "curve.n_ratio"),
        ],
    )
    def test_resume_that_disagrees_exits_2_without_creating_out(self, ckpt, tmp_path, capsys, extra, message):
        out = tmp_path / "resumed"
        assert cli.main(tiny_train_args(str(out), ["--resume", ckpt, "--steps", "30", *extra])) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda words: words.replace("w1500", "x1500"), "'w1500' at 1502 of 3002 tokens, these settings give 'w1501' at 1502 of 3002"),
            # a 301st line of two new words, each used once
            (lambda words: words + " zy zz", "none at 3002 of 3002 tokens, these settings give 'zy' at 3002 of 3004"),
        ],
        ids=["renamed-word", "added-word"],
    )
    def test_resume_on_another_vocabulary_names_its_first_difference(self, tmp_path, capsys, edit, message):
        # 3,000 distinct words, each used once: the vocabulary is pad, mask, then the words in order
        words = " ".join(f"w{i:04d}" for i in range(3000))

        def lines(text):
            split = text.split()
            return "".join(" ".join(split[i : i + 10]) + "\n" for i in range(0, len(split), 10))

        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        first.write_text(lines(words))
        second.write_text(lines(edit(words)))
        run = ["--tokenizer", "whitespace", "--max-len", "10", "--steps", "2"]
        assert cli.main(tiny_train_args(str(tmp_path / "run"), [*run, "--corpus", str(first)])) == 0
        resume = ["--resume", str(tmp_path / "run" / "model.ckpt"), "--corpus", str(second)]
        assert cli.main(tiny_train_args(str(tmp_path / "resumed"), [*run, *resume, "--steps", "4"])) == 2
        err = capsys.readouterr().err
        assert f"resume checkpoint has vocab {message} tokens;" in err
        assert len(err.encode()) < 300
        assert not (tmp_path / "resumed").exists()

    def test_resume_draws_no_initialisation(self, tmp_path, monkeypatch, capsys):
        out = str(tmp_path / "first")
        assert cli.main(tiny_train_args(out, ["--steps", "10"])) == 0
        drawn = []
        generator = RngStream.generator

        def no_init(self):
            drawn.append(self.labels[0])
            if self.labels[0] == "init":
                raise AssertionError(f"drew the stream {self.labels}")
            return generator(self)

        monkeypatch.setattr(RngStream, "generator", no_init)
        resume = ["--resume", os.path.join(out, "model.ckpt"), "--steps", "20"]
        # a disagreeing resume is refused before anything is drawn
        assert cli.main(tiny_train_args(str(tmp_path / "refused"), [*resume, "--seed", "9"])) == 2
        assert "resume checkpoint has seed 3, these settings give 9" in capsys.readouterr().err
        assert drawn == []
        assert cli.main(tiny_train_args(str(tmp_path / "resumed"), resume)) == 0
        assert "init" not in drawn and "batch" in drawn

    def test_resume_from_a_missing_checkpoint_exits_2_without_creating_out(self, tmp_path, capsys):
        out = tmp_path / "resumed"
        args = tiny_train_args(str(out), ["--resume", str(tmp_path / "missing.ckpt"), "--steps", "30"])
        assert cli.main(args) == 2
        assert "cannot read checkpoint" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "mode, steps",
        [
            pytest.param("masked", 20, id="masked"),
            pytest.param("gaussian", 20, id="gaussian"),
            # 3 steps at --log-interval 5 log no step
            pytest.param("masked", 3, id="masked-no-logged-step"),
            pytest.param("gaussian", 3, id="gaussian-no-logged-step"),
        ],
    )
    def test_masked_mode_csv_header(self, tmp_path, mode, steps):
        # the columns are the loss record's; a run that logs no step writes the header alone
        header = {"masked": "step,loss", "gaussian": "step,diffusion,anchor,total"}[mode]
        out = str(tmp_path / "m")
        args = tiny_train_args(out, ["--mode", mode, "--corpus", "builtin:grammar3", "--steps", str(steps)])
        assert cli.main(args) == 0
        text = open(os.path.join(out, "losses.csv")).read()
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert text.startswith(header + "\n")
        assert [row[0] for row in rows] == [str(step) for step in range(5, steps + 1, 5)]
        assert all(len(row) == header.count(",") + 1 for row in rows)

    def test_a_corpus_holding_a_reserved_token_exits_2_without_output(self, tmp_path):
        corpus = tmp_path / "words.txt"
        corpus.write_text("the <mask> sat\nthe cat <pad> sat\n")
        out = str(tmp_path / "run")
        assert cli.main(tiny_train_args(out, ["--corpus", str(corpus), "--tokenizer", "whitespace"])) == 2
        assert not os.path.exists(out)

    def test_dropout_outside_unit_interval_rejected_before_any_work(self, tmp_path):
        for i, rate in enumerate(("1.0", "-0.5")):
            out = tmp_path / f"drop{i}"
            out.mkdir()
            assert cli.main(tiny_train_args(str(out), ["--dropout", rate])) == 2
            assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--margin", "0.6"),
            ("--n-ratio", "0"),
            ("--k-curves", "0"),
            ("--heads", "3"),
            ("--heads", "0"),
            ("--time-dim", "3"),
            ("--schedule-kind", "foo"),
            ("--schedule-steps", "0"),
            ("--lr", "-1"),
            ("--lr", "nan"),
            ("--max-positions", "1"),
            ("--embed-dim", "0"),
            ("--d-model", "0"),
            ("--d-ff", "0"),
            ("--n-ratio", "300"),
            ("--n-ratio", "nan"),
            ("--n-ratio", "inf"),
            ("--eta-ratio", "nan"),
            ("--eta-ratio", "inf"),
            ("--time-dim", "-2"),
            ("--layers", "-1"),
            ("--beta1", "1.0"),
            ("--beta1", "-0.1"),
            ("--beta2", "1.5"),
            ("--beta2", "nan"),
            ("--adam-eps", "-1"),
            ("--adam-eps", "0"),
            ("--adam-eps", "nan"),
        ],
    )
    def test_bad_config_rejected_before_any_work(self, tmp_path, flag, value):
        out = tmp_path / "bad"
        out.mkdir()
        assert cli.main(tiny_train_args(str(out), [flag, value])) == 2
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--lambda-anchor", "nan"),
            ("--lambda-anchor", "inf"),
            ("--lambda-anchor", "-1"),
            ("--eta-ratio", "-0.5"),
            # L * n_ratio or N * eta_ratio overflows to inf, which int() cannot take
            ("--n-ratio", "1e308"),
            ("--eta-ratio", "1e308"),
            ("--max-len", "-5"),
            ("--max-len", "1"),
            # the error names max_positions, not the curve range derived from it
            ("--max-positions", "1"),
            ("--max-positions", "0"),
            ("--max-positions", "-5"),
            # a batch this large once ended in a raw numpy MemoryError from make_batch
            ("--batch-size", "100000000000"),
            # and a K-curve head this wide one from the backbone, mid-run
            ("--k-curves", "100000"),
            ("--tokenizer", "foo"),
            ("--corpus", "builtin:nope"),
            ("--corpus", "no-such-dir/corpus.txt"),
        ],
    )
    def test_bad_run_setting_exits_2_without_creating_out(self, tmp_path, capsys, flag, value):
        out = tmp_path / "bad"
        assert cli.main(tiny_train_args(str(out), [flag, value])) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    def test_writes_run_config(self, tmp_path):
        out = str(tmp_path / "cfg")
        cli.main(tiny_train_args(out))
        cfg = load_config(os.path.join(out, "run.cfg"))
        assert cfg.steps == 20

    def test_in_process_run_writes_the_run_config_its_resume_hint_names(self, tmp_path):
        config = RunConfig(steps=2, log_interval=1, max_len=12, d_model=16, d_ff=32, embed_dim=8, time_dim=8, eta_ratio=None, eta_fixed=3)
        out = tmp_path / "run"
        harness.run_training(config, str(out))
        assert load_config(str(out / "run.cfg")) == config


class TestReconstructCommand:
    def test_small_grid(self, tmp_path, capsys):
        out = str(tmp_path / "rec")
        code = cli.main(
            [
                "reconstruct",
                "--lengths", "10,20",
                "--n-ratios", "1.0,2.0",
                "--eta-ratios", "0.0,0.33",
                "--trials", "5",
                "--out", out,
            ]
        )
        assert code == 0
        lines = open(os.path.join(out, "reconstruction.csv")).read().strip().split("\n")
        assert lines[0] == "L,n_ratio,eta_ratio,mse,rank,cond"
        assert len(lines) == 1 + 8
        payload = json.loads(open(os.path.join(out, "reconstruction.json")).read())
        assert len(payload) == 8

    def test_deterministic(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = str(tmp_path / name)
            cli.main(["reconstruct", "--lengths", "10", "--n-ratios", "1.5", "--eta-ratios", "0.33", "--trials", "5", "--out", out])
            outs.append(open(os.path.join(out, "reconstruction.csv")).read())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--n-ratios", "nan"),
            ("--n-ratios", "1.0,inf"),
            ("--n-ratios", "1e308"),
            ("--eta-ratios", "nan"),
            ("--eta-ratios", "-0.1"),
            ("--eta-ratios", "0.0,-0.1"),
            ("--lengths", "1"),
            ("--dim", "0"),
            ("--dim", "-1"),
            ("--lengths", "10,abc"),
            ("--lengths", "10,"),
            ("--lengths", "1.5"),
            ("--n-ratios", "1.0,x"),
            ("--eta-ratios", "0.1;0.2"),
        ],
    )
    def test_bad_value_exits_2_without_output(self, tmp_path, capsys, flag, value):
        out = tmp_path / "rec"
        args = ["reconstruct", "--lengths", "10", "--n-ratios", "1.5", "--eta-ratios", "0.33", "--trials", "2"]
        assert cli.main(args + [flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestSpectrumCommand:
    def test_json_fields(self, tmp_path):
        out = str(tmp_path / "spec")
        assert cli.main(["spectrum", "--length", "12", "--n-ratio", "2.0", "--eta-ratio", "0.1", "--out", out]) == 0
        payload = json.loads(open(os.path.join(out, "spectrum_L12.json")).read())
        for key in ("eigenvalues", "lambda_max", "lambda_min_nonzero", "ratio", "ratio_bound", "importance_global", "importance_local", "L", "N", "eta"):
            assert key in payload
        assert payload["L"] == 12
        assert len(payload["importance_local"]) == 12

    def test_stdout_mode(self, capsys):
        assert cli.main(["spectrum", "--length", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["L"] == 6

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--n-ratio", "nan"),
            ("--n-ratio", "inf"),
            ("--eta-ratio", "nan"),
            ("--eta-ratio", "-0.5"),
            ("--n-ratio", "1e308"),
            ("--eta-ratio", "1e308"),
            ("--eta-fixed", "0"),
            ("--eta-fixed", "-2"),
            ("--length", "1"),
        ],
    )
    def test_bad_value_exits_2_without_output(self, tmp_path, capsys, flag, value):
        out = tmp_path / "spec"
        assert cli.main(["spectrum", "--length", "12", flag, value, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--length", "8", "--n-ratio", "1e20"],
        ["reconstruct", "--lengths", "8", "--n-ratios", "1e20", "--eta-ratios", "0.1"],
        # N = 2L: a finite product, then a basis numpy cannot size
        ["spectrum", "--length", "9" * 301],
        # L past the largest float: the product itself overflows
        ["spectrum", "--length", "9" * 320],
    ],
    ids=["spectrum-n-ratio", "reconstruct-n-ratios", "spectrum-301-digit-length", "spectrum-320-digit-length"],
)
def test_a_basis_numpy_cannot_size_exits_2_without_output(args, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--length", "8", "--n-ratio", "1e15"],
        ["reconstruct", "--lengths", "8", "--n-ratios", "1e15", "--eta-ratios", "0.1"],
    ],
    ids=["spectrum-n-ratio", "reconstruct-n-ratios"],
)
def test_a_basis_the_machine_cannot_hold_exits_2_without_output(args, tmp_path):
    # numpy can size this basis (N * L = 6.4e16); a 4 GiB address-space
    # limit makes its allocation fail at once under any overcommit policy
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "curvelang.cli", *args, "--out", str(out)],
        capture_output=True, text=True, env=env, preexec_fn=limit_address_space, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1 and proc.stdout == ""
    assert not out.exists()


class TestVerifyCommand:
    def test_all_passes_without_checkpoint(self, tmp_path, capsys):
        out = str(tmp_path / "ver")
        assert cli.main(["verify", "all", "--seed", "0", "--out", out]) == 0
        table = capsys.readouterr().out
        assert "asserted checks passed" in table
        payload = json.loads(open(os.path.join(out, "verify_all.json")).read())
        assert all(r["passed"] for r in payload if r["asserted"])

    def test_single_suite(self, capsys):
        assert cli.main(["verify", "lemma2", "--seed", "1"]) == 0

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "lemma9"])
        assert exc.value.code == 2


@pytest.mark.parametrize("args", [["spectrum", "--length", "12"], ["verify", "lemma1"]])
def test_closed_stdout_exits_1_without_a_traceback(args):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "curvelang.cli", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # long before the command has imported numpy, let alone printed
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 1
    assert err == b""


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("train"))
    cli.main(tiny_train_args(out))
    return os.path.join(out, "model.ckpt")


class TestSampleCommand:
    def test_outputs(self, ckpt, tmp_path):
        out = str(tmp_path / "samp")
        assert cli.main(["sample", ckpt, "--length", "16", "--steps", "5", "--n", "2", "--seed", "1", "--out", out]) == 0
        texts = open(os.path.join(out, "samples.txt")).read().strip().split("\n")
        assert len(texts) == 2
        traj = json.loads(open(os.path.join(out, "sample_0_trajectory.json")).read())
        assert len(traj) == 5
        assert {"step", "values"} <= set(traj[0])
        proj_lines = open(os.path.join(out, "sample_0_projection.csv")).read().strip().split("\n")
        assert proj_lines[0] == "step,point_index,pc1,pc2"
        for line in proj_lines[1:]:
            step, index, pc1, pc2 = line.split(",")
            int(step), int(index), float(pc1), float(pc2)

    def test_checkpoint_with_a_unit_norm_entry_loads_samples_and_resumes(self, ckpt, tmp_path):
        # a header written before the switch went records "unit_norm": true
        data = open(ckpt, "rb").read()
        header_len = int.from_bytes(data[8:16], "little")
        header = json.loads(data[16 : 16 + header_len])
        payload = json.dumps({**header, "unit_norm": True}, sort_keys=True).encode()
        old = tmp_path / "old.ckpt"
        old.write_bytes(data[:8] + len(payload).to_bytes(8, "little") + payload + data[16 + header_len :])
        assert checkpoint.settings(checkpoint.load(str(old))[0]) == checkpoint.settings(checkpoint.load(ckpt)[0])
        for name, path in (("old", str(old)), ("new", ckpt)):
            assert cli.main(["sample", path, "--length", "16", "--steps", "5", "--n", "1", "--out", str(tmp_path / f"sample_{name}")]) == 0
            assert cli.main(tiny_train_args(str(tmp_path / f"resumed_{name}"), ["--resume", path, "--steps", "25"])) == 0
        for out in ("sample_{}/samples.txt", "resumed_{}/model.ckpt"):
            assert (tmp_path / out.format("old")).read_bytes() == (tmp_path / out.format("new")).read_bytes()

    def test_length_outside_the_corpus_range(self, ckpt, tmp_path, capsys, monkeypatch):
        # every line of builtin:alternating is 16 tokens long
        out = str(tmp_path / "long")
        assert cli.main(["sample", ckpt, "--length", "20", "--steps", "3", "--n", "1", "--out", out]) == 0
        traj = json.loads(open(os.path.join(out, "sample_0_trajectory.json")).read())
        assert len(traj[0]["values"]) == 8 * 20
        # the default range stops at L = 256, the last length whose
        # N = 2 * L control points fit in max_positions = 512, so longer
        # lengths fail before any pair is built
        built = []
        monkeypatch.setattr(splines, "build_pair", lambda *args, **kwargs: built.append(args))
        for length in ("257", "300", "513"):
            assert cli.main(["sample", ckpt, "--length", length, "--steps", "3", "--n", "1", "--out", out]) == 2
            assert "outside [2, 256]" in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize(
        "flag, value", [("--n", "0"), ("--n", "-1"), ("--steps", "0"), ("--length", "1"), ("--length", "300")]
    )
    def test_bad_argument_exits_2_without_output(self, ckpt, tmp_path, capsys, flag, value):
        out = tmp_path / "samp"
        assert cli.main(["sample", ckpt, "--length", "16", "--steps", "3", "--n", "1", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @staticmethod
    def _header_without_seed(header, body):
        del header["seed"]
        return json.dumps(header), body

    @staticmethod
    def _header_as_list(header, body):
        return json.dumps([header]), body

    @staticmethod
    def _parameter_renamed(header, body):
        assert header["params"][0] == "emb"
        header["params"][0] = "emx"
        return json.dumps(header), body

    @staticmethod
    def _parameter_unlisted(header, body):
        # the last parameter's state stays behind as bytes nothing would read
        header["params"].pop()
        return json.dumps(header), body

    @staticmethod
    def _parameter_and_state_unlisted(header, body):
        # the last parameter goes, and the state shrinks by its three
        # buffers' worth, so the length fits a model without it
        assert header["params"].pop() == "out_b"  # embed_dim = 8 values
        return json.dumps(header), body[: -3 * 8 * 8]

    @staticmethod
    def _parameters_reordered(header, body):
        header["params"][:2] = header["params"][1::-1]
        return json.dumps(header), body

    @staticmethod
    def _trailing_byte(header, body):
        return json.dumps(header), body + b"\x00"

    @staticmethod
    def _extra_float(header, body):
        return json.dumps(header), body + np.zeros(1, "<f8").tobytes()

    @staticmethod
    def _negative_step(header, body):
        header["step"] = -5
        return json.dumps(header), body

    @staticmethod
    def _negative_opt_step_count(header, body):
        header["opt_step_count"] = -3
        return json.dumps(header), body

    @staticmethod
    def _fractional_step(header, body):
        header["step"] = 2.5
        return json.dumps(header), body

    @staticmethod
    def _nan_in_last_value(header, body):
        # the file's last float, an Adam second moment, under a checksum
        # rewritten to match, so the finite check is the one that fails
        body = body[:-8] + np.array([np.nan], "<f8").tobytes()
        header["state_crc32"] = zlib.crc32(body)
        return json.dumps(header), body

    @staticmethod
    def _flipped_bit(header, body):
        # the lowest mantissa bit of the first parameter value: still finite
        flipped = bytes([body[0] ^ 1]) + body[1:]
        assert np.isfinite(np.frombuffer(flipped[:8], "<f8")).all()
        return json.dumps(header), flipped

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            ("_header_without_seed", "no entry 'seed'"),
            ("_header_as_list", "not an object"),
            ("_parameter_renamed", r"lacks parameters \['emb'\] and has unknown \['emx'\]"),
            ("_parameter_unlisted", r"lacks parameters \['out_b'\] and has unknown \[\]"),
            ("_parameter_and_state_unlisted", r"lacks parameters \['out_b'\] and has unknown \[\]"),
            ("_parameters_reordered", r"lacks parameters \[\] and has unknown \[\], or lists them out of the model's order"),
            ("_trailing_byte", r"bytes of state where its model has \d+ \(\+1\)"),
            ("_extra_float", r"bytes of state where its model has \d+ \(\+8\)"),
            ("_negative_step", "step must be an integer >= 0, got -5"),
            ("_negative_opt_step_count", "opt_step_count must be an integer >= 0, got -3"),
            ("_fractional_step", "step must be an integer >= 0, got 2.5"),
            ("_nan_in_last_value", "non-finite value"),
            ("_flipped_bit", "checksum"),
        ],
        ids=["no-seed", "list", "renamed-blob", "unlisted-parameter", "parameter-and-blobs-unlisted",
             "reordered-parameters", "trailing-byte", "extra-blob", "negative-step", "negative-opt-step-count",
             "fractional-step", "nan-blob", "flipped-bit"],
    )
    def test_malformed_checkpoint_exits_2_without_output(self, ckpt, tmp_path, capsys, corrupt, message):
        raw = open(ckpt, "rb").read()
        (header_len,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + header_len])
        payload, body = getattr(self, corrupt)(header, raw[16 + header_len :])
        payload = payload.encode("utf-8")
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(raw[:8] + struct.pack("<Q", len(payload)) + payload + body)
        with pytest.raises(IoError, match=message):
            checkpoint.load(str(broken))
        out = tmp_path / "samp"
        assert cli.main(["sample", str(broken), "--length", "16", "--steps", "3", "--n", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_format_version_1_exits_2_without_output(self, ckpt, tmp_path, capsys):
        # a version-1 file (float32 blobs) is refused by its version alone
        raw = open(ckpt, "rb").read()
        old = tmp_path / "v1.ckpt"
        old.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
        with pytest.raises(CheckpointVersionMismatch, match="format version 1, expected 2"):
            checkpoint.load(str(old))
        out = tmp_path / "samp"
        assert cli.main(["sample", str(old), "--length", "16", "--steps", "3", "--n", "1", "--out", str(out)]) == 2
        assert "format version 1" in capsys.readouterr().err
        assert not out.exists()

    def test_reload_same_seed_identical(self, ckpt, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = str(tmp_path / name)
            cli.main(["sample", ckpt, "--length", "16", "--steps", "4", "--n", "2", "--seed", "7", "--out", out])
            outs.append(open(os.path.join(out, "samples.txt"), "rb").read())
        assert outs[0] == outs[1]


def _dir_bytes(path):
    return {name: open(os.path.join(path, name), "rb").read() for name in sorted(os.listdir(path))}


class TestMaskedAndProbeDeterminism:
    def test_masked_sample_and_probe_files_byte_identical_across_reruns(self, tmp_path):
        common = ["--corpus", "builtin:multimodal", "--max-len", "12", "--steps", "10"]
        ckpts = []
        for mode in ("masked", "masked-identity"):
            out = str(tmp_path / mode)
            assert cli.main(tiny_train_args(out, common + ["--mode", mode])) == 0
            ckpts.append(os.path.join(out, "model.ckpt"))
        runs = []
        for name in ("r1", "r2"):
            sample_out = str(tmp_path / name / "sample")
            probe_out = str(tmp_path / name / "probe")
            args = ["sample", ckpts[0], "--length", "12", "--steps", "4", "--n", "2", "--seed", "3", "--out", sample_out]
            assert cli.main(args) == 0
            args = ["probe", *ckpts, "--corpus", "builtin:multimodal", "--n-eval", "2", "--n-noise", "16", "--out", probe_out]
            assert cli.main(args) == 0
            runs.append((_dir_bytes(sample_out), _dir_bytes(probe_out)))
        assert len(runs[0][0]) == 5 and "probe.json" in runs[0][1]
        assert runs[0] == runs[1]


class TestProjection:
    def test_beats_random_axes_on_line_cloud(self):
        rng = RngStream(17, "line").generator()
        t = rng.random(60) * 10
        direction = np.array([2.0, -1.0, 0.5])
        cloud = t[:, None] * direction + 0.05 * rng.standard_normal((60, 3))
        pca = harness.top2_projection(cloud)
        axes = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        centered = cloud - cloud.mean(axis=0)
        random_proj = centered @ axes
        assert stress(centered, pca) < stress(centered, random_proj)

    def test_deterministic(self):
        cloud = RngStream(18, "pc").normal((30, 4))
        npt.assert_array_equal(harness.top2_projection(cloud), harness.top2_projection(cloud))

    def test_matches_svd_oracle_when_eigenvalues_are_close(self):
        # a (504, 32) cloud whose covariance has exactly these eigenvalues;
        # the 2nd and 3rd are 0.5% apart
        rng = RngStream(19, "close").generator()
        n, d = 504, 32
        eigenvalues = np.concatenate([[4.0, 2.0, 1.99], np.linspace(1.0, 0.1, d - 3)])
        z = rng.standard_normal((n, d))
        q = np.linalg.qr(z - z.mean(axis=0))[0]
        rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
        cloud = (q * np.sqrt(n * eigenvalues)) @ rotation + 3.0
        centered = cloud - cloud.mean(axis=0)
        vt = np.linalg.svd(centered, full_matrices=False)[2][:2]
        vt *= np.sign(vt @ np.arange(1.0, d + 1.0))[:, None]
        npt.assert_allclose(harness.top2_projection(cloud), centered @ vt.T, rtol=0, atol=1e-10)

    def test_one_dimensional_cloud(self):
        proj = harness.top2_projection(np.array([[1.0], [4.0], [-2.0]]))
        npt.assert_allclose(proj, [[0.0, 0.0], [3.0, 0.0], [-3.0, 0.0]], atol=1e-15)


class TestProbeCommand:
    def test_probe_compares_two_checkpoints(self, tmp_path):
        out_a = str(tmp_path / "ma")
        out_b = str(tmp_path / "mb")
        common = ["--corpus", "builtin:multimodal", "--max-len", "12", "--steps", "15"]
        cli.main(tiny_train_args(out_a, common))
        cli.main(tiny_train_args(out_b, common + ["--mode", "baseline-identity"]))
        out = str(tmp_path / "probe")
        code = cli.main(
            [
                "probe",
                os.path.join(out_a, "model.ckpt"),
                os.path.join(out_b, "model.ckpt"),
                "--corpus", "builtin:multimodal",
                "--n-eval", "2",
                "--n-noise", "16",
                "--seed", "0",
                "--out", out,
            ]
        )
        assert code == 0
        payload = json.loads(open(os.path.join(out, "probe.json")).read())
        assert {"model_a", "model_b", "difference"} <= set(payload)
        diff = payload["model_a"]["mean_offdiag_dcor"] - payload["model_b"]["mean_offdiag_dcor"]
        npt.assert_allclose(payload["difference"], diff, atol=1e-12)


@pytest.fixture(scope="module")
def probe_ckpts(tmp_path_factory):
    root = tmp_path_factory.mktemp("probe_models")
    common = ["--corpus", "builtin:multimodal", "--max-len", "12", "--steps", "15"]
    paths = []
    for name, extra in (("curve", []), ("identity", ["--mode", "baseline-identity"])):
        out = str(root / name)
        cli.main(tiny_train_args(out, common + extra))
        paths.append(os.path.join(out, "model.ckpt"))
    return paths


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


class TestProbeInputs:
    def _probe(self, ckpts, out, *extra):
        return cli.main(["probe", *ckpts, "--corpus", "builtin:multimodal", "--n-eval", "2", "--n-noise", "8",
                         "--out", out, *extra])

    @pytest.mark.parametrize(
        "flag, value, names",
        [
            ("--n-noise", "0", "n_noise"),
            ("--n-noise", "1", "n_noise"),
            ("--n-noise", "-3", "n_noise"),
            ("--dropout-p", "1.0", "dropout_p"),
            ("--dropout-p", "1.5", "dropout_p"),
            ("--noise-scale", "-1", "noise_scale"),
            ("--n-eval", "0", "n_eval"),
        ],
    )
    def test_bad_value_exits_2_without_output(self, probe_ckpts, tmp_path, capsys, flag, value, names):
        out = str(tmp_path / "probe")
        assert self._probe(probe_ckpts, out, flag, value) == 2
        assert names in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "probe.json"))

    @pytest.mark.parametrize("value", ["-5", "1"])
    def test_bad_max_len_exits_2_without_creating_out(self, probe_ckpts, tmp_path, capsys, value):
        out = str(tmp_path / "probe")
        assert self._probe(probe_ckpts, out, "--max-len", value) == 2
        assert "max_len" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--tokenizer", "foo", "unknown tokenizer 'foo'"), ("--corpus", "builtin:nope", "unknown builtin corpus")],
    )
    def test_bad_corpus_setting_exits_2_before_loading(self, probe_ckpts, tmp_path, capsys, monkeypatch, flag, value, message):
        def refuse(path):
            raise AssertionError(f"checkpoint {path} loaded")

        monkeypatch.setattr(checkpoint, "load", refuse)
        out = str(tmp_path / "probe")
        assert self._probe(probe_ckpts, out, flag, value) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_non_finite_result_exits_2_without_output(self, probe_ckpts, tmp_path, capsys, monkeypatch):
        # a checkpoint that holds a NaN does not load, so the NaN goes into
        # the first model's weights as it is loaded
        load = checkpoint.load

        def load_with_nan(path):
            model, step, header = load(path)
            if path == probe_ckpts[0]:
                model.store["out_w"].data[...] = np.nan
            return model, step, header

        monkeypatch.setattr(checkpoint, "load", load_with_nan)
        out = str(tmp_path / "probe")
        with pytest.raises(NonFinite):
            harness.run_probe(probe_ckpts[0], probe_ckpts[1], "builtin:multimodal", out, n_eval=2, n_noise=8)
        assert self._probe(list(probe_ckpts), out) == 2
        assert "nan" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "probe.json"))

    def test_vocabulary_mismatch_exits_2_without_creating_out(self, probe_ckpts, tmp_path, capsys):
        out = str(tmp_path / "probe")
        args = ["probe", *probe_ckpts, "--corpus", "builtin:alternating", "--n-eval", "2", "--n-noise", "8",
                "--out", out]
        assert cli.main(args) == 2
        assert "vocabulary" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_vocabulary_mismatch_names_the_checkpoint_and_its_first_difference(self, probe_ckpts, tmp_path, capsys):
        assert self._probe(probe_ckpts, str(tmp_path / "probe"), "--corpus", "builtin:alternating") == 2
        assert capsys.readouterr().err == (
            f"error: probe checkpoint {probe_ckpts[0]} has vocabulary 'c' at 2 of 6 tokens,"
            " the probe corpus gives 'a' at 2 of 4 tokens\n"
        )

    def test_k_curve_head_checkpoint_exits_2_without_creating_out(self, probe_ckpts, tmp_path, capsys):
        # such a model predicts through curve tokens and a scorer, which the probe's single-curve decode bypasses
        k2 = str(tmp_path / "k2")
        assert cli.main(tiny_train_args(k2, ["--corpus", "builtin:multimodal", "--max-len", "12", "--steps", "2", "--k-curves", "2"])) == 0
        capsys.readouterr()
        out = str(tmp_path / "probe")
        assert self._probe([probe_ckpts[0], os.path.join(k2, "model.ckpt")], out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "K-curve head" in err
        assert not os.path.exists(out)

    def test_truncated_checkpoint_exits_2_without_creating_out(self, probe_ckpts, tmp_path, capsys):
        data = open(probe_ckpts[0], "rb").read()
        cut = str(tmp_path / "cut.ckpt")
        with open(cut, "wb") as fh:
            fh.write(data[: len(data) // 2])
        out = str(tmp_path / "probe")
        assert self._probe([cut, probe_ckpts[1]], out) == 2
        assert "error" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_good_run_writes_strict_json(self, probe_ckpts, tmp_path):
        out = str(tmp_path / "probe")
        assert self._probe(probe_ckpts, out) == 0
        payload = _strict_json(os.path.join(out, "probe.json"))
        for key in ("model_a", "model_b"):
            assert 0.0 <= payload[key]["mean_offdiag_dcor"] <= 1.0
        assert payload["n_noise"] == 8 and payload["n_eval"] == 2


# each command's arguments, given its --out, the training checkpoint and the probe pair
OUT_COMMANDS = {
    "train": lambda out, ckpt, pair: tiny_train_args(out),
    "sample": lambda out, ckpt, pair: ["sample", ckpt, "--length", "16", "--steps", "2", "--n", "1", "--out", out],
    "probe": lambda out, ckpt, pair: ["probe", *pair, "--n-eval", "2", "--n-noise", "8", "--out", out],
    "reconstruct": lambda out, ckpt, pair: ["reconstruct", "--lengths", "8", "--n-ratios", "2.0", "--eta-ratios", "0.1",
                                            "--trials", "1", "--dim", "2", "--out", out],
    "spectrum": lambda out, ckpt, pair: ["spectrum", "--length", "12", "--out", out],
    "verify": lambda out, ckpt, pair: ["verify", "lemma1", "--out", out],
}


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("command", list(OUT_COMMANDS))
def test_an_out_that_cannot_be_made_exits_2_and_writes_nothing(command, under, ckpt, probe_ckpts, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = str(taken / "out" if under else taken)
    assert cli.main(OUT_COMMANDS[command](out, ckpt, probe_ckpts)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot make directory {out}: ") and err.count("\n") == 1, err
    assert os.listdir(tmp_path) == ["taken"] and taken.read_text() == "kept\n"
