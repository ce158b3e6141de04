"""Corpus ingestion, config files, CLI subcommands, and output determinism."""

import json
import os

import numpy as np
import numpy.testing as npt
import pytest

from curvelang import checkpoint, cli, harness, splines
from curvelang.config import RunConfig, apply_overrides, dump_config, load_config
from curvelang.corpus import ingest, write_builtin
from curvelang.errors import ConfigError, EmptyCorpus, NonFinite
from curvelang.rng import RngStream

from _oracles import reference_make_batch, stress


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

    def test_vocab_order_frequency_then_lexicographic(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("bbbaa\ncc bb\n".replace(" ", ""))
        corpus = ingest(str(path), "char")
        # b:5, a:2, c:2 -> b, a, c after reserved ids
        assert corpus.vocab.tokens[2:] == ("b", "a", "c")

    def test_builtin_corpora(self, tmp_path):
        for name in ("alternating", "grammar3", "multimodal"):
            path = write_builtin(name, str(tmp_path / f"{name}.txt"), seed=1)
            corpus = ingest(path, "char")
            assert len(corpus.sequences) > 0


class TestMakeBatch:
    def test_matches_buckets_rebuilt_every_step(self, tmp_path):
        paths = [write_builtin(name, str(tmp_path / f"{name}.txt")) for name in ("alternating", "grammar3", "multimodal")]
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
            RunConfig(mode="nonsense").validate()

    def test_eta_exclusivity(self):
        with pytest.raises(ConfigError):
            RunConfig(eta_ratio=0.1, eta_fixed=5).validate()


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

    def test_resume_past_budget_rejected(self, tmp_path):
        out1 = str(tmp_path / "first")
        cli.main(tiny_train_args(out1))
        out2 = str(tmp_path / "second")
        args = tiny_train_args(out2, ["--resume", os.path.join(out1, "model.ckpt"), "--steps", "20"])
        assert cli.main(args) == 2

    def test_masked_mode_csv_header(self, tmp_path):
        out = str(tmp_path / "m")
        args = tiny_train_args(out, ["--mode", "masked", "--corpus", "builtin:grammar3"])
        assert cli.main(args) == 0
        first = open(os.path.join(out, "losses.csv")).read().split("\n")[0]
        assert first == "step,loss"

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

    def test_writes_run_config(self, tmp_path):
        out = str(tmp_path / "cfg")
        cli.main(tiny_train_args(out))
        cfg = load_config(os.path.join(out, "run.cfg"))
        assert cfg.steps == 20


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
        assert lines[0] == "L,n_ratio,eta_ratio,mse"
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
            ("--eta-ratios", "nan"),
            ("--dim", "0"),
            ("--dim", "-1"),
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

    @pytest.mark.parametrize("flag, value", [("--n-ratio", "nan"), ("--n-ratio", "inf"), ("--eta-ratio", "nan")])
    def test_bad_value_exits_2_without_output(self, tmp_path, capsys, flag, value):
        out = tmp_path / "spec"
        assert cli.main(["spectrum", "--length", "12", flag, value, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
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

    def test_non_finite_result_exits_2_without_output(self, probe_ckpts, tmp_path, capsys):
        model, step, _ = checkpoint.load(probe_ckpts[0])
        model.store["out_w"].data[...] = np.nan
        broken = str(tmp_path / "nan.ckpt")
        checkpoint.save(model, broken, step)
        out = str(tmp_path / "probe")
        with pytest.raises(NonFinite):
            harness.run_probe(broken, probe_ckpts[1], "builtin:multimodal", out, n_eval=2, n_noise=8)
        assert self._probe([broken, probe_ckpts[1]], out) == 2
        assert "nan" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "probe.json"))

    def test_good_run_writes_strict_json(self, probe_ckpts, tmp_path):
        out = str(tmp_path / "probe")
        assert self._probe(probe_ckpts, out) == 0
        payload = _strict_json(os.path.join(out, "probe.json"))
        for key in ("model_a", "model_b"):
            assert 0.0 <= payload[key]["mean_offdiag_dcor"] <= 1.0
        assert payload["n_noise"] == 8 and payload["n_eval"] == 2
