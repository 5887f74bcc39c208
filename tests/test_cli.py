"""Subcommand smoke tests driven through main(argv), on a miniature config."""

import inspect
import json

import pytest

from livesight import cli, errors
from livesight.checkpoint import write_archive
from livesight.cli import build_parser, main
from livesight.config import (
    ExperimentConfig,
    ProdConfig,
    RankConfig,
    SimConfig,
    StatConfig,
    to_dict,
)


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    cfg = ExperimentConfig(
        seed=3,
        sim=SimConfig(streams=10, users=50, n_samples=300),
        stat=StatConfig(epochs=2),
        prod=ProdConfig(epochs=2),
        rank=RankConfig(epochs=2),
    )
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(to_dict(cfg)))
    return str(path)


@pytest.fixture(scope="module")
def dataset_dir(tiny_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    assert main(["gen", "--config", tiny_config, "--seed", "3", "--out", str(out)]) == 0
    return out


def test_gen_writes_dataset(dataset_dir):
    names = {p.name for p in dataset_dir.iterdir()}
    assert "world.zip" in names


def test_gen_requires_seed(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--out", "/tmp/nowhere"])


@pytest.fixture(scope="module")
def checkpoints(tiny_config, dataset_dir, tmp_path_factory):
    """Both forecasters trained on dataset_dir: {"stat": path, "prod": path}."""
    out = tmp_path_factory.mktemp("ckpt")
    paths = {kind: out / f"{kind}.ckpt" for kind in ("stat", "prod")}
    args = ["--config", tiny_config, "--data", str(dataset_dir)]
    for kind, path in paths.items():
        assert main([f"train-{kind}", *args, "--out", str(path)]) == 0
        assert path.exists()
    return paths


def train_rank(tiny_config, data, stat_ckpt, prod_ckpt, out):
    return main(
        [
            "train-rank",
            "--config",
            tiny_config,
            "--data",
            str(data),
            "--stat-ckpt",
            str(stat_ckpt),
            "--prod-ckpt",
            str(prod_ckpt),
            "--variant",
            "+both",
            "--out",
            str(out),
        ]
    )


def test_train_stages_and_report(tiny_config, dataset_dir, checkpoints, tmp_path, capsys):
    rc = train_rank(tiny_config, dataset_dir, checkpoints["stat"], checkpoints["prod"],
                    tmp_path / "rank")
    assert rc == 0
    assert (tmp_path / "rank" / "rank_report.csv").exists()

    assert main(["report", "--out", str(tmp_path / "rank")]) == 0
    out = capsys.readouterr().out
    assert "rank_report.csv" in out and "AUC" in out
    assert (tmp_path / "rank" / "summary.txt").exists()


def test_train_rank_rejects_swapped_checkpoints(tiny_config, dataset_dir, checkpoints,
                                                tmp_path, capsys):
    rc = train_rank(tiny_config, dataset_dir, checkpoints["prod"], checkpoints["stat"],
                    tmp_path / "rank")
    assert rc == 1
    assert "holds a product forecaster, not a statistic forecaster" in capsys.readouterr().err
    assert not (tmp_path / "rank").exists()


def test_train_rank_rejects_checkpoints_of_another_dataset(tiny_config, checkpoints,
                                                           tmp_path, capsys):
    other = tmp_path / "other"
    assert main(["gen", "--config", tiny_config, "--seed", "4", "--out", str(other)]) == 0
    rc = train_rank(tiny_config, other, checkpoints["stat"], checkpoints["prod"],
                    tmp_path / "rank")
    assert rc == 1
    assert "was trained on another config or dataset" in capsys.readouterr().err
    assert not (tmp_path / "rank").exists()


def test_forecaster_keys_agree_across_commands(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", tiny_config, "--out", str(out)]) == 0
    data = out / "data"
    for kind in ("stat", "prod"):
        assert main([f"train-{kind}", "--config", tiny_config, "--data", str(data)]) == 0
    run_ckpts = {p.name: p.read_bytes() for p in out.glob("*.ckpt")}
    assert sorted(run_ckpts) == sorted(p.name for p in data.glob("*.ckpt"))
    assert len(run_ckpts) == 2
    # the exported dataset trains the same forecasters as the generated world
    assert all((data / name).read_bytes() == blob for name, blob in run_ckpts.items())
    stat_ckpt, prod_ckpt = (next(out.glob(f"{kind}fore-*.ckpt")) for kind in ("stat", "prod"))
    assert train_rank(tiny_config, data, stat_ckpt, prod_ckpt, tmp_path / "rank") == 0


def test_train_rank_reproduces_the_run_rows(tiny_config, tmp_path):
    # both train the ranker with the config's rank.seed, not the experiment seed
    out = tmp_path / "run"
    assert main(["run", "--config", tiny_config, "--out", str(out)]) == 0
    stat_ckpt, prod_ckpt = (next(out.glob(f"{kind}fore-*.ckpt")) for kind in ("stat", "prod"))
    assert train_rank(tiny_config, out / "data", stat_ckpt, prod_ckpt, tmp_path / "rank") == 0

    def both_rows(path):
        return [line for line in path.read_text().splitlines() if line.startswith("+both,")]

    rows = both_rows(tmp_path / "rank" / "rank_report.csv")
    assert len(rows) == 2
    assert rows == both_rows(out / "rank_report.csv")


def test_train_rank_rejects_a_file_that_is_not_a_checkpoint(tiny_config, dataset_dir, checkpoints,
                                                            tmp_path, capsys):
    config_file = tiny_config  # a JSON file, not a zip
    assert train_rank(tiny_config, dataset_dir, config_file, checkpoints["prod"],
                      tmp_path / "rank") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_file} is not a readable checkpoint")
    assert "Traceback" not in err
    assert not (tmp_path / "rank").exists()


@pytest.mark.parametrize(
    "manifest,kind",
    [({"format": 1}, "forecaster"), ({"format": 1, "extra": [1]}, "forecaster"),
     ([1], "checkpoint"), ({"format": 1, "extra": {"config": [[1]]}}, "forecaster")],
    ids=["no extra", "extra not an object", "manifest not an object", "config not an object"])
def test_train_rank_rejects_a_checkpoint_without_a_forecaster_manifest(
        tiny_config, dataset_dir, checkpoints, tmp_path, capsys, manifest, kind):
    path = tmp_path / "stat.ckpt"
    write_archive(path, manifest, [])
    assert train_rank(tiny_config, dataset_dir, path, checkpoints["prod"],
                      tmp_path / "rank") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} has no {kind} manifest")
    assert "Traceback" not in err
    assert not (tmp_path / "rank").exists()


def test_train_stat_rejects_zero_epochs(tiny_config, dataset_dir, tmp_path, capsys):
    ckpt = tmp_path / "stat.ckpt"
    args = ["--config", tiny_config, "--data", str(dataset_dir), "--epochs", "0"]
    assert main(["train-stat", *args, "--out", str(ckpt)]) == 1
    assert "StatConfig.epochs must be >= 1, got 0" in capsys.readouterr().err
    assert not ckpt.exists()
    assert main(["train-stat", *args]) == 1
    assert not list(dataset_dir.glob("*.ckpt"))


@pytest.mark.parametrize("section,key,value", [("rank", "epochs", "3"), ("sim", "streams", 10.5)])
def test_gen_rejects_a_wrongly_typed_config_value(tmp_path, capsys, section, key, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({section: {key: value}}))
    assert main(["gen", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {section}.{key} must be of type int")
    assert "Traceback" not in err and not (tmp_path / "d").exists()


def test_gen_rejects_a_negative_sample_count(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sim": {"streams": 10, "users": 50, "n_samples": -1}}))
    assert main(["gen", "--config", str(path), "--seed", "3", "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: n_samples must be >= 1, got -1"]
    assert "Traceback" not in err and not (tmp_path / "d").exists()


def test_run_then_ablate(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", tiny_config, "--out", str(out)]) == 0
    assert (out / "rank_report.csv").exists()
    assert (out / "forecast_report.csv").exists()
    # second invocation reuses the cached foresight checkpoints
    assert main(["run", "--config", tiny_config, "--out", str(out)]) == 0
    assert main(["ablate", "--config", tiny_config, "--out", str(out), "--which", "channels"]) == 0
    text = (out / "ablation_channels.csv").read_text()
    assert "out-room" in text and "in-room" in text


def test_errors_exit_nonzero(capsys):
    assert main(["train-stat", "--data", "/tmp/missing-dataset-dir"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["report", "--out", "/tmp/missing-report-dir"]) == 1
    assert main(["gen", "--seed", "1", "--buckets", "20", "--out", "/tmp/never"]) == 1
    assert "48" in capsys.readouterr().err


def test_every_named_error_is_a_livesight_error():
    named = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
             if cls.__module__ == errors.__name__]
    assert len(named) > 10
    for cls in named:
        assert issubclass(cls, errors.LivesightError), cls


@pytest.mark.parametrize("exc", [ValueError, RuntimeError, KeyError, IndexError])
def test_a_builtin_exception_is_not_turned_into_a_message(monkeypatch, tmp_path, capsys, exc):
    # only a named error becomes a one-line message; a bare one is a bug to see
    def broken(args):
        raise exc("bare")

    monkeypatch.setattr(cli, "cmd_report", broken)
    with pytest.raises(exc, match="bare"):
        main(["report", "--out", str(tmp_path)])
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"{\"sim\": {", b"\xff\xfe not text"], ids=["cut", "binary"])
def test_a_config_file_that_is_not_json_names_the_file(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["gen", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not a JSON config")
    assert not (tmp_path / "d").exists()


def test_stat_context_past_the_first_sample_rejected(tiny_config, dataset_dir, tmp_path, capsys):
    doc = json.loads(open(tiny_config).read())
    doc["stat"]["context"] = 40
    path = tmp_path / "long-context.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "stat.context 40" in err and "bucket 32" in err
    assert not (tmp_path / "run").exists()  # rejected before any stage ran
    # the --context flag goes through the same check
    ckpt = tmp_path / "stat.ckpt"
    args = ["--config", tiny_config, "--data", str(dataset_dir), "--out", str(ckpt)]
    assert main(["train-stat", *args, "--context", "40"]) == 1
    assert "stat.context 40" in capsys.readouterr().err
    assert not ckpt.exists()


def test_parser_rejects_unknown_variant():
    args = ["--data", "d", "--stat-ckpt", "s", "--prod-ckpt", "p"]
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train-rank", *args, "--variant", "+everything"])


def test_parser_rejects_unknown_ablation():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["ablate", "--which", "nonsense"])


def test_train_rank_rejects_an_unscorable_dataset_before_loading(tmp_path, capsys):
    data = tmp_path / "data"
    config = tmp_path / "small.json"
    cfg = ExperimentConfig(seed=3, sim=SimConfig(streams=4, users=50, n_samples=200))
    config.write_text(json.dumps(to_dict(cfg)))
    assert main(["gen", "--config", str(config), "--seed", "3", "--out", str(data)]) == 0
    missing = str(tmp_path / "none.ckpt")
    args = ["train-rank", "--data", str(data), "--stat-ckpt", missing, "--prod-ckpt", missing]
    assert main(args + ["--out", str(tmp_path / "reports")]) == 1
    assert "no user with both" in capsys.readouterr().err
