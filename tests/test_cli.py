import os
import re
import struct
import tracemalloc

import pytest
from click.testing import CliRunner

import scei.harness as harness
from scei.cli import main
from scei.ledger import Ledger, RecordKind, verify_dump_file
from test_data import write_mnist_pair

SAMPLE_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "synthetic_scei.cfg")

CONFIG = """
scheme = scei
dataset = synthetic
synthetic_classes = 6
synthetic_per_class = 400
synthetic_input_dim = 8
nodes = 4
samples_per_node = 120
labels_per_node = 3
hidden = 12,12
rounds = 2
batch_size = 8
local_epochs = 1
learning_rate = 0.05
seed = 3
"""


def write_config(tmp_path, extra=""):
    """CONFIG with extra's lines in place of its lines for the same keys: a
    config file sets each key once."""
    given = {line.split("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in CONFIG.splitlines() if line.split("=")[0].strip() not in given]
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(kept) + "\n" + extra)
    return path


class TestRunCommand:
    def test_run_writes_metrics_and_ledger(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "metrics.csv"
        dump = tmp_path / "ledger.bin"
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(cfg), "--out", str(out), "--ledger-out", str(dump)],
        )
        assert result.exit_code == 0, result.output
        assert "final round mean accuracy" in result.output
        lines = out.read_text().splitlines()
        assert lines[0].startswith("round,node_id,accuracy")
        assert len(lines) == 1 + 2 * 4
        assert dump.stat().st_size > 0

    def test_scheme_and_rounds_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "metrics.csv"
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(cfg), "--scheme", "local", "--rounds", "3", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "local: 3 rounds" in result.output
        assert len(out.read_text().splitlines()) == 1 + 3 * 4

    def test_the_report_names_its_nodes_and_the_ledger_head(self, tmp_path):
        """Seed 5 of the sample config expels honest node 9 at round 12, so the
        final-round mean covers 9 of the 10 nodes; the printed head hash is
        the dump's, the anchor a later check of the dump compares against."""
        dump = tmp_path / "ledger.bin"
        result = CliRunner().invoke(main, ["run", "--config", SAMPLE_CONFIG, "--seed", "5", "--ledger-out", str(dump)])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert re.fullmatch(r"final round mean accuracy 0\.\d{4} over 9 of 10 nodes \(variance 0\.\d{6}\)", lines[1])
        assert lines[2] == "expelled nodes: [9]"
        assert lines[3] == f"ledger head {Ledger.read_dump(dump).head_hash.hex()}"


    @pytest.mark.parametrize(
        "extra, message",
        [
            ("nodes = 0", "config keys 'nodes', 'samples_per_node', 'labels_per_node', 'skew_ratio', 'seed': "
                          "num_nodes must be >= 1"),
            ("fixed_alpha = nan", "config key 'fixed_alpha': must lie in [0, 1], got nan"),
            ("nodes = 100", "config keys 'nodes', 'samples_per_node', 'labels_per_node', 'synthetic_classes', "
                            "'synthetic_per_class': dataset has 2400 examples, need at least 12000"),
            ("labels_per_node = 6\nskew_ratio = 0.2", "node 0: need 7 out-of-distribution examples, only 0 available"),
        ],
        ids=["nodes=0", "fixed_alpha=nan", "nodes=100", "skew_ratio=0.2"],
    )
    def test_refusals_end_as_one_line(self, tmp_path, extra, message):
        """A refused value (ValueError), data too small for the partition
        (PartitionError) or without out-of-distribution examples for the skew
        (SkewError) ends as click's one-line error with exit code 1."""
        result = CliRunner().invoke(main, ["run", "--config", str(write_config(tmp_path, extra))])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"Error: {message}\n"

    def test_a_key_given_twice_ends_as_one_line(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG + "rounds = 5\n")
        result = CliRunner().invoke(main, ["run", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.output == f"Error: {cfg}, line 16: key 'rounds' already set on line 11\n"

    def test_output_paths_are_refused_before_any_round(self, tmp_path, monkeypatch):
        """One file named by both outputs, or an output in a missing directory,
        ends as one line before any data is generated, and writes nothing."""
        generated = []
        monkeypatch.setattr(harness, "generate_synthetic", lambda *args: generated.append(args))
        cfg = str(write_config(tmp_path))
        same = str(tmp_path / "same.out")
        missing = str(tmp_path / "nodir" / "x.csv")
        for flags, cause in (
            (["--out", same, "--ledger-out", same], f"out {same!r} and ledger_out {same!r} name one file"),
            (["--out", missing], f"out {missing!r} lies in no existing directory"),
        ):
            result = CliRunner().invoke(main, ["run", "--config", cfg, *flags])
            assert result.exit_code == 1
            assert result.output == f"Error: config keys 'out', 'ledger_out': {cause}\n"
        assert not generated
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    @pytest.mark.parametrize("key", ["out", "ledger_out"])
    def test_a_config_file_output_naming_a_directory_ends_as_one_line(self, tmp_path, monkeypatch, key):
        """A directory given as an output in the file, where no click check
        sees it, ends as one line before any data is generated."""
        generated = []
        monkeypatch.setattr(harness, "generate_synthetic", lambda *args: generated.append(args))
        result = CliRunner().invoke(main, ["run", "--config", str(write_config(tmp_path, f"{key} = {tmp_path}"))])
        assert result.exit_code == 1
        assert result.output == f"Error: config keys 'out', 'ledger_out': {key} {str(tmp_path)!r} is a directory\n"
        assert not generated


def mnist_config(tmp_path, images, labels):
    """CONFIG on the MNIST source: 5 nodes of 100 examples, 2 labels each, hidden 8 x 8, 1 round."""
    return write_config(
        tmp_path,
        f"dataset = mnist\nmnist_images = {images}\nmnist_labels = {labels}\n"
        "nodes = 5\nsamples_per_node = 100\nlabels_per_node = 2\nhidden = 8,8\nrounds = 1\n",
    )


class TestMnistRun:
    def test_a_generated_pair_runs_end_to_end(self, tmp_path):
        """The MNIST source runs a round on generated 28 x 28 IDX files, no download needed."""
        out, dump = tmp_path / "metrics.csv", tmp_path / "ledger.bin"
        cfg = mnist_config(tmp_path, *write_mnist_pair(tmp_path))
        result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--out", str(out), "--ledger-out", str(dump)])
        assert result.exit_code == 0, result.output
        assert "scei: 1 rounds, 5 nodes" in result.output
        assert len(out.read_text().splitlines()) == 1 + 5
        bad, count = verify_dump_file(dump)
        assert bad is None
        assert Ledger.read_dump(dump).read(0, RecordKind.GLOBAL_WEIGHTS)[0][1].size == 784 * 8 + 8 + 8 * 8 + 8 + 8 * 10 + 10

    @pytest.mark.parametrize("case", ["4x3 images", "labels 0-11", "missing labels", "swapped"])
    def test_files_that_do_not_fit_end_as_one_line(self, tmp_path, case):
        images, labels = write_mnist_pair(tmp_path, *{"4x3 images": (4, 3), "labels 0-11": (28, 28, 12)}.get(case, ()))
        if case == "missing labels":
            labels.unlink()
        if case == "swapped":
            images, labels = labels, images
        result = CliRunner().invoke(main, ["run", "--config", str(mnist_config(tmp_path, images, labels))])
        assert result.exit_code == 1
        assert result.output.startswith("Error: config keys 'mnist_images', 'mnist_labels': ")
        assert result.output.count("\n") == 1


class TestVerifyLedgerCommand:
    def test_intact_and_tampered(self, tmp_path):
        cfg = write_config(tmp_path)
        dump = tmp_path / "ledger.bin"
        runner = CliRunner()
        assert runner.invoke(
            main, ["run", "--config", str(cfg), "--ledger-out", str(dump)]
        ).exit_code == 0

        ok = runner.invoke(main, ["verify-ledger", str(dump)])
        assert ok.exit_code == 0
        assert ok.output == f"ok: {len(Ledger.read_dump(dump))} records, chain intact\n"

        blob = bytearray(dump.read_bytes())
        # flip one byte inside the third record's frame body
        offset = 0
        for _ in range(2):
            (length,) = struct.unpack_from("<I", blob, offset)
            offset += 4 + length
        blob[offset + 10] ^= 0xFF
        dump.write_bytes(bytes(blob))
        bad = runner.invoke(main, ["verify-ledger", str(dump)])
        assert bad.exit_code == 1
        assert "TAMPERED" in bad.output
        assert "index 2" in bad.output

    def test_truncated_and_empty_dumps_are_tampered(self, tmp_path):
        cfg = write_config(tmp_path)
        dump = tmp_path / "ledger.bin"
        runner = CliRunner()
        assert runner.invoke(
            main, ["run", "--config", str(cfg), "--ledger-out", str(dump)]
        ).exit_code == 0
        blob = dump.read_bytes()
        # cut five bytes into the fourth frame: three whole records remain
        offset = 0
        for _ in range(3):
            (length,) = struct.unpack_from("<I", blob, offset)
            offset += 4 + length
        dump.write_bytes(blob[: offset + 5])
        cut = runner.invoke(main, ["verify-ledger", str(dump)])
        assert cut.exit_code == 1
        assert cut.output == "TAMPERED: first bad record index 3\n"
        dump.write_bytes(b"")
        empty = runner.invoke(main, ["verify-ledger", str(dump)])
        assert empty.exit_code == 1
        assert empty.output == "TAMPERED: first bad record index 0\n"

    def test_first_fault_is_reported_when_the_tail_is_also_cut(self, tmp_path):
        cfg = write_config(tmp_path)
        dump = tmp_path / "ledger.bin"
        runner = CliRunner()
        assert runner.invoke(
            main, ["run", "--config", str(cfg), "--ledger-out", str(dump)]
        ).exit_code == 0
        blob = bytearray(dump.read_bytes())
        # edit a payload byte of the fourth record, then cut the last five bytes
        offset = 0
        for _ in range(3):
            (length,) = struct.unpack_from("<I", blob, offset)
            offset += 4 + length
        blob[offset + 4 + 34 + 10] ^= 0x01
        dump.write_bytes(bytes(blob[:-5]))
        bad = runner.invoke(main, ["verify-ledger", str(dump)])
        assert bad.exit_code == 1
        assert bad.output == "TAMPERED: first bad record index 3\n"


    def test_the_check_holds_one_record_at_a_time(self, tmp_path):
        """On a dump of 1 MB records the check allocates a few records' worth,
        far less than the dump: it never reads the file whole."""
        book = Ledger()
        for node_id in range(16):
            book.append(1, RecordKind.LOCAL_WEIGHTS, node_id, bytes([node_id]) * 2**20)
        dump = tmp_path / "ledger.bin"
        book.write_dump(dump)
        size = dump.stat().st_size
        del book
        tracemalloc.start()
        try:
            result = CliRunner().invoke(main, ["verify-ledger", str(dump)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.output == "ok: 17 records, chain intact\n"
        assert peak < size // 4, f"peak {peak} bytes for a {size}-byte dump"


class TestSummarizeCommand:
    def test_summarize_with_threshold(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "metrics.csv"
        runner = CliRunner()
        assert runner.invoke(
            main, ["run", "--config", str(cfg), "--out", str(out)]
        ).exit_code == 0
        result = runner.invoke(main, ["summarize", str(out), "--threshold", "0.0"])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert lines[0] == "round,mean_accuracy,variance"
        assert len(lines) == 1 + 2 + 1
        assert "reached at round 1" in lines[-1]

    @pytest.mark.parametrize(
        "text, where, cause",
        [
            ("a,b\n1,2\n", "line 1", "the header lacks round, node_id, accuracy, alpha, flagged, expelled, "
             "train_s, negotiate_s, ledger_s; expected " + harness.CSV_HEADER),
            ("", "line 1", "the header lacks round"),
            (harness.CSV_HEADER + "\n1,0,abc,0.5,false,false,0,0,0\n", "line 2, column accuracy",
             "could not convert string to float: 'abc'"),
            (harness.CSV_HEADER + "\n1,0,0.5,0.5,false,false,0,0,0\n1.5,1,0.5,0.5,false,false,0,0,0\n",
             "line 3, column round", "invalid literal for int() with base 10: '1.5'"),
            (harness.CSV_HEADER + "\n1,0,0.5,0.5,no,false,0,0,0\n", "line 2, column flagged",
             "expected true or false, got 'no'"),
            (harness.CSV_HEADER + "\n1,0,0.5\n", "line 2, column alpha", "could not convert string to float: ''"),
        ],
    )
    def test_a_bad_csv_is_refused_in_one_line(self, tmp_path, text, where, cause):
        """A CSV without the written header or with a cell that does not
        parse ends as one Error line naming the file and the line."""
        path = tmp_path / "metrics.csv"
        path.write_text(text)
        result = CliRunner().invoke(main, ["summarize", str(path)])
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: {path}, {where}: {cause}")
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize(
        "blob, where",
        [
            (b"\xff\xfe\x00", "line 1"),
            ((harness.CSV_HEADER + "\n1,0,0.5,0.5,false,false,0,0,0\n").encode()
             + b"1,1,0.\xff,0.5,false,false,0,0,0\n", "line 3"),
        ],
        ids=["first byte", "cell on line 3"],
    )
    def test_a_csv_that_is_not_utf8_is_refused_in_one_line(self, tmp_path, blob, where):
        """Bytes that do not decode as UTF-8 end as one Error line naming the
        file and the line they sit on."""
        path = tmp_path / "metrics.csv"
        path.write_bytes(blob)
        result = CliRunner().invoke(main, ["summarize", str(path)])
        assert result.exit_code == 1
        assert result.output == f"Error: {path}, {where}: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize(
        "blob, where",
        [
            (b"scheme = scei\nseed = 1\xff\n", "line 2"),
            (CONFIG.encode() + b"out = m\xff.csv\n", f"line {CONFIG.count(chr(10)) + 1}"),
        ],
        ids=["value on line 2", "last line"],
    )
    def test_a_config_that_is_not_utf8_is_refused_in_one_line(self, tmp_path, blob, where):
        """A config file is read as UTF-8 whatever the locale, and a byte
        that does not decode ends as one Error line naming the file and the line."""
        path = tmp_path / "exp.cfg"
        path.write_bytes(blob)
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 1
        assert result.output == f"Error: {path}, {where}: not UTF-8 text (invalid start byte)\n"
