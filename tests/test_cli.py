"""End-to-end tests of the command-line driver."""

import json

import numpy as np
import pytest

from sgembed import EdgeListSpec, load_edge_list, save_edge_list, synth_balanced
from sgembed.cli import main
from sgembed.generator import EmbeddingMatrix


FAST_SETS = [
    "--set", "embedding_dim=4",
    "--set", "learning_rate=0.2",
    "--set", "outer_epochs=1",
    "--set", "d_epochs=1",
    "--set", "g_epochs=1",
    "--set", "samples_per_center=3",
    "--set", "batch_size=8",
]


def csv_cells(path):
    return [line.split(",") for line in path.read_text().splitlines()]


def rate_cell(value):
    """A rate as the CSVs write it."""
    return f"{value:.6f}"


@pytest.fixture
def graph_file(tmp_path):
    g = synth_balanced(2, 8, 0.9, 0.8, 0.05, seed=4)
    path = tmp_path / "graph.edges"
    save_edge_list(g, path)
    return path


def test_synth_writes_loadable_graph(tmp_path):
    out = tmp_path / "synth.edges"
    rc = main([
        "synth", "--communities", "2", "--size", "5", "--p-intra", "1.0",
        "--p-inter", "1.0", "--noise", "0.0", "--seed", "3",
        "--output", str(out),
    ])
    assert rc == 0
    g, _ = load_edge_list(EdgeListSpec(path=out))
    assert g.node_count == 10
    assert g.positive_edge_count == 20  # 2 * C(5,2)
    assert g.negative_edge_count == 25


def test_convert_ratings_to_signs(tmp_path):
    src = tmp_path / "ratings.csv"
    src.write_text("1,2,5\n2,3,-4\n1,3,2\n")
    out = tmp_path / "signed.edges"
    rc = main([
        "convert", "--input", str(src), "--threshold", "1",
        "--delimiter", ",", "--output", str(out),
    ])
    assert rc == 0
    g, _ = load_edge_list(EdgeListSpec(path=out))
    assert g.positive_edge_count == 2
    assert g.negative_edge_count == 1


def test_train_outputs_and_determinism(tmp_path, graph_file):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    before = graph_file.read_bytes()
    for out in (out1, out2):
        rc = main([
            "train", "--graph", str(graph_file), "--seed", "5",
            *FAST_SETS, "--output-dir", str(out),
        ])
        assert rc == 0
    assert graph_file.read_bytes() == before  # inputs never mutated
    for name in ("theta_j.emb", "theta_d.emb", "checkpoint.bin"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report = json.loads((out1 / "train_report.json").read_text())
    assert report["meta"]["effective_config"]["seed"] == 5
    assert len(report["epochs"]) == 1


def test_predict_with_pretrained_embeddings(tmp_path, graph_file):
    train_dir = tmp_path / "train"
    main([
        "train", "--graph", str(graph_file), "--seed", "5",
        *FAST_SETS, "--output-dir", str(train_dir),
    ])
    emb_path = train_dir / "theta_d.emb"
    EmbeddingMatrix.load(emb_path)  # file is loadable on its own
    out = tmp_path / "pred"
    rc = main([
        "predict", "--graph", str(graph_file), "--emb", str(emb_path),
        "--feature", "hadamard", "--folds", "3", "--seed", "5",
        *FAST_SETS, "--output-dir", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "metrics.json").read_text())
    assert "mean_paper_micro_f1" in payload
    assert len(payload["folds"]) == 3
    # the table was trained on every edge: no leakage mode applies
    assert payload["leakage_mode"] == "precomputed"
    assert payload["schema_version"] == 2
    header, *rows = csv_cells(out / "metrics.csv")
    assert header == [
        "fold", "n_pp", "n_pn", "n_np", "n_nn",
        "precision_pos", "precision_neg", "recall_pos", "recall_neg",
        "paper_micro_f1", "standard_micro_f1",
    ]
    assert sorted(header[1:]) == sorted(payload["folds"][0])
    assert len(rows) == 3
    for i, (row, fold) in enumerate(zip(rows, payload["folds"])):
        assert row[0] == str(i)
        for name, cell in zip(header[1:], row[1:]):
            value = fold[name]
            if name.startswith("n_"):
                assert cell == str(value)  # counts as written
            else:
                assert cell == rate_cell(value)


def test_predict_trains_when_no_embeddings(tmp_path, graph_file):
    out = tmp_path / "pred"
    rc = main([
        "predict", "--graph", str(graph_file), "--feature", "l2",
        "--leakage", "fast", "--folds", "3", "--seed", "2",
        *FAST_SETS, "--output-dir", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["leakage_mode"] == "fast"
    assert payload["meta"]["effective_config"]["precomputed_embeddings"] is False


def test_audit_command(tmp_path, graph_file):
    train_dir = tmp_path / "train"
    main([
        "train", "--graph", str(graph_file), "--seed", "5",
        *FAST_SETS, "--output-dir", str(train_dir),
    ])
    out = tmp_path / "audit"
    rc = main([
        "audit", "--graph", str(graph_file),
        "--emb", str(train_dir / "theta_d.emb"),
        "--fraction", "0.5", "--seed", "3", "--output-dir", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "audit.json").read_text())
    assert payload["aped"] >= 0
    assert payload["aned"] >= 0
    assert payload["positive_sampled"] == payload["negative_sampled"]


def test_sweep_command(tmp_path, graph_file):
    out = tmp_path / "sweep"
    rc = main([
        "sweep", "--graph", str(graph_file), "--fractions", "0.2,0.4",
        "--repeats", "2", "--folds", "3", "--leakage", "fast", "--seed", "1",
        *FAST_SETS, "--output-dir", str(out),
    ])
    assert rc == 0
    header, *rows = csv_cells(out / "sweep.csv")
    assert header == ["fraction", "repeat", "paper_micro_f1", "standard_micro_f1"]
    assert len(rows) == 4
    payload = json.loads((out / "sweep.json").read_text())
    assert [c["fraction"] for c in payload["cells"]] == [0.2, 0.4]
    # one row per repeat; the JSON cell holds their mean and deviation,
    # which the six-decimal rates bound to within half their last digit
    for i, cell in enumerate(payload["cells"]):
        reps = rows[i * 2 : (i + 1) * 2]
        assert [r[:2] for r in reps] == [
            [str(cell["fraction"]), str(r)] for r in range(cell["repeats"])
        ]
        paper, standard = (np.array([float(r[c]) for r in reps]) for c in (2, 3))
        assert [r[2:] for r in reps] == [
            [rate_cell(p), rate_cell(s)] for p, s in zip(paper, standard)
        ]
        half = 5e-7 + 1e-12
        assert abs(paper.mean() - cell["mean_paper_micro_f1"]) <= half
        assert abs(paper.std() - cell["std_paper_micro_f1"]) <= half
        assert abs(standard.mean() - cell["mean_standard_micro_f1"]) <= half


def test_check_theorems_synthetic(capsys):
    rc = main([
        "check-theorems", "--graphs", "3", "--nodes", "30",
        "--extra-edges", "40", "--seed", "7",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "normalization" in out
    assert "PASS" in out
    assert "FAIL" not in out


def test_check_theorems_on_file(graph_file, capsys):
    rc = main(["check-theorems", "--graph", str(graph_file), "--seed", "1"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "graphs", [["--graphs", "0"], ["--graphs", "2", "--nodes", "1"]]
)
def test_check_theorems_fails_when_no_tree_is_checked(capsys, graphs):
    rc = main(["check-theorems", *graphs, "--extra-edges", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "checked 0 trees" in out
    assert "PASS" not in out


def test_check_theorems_counts_its_trees(capsys):
    # a 30-node connected graph: every root's tree covers two nodes or more
    rc = main(["check-theorems", "--graphs", "2", "--nodes", "30"])
    assert rc == 0
    assert "checked 60 trees on 2 graphs" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value, low",
    [("--graphs", "-1", 0), ("--extra-edges", "-1", 0),
     ("--nodes", "0", 1), ("--dim", "0", 1)],
)
def test_check_theorems_count_flags_name_themselves(capsys, flag, value, low):
    with pytest.raises(SystemExit) as exc:
        main(["check-theorems", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least {low}, got {value}" in err


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
def test_check_theorems_tolerance_names_the_flag(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["check-theorems", f"--tolerance={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert (
        f"argument --tolerance: must be finite and at least 0, got {value}"
        in err
    )


@pytest.mark.parametrize(
    "argv, flag, message",
    [(["check-theorems", "--graphs", "abc"], "--graphs",
      "must be an integer, got 'abc'"),
     (["check-theorems", "--tolerance", "abc"], "--tolerance",
      "must be a number, got 'abc'")],
)
def test_non_number_names_the_kind_of_value(capsys, argv, flag, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag, value, low",
    [(["predict", "--folds"], "--folds", "1", 2),
     (["predict", "--threads"], "--threads", "0", 1),
     (["sweep", "--folds"], "--folds", "-1", 2),
     (["sweep", "--threads"], "--threads", "0", 1),
     (["sweep", "--repeats"], "--repeats", "0", 1),
     (["synth", "--communities"], "--communities", "0", 1),
     (["synth", "--size"], "--size", "-2", 1)],
)
def test_count_flags_name_themselves(capsys, argv, flag, value, low):
    # argparse rejects the value as it parses it, before it asks for the
    # command's required flags
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least {low}, got {value}" in err


def test_check_theorems_accepts_zero_tolerance(capsys):
    main(["check-theorems", "--graphs", "1", "--nodes", "10",
          "--extra-edges", "5", "--tolerance", "0"])
    assert "normalization" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command", ["train", "predict", "sweep", "audit", "check-theorems", "synth"]
)
def test_negative_seed_names_the_flag(capsys, command):
    # argparse rejects the value as it parses it, before it asks for the
    # command's required flags
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err


def test_convert_rejects_non_finite_threshold(tmp_path, caplog):
    src = tmp_path / "ratings.csv"
    src.write_text("1,2,5\n2,3,-3\n1,3,1\n")
    out = tmp_path / "signed.edges"
    rc = main([
        "convert", "--input", str(src), "--threshold", "nan",
        "--delimiter", ",", "--output", str(out),
    ])
    assert rc == 1
    assert "rating threshold nan is not finite" in caplog.text
    assert not out.exists()


def test_convert_rejects_empty_delimiter(tmp_path, caplog):
    src = tmp_path / "ratings.csv"
    src.write_text("1,2,5\n2,3,-3\n1,3,1\n")
    out = tmp_path / "signed.edges"
    rc = main([
        "convert", "--input", str(src), "--delimiter", "",
        "--output", str(out),
    ])
    assert rc == 1
    assert "EdgeListError" in caplog.text
    assert "delimiter must not be empty" in caplog.text
    assert not out.exists()


def test_audit_rejects_zero_column_table(tmp_path, graph_file, caplog):
    emb = tmp_path / "flat.emb"
    emb.write_text("16 0\n" + "".join(f"{i}\n" for i in range(16)))
    out = tmp_path / "audit"
    rc = main([
        "audit", "--graph", str(graph_file), "--emb", str(emb),
        "--output-dir", str(out),
    ])
    assert rc == 1
    assert "flat.emb:1: bad header" in caplog.text
    assert not out.exists()


def test_bad_fractions_item_names_the_flag(tmp_path, graph_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "sweep", "--graph", str(graph_file), "--fractions", "0.2,x",
            "--output-dir", str(tmp_path / "out"),
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --fractions: could not convert string to float: 'x'" in err


def test_empty_fractions_list_names_the_flag(tmp_path, graph_file, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([
            "sweep", "--graph", str(graph_file), "--fractions", ",",
            "--output-dir", str(out),
        ])
    assert exc.value.code == 2
    assert "argument --fractions: no number in ','" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_edgeless_graph(tmp_path, caplog):
    graph = tmp_path / "edgeless.edges"
    assert main([
        "synth", "--size", "3", "--p-intra", "0", "--p-inter", "0",
        "--output", str(graph),
    ]) == 0
    out = tmp_path / "out"
    rc = main(["train", "--graph", str(graph), "--output-dir", str(out)])
    assert rc == 1
    assert "graph has no edges: none of its 6 nodes is a center" in caplog.text
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("threshold", ["-1", "2"])
def test_evaluation_rejects_a_graph_of_one_sign(
    tmp_path, graph_file, caplog, threshold
):
    rc = main([
        "predict", "--graph", str(graph_file), "--threshold", threshold,
        "--output-dir", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert f"--graph {graph_file} has " in caplog.text
    assert f"under --threshold {float(threshold)}" in caplog.text


def test_audit_rejects_fraction_outside_unit_interval(
    tmp_path, graph_file, caplog
):
    emb = tmp_path / "zeros.emb"
    EmbeddingMatrix(values=np.zeros((16, 2))).save(emb)
    rc = main([
        "audit", "--graph", str(graph_file), "--emb", str(emb),
        "--fraction", "-0.5", "--output-dir", str(tmp_path / "audit"),
    ])
    assert rc == 1
    assert "sample_fraction -0.5 must be in (0, 1]" in caplog.text


def test_unknown_flag_exits_nonzero(graph_file):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--graph", str(graph_file), "--frobnicate"])
    assert exc.value.code != 0


def test_missing_input_reports_failure(tmp_path, caplog):
    rc = main([
        "train", "--graph", str(tmp_path / "missing.edges"),
        "--output-dir", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert "cannot read" in caplog.text


def test_bad_config_value_reports_failure(tmp_path, graph_file, caplog):
    rc = main([
        "train", "--graph", str(graph_file), "--set", "nonsense=1",
        "--output-dir", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert "unknown config key" in caplog.text


def test_unparsable_config_value_names_its_key(tmp_path, graph_file, caplog):
    rc = main([
        "train", "--graph", str(graph_file), "--set", "embedding_dim=abc",
        "--output-dir", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert "config key embedding_dim: bad value 'abc'" in caplog.text


def test_set_without_equals_names_the_flag(tmp_path, graph_file, caplog):
    rc = main([
        "train", "--graph", str(graph_file), "--set", "embedding_dim",
        "--output-dir", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert "--set 'embedding_dim': expected KEY=VALUE" in caplog.text
