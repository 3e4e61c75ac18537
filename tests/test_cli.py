import csv
import json
import os

import pytest

from spanner import (
    Graph, SimConfig, generate, improved_3_spanner, load, save, spanner3,
    verify_stretch, with_random_weights,
)
from spanner.cli import ALGORITHMS, emit_report, main, parse_gen_spec, run_algorithm
from spanner.sim import SimError, width


def run_cli(args):
    return main(args)


def test_run_imp3_generated(tmp_path):
    out = str(tmp_path / "r")
    code = run_cli(
        ["run", "--alg", "imp3", "--gen", "er:n=100,p=0.1", "--seed", "1",
         "--out", out]
    )
    assert code == 0
    assert os.path.exists(out + ".spanner.edges")
    assert os.path.exists(out + ".stretch.json")
    assert os.path.exists(out + ".ledger.json")
    with open(out + ".stretch.json") as fh:
        rep = json.load(fh)
    assert rep["passed"]


def test_run_improved_odd_k(tmp_path):
    out = str(tmp_path / "r")
    code = run_cli(
        ["run", "--alg", "improved", "--k", "3", "--gen", "er:n=80,p=0.08",
         "--out", out]
    )
    assert code == 0


def test_fixed_k_warning_ignored(tmp_path, capsys):
    out = str(tmp_path / "r")
    code = run_cli(
        ["run", "--alg", "imp3", "--k", "5", "--gen", "complete:n=4", "--out", out]
    )
    assert code == 0
    assert "ignored" in capsys.readouterr().err


def test_unknown_algorithm_usage_error(tmp_path):
    code = run_cli(
        ["run", "--alg", "nope", "--gen", "er:n=10,p=0.1",
         "--out", str(tmp_path / "r")]
    )
    assert code == 2


@pytest.mark.parametrize("spec", [
    "er:n=-5,p=0.1", "path:n=-3", "grid:rows=-2,cols=3", "complete:n=-2",
    "hypercube:d=-1", "path:n=8,bogus=3",
])
def test_bad_generator_spec_usage_error(tmp_path, spec, capsys):
    code = run_cli(["run", "--alg", "imp3", "--gen", spec, "--out", str(tmp_path / "r")])
    assert code == 2
    assert "generator" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "r") + ".ledger.json")


def test_missing_k_usage_error(tmp_path):
    code = run_cli(
        ["run", "--alg", "improved", "--gen", "er:n=10,p=0.1",
         "--out", str(tmp_path / "r")]
    )
    assert code == 2


def test_unreadable_graph_usage_error(tmp_path):
    code = run_cli(
        ["run", "--alg", "imp3", "--graph", str(tmp_path / "missing.edges"),
         "--out", str(tmp_path / "r")]
    )
    assert code == 2


def test_k4_csv_row_pinned(tmp_path):
    out = str(tmp_path / "k4")
    assert run_cli(
        ["run", "--alg", "imp3", "--gen", "complete:n=4", "--out", out]
    ) == 0
    with open(out + ".csv") as fh:
        row = next(csv.DictReader(fh))
    assert row["n"] == "4" and row["spanner_edges"] == "6"
    assert row["max_stretch"] == "1.0"


def test_empty_graph_report(tmp_path):
    out = str(tmp_path / "empty")
    assert run_cli(
        ["run", "--alg", "imp3", "--gen", "complete:n=0", "--out", out]
    ) == 0
    with open(out + ".csv") as fh:
        row = next(csv.DictReader(fh))
    assert row["n"] == "0" and row["spanner_edges"] == "0"


def test_reports_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["run", "--alg", "improved", "--k", "4",
            "--gen", "er:n=90,p=0.1", "--seed", "3"]
    assert run_cli(args + ["--out", out1]) == 0
    assert run_cli(args + ["--out", out2]) == 0
    for suffix in (".spanner.edges", ".stretch.json", ".ledger.json", ".csv"):
        with open(out1 + suffix, "rb") as f1, open(out2 + suffix, "rb") as f2:
            assert f1.read() == f2.read(), suffix


@pytest.mark.parametrize("kind", ["unweighted", "weighted", "sparse-ids"])
def test_spanner_edges_file_matches_saved_subgraph(tmp_path, kind):
    # emit_report writes the spanner's sorted edges without building a
    # Graph; the file is byte-identical to saving the spanner as an edge
    # subgraph of its base, header and weights included
    g = generate("erdos-renyi", {"n": 40, "p": 0.2}, seed=3)
    if kind == "weighted":
        g = with_random_weights(g, 5)
    elif kind == "sparse-ids":
        g = Graph([3 * v + 7 for v in g.vertices],
                  [(3 * u + 7, 3 * v + 7) for u, v in g.edges()])
    run = improved_3_spanner(g, SimConfig())
    H = run.spanner
    assert 0 < H.size < g.m
    out = str(tmp_path / "r")
    emit_report(out, g, run, verify_stretch(g, H, 3), 2, "imp3")
    save(g.edge_subgraph(g.vertices, H.edges), str(tmp_path / "want.edges"))
    with open(out + ".spanner.edges", "rb") as fh:
        got = fh.read()
    with open(tmp_path / "want.edges", "rb") as fh:
        assert got == fh.read()
    header = got.split(b"\n", 1)[0]
    assert header.startswith(b"# vertices: 7 10 13" if kind == "sparse-ids" else b"n=40")
    assert len(got.split(b"\n", 2)[1].split()) == (3 if kind == "weighted" else 2)


def test_verify_subcommand_pass_and_fail(tmp_path):
    g = generate("cycle", {"n": 9})
    gpath = str(tmp_path / "g.edges")
    save(g, gpath)
    # full graph as its own spanner: pass
    assert run_cli(["verify", "--graph", gpath, "--spanner", gpath, "--t", "3"]) == 0
    # spanning tree of the cycle: fails at t=3
    tree = g.edge_subgraph(g.vertices, [(i, i + 1) for i in range(8)])
    tpath = str(tmp_path / "t.edges")
    save(tree, tpath)
    assert run_cli(["verify", "--graph", gpath, "--spanner", tpath, "--t", "3"]) == 1


def test_run_from_file_roundtrip(tmp_path):
    g = generate("erdos-renyi", {"n": 50, "p": 0.15}, seed=2)
    gpath = str(tmp_path / "g.edges")
    save(g, gpath)
    out = str(tmp_path / "r")
    assert run_cli(["run", "--alg", "naive", "--k", "3", "--graph", gpath,
                    "--out", out]) == 0
    h = load(out + ".spanner.edges")
    assert h.edge_set <= g.edge_set


def test_weighted_flag(tmp_path):
    out = str(tmp_path / "w")
    assert run_cli(
        ["run", "--alg", "imp3", "--gen", "er:n=60,p=0.2", "--weighted",
         "--seed", "5", "--out", out]
    ) == 0


def test_bs_baseline_and_zerosc(tmp_path):
    assert run_cli(
        ["run", "--alg", "bs-baseline", "--k", "3", "--gen", "er:n=60,p=0.1",
         "--seed", "2", "--out", str(tmp_path / "bs")]
    ) == 0
    assert run_cli(
        ["run", "--alg", "zerosc", "--k", "4", "--gen", "er:n=60,p=0.1",
         "--out", str(tmp_path / "z")]
    ) == 0


def test_sparserbip_requires_bipartite_gen(tmp_path):
    assert run_cli(
        ["run", "--alg", "sparserbip", "--k", "4", "--gen", "er:n=20,p=0.2",
         "--out", str(tmp_path / "r")]
    ) == 2
    assert run_cli(
        ["run", "--alg", "sparserbip", "--k", "4", "--gen", "bip:a=8,b=30,p=0.3",
         "--out", str(tmp_path / "r")]
    ) == 0


def test_weighted_input_above_k2_is_usage_error(tmp_path, capsys):
    # the message names the construction unless it has a weighted k = 2
    cases = [
        ("sparserbip", 4, "weighted graphs are only supported for k = 2"),
        ("improved", 4, "weighted graphs are only supported for k = 2"),
        ("zerosc", 4, "weighted graphs are not supported by cons_zero_superclustering"),
        ("naive", 4, "weighted graphs are not supported by naive_spanner"),
        ("naive", 2, "weighted graphs are not supported by naive_spanner"),
    ]
    for alg, k, text in cases:
        code = run_cli(
            ["run", "--alg", alg, "--k", str(k), "--gen", "bip:a=16,b=80,p=0.2",
             "--weighted", "--seed", "1", "--out", str(tmp_path / f"{alg}{k}")]
        )
        assert code == 2, (alg, k)
        assert text in capsys.readouterr().err, (alg, k)


def test_budget_below_floor_is_simulator_error(tmp_path, capsys):
    cases = [
        (["--alg", "imp3", "--gen", "er:n=50,p=0.1", "--msg-bits", "3"], 14),
        # above log2 n + 4, but below one tagged 7-bit ID
        (["--alg", "improved", "--k", "4", "--gen", "er:n=80,p=0.2",
          "--msg-bits", "11"], 15),
    ]
    for args, floor in cases:
        code = run_cli(["run", *args, "--out", str(tmp_path / "r")])
        assert code == 4
        assert f"below minimum {floor}" in capsys.readouterr().err


def test_round_cap_below_one_is_simulator_error(tmp_path, capsys):
    # imp3 on a path runs no round, yet the config is still rejected
    for gen in ("path:n=50", "er:n=50,p=0.1"):
        code = run_cli(["run", "--alg", "imp3", "--gen", gen, "--max-rounds", "0",
                        "--out", str(tmp_path / "r")])
        assert code == 4
        assert capsys.readouterr().err == "error: max_rounds 0 below 1\n"


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_every_algorithm_checks_its_config(alg):
    # a library call rejects an invalid config up front, also where the
    # construction would run no round (imp3 on a path has no vertex of
    # high degree)
    spec = "kbip:a=1,b=3" if alg in ("bip3", "sparserbip") else "path:n=50"
    kind, params = parse_gen_spec(spec)
    g = generate(kind, params)
    for cfg, text in ((SimConfig(max_rounds=0), "max_rounds 0 below 1"),
                      (SimConfig(msg_bit_budget=2),
                       f"msg_bit_budget 2 below minimum {width(g.id_bits, 1)}")):
        with pytest.raises(SimError) as exc:
            run_algorithm(alg, g, 3, cfg, 0, kind, params)
        assert str(exc.value) == text


def test_imp3_on_wide_ids_passes_at_the_default_budget(tmp_path):
    # a 9-vertex tree partition of a 64-vertex graph with 20-bit IDs keeps
    # the budget of the whole graph
    base = 1 << 19
    path = str(tmp_path / "g.edges")
    save(Graph(range(base, base + 64), [(base, base + i) for i in range(1, 9)]), path)
    out = str(tmp_path / "r")
    assert run_cli(["run", "--alg", "imp3", "--graph", path, "--out", out]) == 0
    with open(out + ".ledger.json") as fh:
        assert json.load(fh)["rounds"] == 84


def test_strict_budget_overrun_is_simulator_error(tmp_path, capsys):
    # 16 bits fit a tagged ID, but a min-flood message needs 17
    code = run_cli(
        ["run", "--alg", "improved", "--k", "4", "--gen", "er:n=80,p=0.2",
         "--msg-bits", "16", "--out", str(tmp_path / "r")]
    )
    assert code == 4
    assert "'kind': 'bits'" in capsys.readouterr().err


@pytest.mark.parametrize("spec,bits,budget,phase", [
    ("path:n=3", 16, 13, "min-flood"),
    ("bip:a=2,b=2,p=1", 17, 16, "grow-clusters"),
])
def test_zerosc_on_tiny_graphs_overruns_the_default_budget(tmp_path, capsys, spec, bits,
                                                           budget, phase):
    # ruling_set_power and grow_bfs_clusters size their hop counters by the
    # radius, not by n, so on a tiny graph a counter outgrows the budget
    code = run_cli(["run", "--alg", "zerosc", "--k", "4", "--gen", spec,
                    "--out", str(tmp_path / "r")])
    assert code == 4
    err = capsys.readouterr().err
    assert f"'bits': {bits}, 'budget': {budget}, 'program': '{phase}'" in err


def test_undominated_high_degree_is_simulator_error(tmp_path, capsys, monkeypatch):
    # a ruling set that dominates nothing trips partition_high_degree's guard
    monkeypatch.setattr(
        spanner3, "ruling_set_log", lambda g, cfg, ledger, name, cand: set()
    )
    with pytest.raises(SimError, match="failed to dominate"):
        improved_3_spanner(generate("complete", {"n": 16}))
    code = run_cli(
        ["run", "--alg", "imp3", "--gen", "complete:n=16", "--out", str(tmp_path / "r")]
    )
    assert code == 4
    assert "error: ruling set failed to dominate" in capsys.readouterr().err
