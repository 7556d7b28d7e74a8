"""CLI behavior: outputs, exit codes, and byte-for-byte JSON determinism."""

import json
import subprocess
import sys

import pytest

from dlagraph import cli, graphs, suites
from dlagraph.suites import CheckCase


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(capsys):
    code, out, err = run_cli(capsys, "classify", "--graph", "Sigma", "--algebra", "a2")
    assert code == 0
    assert "scope: Theorem1" in out
    assert "summands: so(16)" in out
    assert "dim: 120" in out


def test_classify_json_shape(capsys):
    code, out, _ = run_cli(capsys, "classify", "--graph", "Omega", "--algebra", "a14", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "algebra", "n", "E", "connected", "bipartite", "scope", "summands", "dim",
    }
    assert payload["n"] == 4
    assert payload["E"] == 4
    assert payload["connected"] is True
    assert payload["bipartite"] is None
    assert payload["dim"] == 126


def test_classify_out_of_scope_exit_3(capsys):
    code, out, _ = run_cli(capsys, "classify", "--graph", "L:4", "--algebra", "a2")
    assert code == 3
    assert "rerun with --oracle" in out


def test_classify_oracle_fallback(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--graph", "C:5", "--algebra", "a2", "--oracle", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["scope"] == "OracleFallback"
    assert payload["dim"] > 0


def test_close_json_frozen_dim(capsys):
    code, out, _ = run_cli(capsys, "close", "--graph", "Omega", "--algebra", "a2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 56
    assert payload["n"] == 4
    assert payload["basis"] == sorted(payload["basis"])
    assert len(payload["basis"]) == 56


def test_close_limit_exit_4(capsys):
    code, _, err = run_cli(
        capsys, "close", "--graph", "K:4", "--algebra", "a22", "--limit", "10"
    )
    assert code == 4
    assert "limit" in err


def test_close_limit_reports_partial_size(capsys):
    code, out, err = run_cli(
        capsys, "close", "--graph", "K:5", "--algebra", "a22", "--limit", "100"
    )
    assert code == 4 and out == ""
    assert err == "error: closure exceeded limit 100 (partial basis size 101)\n"


@pytest.mark.parametrize("limit", ["-1", "0"])
def test_close_nonpositive_limit_exit_2(capsys, limit):
    code, _, err = run_cli(
        capsys, "close", "--graph", "K:3", "--algebra", "a2", "--limit", limit
    )
    assert code == 2
    assert "limit must be positive" in err


def test_close_basis_listing(capsys):
    code, out, _ = run_cli(
        capsys, "close", "--graph", "K:2", "--algebra", "a14", "--basis"
    )
    assert code == 0
    assert "dim: 6" in out
    assert "  XX" in out


def test_frustration_member_text(capsys):
    code, out, _ = run_cli(
        capsys, "frustration", "member",
        "--graph", "Sigma", "--algebra", "a2", "--target", "XIIYI",
    )
    assert code == 0
    assert "target XIIYI: member" in out
    assert "start g" in out
    assert out.strip().endswith("product: XIIYI")


def test_frustration_member_negative(capsys):
    # on two vertices the a2 generators commute: nothing new is reachable
    code, out, _ = run_cli(
        capsys, "frustration", "member",
        "--graph", "K:2", "--algebra", "a2", "--target", "ZZ",
    )
    assert code == 0
    assert "not a member" in out


def test_frustration_member_identity_target_width(capsys):
    # the identity is never a member, but only a target as wide as the graph
    # is a well-formed question
    code, out, err = run_cli(
        capsys, "frustration", "member",
        "--graph", "Sigma", "--algebra", "a2", "--target", "II",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    code, out, _ = run_cli(
        capsys, "frustration", "member",
        "--graph", "Sigma", "--algebra", "a2", "--target", "IIIII",
    )
    assert code == 0
    assert "not a member" in out


def test_frustration_member_kernel_cap_exit_4(capsys):
    code, _, err = run_cli(
        capsys, "frustration", "member",
        "--graph", "K:6", "--algebra", "a22", "--target", "XXXXXX",
    )
    assert code == 4
    assert "search cap" in err


def test_frustration_member_search_cap_exit_4(capsys):
    # b3 on a 13-vertex line places 26 generators, past the search cap of 24
    code, out, err = run_cli(
        capsys, "frustration", "member",
        "--graph", "L:13", "--algebra", "b3", "--target", "X" + "I" * 12,
    )
    assert code == 4
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert "max_vertices" not in err


def test_frustration_member_over_cap_answers_outside_the_span(capsys):
    # b1 on a 13-vertex line places 25 generators, past the search cap of 24
    argv = ["frustration", "member", "--graph", "L:13", "--algebra", "b1", "--json"]
    code, out, _ = run_cli(capsys, *argv, "--target", "Z" + "I" * 12)
    assert code == 0
    assert json.loads(out)["member"] is False
    code, out, err = run_cli(capsys, *argv, "--target", "X" + "I" * 12)
    assert code == 4
    assert out == ""
    assert err == "error: 25 generators exceed the search cap 24\n"


def test_frustration_member_signed_target_needs_equals(capsys):
    argv = ["frustration", "member", "--graph", "Sigma", "--algebra", "a2", "--json"]
    _, plain, _ = run_cli(capsys, *argv, "--target", "XIIYI")
    code, signed, _ = run_cli(capsys, *argv, "--target=-iXIIYI")
    assert code == 0
    assert signed == plain
    # separated by a space, argparse reads the signed target as a flag
    with pytest.raises(SystemExit) as wrapped:
        cli.main([*argv, "--target", "-iXIIYI"])
    assert wrapped.value.code == 2
    assert capsys.readouterr().out == ""


def test_frustration_build_json(capsys):
    code, out, _ = run_cli(
        capsys, "frustration", "build", "--graph", "K:2", "--algebra", "b3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == ["XI", "YI", "IX", "IY"]
    # single-site letters anticommute on the same site only
    assert payload["edges"] == [[0, 1], [2, 3]]


def test_frustration_build_alt(capsys):
    code, out, _ = run_cli(
        capsys, "frustration", "build",
        "--graph", "K:2", "--algebra", "a14", "--alt", "--json",
    )
    assert code == 0
    assert json.loads(out)["generators"] == ["XX", "ZI", "IZ"]


def test_involution_text(capsys):
    code, out, _ = run_cli(
        capsys, "involution", "--l", "2", "--m", "2", "--algebra", "a14"
    )
    assert code == 0
    assert "closure dim on K_{2,2}: 56" in out
    assert "fixed-point dim inside K_4 closure: 56" in out
    assert out.strip().endswith("PASS")


def test_involution_json(capsys):
    code, out, _ = run_cli(
        capsys, "involution", "--l", "1", "--m", "3", "--algebra", "a4", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["block_dim"] == payload["fixed_dim"] == payload["formula_dim"] == 30
    assert payload["formula_applicable"] is True
    assert payload["match"] is True


def test_involution_single_edge_has_no_closed_form(capsys):
    code, out, _ = run_cli(capsys, "involution", "--l", "1", "--m", "1", "--algebra", "a4")
    assert code == 0
    assert "closed-form dim: none (outside table hypothesis, informational)" in out
    code, out, _ = run_cli(
        capsys, "involution", "--l", "1", "--m", "1", "--algebra", "a4", "--json"
    )
    payload = json.loads(out)
    assert payload["block_dim"] == payload["fixed_dim"] == 2
    assert payload["formula_dim"] is None and payload["match"] is True


def test_involution_over_cap_refused_before_building(capsys, monkeypatch):
    def no_build(n):
        raise AssertionError("K_{l+m} built past the qubit cap")

    monkeypatch.setattr(cli, "complete_graph", no_build)
    code, _, err = run_cli(capsys, "involution", "--l", "16", "--m", "16", "--algebra", "a4")
    assert code == 2
    assert "qubit cap" in err


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "pauli", "--cases", "200", "--seed", "5")
    assert code == 0
    assert "suite pauli: 8/8 passed" in out
    assert "FAIL" not in out


def test_verify_failure_exit_1(capsys, monkeypatch):
    monkeypatch.setitem(
        cli.SUITES, "pauli",
        lambda **kwargs: [CheckCase("rigged", False, "boom")],
    )
    code, out, _ = run_cli(capsys, "verify", "pauli")
    assert code == 1
    assert "FAIL rigged | boom" in out
    assert "0/1 passed" in out


def test_bad_graph_spec_exit_2(capsys):
    code, _, err = run_cli(capsys, "classify", "--graph", "Q:9", "--algebra", "a2")
    assert code == 2
    assert "bad graph spec" in err


def test_graph_path_not_readable_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "classify", "--graph", str(tmp_path), "--algebra", "a2")
    assert code == 2
    assert err.startswith("error: cannot read graph file")


@pytest.mark.parametrize("argv", [
    ["verify", "theorem1", "--max-n", "8"],
    ["verify", "theorem1", "--max-n", "9"],
    ["verify", "theorem1", "--max-n", "0"],
    ["verify", "appendixB", "--max-n", "2"],
    ["verify", "appendixB", "--max-n", "11"],
    ["verify", "involution", "--max-n", "0"],
    ["verify", "pauli", "--cases", "0"],
    ["verify", "equivalence", "--max-n", "3"],
    ["verify", "pauli", "--max-n", "3", "--cases", "5"],
    ["verify", "theorem1", "--cases", "3", "--max-n", "4"],
])
def test_verify_bad_bounds_exit_2_before_work(capsys, monkeypatch, argv):
    # bounds past what the suite can run, or selecting no case, are bad input
    def no_work(*args, **kwargs):
        raise AssertionError("the suite started work before checking its bounds")

    monkeypatch.setattr(suites, "lie_closure", no_work)
    monkeypatch.setattr(suites, "multiply", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_theorem1_bound_admits_seven(capsys, monkeypatch):
    # --max-n 7 passes the bound check and asks for every size from 4 to 7;
    # the enumeration is stubbed so that no case runs
    sizes = []
    monkeypatch.setattr(
        suites, "enumerate_connected_graphs", lambda n, min_max_degree=0: sizes.append(n) or []
    )
    code, out, err = run_cli(capsys, "verify", "theorem1", "--max-n", "7")
    assert (code, err) == (0, "")
    assert sizes == [4, 5, 6, 7]
    assert "suite theorem1: 0/0 passed" in out


def test_bad_algebra_exit_2():
    with pytest.raises(SystemExit) as wrapped:
        cli.main(["classify", "--graph", "K:3", "--algebra", "a99"])
    assert wrapped.value.code == 2


def test_graph_file_text(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("n 4\n0 1\n1 2\n1 3\n2 3\n")
    code, out, _ = run_cli(capsys, "classify", "--graph", str(path), "--algebra", "a16")
    assert code == 0
    assert "dim: 120" in out


def test_classify_line_a16_is_so32(capsys):
    code, out, _ = run_cli(capsys, "classify", "--graph", "L:5", "--algebra", "a16", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["scope"] == "Theorem1"
    assert payload["summands"] == [{"family": "so", "size": 32, "multiplicity": 1}]
    assert payload["dim"] == 496


@pytest.mark.parametrize("text", [
    '{"n": [3], "edges": []}',
    '{"n": 3, "edges": 5}',
    '{"n": 3, "edges": [[0, "a"]]}',
    '{"n": 3, "edges": [[0, 1.5]]}',
    '{"n": 3, "edges": [[0, 1], null]}',
    '{"n": 3.7, "edges": [[0, 1]]}',
])
def test_malformed_graph_json_exit_2(tmp_path, capsys, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "classify", "--graph", str(path), "--algebra", "a2")
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_deeply_nested_graph_json_exit_2(tmp_path, capsys):
    # json.loads recurses per level: 10,000 levels overflow the stack
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": ' + "[" * 10_000 + "]" * 10_000 + "}")
    code, out, err = run_cli(capsys, "classify", "--graph", str(path), "--algebra", "a2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("text, line", [
    ("n abc\n", "line 1"),
    ("n 3\n0 1\n1 x\n", "line 3"),
])
def test_malformed_edge_list_names_the_line(tmp_path, capsys, text, line):
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "classify", "--graph", str(path), "--algebra", "a2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert line in err


def test_graph_file_json(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [1, 3], [2, 3]]}))
    code, out, _ = run_cli(capsys, "close", "--graph", str(path), "--algebra", "a2", "--json")
    assert code == 0
    assert json.loads(out)["dim"] == 56


def test_close_above_key_width_exit_2(capsys):
    # packed int64 keys hold at most 31 qubits
    code, _, err = run_cli(capsys, "close", "--graph", "L:33", "--algebra", "a0")
    assert code == 2
    assert "exceeds qubit cap 31" in err


@pytest.mark.parametrize("argv", [
    ("close", "--graph", "L:32", "--algebra", "a2"),
    ("frustration", "build", "--graph", "L:32", "--algebra", "a2"),
    ("frustration", "member", "--graph", "L:4", "--algebra", "a2", "--target", "X" * 32),
    ("involution", "--l", "16", "--m", "16", "--algebra", "a14"),
], ids=["close", "frustration-build", "frustration-target", "involution"])
def test_one_past_the_qubit_cap_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "qubit cap" in err


@pytest.mark.parametrize("argv", [
    ("close", "--graph", "K:1500", "--algebra", "a2"),
    ("frustration", "build", "--graph", "K:1500", "--algebra", "a2"),
    ("frustration", "member", "--graph", "Kb:750,750", "--algebra", "a2", "--target", "XY"),
], ids=["close", "frustration-build", "frustration-member"])
def test_wide_spec_refused_before_its_edges(capsys, monkeypatch, argv):
    # every named graph builds its edge list through build_graph
    def no_build(n, edges):
        raise AssertionError("edge list built past the qubit cap")

    monkeypatch.setattr(graphs, "build_graph", no_build)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "qubit cap" in err


def test_widest_strings_need_no_environment(capsys):
    code, out, _ = run_cli(capsys, "close", "--graph", "C:31", "--algebra", "a14", "--json")
    assert code == 0
    assert json.loads(out)["dim"] == 3782  # 2n(2n - 1) at n = 31
    code, out, _ = run_cli(capsys, "frustration", "build", "--graph", "L:31", "--algebra", "a0")
    assert code == 0
    assert "generators: 30 on 31 sites" in out


def test_classify_builds_no_strings(capsys):
    # the tables need no Pauli string, so the qubit cap does not apply
    code, out, _ = run_cli(capsys, "classify", "--graph", "K:99", "--algebra", "a2")
    assert code == 0
    assert "dim:" in out


def test_many_components_classified(tmp_path, capsys):
    # 19,999 components: each is found once, not by a rescan of the unseen vertices
    path = tmp_path / "wide.txt"
    path.write_text("n 20000\n0 1\n")
    code, out, _ = run_cli(capsys, "classify", "--graph", str(path), "--algebra", "a2", "--json")
    assert code == 3
    assert json.loads(out) == {
        "E": 1, "algebra": "a2", "bipartite": [19999, 1], "connected": False,
        "dim": 0, "n": 20000, "scope": "OutOfScope", "summands": [],
    }


def test_json_byte_determinism():
    cmd = [
        sys.executable, "-m", "dlagraph.cli",
        "close", "--graph", "Sigma", "--algebra", "a2", "--json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.count(b"\n") == 1
    assert json.loads(first.stdout)["dim"] == 120


def test_verify_json_byte_determinism():
    cmd = [
        sys.executable, "-m", "dlagraph.cli",
        "verify", "frustration", "--json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["failed"] == 0
    assert payload["total"] == 7


# one process, one parser: every subcommand, with failing calls in the middle
SESSION = [
    ["classify", "--graph", "Sigma", "--algebra", "a2", "--json"],
    ["close", "--graph", "Omega", "--algebra", "a14", "--json"],
    ["classify", "--graph", "Q:9", "--algebra", "a2"],
    ["close", "--graph", "K:3", "--algebra", "a99"],
    ["close", "--graph", "Kb:2,3", "--algebra", "a4", "--basis"],
    ["frustration", "build", "--graph", "Omega", "--algebra", "a14", "--alt", "--json"],
    ["frustration", "member", "--graph", "Sigma", "--algebra", "a2", "--target", "XIIYI"],
    ["involution", "--l", "2", "--m", "3", "--algebra", "a4", "--json"],
    ["verify", "theorem1", "--max-n", "9"],
    ["verify", "equivalence", "--json"],
    ["classify", "--graph", "L:4", "--algebra", "a2"],
]


def test_one_parser_serves_a_session_like_fresh_processes(capsys):
    cli._shared_parser.cache_clear()
    in_process = []
    for argv in SESSION:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert cli._shared_parser.cache_info().misses == 1
    assert [code for code, _, _ in in_process] == [0, 0, 2, 2, 0, 0, 0, 0, 2, 0, 3]
    for argv, got in zip(SESSION, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "dlagraph.cli", *argv], capture_output=True, text=True
        )
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
