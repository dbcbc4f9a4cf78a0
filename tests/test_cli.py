import json
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plumbsw import cli, sw
from plumbsw import fixtures as fx
from plumbsw.graph import emit_graph_text, load_graph


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert cli.run(["fixtures", "--out", str(out)]) == 0
    return out


def run_json(argv, capsys):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_ok(corpus_dir, capsys):
    code, rep = run_json(["validate", "--graph", str(corpus_dir / "e8.pg")], capsys)
    assert code == 0
    assert rep["valid"] and rep["det"] == 1 and rep["schema"] == 1


def test_validate_not_a_tree(tmp_path, capsys):
    p = tmp_path / "bad.pg"
    p.write_text("v a -2\nv b -2\nv c -2\ne a b\ne b c\ne c a\n")
    code, rep = run_json(["validate", "--graph", str(p)], capsys)
    assert code == 2
    assert rep["error"] == "NotATree"


def test_validate_not_negative_definite(tmp_path, capsys):
    p = tmp_path / "sing.pg"
    p.write_text("v a -1\nv b -1\ne a b\n")
    code, rep = run_json(["validate", "--graph", str(p)], capsys)
    assert code == 2
    assert rep["error"] == "NotNegativeDefinite"


def test_info_report(corpus_dir, capsys):
    code, rep = run_json(["info", "--graph", str(corpus_dir / "gor_star.pg")], capsys)
    assert code == 0
    assert rep["numerically_gorenstein"] is True
    assert rep["rational"] is False
    assert rep["det"] == 16


def test_coeff_and_count(corpus_dir, capsys):
    code, rep = run_json(
        ["coeff", "--graph", str(corpus_dir / "a2.pg"), "--exponent", "1,1"], capsys)
    assert code == 0 and rep["coefficient"] == 1
    code, rep = run_json(
        ["count", "--graph", str(corpus_dir / "a1.pg"), "--threshold", "3"], capsys)
    assert code == 0 and rep["value"] > 0


def test_overlong_threshold_is_infeasible(corpus_dir, capsys):
    # a threshold whose enumeration would leave int64, or yield more points
    # than could ever be counted, is a usage error
    for threshold in ("100000000000000000000000", "1000000000000000"):
        code, rep = run_json(
            ["count", "--graph", str(corpus_dir / "a1.pg"), "--threshold", threshold],
            capsys)
        assert code == 2 and rep["error"] == "InfeasibleQuery"


def test_sw_e8(corpus_dir, capsys):
    code, rep = run_json(
        ["sw", "--graph", str(corpus_dir / "e8.pg"), "--class", "0,0,0,0,0,0,0,0"],
        capsys)
    assert code == 0
    inv = rep["invariants"][0]
    assert inv["sw"] == "-1/1" and inv["normalized_r"] == "0/1"


def test_consecutive_runs_share_no_state(corpus_dir, tmp_path, capsys):
    graph = str(corpus_dir / "a2.pg")
    first = tmp_path / "first.json"
    code, rep = run_json(["--output", str(first), "sw", "--graph", graph,
                          "--class", "#1", "--depth", "-3"], capsys)
    assert code == 2 and rep["error"] == "MethodPreconditionFailed"
    first.unlink()
    code, rep = run_json(["sw", "--graph", graph, "--class", "#1"], capsys)
    assert code == 0 and [inv["depth"] for inv in rep["invariants"]] == [1]
    assert not first.exists()


@pytest.mark.parametrize("argv", [["coeff", "--exponent", "1/2,0"],
                                  ["count", "--threshold", "1/2,0"]])
def test_coordinates_outside_dual_lattice_rejected(corpus_dir, capsys, argv):
    # det(a2) = 3, so 1/2 is not a coordinate of any vector of (1/3)L
    code, rep = run_json(argv[:1] + ["--graph", str(corpus_dir / "a2.pg")] + argv[1:],
                         capsys)
    assert code == 2 and rep["error"] == "NotInDualLattice"


@pytest.mark.parametrize("argv", [["coeff", "--exponent", "1/0,1"],
                                  ["count", "--threshold", "1,1/0"],
                                  ["sw", "--class", "1/0,0"],
                                  ["surgery", "--class", "0,1/0", "--subset", "v1"]])
def test_zero_denominator_is_usage_error(corpus_dir, capsys, argv):
    code, rep = run_json(argv[:1] + ["--graph", str(corpus_dir / "a2.pg")] + argv[1:],
                         capsys)
    assert code == 2 and rep["error"] == "PlumbingError"


@pytest.mark.parametrize("text", ['{"vertices": [{"id": "a"}], "edges": []}',
                                  '{"vertices": [{"id": "a", "euler": -2}]}',
                                  '{"vertices": 3, "edges": []}'],
                         ids=["no_euler", "no_edges", "vertices_not_a_list"])
def test_malformed_json_graph_is_usage_error(tmp_path, capsys, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code, rep = run_json(["validate", "--graph", str(p)], capsys)
    assert code == 2 and rep["error"] == "PlumbingError"


def test_sw_rejects_negative_depth(corpus_dir, capsys):
    graph = str(corpus_dir / "gor_star.pg")
    code, rep = run_json(["sw", "--graph", graph, "--class", "all", "--depth", "-3"],
                         capsys)
    assert code == 2 and rep["error"] == "MethodPreconditionFailed"
    code, rep = run_json(["sw", "--graph", graph, "--class", "all"], capsys)
    assert code == 0
    trivial = [inv for inv in rep["invariants"] if set(inv["class"]) == {"0"}]
    assert [inv["sw"] for inv in trivial] == ["-3/2"]


def test_surgery_auto_class(corpus_dir, capsys):
    code, rep = run_json(
        ["surgery", "--graph", str(corpus_dir / "ex_graph2.pg"), "--class", "auto",
         "--subset", "leaves", "--mode", "counting", "--depth", "1,2"], capsys)
    assert code == 0
    assert rep["verified"] is True
    assert rep["reports"][0]["verdict"] == "equal"


# gor_star compares four of its 16 classes: one class alone takes about 1.5 s
@pytest.mark.parametrize("name, classes", [("ex_graph2", range(16)),
                                           ("gor_star", (0, 5, 10, 15))],
                         ids=["ex_graph2", "gor_star"])
def test_surgery_counting_class_all_matches_single_classes(
        corpus_dir, capsys, walks, name, classes):
    path = str(corpus_dir / (name + ".pg"))
    ids = load_graph(path).ids
    argv = ["surgery", "--graph", path, "--subset", "leaves", "--mode", "counting"]
    code, rep = run_json(argv + ["--class", "all"], capsys)
    assert code == 0 and rep["verified"] is True
    assert len(rep["reports"]) == 16
    # the parent graph once for both depths, untargeted, and never by one class
    assert [w for w in walks if w[0] == ids] == [(ids, False)]
    for k in classes:
        code, one = run_json(argv + ["--class", "#%d" % k], capsys)
        assert code == 0
        assert one["reports"] == [rep["reports"][k]]


def test_sw_invariant_counts_its_one_class(corpus_dir, walks):
    g = load_graph(corpus_dir / "ex_graph1.pg")
    sw.sw_invariant(g, (0,) * g.n)
    assert walks == [(g.ids, True)]     # one targeted walk for both depths


def test_sw_class_all_asks_the_table_once(corpus_dir, capsys, walks):
    path = str(corpus_dir / "ex_graph2.pg")
    code, rep = run_json(["sw", "--graph", path, "--class", "all"], capsys)
    assert code == 0 and len(rep["invariants"]) == 16
    assert walks == [(load_graph(path).ids, False)]


def test_surgery_pc_class_all_asks_every_piece_once(corpus_dir, capsys, walks):
    # deleting the center leaves four one-vertex pieces: each is counted once
    # for all its classes and both depths, and every class then reads the cache
    path = str(corpus_dir / "ex_graph2.pg")
    g = load_graph(path)
    code, rep = run_json(["surgery", "--graph", path, "--class", "all", "--subset", "c",
                          "--mode", "pc"], capsys)
    assert code == 0 and rep["verified"] is True and len(rep["reports"]) == 16
    pieces = [comp.ids for comp, _ in g.components_minus([g.index["c"]])]
    assert len(pieces) == 4
    for ids in pieces:
        assert walks.count((ids, False)) == 1
        assert (ids, True) not in walks


def test_surgery_pc_class_all_on_many_vertices_reads_the_table(corpus_dir, capsys, walks):
    # ex_graph2 is not Gorenstein, so with four leaves deleted every class
    # checks its counting identity, which reads the table's histograms
    path = str(corpus_dir / "ex_graph2.pg")
    ids = load_graph(path).ids
    code, rep = run_json(["surgery", "--graph", path, "--class", "all", "--subset",
                          "leaves", "--mode", "pc"], capsys)
    assert code == 0 and rep["verified"] is True and len(rep["reports"]) == 16
    assert {r["method"] for r in rep["reports"]} == {"prop1_conditional"}
    assert [w for w in walks if w[0] == ids] == [(ids, False)]


@pytest.mark.parametrize("mode", ["red1", "red2"])
def test_reduction_class_all_refuses_before_counting(tmp_path, capsys, walks, mode):
    # deleting u leaves the star of Sigma(2,3,7), which is not rational
    p = tmp_path / "nonrational.pg"
    p.write_text("v c -1\nv a -2\nv b -3\nv e -7\nv w -2\nv u -2\n"
                 "e c a\ne c b\ne c e\ne e w\ne w u\n")
    code, rep = run_json(["surgery", "--graph", str(p), "--class", "all",
                          "--subset", "u", "--mode", mode], capsys)
    assert code == 2 and rep["error"] == "ComponentNotRational"
    assert walks == []


def test_pc_verb(corpus_dir, capsys):
    code, rep = run_json(
        ["pc", "--graph", str(corpus_dir / "ex_graph2.pg"), "--class", "#0",
         "--subset", "c", "--method", "univariate_fit"], capsys)
    assert code == 0
    assert rep["periodic_constants"][0]["pc"].count("/") == 1


def test_gorenstein_verb(corpus_dir, capsys):
    code, rep = run_json(
        ["gorenstein", "--graph", str(corpus_dir / "gor_star.pg"), "--subset", "all"],
        capsys)
    assert code == 0
    assert rep["pc"] == rep["swbar_counting"] == rep["swbar_cubes"]


def test_unknown_vertex_is_usage_error(corpus_dir, capsys):
    code, rep = run_json(
        ["count", "--graph", str(corpus_dir / "a2.pg"), "--threshold", "1,1",
         "--mode", "reduced", "--subset", "zzz"], capsys)
    assert code == 2


def test_identity_violation_exit_code(corpus_dir, capsys, monkeypatch):
    from plumbsw import sw as swmod
    from plumbsw.errors import IdentityViolation

    def boom(*a, **k):
        raise IdentityViolation("forced", None)

    monkeypatch.setattr(swmod, "verify_counting_surgery", boom)
    monkeypatch.setattr(cli.sw, "verify_counting_surgery", boom)
    code, rep = run_json(
        ["surgery", "--graph", str(corpus_dir / "a2.pg"), "--class", "#0",
         "--subset", "all", "--mode", "counting"], capsys)
    assert code == 1
    assert rep["error"] == "IdentityViolation"


def test_corpus_roundtrip_and_determinism(corpus_dir, tmp_path, capsys):
    assert cli.run(["fixtures", "--out", str(tmp_path / "again")]) == 0
    capsys.readouterr()
    for name in os.listdir(corpus_dir):
        a = (corpus_dir / name).read_bytes()
        b = (tmp_path / "again" / name).read_bytes()
        assert a == b, name
        if name.endswith(".pg"):
            g = load_graph(corpus_dir / name)
            assert emit_graph_text(g).encode() == a


def test_manifest_contents(corpus_dir):
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    by_id = {e["id"]: e for e in manifest["fixtures"]}
    assert by_id["ex_graph1"]["det"] == 384
    assert by_id["ex_graph1"]["numerically_gorenstein"] is True
    assert by_id["ex_graph2"]["showcase_class"] == ["0/1", "1/2", "1/2", "1/2", "1/2"]
    assert by_id["e8"]["rational"] is True
    # the recorded draw regenerates the corpus's random trees
    drawn = fx.random_trees(**manifest["generator"])
    assert [emit_graph_text(g) for g in drawn] == [
        (corpus_dir / ("random_%d.pg" % i)).read_text() for i in range(len(drawn))]


def test_output_file_option(corpus_dir, tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = cli.run(["--output", str(out), "info", "--graph",
                    str(corpus_dir / "a1.pg")])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out.read_text())["det"] == 2


# report-shaped values: str keys; strings with non-ASCII, quote, backslash and
# control characters; big and negative ints, booleans and None at the leaves
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2 ** 80, 2 ** 80),
                        st.text(alphabet=st.sampled_from('az"\\\n\t\x00\x1fé☃𝄞'),
                                max_size=6))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=25)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(obj=JSON_VALUES)
def test_writer_matches_the_json_encoder(obj):
    # _emit's writer gives the bytes of json's indent-2, sorted-key output
    assert cli._json(obj) == json.dumps(obj, indent=2, sort_keys=True)
    assert cli._json({"a": [obj, {}, []]}) == json.dumps({"a": [obj, {}, []]},
                                                        indent=2, sort_keys=True)


@pytest.mark.parametrize("leaf", [Fraction(1, 2), np.int64(3)], ids=["Fraction", "int64"])
def test_writer_refuses_what_json_refuses(leaf):
    for obj in (leaf, {"b": [1, {"a": leaf}]}):
        with pytest.raises(TypeError) as want:
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as got:
            cli._json(obj)
        assert str(got.value) == str(want.value)
