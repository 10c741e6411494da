import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import kgtopos
from kgtopos import sheaves, verify
from kgtopos.cli import main

DATA = Path(__file__).parent / "data"
FAN = str(DATA / "fan.txt")
LAYERED = str(DATA / "layered_dag.txt")
PRODUCT = str(DATA / "product_presheaf.json")
UNDERSIZED = str(DATA / "undersized_presheaf.json")
LAYERED_PRODUCT = str(DATA / "layered_dag_product.json")
LAYERED_UNDERSIZED = str(DATA / "layered_dag_undersized.json")
FAN_FAMILY = str(DATA / "fan_family.json")


@pytest.fixture()
def runner():
    return CliRunner()


def test_import_does_not_load_numpy():
    # numpy is only the eigensolver oracle's; no command pays for it at start-up.
    src = str(Path(kgtopos.__file__).parents[1])
    code = "import sys, kgtopos.cli; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestMatrices:
    def test_adjacency_out_matches_golden(self, runner):
        result = runner.invoke(main, ["matrices", FAN, "--adjacency-out"])
        assert result.exit_code == 0
        assert result.output == (DATA / "adjacency_out.csv").read_text()

    def test_head_matches_golden(self, runner):
        result = runner.invoke(main, ["matrices", FAN, "--head"])
        assert result.output == (DATA / "head_incidence.csv").read_text()

    def test_tail_matches_golden(self, runner):
        result = runner.invoke(main, ["matrices", FAN, "--tail"])
        assert result.output == (DATA / "tail_incidence.csv").read_text()

    def test_all_matrices_with_headers(self, runner):
        result = runner.invoke(main, ["matrices", FAN])
        assert "# head\n" in result.output and "# adjacency-in\n" in result.output

    def test_json_format(self, runner):
        result = runner.invoke(main, ["matrices", FAN, "--format", "json"])
        data = json.loads(result.output)
        assert data["adjacency_out"] == [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ]

    def test_empty_file(self, runner, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        result = runner.invoke(main, ["matrices", str(empty), "--head"])
        assert result.exit_code == 0
        assert result.output == ""

    def test_malformed_line_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("A r B\noops\n")
        result = runner.invoke(main, ["matrices", str(bad)])
        assert result.exit_code == 2
        assert "line 2" in result.output or "line 2" in (result.stderr or "")


class TestLine:
    def test_dot_output(self, runner):
        result = runner.invoke(main, ["line", FAN, "--format", "dot"])
        assert result.exit_code == 0
        assert 't0 [label="A --r1--> B"];' in result.output

    def test_json_components(self, runner):
        result = runner.invoke(main, ["line", FAN, "--format", "json"])
        data = json.loads(result.output)
        assert data["components"] == [[0, 1], [2, 3]]

    def test_csv_matches_matrix(self, runner):
        result = runner.invoke(main, ["line", FAN, "--format", "csv"])
        assert result.output == (DATA / "adjacency_out.csv").read_text()


class TestOutputPieces:
    """Streamed output reaches stdout joined into pieces of PIECE_CHARS
    or more, all but the last, and byte for byte as streamed."""

    @pytest.fixture()
    def ring(self, tmp_path):
        path = tmp_path / "ring.txt"
        path.write_text("".join(f"e{i} r e{(i + 1) % 40}\n" for i in range(40)))
        return str(path)

    @pytest.mark.parametrize(
        "args",
        [["matrices"], ["matrices", "--format", "json"], ["line", "--format", "csv"],
         ["line", "--format", "json"]],
        ids=["matrices-csv", "matrices-json", "line-csv", "line-json"],
    )
    def test_piece_size_does_not_change_output(self, runner, ring, monkeypatch, args):
        from kgtopos import cli as cli_module

        argv = [args[0], ring, *args[1:]]
        whole = runner.invoke(main, argv)
        monkeypatch.setattr(cli_module, "PIECE_CHARS", 50)
        pieces = runner.invoke(main, argv)
        assert (pieces.exit_code, pieces.output) == (0, whole.output)

    def test_stdout_sees_pieces(self, ring, monkeypatch):
        from kgtopos import cli as cli_module

        class Recorder:
            def __init__(self):
                self.sizes = []

            def write(self, text):
                self.sizes.append(len(text))

            def flush(self):
                pass

        recorder = Recorder()
        monkeypatch.setattr(cli_module, "PIECE_CHARS", 1000)
        monkeypatch.setattr(sys, "stdout", recorder)
        main.main(["matrices", ring, "--format", "json"], standalone_mode=False)
        *full, last = recorder.sizes
        assert full and all(size >= 1000 for size in full) and 0 < last
        assert sum(recorder.sizes) > 6 * 40 * 40


class TestFreecat:
    def test_json_shape(self, runner):
        result = runner.invoke(main, ["freecat", FAN])
        data = json.loads(result.output)
        assert data["objects"] == ["A", "B", "C", "D"]
        assert data["hom_sets"]["D->C"] == [[3]]

    def test_cyclic_needs_bound(self, runner, tmp_path):
        loop = tmp_path / "loop.txt"
        loop.write_text("A r B\nB s A\n")
        result = runner.invoke(main, ["freecat", str(loop)])
        assert result.exit_code == 2
        bounded = runner.invoke(main, ["freecat", str(loop), "--max-path-length", "2"])
        assert bounded.exit_code == 0


class TestLengthBound:
    """Only freecat and verify take --max-path-length.  A site needs
    composition-closed hom-sets, so a bound never changed a site
    command's answer: it built the same category or ended in exit 2."""

    @pytest.mark.parametrize(
        "args",
        [
            ["covers", FAN],
            ["sheaf", "check", FAN, PRODUCT],
            ["sheaf", "glue", FAN, PRODUCT, "--family", FAN_FAMILY],
            ["sheaf", "sheafify", FAN, UNDERSIZED],
            ["sheaf", "global", FAN, PRODUCT],
            ["sheaf", "omega", FAN],
            ["sheaf", "adjoint", FAN, UNDERSIZED, "--other", PRODUCT, "--section-cap", "4"],
        ],
        ids=["covers", "check", "glue", "sheafify", "global", "omega", "adjoint"],
    )
    def test_site_commands_refuse_the_bound(self, runner, args):
        result = runner.invoke(main, [*args, "--max-path-length", "5"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "No such option '--max-path-length'" in result.stderr
        assert "Traceback" not in result.output

    def test_verify_does_not_enumerate_a_bounded_cycle(self, runner, tmp_path):
        # Any bound truncates a cycle's hom-sets, so verify skips the
        # category checks without building the 2^21 - 1 paths of length
        # at most 20 on two loops.
        loops = tmp_path / "loops.txt"
        loops.write_text("A r A\nA s A\n")
        start = time.perf_counter()
        long = runner.invoke(main, ["verify", str(loops), "--max-path-length", "20"])
        assert time.perf_counter() - start < 1.0
        short = runner.invoke(main, ["verify", str(loops), "--max-path-length", "2"])
        assert long.exit_code == short.exit_code == 0
        masked = [re.sub(r"\(\d+\.\d+s\)", "(s)", r.output) for r in (long, short)]
        assert masked[0] == masked[1]
        assert "SKIPPED freecat.walk_count (s) -- hom-sets truncated" in masked[0]


class TestCovers:
    def test_path_covering_dump(self, runner):
        result = runner.invoke(main, ["covers", FAN, "--topology", "path"])
        data = json.loads(result.output)
        assert data["covering"]["B"] == [["0", "2"], ["0", "2", "id@B"]]

    def test_atomic_covering_dump(self, runner):
        result = runner.invoke(main, ["covers", FAN, "--topology", "atomic"])
        data = json.loads(result.output)
        assert data["covering"]["B"] == [["0", "2", "id@B"]]

    # SHA-256 of stdout, recorded before sieves became bitmasks: every
    # label, order and restriction table of these dumps stays the same.
    @pytest.mark.parametrize(
        "args, digest",
        [
            (["covers", LAYERED, "--sieve-cap", "15", "--topology", "path"],
             "1537c2743a90048fe1a79d1213e8f820f08863647c1a820d6febd8f4a56b4c41"),
            (["covers", LAYERED, "--sieve-cap", "15", "--topology", "atomic"],
             "0bedc6328277fabb6e39fce4ea5c6a15639ec0c2e6750f4a82fe63da40967003"),
            (["sheaf", "omega", LAYERED, "--sieve-cap", "15", "--topology", "path"],
             "ad34088a2479e308ef128be286a13e6658790fe27ec8256d7a14fef22fffb11c"),
            (["sheaf", "omega", LAYERED, "--sieve-cap", "15", "--topology", "atomic"],
             "dfe7f22e97d8f5335fa7a70d9446917a47ebcfbf4358e9aa30287b88c883b978"),
            (["covers", FAN, "--topology", "path"],
             "e78454ee99105a400bf0a2fc73d537e2a58a55b2ceaf12bb187cf8454d882233"),
            (["covers", FAN, "--topology", "atomic"],
             "5211d823c68c44e4598efe302293170661f5b21ace8d391b7b07231c88e7dc7f"),
            (["sheaf", "omega", FAN, "--topology", "path"],
             "b4890e0526dbe102c469b504ca71b082e585e86c7213eac05c37f4d698acf62e"),
            (["sheaf", "omega", FAN, "--topology", "atomic"],
             "bbcdc0211cb8bb34b58fb121575021258058a09fe73f07e0c8e4794d7fb2b03d"),
        ],
        ids=["covers-dag-path", "covers-dag-atomic", "omega-dag-path",
             "omega-dag-atomic", "covers-fan-path", "covers-fan-atomic",
             "omega-fan-path", "omega-fan-atomic"],
    )
    def test_sieve_dumps_match_golden_digests(self, runner, args, digest):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest

    def test_sieve_cap_exit_3(self, runner, tmp_path):
        wide = tmp_path / "wide.txt"
        wide.write_text("".join(f"s{i} r T\n" for i in range(13)))
        result = runner.invoke(main, ["covers", str(wide)])
        assert result.exit_code == 3

    def test_out_of_memory_exit_3(self, runner, monkeypatch):
        from kgtopos import cli as cli_module

        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli_module, "build_site", exhausted)
        result = runner.invoke(main, ["covers", FAN])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")


SITE_COMMANDS = {
    "check": ["sheaf", "check"],
    "sheafify": ["sheaf", "sheafify"],
    "global": ["sheaf", "global"],
    "covers": ["covers"],
    "omega": ["sheaf", "omega"],
}


class TestSiteRefusals:
    # Every command on a site refuses what build_site refuses, with the
    # same text and exit code and in the same order: the cycle, then the
    # sieve cap, then the presheaf document; `check`, `sheafify` and
    # `global` on the path site do so without building one.
    def _invoke(self, runner, name, graph, presheaf=PRODUCT):
        args = [*SITE_COMMANDS[name], str(graph)]
        return runner.invoke(main, args if name in ("covers", "omega") else [*args, presheaf])

    @pytest.mark.parametrize("name", list(SITE_COMMANDS))
    def test_star_past_the_cap_exits_3(self, runner, tmp_path, name):
        star = tmp_path / "star.txt"
        star.write_text("".join(f"S{i} r{i} T\n" for i in range(13)))
        result = self._invoke(runner, name, star)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == (
            "error: 14 morphisms into T exceeds the sieve cap 12; "
            "use a smaller graph or raise the cap\n"
        )

    @pytest.mark.parametrize("name", ["check", "sheafify", "global"])
    @pytest.mark.parametrize("document", ["{", '{"sections": 1}'])
    def test_cap_comes_before_the_presheaf(self, runner, tmp_path, name, document):
        star = tmp_path / "star.txt"
        star.write_text("".join(f"S{i} r{i} T\n" for i in range(13)))
        malformed = tmp_path / "malformed.json"
        malformed.write_text(document)
        assert self._invoke(runner, name, star, str(malformed)).exit_code == 3
        assert self._invoke(runner, name, FAN, str(malformed)).exit_code == 2

    @pytest.mark.parametrize("name", list(SITE_COMMANDS))
    def test_cycle_names_its_witness_without_a_bound_hint(self, runner, tmp_path, name):
        # No site command takes a length bound, so none suggests one; the
        # cycle comes before the cap, which the 13 sources of U pass.
        cyclic = tmp_path / "cyclic.txt"
        cyclic.write_text(
            "A r B\nB s A\nC t A\n" + "".join(f"S{i} r{i} U\n" for i in range(13))
        )
        result = self._invoke(runner, name, cyclic)
        assert result.exit_code == 2
        assert result.stderr == (
            "error: entity digraph contains a cycle, hom-sets are infinite "
            "(witness: A -> B -> A)\n"
        )
        assert "max_length" not in result.output

    def test_freecat_keeps_the_bound_hint(self, runner, tmp_path):
        cyclic = tmp_path / "cyclic.txt"
        cyclic.write_text("A r B\nB s A\nC t A\n")
        result = runner.invoke(main, ["freecat", str(cyclic)])
        assert result.exit_code == 2
        assert result.stderr.endswith(
            "(witness: A -> B -> A); pass max_length to bound enumeration\n"
        )


class TestSheafCommands:
    # SHA-256 of stdout and the exit code, recorded while a presheaf
    # still held its free category: moving it onto the graph and checking
    # matching families along triples keeps every byte.
    @pytest.mark.parametrize(
        "args, exit_code, digest",
        [
            (["sheaf", "check", FAN, PRODUCT], 0,
             "afb6ca89281c63952060f0eac3a83bb097c5dfd5abe0352e8f70c702baae911b"),
            (["sheaf", "check", FAN, UNDERSIZED], 1,
             "c30806fc91ecf5c23e00f293b1c9a3a2389182ef97227dc079f157d0f604289c"),
            (["sheaf", "check", LAYERED, LAYERED_PRODUCT, "--sieve-cap", "15"], 0,
             "afb6ca89281c63952060f0eac3a83bb097c5dfd5abe0352e8f70c702baae911b"),
            (["sheaf", "check", LAYERED, LAYERED_UNDERSIZED, "--sieve-cap", "15"], 1,
             "4bb457716b0e16c3e33db62fd665fbf006f5e0b8b8478939e1dea9ee9b1629cd"),
            (["sheaf", "sheafify", FAN, UNDERSIZED], 0,
             "e354bf6f95d032a952bd6bbb037b1b61c56c507934d644b2d69cec2aec6c1db1"),
            (["sheaf", "sheafify", FAN, UNDERSIZED, "--topology", "atomic"], 0,
             "0d8f0517bfb413fc86a1caa5bbb5ad22f65d600baf73c835aa0ac37f05210559"),
            (["sheaf", "sheafify", LAYERED, LAYERED_UNDERSIZED, "--sieve-cap", "15"], 0,
             "2cfa402103d5a4aff9b37355090ab7e339c0262c4d65d7ef088bcffb38539bd7"),
            (["sheaf", "global", FAN, PRODUCT], 0,
             "cc2e4a4bc3754b7abba3750d2f2d8bc30f54192f8208cabaf6fbc068e9362f75"),
            (["sheaf", "global", LAYERED, LAYERED_PRODUCT, "--sieve-cap", "15"], 0,
             "42c35c8aec53d0965a065200cc101700417089562d6a5b4e12b3c5542e453d76"),
            (["sheaf", "adjoint", FAN, UNDERSIZED, "--other", PRODUCT,
              "--section-cap", "4"], 0,
             "19b9957b97874b261816626a1403d888e0b9d01c2039a6b7f9280a55a0981d8d"),
            (["sheaf", "glue", FAN, PRODUCT, "--family", FAN_FAMILY], 0,
             "1a47671381b5806ff689db4d09916eca17b169df07b3ec7888ff2f624ebbdbeb"),
            (["sheaf", "glue", FAN, UNDERSIZED, "--family", FAN_FAMILY], 0,
             "7be1aa05af43d9dfeee928c78daf2409d8ac4f4af67ceb61ec82e3fa91d52358"),
            (["verify", FAN, "--random", "--cases", "20", "--seed", "7"], 0,
             "7f55cd08a3e3fc2349e2420b6eb1597753c78d0985d4736f382106a083816636"),
        ],
        ids=["check-fan-product", "check-fan-undersized", "check-dag-product",
             "check-dag-undersized", "sheafify-fan-path", "sheafify-fan-atomic",
             "sheafify-dag-path", "global-fan", "global-dag", "adjoint-fan",
             "glue-fan-product", "glue-fan-undersized", "verify-fan-random"],
    )
    def test_sheaf_commands_match_golden_digests(self, runner, args, exit_code, digest):
        result = runner.invoke(main, args)
        assert result.exit_code == exit_code
        # verify's per-check seconds are masked as perfbench masks them.
        output = re.sub(r"\(\d+\.\d+s\)", "(s)", result.output)
        assert hashlib.sha256(output.encode()).hexdigest() == digest

    def test_only_verify_searches_matching_families(self, runner, monkeypatch):
        # Every other command reads matching families off a sieve's
        # generators; the backtracking search is verify's oracle.
        searched = []
        real = sheaves.enumerate_matching_families
        for module in (sheaves, verify):
            monkeypatch.setattr(
                module,
                "enumerate_matching_families",
                lambda *args: searched.append(args) or real(*args),
            )
        for args, exit_code in [
            (["covers", FAN], 0),
            (["sheaf", "check", FAN, UNDERSIZED], 1),
            (["sheaf", "check", LAYERED, LAYERED_UNDERSIZED, "--sieve-cap", "15"], 1),
            (["sheaf", "glue", FAN, PRODUCT, "--family", FAN_FAMILY], 0),
            (["sheaf", "sheafify", FAN, UNDERSIZED], 0),
            (["sheaf", "global", FAN, PRODUCT], 0),
            (["sheaf", "omega", FAN], 0),
            (["sheaf", "adjoint", FAN, UNDERSIZED, "--other", PRODUCT,
              "--section-cap", "4"], 0),
        ]:
            assert runner.invoke(main, args).exit_code == exit_code
        assert searched == []
        runner.invoke(main, ["verify", FAN, "--random", "--cases", "20"])
        assert searched

    def test_check_product_is_sheaf(self, runner):
        result = runner.invoke(main, ["sheaf", "check", FAN, PRODUCT])
        assert result.exit_code == 0
        assert json.loads(result.output) == {"is_sheaf": True}

    def test_check_undersized_fails(self, runner):
        result = runner.invoke(main, ["sheaf", "check", FAN, UNDERSIZED])
        assert result.exit_code == 1
        data = json.loads(result.output)
        assert data["is_sheaf"] is False
        assert "counterexample" in data

    def test_glue_derives_closure_values(self, runner, tmp_path):
        # The family gives a value on s only; its value on r.s is forced.
        graph = tmp_path / "chain.txt"
        graph.write_text("A r B\nB s C\n")
        presheaf = tmp_path / "presheaf.json"
        presheaf.write_text(
            json.dumps(
                {
                    "sections": {"A": ["a0"], "B": ["b0", "b1"], "C": ["c0", "c1"]},
                    "restrictions": {
                        "A r B": {"b0": "a0", "b1": "a0"},
                        "B s C": {"c0": "b0", "c1": "b1"},
                    },
                }
            )
        )
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"object": "C", "assignment": {"1": "b1"}}))
        result = runner.invoke(
            main, ["sheaf", "glue", str(graph), str(presheaf), "--family", str(family)]
        )
        assert result.exit_code == 0
        assert json.loads(result.output) == {"object": "C", "section": "c1"}

    def test_glue_pair(self, runner, tmp_path):
        family = tmp_path / "family.json"
        family.write_text(
            json.dumps({"object": "B", "assignment": {"0": "a1", "2": "d1"}})
        )
        result = runner.invoke(
            main, ["sheaf", "glue", FAN, PRODUCT, "--family", str(family)]
        )
        assert result.exit_code == 0
        assert json.loads(result.output) == {"object": "B", "section": "(a1,d1)"}

    def test_sheafify_counts(self, runner):
        result = runner.invoke(main, ["sheaf", "sheafify", FAN, UNDERSIZED])
        data = json.loads(result.output)
        assert data["section_counts"]["B"] == 2
        assert data["is_sheaf"] is True

    def test_global_sections(self, runner):
        result = runner.invoke(main, ["sheaf", "global", FAN, PRODUCT])
        data = json.loads(result.output)
        assert data["count"] == 2

    def test_global_sections_past_the_recursion_limit(self, runner, tmp_path):
        # 600 disjoint triples: 1 200 entities, one search level each.
        graph, presheaf = tmp_path / "pairs.txt", tmp_path / "constant.json"
        graph.write_text("".join(f"e{i} r f{i}\n" for i in range(600)))
        presheaf.write_text(
            json.dumps(
                {
                    "sections": {
                        e: ["*"] for i in range(600) for e in (f"e{i}", f"f{i}")
                    },
                    "restrictions": {f"e{i} r f{i}": {"*": "*"} for i in range(600)},
                }
            )
        )
        result = runner.invoke(main, ["sheaf", "global", str(graph), str(presheaf)])
        assert result.exit_code == 0
        assert "Traceback" not in result.output
        data = json.loads(result.output)
        assert data["count"] == 1 and len(data["sections"][0]) == 1200

    def test_global_sections_on_many_entities_in_budget(self, runner, tmp_path):
        # 1 200 disjoint triples: 2 400 entities, 5.8 million ordered
        # pairs of them, which no step may walk.
        graph, presheaf = tmp_path / "pairs.txt", tmp_path / "constant.json"
        graph.write_text("".join(f"e{i} r f{i}\n" for i in range(1200)))
        presheaf.write_text(
            json.dumps(
                {
                    "sections": {
                        e: ["*"] for i in range(1200) for e in (f"e{i}", f"f{i}")
                    },
                    "restrictions": {f"e{i} r f{i}": {"*": "*"} for i in range(1200)},
                }
            )
        )
        start = time.perf_counter()
        result = runner.invoke(main, ["sheaf", "global", str(graph), str(presheaf)])
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0
        assert json.loads(result.output)["count"] == 1
        assert elapsed < 0.5

    def test_omega_counts(self, runner):
        result = runner.invoke(main, ["sheaf", "omega", FAN, "--topology", "path"])
        data = json.loads(result.output)
        assert data["section_counts"] == {"A": 2, "B": 4, "C": 4, "D": 2}
        assert data["is_sheaf"] is True

    def test_adjoint(self, runner, tmp_path):
        constant = tmp_path / "constant.json"
        constant.write_text(
            json.dumps(
                {
                    "sections": {o: ["x", "y"] for o in "ABCD"},
                    "restrictions": {
                        t: {"x": "x", "y": "y"}
                        for t in ("A r1 B", "A r2 C", "D r3 B", "D r4 C")
                    },
                }
            )
        )
        result = runner.invoke(
            main, ["sheaf", "adjoint", FAN, str(constant), "--other", PRODUCT]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["passed"] is True
        assert data["hom_into_path_sheaf"] == data["hom_from_atomic_presheaf"] == 4


def _with_strays(restrictions, **sections) -> dict:
    """The fan's product presheaf with extra section sets and restriction
    maps under keys that name no entity or triple of the fan."""
    doc = json.loads(Path(PRODUCT).read_text())
    doc["sections"].update(sections)
    doc["restrictions"].update(restrictions)
    return doc


class TestHostileInput:
    @pytest.mark.parametrize(
        "args, env",
        [
            (["freecat", FAN, "--max-path-length", "-1"], {}),
            (["verify", FAN, "--max-path-length", "-1"], {}),
            (["sheaf", "omega", FAN, "--sieve-cap", "-1"], {}),
            (["matrices", "NOT_UTF8"], {}),
            (["sheaf", "check", FAN, "NOT_UTF8"], {}),
            (["verify", FAN], {"KGTOPOS_SEED": "abc"}),
            (["covers", FAN, "--sieve-cap", "-1"], {}),
            (["sheaf", "adjoint", FAN, PRODUCT, "--other", PRODUCT, "--section-cap", "-1"],
             {}),
            (["verify", "--random", "--cases", "-3"], {}),
            (["verify", "--random", "--cases", "1", "--max-size", "-5"], {}),
        ],
        ids=["freecat-negative-bound", "verify-negative-bound", "omega-negative-sieve-cap",
             "graph-not-utf8", "presheaf-not-utf8", "seed-env-not-integer",
             "covers-negative-sieve-cap", "adjoint-negative-section-cap",
             "verify-negative-cases", "verify-negative-max-size"],
    )
    def test_exits_2_without_traceback(self, runner, tmp_path, args, env):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"A r B\n\xe9 r C\n")
        args = [str(bad) if a == "NOT_UTF8" else a for a in args]
        result = runner.invoke(main, args, env=env)
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "args, env, message",
        [
            (["verify", FAN], {"KGTOPOS_SEED": "abc"},
             "Invalid value for '--seed' (from $KGTOPOS_SEED): 'abc' is not a valid integer."),
            (["verify", FAN, "--seed", "x"], {"KGTOPOS_SEED": "abc"},
             "Invalid value for '--seed': 'x' is not a valid integer."),
        ],
        ids=["seed-env-not-integer", "seed-option-not-integer"],
    )
    def test_bad_seed_names_where_it_came_from(self, runner, args, env, message):
        # Only a value read from the environment names the variable.
        result = runner.invoke(main, args, env=env)
        assert result.exit_code == 2
        assert message in result.output
        assert result.output.count("KGTOPOS_SEED") == message.count("KGTOPOS_SEED")

    @pytest.mark.parametrize("command", ["check", "sheafify", "global"])
    @pytest.mark.parametrize(
        "doc",
        [
            {"sections": ["A"], "restrictions": {}},
            {"sections": {"A": None, "B": [], "C": [], "D": []}, "restrictions": {}},
            {"sections": {o: ["x"] for o in "ABCD"}, "restrictions": {"A r1 B": ["x"]}},
            {"sections": {o: ["x"] for o in "ABCD"}, "restrictions": None},
            _with_strays(Q=["q"], restrictions={"A r9 Q": {"q": "a1"}}),
            _with_strays(restrictions={"A r9 B": {"(a1,d1)": "a1"}}),
        ],
        ids=["sections-list", "section-set-null", "restriction-map-list",
             "restrictions-null", "stray-entity-and-triple", "stray-triple"],
    )
    def test_malformed_presheaf_exits_2(self, runner, tmp_path, command, doc):
        presheaf = tmp_path / "presheaf.json"
        presheaf.write_text(json.dumps(doc))
        result = runner.invoke(main, ["sheaf", command, FAN, str(presheaf)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["sheaf", "check", FAN, "DOC"],
            ["sheaf", "glue", FAN, PRODUCT, "--family", "DOC"],
            ["sheaf", "adjoint", FAN, PRODUCT, "--other", "DOC"],
        ],
        ids=["check-presheaf", "glue-family", "adjoint-other"],
    )
    def test_unreadable_json_exits_2(self, runner, tmp_path, args):
        # Written as raw text: json.dumps can neither nest this deep nor
        # write an integer longer than int conversion's digit limit.
        docs = {
            "deep": "[" * 100_000 + "]" * 100_000,
            "long-integer": '{"object": ' + "9" * 5000 + "}",
        }
        for name, text in docs.items():
            doc = tmp_path / f"{name}.json"
            doc.write_text(text)
            result = runner.invoke(main, [str(doc) if a == "DOC" else a for a in args])
            assert result.exit_code == 2, name
            assert result.exception is None or isinstance(result.exception, SystemExit)
            assert result.stderr.startswith("error: ")
            assert result.stdout == ""
            assert "Traceback" not in result.output


class TestClosedPipe:
    """A reader that stops early, as in `kgtopos matrices big.txt | head`,
    ends the command with exit 0 and nothing on stderr."""

    @staticmethod
    def kgtopos(*args, **kwargs):
        src = str(Path(kgtopos.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        command = [sys.executable, "-m", "kgtopos", *args]
        return subprocess.Popen(command, env=env, stderr=subprocess.PIPE, **kwargs)

    @pytest.fixture()
    def ring(self, tmp_path):
        # Six 300 x 300 matrices print about 1 MB, far past a pipe's buffer.
        path = tmp_path / "ring.txt"
        path.write_text("".join(f"e{i} r e{(i + 1) % 300}\n" for i in range(300)))
        return str(path)

    def test_head_closes_the_pipe_mid_output(self, ring):
        proc = self.kgtopos("matrices", ring, stdout=subprocess.PIPE)
        assert proc.stdout.read(10) == b"# head\n1,0"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 0

    @pytest.mark.parametrize(
        "args",
        [["matrices", "RING"], ["matrices", "RING", "--format", "json"],
         ["line", "RING", "--format", "csv"], ["matrices", FAN], ["verify", FAN]],
        ids=["matrices-csv", "matrices-json", "line-csv", "small-output", "verify"],
    )
    def test_pipe_closed_before_the_first_write(self, ring, args):
        # Output smaller than the stdout buffer fails only at the last flush.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.kgtopos(
                *[ring if a == "RING" else a for a in args], stdout=write_end
            )
            _, stderr = proc.communicate(timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, stderr) == (0, b"")


class TestVerify:
    def test_fan_verifies_clean(self, runner):
        result = runner.invoke(main, ["verify", FAN])
        assert result.exit_code == 0
        assert "all checks passed" in result.output

    def test_json_format(self, runner):
        result = runner.invoke(main, ["verify", FAN, "--format", "json"])
        data = json.loads(result.output)
        assert data["passed"] is True
        names = {c["name"] for c in data["checks"]}
        assert "line.scc_theorem" in names and "sheaf.omega" in names

    def test_no_input_exits_2(self, runner):
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 2

    def test_seed_env_fallback(self, runner, monkeypatch):
        monkeypatch.setenv("KGTOPOS_SEED", "7")
        result = runner.invoke(main, ["verify", FAN])
        assert "seed=7" in result.output

    def test_cyclic_graph_check_list(self, runner, tmp_path):
        # Without a length bound the free category is unavailable; the
        # fibre-index check needs none and still runs.
        graph = tmp_path / "cyclic.txt"
        graph.write_text("A r B\nB s D\nB r C\nC r A\nD s B\n")
        result = runner.invoke(main, ["verify", str(graph), "--format", "json"])
        assert result.exit_code == 0
        checks = json.loads(result.output)["checks"]
        assert [(c["name"], c["status"]) for c in checks] == [
            ("kg.roundtrip", "pass"),
            ("incidence.column_sums", "pass"),
            ("incidence.gram", "pass"),
            ("incidence.line_operator_identity", "pass"),
            ("incidence.rank", "pass"),
            ("incidence.spectrum", "pass"),
            ("line.scc_theorem", "pass"),
            ("line.matrix_consistency", "pass"),
            ("freecat.walk_count", "skipped"),
            ("freecat.fibres", "pass"),
            ("sites.axioms", "skipped"),
            ("sites.inclusion", "skipped"),
            ("sheaf.omega", "skipped"),
            ("sheaf.adjunction", "skipped"),
        ]

    def test_unsatisfiable_sieve_cap_skips_topology_suite(self, runner):
        # No category has zero morphisms into an object, so the topology
        # suite cannot sample one; that is a size-cap skip, not a crash.
        result = runner.invoke(main, ["verify", "--random", "--cases", "4", "--sieve-cap", "0"])
        assert result.exit_code == 0
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "SKIPPED suite.topologies[1] (" in result.output
        assert "-- size cap: " in result.output
        assert "Traceback" not in result.output

    def test_section_cap_below_need_skips_adjunction(self, runner):
        # The cap is passed through as given: no sheaf on the fan fits zero
        # sections per object, as `sheaf adjoint --section-cap 0` reports.
        result = runner.invoke(main, ["verify", FAN, "--section-cap", "0"])
        assert result.exit_code == 0
        assert "Traceback" not in result.output
        assert "SKIPPED sheaf.adjunction (" in result.output
        assert "-- size cap: section set at A exceeds the cap 0" in result.output
        assert "PASS    sheaf.adjunction" not in result.output

    def test_random_small_run(self, runner):
        result = runner.invoke(main, ["verify", "--random", "--cases", "8", "--seed", "3"])
        assert result.exit_code == 0

    def test_deterministic_output(self, runner):
        first = runner.invoke(main, ["verify", "--random", "--cases", "4", "--seed", "9",
                                     "--format", "json"])
        second = runner.invoke(main, ["verify", "--random", "--cases", "4", "--seed", "9",
                                      "--format", "json"])
        strip = lambda out: [
            {k: v for k, v in c.items() if k != "seconds"}
            for c in json.loads(out)["checks"]
        ]
        assert strip(first.output) == strip(second.output)

    def test_byte_identical_across_processes(self):
        # ROADMAP item 12's standing rule: no output depends on the hash
        # seed, which differs per interpreter process.  Each command runs
        # under PYTHONHASHSEED 0 and 1; verify's seconds are masked.
        src = str(Path(kgtopos.__file__).parents[1])

        def run(args, hash_seed):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            env.pop("KGTOPOS_SEED", None)
            out = subprocess.run(
                [sys.executable, "-m", "kgtopos", *args],
                env=env,
                capture_output=True,
                timeout=120,
                check=True,
            ).stdout
            return re.sub(rb"\(\d+\.\d+s\)", b"(s)", out)

        for args in (
            ["covers", FAN, "--topology", "path"],
            ["sheaf", "sheafify", FAN, UNDERSIZED],
            ["sheaf", "omega", FAN],
            ["matrices", FAN, "--format", "json"],
            ["line", FAN, "--format", "csv"],
            ["verify", "--random", "--cases", "20", "--seed", "42"],
        ):
            assert run(args, "0") == run(args, "1"), args

    def test_gated_checks_report_skipped(self, runner, tmp_path):
        # Fourteen morphisms point into T, past the sieve cap: the site
        # and sheaf checks must say so instead of silently passing.
        wide = tmp_path / "wide.txt"
        wide.write_text("".join(f"s{i} r T\n" for i in range(13)))
        result = runner.invoke(main, ["verify", str(wide)])
        assert result.exit_code == 0
        assert "SKIPPED sites.axioms" in result.output

    def test_site_and_sheaf_checks_run_inside_the_site_gate(self, runner, tmp_path):
        # Nine disjoint triples pass the site gate, and every site and sheaf
        # check runs on them.  sheaf.omega stays fast: the subsheaf count
        # over the 2^18 sets of objects runs only in suite.omega.
        edges = tmp_path / "edges.txt"
        edges.write_text("".join(f"a{i} r b{i}\n" for i in range(9)))
        result = runner.invoke(main, ["verify", str(edges), "--format", "json"])
        assert result.exit_code == 0
        checks = {c["name"]: c for c in json.loads(result.output)["checks"]}
        for name in (
            "sites.axioms", "sites.inclusion", "sheaf.omega", "sheaf.adjunction"
        ):
            assert checks[name]["status"] == "pass"
        assert checks["sheaf.omega"]["seconds"] < 1.0

    def test_fan_random_transcript_matches_golden(self, runner, monkeypatch):
        # Check names, their order, statuses and the summary line; seconds
        # are masked as perfbench masks them.
        monkeypatch.delenv("KGTOPOS_SEED", raising=False)
        result = runner.invoke(main, ["verify", FAN, "--random", "--cases", "20"])
        assert result.exit_code == 0
        masked = re.sub(r"\(\d+\.\d+s\)", "(s)", result.output)
        assert masked == (DATA / "verify_fan_random20.txt").read_text()

    def test_cyclic_graph_skips_category_checks(self, runner, tmp_path):
        loop = tmp_path / "loop.txt"
        loop.write_text("A r B\nB s A\n")
        result = runner.invoke(main, ["verify", str(loop)])
        assert result.exit_code == 0
        assert "SKIPPED freecat.walk_count" in result.output
        assert "PASS" in result.output  # matrix-level checks still ran

    def test_library_error_in_a_check_is_a_fail(self, runner, monkeypatch):
        # Emptying one row of each fibre larger than two, in the row
        # source the checks read, makes the line adjacency non-symmetric,
        # so the spectrum oracle raises SymmetryError inside the
        # incidence/line suite: that case's failure, not exit 2, with the
        # failures collected before it kept and later cases run.
        from kgtopos import matrices as mx
        from kgtopos import verify as verify_module

        real = mx._fibre_rows
        real_run = verify_module._run
        collected: dict[str, list[str]] = {}

        def collecting_run(name, fn):
            def wrapped():
                collected[name] = fn()
                return collected[name]

            return real_run(name, wrapped)

        def planted(fibres, m, diagonal):
            emptied = {fibre[-1] for fibre in fibres.values() if len(fibre) > 2}
            for i, row in enumerate(real(fibres, m, diagonal)):
                yield {} if i in emptied else row

        monkeypatch.setattr(mx, "_fibre_rows", planted)
        monkeypatch.setattr(verify_module, "_run", collecting_run)
        result = runner.invoke(main, ["verify", "--random", "--cases", "20"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" not in result.output and "Traceback" not in result.output
        suite_line = next(
            line for line in result.output.splitlines() if "suite.incidence_line" in line
        )
        assert suite_line.startswith("FAIL    suite.incidence_line[20]")
        assert "-- case 0: gram_out differs from H^T H;" in suite_line
        failures = collected["suite.incidence_line[20]"]
        raised = [
            f for f in failures if f.endswith(": spectrum_numeric requires a symmetric matrix")
        ]
        case = raised[0].split(":")[0]
        assert case.startswith("case ")
        assert failures.index(f"{case}: gram_out differs from H^T H") < failures.index(raised[0])
        assert len(raised) > 1  # one per case at most, so later cases still ran

    def test_check_failures_exit_1(self, runner, monkeypatch):
        from kgtopos import cli as cli_module
        from kgtopos.verify import CheckResult, VerifyReport

        def fake_verification(*args, **kwargs):
            return VerifyReport(
                0,
                (CheckResult("line.scc_theorem", "fail", "planted witness", 0.0),),
            )

        monkeypatch.setattr(cli_module, "run_verification", fake_verification)
        result = runner.invoke(main, ["verify", FAN])
        assert result.exit_code == 1
        assert "FAIL" in result.output and "planted witness" in result.output
