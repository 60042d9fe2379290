import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import strongstable
from strongstable.cli import main
from strongstable.core import GraphError, Multigraph, from_edge_list
from strongstable.forbidden import ForbiddenKind, Innocent, find_structure, innocence_certificate
from strongstable.generators import (
    GenSpec,
    GenerationError,
    antihole,
    bicycle,
    clown,
    eye_mask,
    generate,
    handcuff,
    hole,
    peculiar,
    prism,
    random_claw_free_innocent,
    random_harmless_bipartite,
    theta,
)
from strongstable.graphio import (
    FormatError,
    decode_graph6,
    encode_graph6,
    format_edgelist,
    parse_edgelist,
    parse_graph,
)
from strongstable.linegraph import recover_root
from strongstable.recognizers import find_claw, find_clowns
from strongstable.solver import brute_force
from oracles import cycle, naive_decode_graph6, naive_is_harmless


class TestGenerators:
    def test_hole(self):
        assert generate(GenSpec("hole", {"n": 5})) == cycle(5)

    def test_spec_dispatch_multigraph(self):
        t = generate(GenSpec("theta", {"paths": (2, 2, 2)}))
        assert isinstance(t, Multigraph) and t.m == 6

    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            generate(GenSpec("nonsense"))

    def test_clown_detected(self):
        g = clown(6)
        found = list(find_clowns(g))
        assert len(found) == 1 and found[0].hat == 6

    def test_handcuff_parity_constraints(self):
        with pytest.raises(GraphError):
            handcuff(4, 4, 2)
        with pytest.raises(GraphError):
            handcuff(5, 4, 1)
        with pytest.raises(GraphError):
            bicycle(4, 4, 1)
        with pytest.raises(GraphError):
            theta((2, 2, 3))
        with pytest.raises(GraphError):
            prism((0, 1, 1))

    def test_each_family_detected_and_not_strongly_perfect(self):
        cases = [
            (hole(5), ForbiddenKind.ODD_HOLE),
            (prism((1, 1, 1)), ForbiddenKind.ODD_PRISM),
            (eye_mask(4, 4), ForbiddenKind.EYE_MASK),
            (handcuff(4, 4, 1), ForbiddenKind.HANDCUFF),
        ]
        for g, kind in cases:
            assert find_structure(g, kind) is not None
            assert brute_force(g) is None

    def test_canonical_labels_stable(self):
        assert sorted(handcuff(4, 4, 1).edges()) == sorted(
            handcuff(4, 4, 1).edges()
        )
        assert clown(4).edges().__class__  # iterator exists
        assert sorted(hole(4).neighborhood({0})) == [1, 3]

    def test_harmless_generator(self):
        for seed in range(8):
            b = random_harmless_bipartite(seed, 10)
            assert b.is_connected()
            assert naive_is_harmless(b)

    def test_innocent_generator_gates(self):
        for seed in range(10):
            g = random_claw_free_innocent(seed, 10, augment_rate=0.4)
            assert find_claw(g) is None
            assert isinstance(innocence_certificate(g), Innocent)

    def test_large_innocent_generation(self):
        # the harmless repair asks the certificate of L(B), with no subgraph
        # search, so graphs of a few hundred vertices are cheap to draw
        for g in (
            random_claw_free_innocent(20008, 700),
            random_claw_free_innocent(20008, 600, augment_rate=0.4),
        ):
            assert g.n > 300 and g.is_connected()
            assert find_claw(g) is None
            assert isinstance(innocence_certificate(g), Innocent)

    def test_rate_zero_is_line_graph(self):
        g = random_claw_free_innocent(123, 9, augment_rate=0.0)
        assert recover_root(g) is not None

    def test_peculiar_sizes(self):
        g, parts = peculiar((2, 1, 1, 1, 1, 2, 1, 0, 0))
        assert g.n == 9
        from strongstable.recognizers import verify_peculiar

        assert verify_peculiar(g, parts)


class TestGraph6:
    def test_roundtrip_random(self):
        # sizes past 62 take the four-byte size header
        rng = random.Random(1)
        for n in [rng.randint(0, 24) for _ in range(60)] + [62, 63, 64, rng.randint(65, 130)]:
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.35
            ]
            g = from_edge_list(n, edges)
            assert decode_graph6(encode_graph6(g)) == g

    def test_matches_bit_by_bit_decoder(self):
        # random well-formed lines, padding zeroed, short and long headers
        rng = random.Random(2)
        for n in [rng.randint(0, 70) for _ in range(150)] + [63, 100]:
            nbits = n * (n - 1) // 2
            body = [rng.randrange(64) for _ in range((nbits + 5) // 6)]
            if body:
                body[-1] &= ~((1 << (-nbits % 6)) - 1)
            prefix = encode_graph6(from_edge_list(n, []))[: 1 if n <= 62 else 4]
            text = prefix + "".join(chr(v + 63) for v in body)
            g = decode_graph6(text)
            assert g == naive_decode_graph6(text)
            assert encode_graph6(g) == text

    def test_nonzero_padding_rejected(self):
        # K2 needs one bit and K3 three; the rest of the byte is padding,
        # which graph6 fixes at zero
        for text in ("A`", "Bx", b"Bx", ">>graph6<<A`"):
            with pytest.raises(FormatError) as exc:
                decode_graph6(text)
            assert exc.value.offset == 1 and "padding" in str(exc.value)
        assert decode_graph6("A_").edge_count() == 1
        assert decode_graph6("Bw").edge_count() == 3

    def test_header_accepted(self):
        g = cycle(5)
        assert decode_graph6(">>graph6<<" + encode_graph6(g)) == g

    def test_known_small_values(self):
        # canonical encodings: K3 and the 5-cycle
        assert encode_graph6(from_edge_list(3, [(0, 1), (0, 2), (1, 2)])) == "Bw"
        assert decode_graph6("Bw").edge_count() == 3

    def test_truncated_reports_offset(self):
        with pytest.raises(FormatError) as exc:
            decode_graph6("D")
        assert exc.value.offset is not None

    def test_trailing_garbage(self):
        good = encode_graph6(cycle(5))
        with pytest.raises(FormatError):
            decode_graph6(good + "Q")

    def test_invalid_byte(self):
        with pytest.raises(FormatError) as exc:
            decode_graph6("\x1f!!")
        assert exc.value.offset == 0


class TestEdgeList:
    def test_p3(self):
        g = parse_edgelist("0 1\n1 2\n")
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_comments_and_header(self):
        g = parse_edgelist("# a path\nn 4\n0 1\n1 2\n")
        assert g.n == 4 and g.edge_count() == 2

    def test_roundtrip(self):
        g = cycle(7)
        assert parse_edgelist(format_edgelist(g)) == g

    def test_bad_line(self):
        with pytest.raises(FormatError):
            parse_edgelist("0 1 2\n")

    def test_sniff(self):
        assert parse_graph("0 1\n1 2\n") == parse_edgelist("0 1\n1 2\n")
        assert parse_graph(encode_graph6(cycle(4))) == cycle(4)


class TestCli:
    def _run(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_check_not_innocent(self, capsys, tmp_path):
        p = tmp_path / "c5.txt"
        p.write_text(format_edgelist(cycle(5)))
        code, out, _ = self._run(["check", str(p), "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "not-innocent"
        assert payload["witness"]["kind"] == "odd-hole"
        assert payload["claw_free"] is True

    def test_solve_with_require(self, capsys, tmp_path):
        p = tmp_path / "p5.txt"
        p.write_text("0 1\n1 2\n2 3\n3 4\n")
        code, out, _ = self._run(
            ["solve", str(p), "--require", "0,4", "--json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "found"
        assert payload["strong_stable_set"] == [0, 2, 4]

    def test_generate_constraint_usage_error(self, capsys):
        code, _, err = self._run(
            ["generate", "--kind", "handcuff", "--c1", "4", "--c2", "4", "--path", "2"],
            capsys,
        )
        assert code == 1 and "odd" in err

    def test_generate_and_check_pipeline(self, capsys, tmp_path):
        code, out, _ = self._run(
            ["generate", "--kind", "eye-mask", "--c1", "4", "--c2", "4"], capsys
        )
        assert code == 0
        p = tmp_path / "em.txt"
        p.write_text(out)
        code, out2, _ = self._run(["check", str(p), "--json"], capsys)
        assert json.loads(out2)["witness"]["kind"] == "eye-mask"

    def test_generate_graph6_multigraph_rejected(self, capsys):
        code, _, err = self._run(
            ["generate", "--kind", "theta", "--paths", "2,2,2", "--out-format", "graph6"],
            capsys,
        )
        assert code == 1 and "multigraph" in err

    def test_budget_exit_code(self, capsys, tmp_path):
        p = tmp_path / "big.txt"
        p.write_text(format_edgelist(cycle(30)))
        code, out, _ = self._run(["check", str(p), "--json"], capsys)
        assert code == 0 and json.loads(out)["status"] == "innocent"  # no vertex cap here
        code, _, err = self._run(["check", str(p), "--budget-enum", "30"], capsys)
        assert code == 2 and "enumeration budget exceeded" in err

    def test_vertex_cap_only_on_solve(self, capsys, tmp_path):
        p = tmp_path / "c6.txt"
        p.write_text(format_edgelist(cycle(6)))
        for cmd in ("decompose", "roundtrip"):
            code, _, err = self._run([cmd, str(p), "--budget-vertices", "5"], capsys)
            assert code == 1 and "--budget-vertices" in err
        code, _, _ = self._run(["generate", "--kind", "hole", "--n", "5", "--budget-enum", "9"], capsys)
        assert code == 1
        # check takes the flag and ignores it, and echoes only the cap it reads
        code, out, _ = self._run(["check", str(p), "--budget-vertices", "5", "--json"], capsys)
        assert code == 0 and json.loads(out)["budget"] == {"max_enumerations": 1_000_000}
        code, out, _ = self._run(["solve", str(p), "--budget-vertices", "5", "--json"], capsys)
        assert json.loads(out)["budget"] == {"max_vertices": 5, "max_enumerations": 1_000_000}

    def test_generate_has_no_json(self, capsys):
        # generate prints a graph, never a certificate
        code, _, err = self._run(["generate", "--kind", "hole", "--n", "5", "--json"], capsys)
        assert code == 1 and "--json" in err

    def test_solve_budget_status_exit(self, capsys, tmp_path):
        p = tmp_path / "c7.txt"
        p.write_text(format_edgelist(cycle(7)))
        code, out, _ = self._run(
            ["solve", str(p), "--budget-enum", "2", "--json"], capsys
        )
        assert code == 2
        assert json.loads(out)["status"] == "budget"

    def test_decompose_report(self, capsys, tmp_path):
        p = tmp_path / "p5.txt"
        p.write_text("0 1\n1 2\n2 3\n3 4\n")
        code, out, _ = self._run(["decompose", str(p), "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["clique_cutset"]["internal"] is True
        assert payload["one_join"] is not None
        assert payload["w_join"] is None

    def test_decompose_reports_a_lifted_cutset_fault(self, capsys, tmp_path, monkeypatch):
        # a GraphError from the lifted-cutset search is an error, not a null
        from strongstable import decompose

        def fault(*args):
            raise GraphError("fault")

        monkeypatch.setattr(decompose, "internal_clique_cutset_from_deletion", fault)
        p = tmp_path / "p5.txt"
        p.write_text("0 1\n1 2\n2 3\n3 4\n")
        code, out, err = self._run(["decompose", str(p), "--json"], capsys)
        assert code == 1 and out == "" and "fault" in err

    def test_generate_failure_exit_one(self, capsys, monkeypatch):
        # a generator out of retries is an input error, reported like the rest
        from strongstable import generators

        def fail(spec):
            raise GenerationError("out of retries")

        monkeypatch.setattr(generators, "generate", fail)
        code, out, err = self._run(["generate", "--kind", "hole", "--n", "5"], capsys)
        assert (code, out, err) == (1, "", "error: out of retries\n")

    def test_decompose_reports_w_join(self, capsys, tmp_path):
        # a square (0,1)x(2,3) with a pendant path hanging off each side
        p = tmp_path / "wj.txt"
        p.write_text("0 1\n2 3\n0 2\n1 3\n4 0\n4 1\n5 2\n5 3\n6 4\n7 5\n")
        code, out, _ = self._run(["decompose", str(p), "--json"], capsys)
        assert code == 0
        assert json.loads(out)["w_join"] == {"a": [0, 1], "b": [2, 3]}

    def test_roundtrip_command(self, capsys, tmp_path):
        p = tmp_path / "c6.g6"
        p.write_text(encode_graph6(cycle(6)) + "\n")
        code, out, _ = self._run(["roundtrip", str(p), "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["line_graph_matches"] is True

    def test_bad_input_exit_one(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1 junk\n")
        code, _, err = self._run(["check", str(p)], capsys)
        assert code == 1

    def test_unsafe_require_exit_one(self, capsys, tmp_path):
        p = tmp_path / "p4.txt"
        p.write_text("0 1\n1 2\n2 3\n")
        code, _, err = self._run(["solve", str(p), "--require", "0,3"], capsys)
        assert code == 1

    def test_check_runs_on_masks_alone(self, capsys, tmp_path):
        # a graph has no adjacency but its masks, so this pins check's
        # certificates on an innocent graph and one of each family planted in it
        host = random_claw_free_innocent(5, 30)
        gadgets = {
            None: from_edge_list(0, []),
            "odd-hole": hole(7),
            "long-antihole": antihole(7),
            "odd-prism": prism((1, 1, 3)),
            "eye-mask": eye_mask(4, 4),
            "handcuff": handcuff(4, 4, 1),
        }
        for kind, gadget in gadgets.items():
            edges = [*host.edges(), *((u + host.n, v + host.n) for u, v in gadget.edges())]
            p = tmp_path / f"{kind}.g6"
            p.write_text(encode_graph6(from_edge_list(host.n + gadget.n, edges)) + "\n")
            code, out, err = self._run(["check", "--json", str(p)], capsys)
            assert (code, err) == (0, "")
            payload = json.loads(out)
            assert payload["status"] == ("innocent" if kind is None else "not-innocent")
            assert payload.get("witness", {}).get("kind") == kind

    def test_output_file(self, capsys, tmp_path):
        src = tmp_path / "c6.txt"
        src.write_text(format_edgelist(cycle(6)))
        dst = tmp_path / "cert.json"
        code, out, _ = self._run(
            ["solve", str(src), "--json", "--output", str(dst)], capsys
        )
        assert code == 0 and out == ""
        payload = json.loads(dst.read_text())
        assert payload["status"] == "found"
        assert payload["budget"]["max_vertices"] == 24


SRC = str(Path(strongstable.__file__).resolve().parent.parent)
NOT_RUN_BY_CHECK = ("strongstable.solver", "strongstable.decompose",
                  "strongstable.linegraph", "strongstable.generators")


def _fresh_process(code: str, *args: str) -> dict:
    """Run code in a new interpreter on this tree; it prints one JSON line last."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestLazyImport:
    def test_package_import_loads_no_module(self):
        loaded = _fresh_process(
            "import json, sys, strongstable; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('strongstable.'))))"
        )
        assert loaded == []

    def test_check_leaves_the_solver_unloaded(self, tmp_path):
        p = tmp_path / "c6.txt"
        p.write_text(format_edgelist(cycle(6)))
        got = _fresh_process(
            "import json, sys\n"
            "from strongstable import cli\n"
            "rc = cli.main(['check', '--json', sys.argv[1]])\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('strongstable.'))\n"
            "import strongstable\n"
            "res = strongstable.solve(strongstable.from_edge_list(4, [(0, 1), (1, 2), (2, 3)]))\n"
            "print(json.dumps({'rc': rc, 'loaded': loaded, 'solve': res.status.value}))\n",
            str(p),
        )
        assert got["rc"] == 0 and got["solve"] == "found"
        assert "strongstable.forbidden" in got["loaded"]
        assert not set(NOT_RUN_BY_CHECK) & set(got["loaded"])

    def test_names_are_their_home_objects(self):
        for name in strongstable.__all__:
            if name == "__version__":
                continue
            home = importlib.import_module(f"strongstable.{strongstable._HOME[name]}")
            assert getattr(strongstable, name) is getattr(home, name), name
            assert name in vars(strongstable)  # resolved once, then a plain attribute

    def test_dir_and_star_import_list_every_name(self):
        # in a new process, so that no name has been resolved before dir()
        got = _fresh_process(
            "import json, strongstable\n"
            "listed = dir(strongstable)\n"
            "namespace = {}\n"
            "exec('from strongstable import *', namespace)\n"
            "print(json.dumps({'all': strongstable.__all__, 'dir': listed, 'star': list(namespace)}))\n"
        )
        assert set(got["all"]) <= set(got["dir"])
        assert set(got["all"]) <= set(got["star"])

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            strongstable.no_such_name
        assert not hasattr(strongstable, "solver_cascade")
