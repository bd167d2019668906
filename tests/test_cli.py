import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import varword
from varword import certificates as certs
from varword.cli import main
from varword.colorings import Coloring
from varword.henson import MAX_VERTEX_HORIZON
from varword.largeness import FiniteFamily, random_piecewise_syndetic
from varword.words import MAX_UNIVERSE, format_word, prefix_valid_words


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def instance_dir(tmp_path):
    c = Coloring.from_function(2, 5, 0, 2, lambda w: len(w) % 2)
    (tmp_path / "col.txt").write_text(c.dump())
    rng = random.Random(7)
    dec = random_piecewise_syndetic(rng, 2, 8, 1, 2, 0.9, 0.9)

    def fam_dump(f):
        return f"{f.k} {f.N}\n" + "\n".join(format_word(w) for w in f.words()) + "\n"

    (tmp_path / "synd.txt").write_text(fam_dump(dec.syndetic))
    (tmp_path / "thick.txt").write_text(fam_dump(dec.thick))
    p = dec.part
    b = FiniteFamily.from_words(2, 8, [w for w in p.words() if len(w) % 2 == 0])
    (tmp_path / "part.txt").write_text(fam_dump(b))
    (tmp_path / "pfull.txt").write_text(fam_dump(p))
    p0 = FiniteFamily.from_words(2, 8, [w for w in p.words() if len(w) == 0 or w[0] == 0])
    (tmp_path / "p0.txt").write_text(fam_dump(p0))
    (tmp_path / "p1.txt").write_text(fam_dump(p - p0))
    (tmp_path / "c5.txt").write_text("5\n01001\n10100\n01010\n00101\n10010\n")
    c1 = Coloring.from_function(2, 5, 1, 2, lambda w: len(w) % 2)
    (tmp_path / "col1.txt").write_text(c1.dump())
    return tmp_path


class TestWordCommands:
    def test_subst_example(self, run):
        code, out, err = run(
            "word", "subst", "--w", "01x0 10x1 01x0 001x2", "--u", "01"
        )
        assert code == 0
        assert json.loads(out)["result"]["text"] == "010101010001"

    def test_validate(self, run):
        code, out, _ = run("word", "validate", "--w", "010x1 0101x0", "--dim", "2")
        assert code == 0
        assert json.loads(out)["passed"] is False

    def test_validate_negative_dim_is_an_error(self, run):
        # this reported the letter 1 as "variable x-1 with only -1 allowed", exit 0
        code, out, err = run("word", "validate", "--k", "2", "--w", "1", "--dim", "-1")
        assert (code, out, err) == (1, "", "error: IndexOutOfRange: variable count must be >= 0, got -1\n")

    def test_decompose(self, run):
        code, out, _ = run("word", "decompose", "--w", "10x0 01x0 10")
        doc = json.loads(out)
        assert doc["sigma"]["text"] == "10"

    def test_bad_letter_is_input_error(self, run):
        code, _, err = run("word", "subst", "--w", "5x0", "--u", "0")
        assert code == 1


class TestTreeCommands:
    def test_build_example(self, run):
        code, out, _ = run("tree", "build", "--gen", "10x0 01x0 10")
        doc = json.loads(out)
        assert [e["text"] for e in doc["tree"]["elements"]] == [
            "10",
            "10001010",
            "10101110",
        ]

    def test_invert(self, run):
        code, out, _ = run("tree", "invert", "--elements", "10,10001010,10101110")
        assert json.loads(out)["witness"]["generator"]["text"] == "10x0[0]1x0[1]0"

    def test_invert_rejects_non_tree(self, run):
        code, _, err = run("tree", "invert", "--elements", "10,1010,1001")
        assert code == 1

    def test_tree_certificate_verifies(self, run, tmp_path):
        cert = tmp_path / "tree.json"
        code, _, _ = run(
            "tree", "build", "--gen", "10x0 01x0 10", "--json-out", str(cert)
        )
        assert code == 0
        code2, out, _ = run("verify", str(cert))
        assert code2 == 0 and json.loads(out)["certificate_kind"] == "tree"


class TestSearchAndVerify:
    def test_line_certificate_roundtrip(self, run, instance_dir, tmp_path):
        cert = tmp_path / "line.json"
        code, out, _ = run(
            "search", "line", "--coloring", str(instance_dir / "col.txt"),
            "--json-out", str(cert),
        )
        assert code == 0
        code2, out2, _ = run("verify", str(cert))
        assert code2 == 0 and json.loads(out2)["ok"] is True

    def test_verify_rejects_tampered(self, run, instance_dir, tmp_path):
        cert = tmp_path / "line.json"
        run("search", "line", "--coloring", str(instance_dir / "col.txt"),
            "--json-out", str(cert))
        doc = json.loads(cert.read_text())
        doc["witness"]["color"] ^= 1
        cert.write_text(json.dumps(doc))
        code, out, _ = run("verify", str(cert))
        assert code == 1

    def test_verify_non_object_is_input_error(self, run, tmp_path):
        cert = tmp_path / "x.json"
        for text in ("[1,2]", "3", '"x"'):
            cert.write_text(text)
            code, _, err = run("verify", str(cert))
            assert code == 1 and err.startswith("input error:")

    def test_family_header_is_input_error(self, run, tmp_path):
        fam = tmp_path / "fam.txt"
        fam.write_text("2 x\n01\n")
        code, _, err = run("large", "density", "--family", str(fam), "--eps", "1/2")
        assert code == 1 and err.startswith(f"input error: {fam}:1:")

    def test_oversized_family_is_rejected(self, run, instance_dir, tmp_path):
        fam = tmp_path / "fam.txt"
        fam.write_text("2 40\n01\n")
        code, _, err = run("large", "density", "--family", str(fam), "--eps", "1/2")
        assert code == 1 and err.startswith(f"input error: {fam}:1:")
        cert = tmp_path / "sp.json"
        run("large", "split",
            "--syndetic", str(instance_dir / "synd.txt"),
            "--thick", str(instance_dir / "thick.txt"),
            "--ell", "1", "--part", str(instance_dir / "part.txt"),
            "--json-out", str(cert))
        doc = json.loads(cert.read_text())
        for part in doc["instance"].values():
            if isinstance(part, dict) and part.get("type") == "family":
                part["N"] = 40
        doc["digest"] = certs.digest(doc["instance"])
        cert.write_text(json.dumps(doc))
        code, out, _ = run("verify", str(cert))
        assert code == 1
        assert json.loads(out)["detail"].startswith("malformed certificate")

    def test_verify_malformed_family_words(self, run, instance_dir, tmp_path):
        cert = tmp_path / "sp.json"
        run("large", "split",
            "--syndetic", str(instance_dir / "synd.txt"),
            "--thick", str(instance_dir / "thick.txt"),
            "--ell", "1", "--part", str(instance_dir / "part.txt"),
            "--json-out", str(cert))
        doc = json.loads(cert.read_text())
        for words in (doc["instance"]["b"]["words"] + [7], "01"):
            doc["instance"]["b"]["words"] = words
            doc["digest"] = certs.digest(doc["instance"])
            cert.write_text(json.dumps(doc))
            code, out, _ = run("verify", str(cert))
            assert code == 1
            assert json.loads(out)["detail"].startswith("malformed certificate")

    def test_not_found_exit_code(self, run, tmp_path):
        c = Coloring.from_function(1, 3, 0, 2, lambda w: 0 if len(w) <= 1 else 1)
        f = tmp_path / "c1.txt"
        f.write_text(c.dump())
        code, out, _ = run("search", "line", "--coloring", str(f))
        assert code == 2
        assert json.loads(out)["error"] == "NotFoundWithinHorizon"

    def test_builder_past_its_horizon_is_not_found(self, run, tmp_path):
        # ell = 2 at N = 6: stage 1's residue has horizon 2, and its candidates
        # longer than 0 have no room for ell; this exited 1 with HorizonExceeded
        dec = random_piecewise_syndetic(random.Random(0), 2, 6, 2, 2, 0.9, 0.9)
        for name, fam in (("s", dec.syndetic), ("t", dec.thick)):
            (tmp_path / f"{name}.txt").write_text("2 6\n" + "\n".join(map(format_word, fam.words())) + "\n")
        argv = ["--syndetic", str(tmp_path / "s.txt"), "--thick", str(tmp_path / "t.txt"), "--ell", "2"]
        for steps in ("0", "1", "2"):
            code, out, err = run("search", "builder", *argv, "--steps", steps)
            assert code in (0, 2) and "HorizonExceeded" not in out + err
        assert (code, json.loads(out)["message"]) == (2, "stage 1: no one-step line with generator length <= 2")

    def test_builder_m_bound_below_ell_is_not_found(self, run, tmp_path):
        # the walk stops where the residue's syndetic side, at horizon
        # N - |g| - ell, still holds words of length ell; this exited 1
        # with HorizonExceeded: ell 2 beyond horizon 1
        (tmp_path / "f.txt").write_text("2 4\n" + "\n".join(FiniteFamily.full(2, 4).texts()) + "\n")
        f = str(tmp_path / "f.txt")
        argv = ["search", "builder", "--syndetic", f, "--thick", f, "--ell", "2", "--m-bound", "0", "--steps", "1"]
        code, out, err = run(*argv)
        assert code == 2
        assert json.loads(out)["message"] == "stage 0: no one-step line with generator length <= 3"
        assert err == "not found: stage 0: no one-step line with generator length <= 3\n"

    @pytest.mark.parametrize("argv", [
        ["large", "shrink", "--family", "F"],
        ["large", "syndetic", "--family", "F"],
        ["large", "split", "--syndetic", "F", "--thick", "F", "--part", "F"],
        ["large", "brown", "--syndetic", "F", "--thick", "F", "--parts", "F"],
        ["search", "builder", "--syndetic", "F", "--thick", "F"],
    ])
    def test_negative_ell_is_an_error(self, run, tmp_path, argv):
        # these returned a result, a failed check, a certificate that
        # ``verify`` rejects, or not-found
        (tmp_path / "f.txt").write_text("2 2\n-\n0\n1\n00\n01\n10\n11\n")
        out_file = tmp_path / "out.json"
        argv = [str(tmp_path / "f.txt") if a == "F" else a for a in argv]
        code, out, err = run(*argv, "--ell", "-1", "--json-out", str(out_file))
        assert (code, out, err) == (1, "", "error: IndexOutOfRange: ell must be >= 0, got -1\n")
        assert not out_file.exists()

    def test_missing_file_exit_code(self, run):
        code, _, _ = run("search", "line", "--coloring", "/nonexistent/x.txt")
        assert code == 1

    def test_builder_and_brown(self, run, instance_dir, tmp_path):
        code, out, _ = run(
            "search", "builder",
            "--syndetic", str(instance_dir / "synd.txt"),
            "--thick", str(instance_dir / "thick.txt"),
            "--ell", "1", "--steps", "1",
            "--json-out", str(tmp_path / "b.json"),
        )
        if code == 0:
            assert run("verify", str(tmp_path / "b.json"))[0] == 0
        code, out, _ = run(
            "large", "brown",
            "--syndetic", str(instance_dir / "synd.txt"),
            "--thick", str(instance_dir / "thick.txt"),
            "--ell", "1",
            "--parts", str(instance_dir / "p0.txt"), str(instance_dir / "p1.txt"),
            "--json-out", str(tmp_path / "br.json"),
        )
        assert code == 0
        assert run("verify", str(tmp_path / "br.json"))[0] == 0

    def test_brown_with_syndetic_complement_is_not_found(self, run, tmp_path):
        # with ~T syndetic alone no part is critical; this died with an
        # AssertionError traceback
        words = "\n".join(format_word(w) for w in FiniteFamily.full(2, 3).words())
        (tmp_path / "s.txt").write_text(f"2 3\n{words}\n")
        (tmp_path / "t.txt").write_text("2 3\n000\n")
        argv = ["large", "brown", "--syndetic", "s.txt", "--thick", "t.txt", "--parts", "t.txt", "--ell", "1"]
        code, out, err = run(*[str(tmp_path / a) if a.endswith(".txt") else a for a in argv])
        message = "complement of T is already syndetic at ell=1: no part is critical"
        assert code == 2 and json.loads(out) == {"error": "NoPartSelected", "kind": "not-found", "message": message}
        assert err == f"not found: {message}\n"

    def test_split_certificate(self, run, instance_dir, tmp_path):
        code, out, _ = run(
            "large", "split",
            "--syndetic", str(instance_dir / "synd.txt"),
            "--thick", str(instance_dir / "thick.txt"),
            "--ell", "1", "--part", str(instance_dir / "part.txt"),
            "--json-out", str(tmp_path / "sp.json"),
        )
        assert code == 0
        assert run("verify", str(tmp_path / "sp.json"))[0] == 0
        # taking B = P keeps the syndetic side
        code, out, _ = run(
            "large", "split",
            "--syndetic", str(instance_dir / "synd.txt"),
            "--thick", str(instance_dir / "thick.txt"),
            "--ell", "1", "--part", str(instance_dir / "pfull.txt"),
            "--json-out", str(tmp_path / "spb.json"),
        )
        assert code == 0
        doc = json.loads((tmp_path / "spb.json").read_text())
        assert doc["witness"]["side"] == "B"
        assert run("verify", str(tmp_path / "spb.json"))[0] == 0

    def test_henson_commands(self, run, instance_dir, tmp_path):
        code, out, _ = run("henson", "enum", "--horizon", "2")
        assert [v["text"] for v in json.loads(out)["vertices"]] == [
            "x0", "0x0", "x0[0]", "x0x0",
        ]
        code, out, _ = run("henson", "edge", "--v", "x0", "--w", "0x0")
        assert json.loads(out)["edge"] is True
        code, out, _ = run("henson", "triangles", "--horizon", "6")
        assert json.loads(out)["triangle_free"] is True
        code, _, _ = run(
            "henson", "embed", "--graph", str(instance_dir / "c5.txt"),
            "--horizon", "16", "--json-out", str(tmp_path / "e.json"),
        )
        assert code == 0
        assert run("verify", str(tmp_path / "e.json"))[0] == 0
        code, out, _ = run(
            "henson", "envelope", "--members", "0x0,x0[0]",
            "--json-out", str(tmp_path / "env.json"),
        )
        assert code == 0
        assert run("verify", str(tmp_path / "env.json"))[0] == 0
        edge_graph = tmp_path / "k2.txt"
        edge_graph.write_text("2\n01\n10\n")
        code, out, _ = run(
            "henson", "profile", "--graph", str(edge_graph), "--horizon", "5"
        )
        assert code == 0
        assert json.loads(out)["slot_count"] == 63 * 62

    @pytest.mark.parametrize("text", ["0\n", "1\n0\n"], ids=["n0", "n1"])
    @pytest.mark.parametrize("mode", [[], ["--phi"]], ids=["greedy", "phi"])
    def test_embedding_without_vertex_pairs_verifies(self, run, tmp_path, text, mode):
        # the verifier counted only vertex pairs: 0, an "empty verification"
        graph, cert = tmp_path / "g.txt", tmp_path / "c.json"
        graph.write_text(text)
        code, _, _ = run("henson", "embed", "--graph", str(graph), "--horizon", "4", *mode, "--json-out", str(cert))
        assert code == 0
        code, out, err = run("verify", str(cert))
        assert code == 0 and json.loads(out)["detail"] == "1 checks"
        assert err == "embedding: OK (1 checks)\n"

    def test_translation_rereads(self, run, instance_dir):
        # the translated coloring lists exactly its own domain, so the reader takes it back
        code, out, _ = run("cdrt", "translate", "--coloring", str(instance_dir / "col.txt"))
        doc = json.loads(out)["translated"]
        back = certs.coloring_from_json(doc)
        assert code == 0 and (back.k, back.N, back.n) == (0, 5, 2)
        assert certs.coloring_to_json(back) == doc


# sha256 (first 16 hex digits) of the stdout of each certificate-emitting
# command on the instance_dir files, recorded before the certificate
# builders moved into ``varword.certificates``
CERTIFICATE_STDOUT_SHA256 = {
    "tree build --gen 10x0_01x0_10": "8d45a77afa942734",
    "tree invert --elements 10,10001010,10101110": "ee248ffd61f4fea5",
    "large split --syndetic synd.txt --thick thick.txt --ell 1 --part part.txt": "11a397df28de8b50",
    "large split --syndetic synd.txt --thick thick.txt --ell 1 --part pfull.txt": "a6ba86dbf30b9814",
    "large brown --syndetic synd.txt --thick thick.txt --ell 1 --parts p0.txt p1.txt": "caf74d147a818e73",
    "search line --coloring col.txt": "89413acc9b974295",
    "search csl --coloring col.txt": "2d2d0a0760027709",
    "search builder --syndetic synd.txt --thick thick.txt --ell 1 --steps 1": "4ca17dc545cdb332",
    "search prehomog --coloring col1.txt --w x0x1x2x3x4x5": "9f674e1434517d23",
    "cdrt pullback --coloring col.txt": "2f71f98726f0cdba",
    "henson embed --graph c5.txt --horizon 16": "6e3cd3fac7ee1e7b",
    "henson embed --graph c5.txt --horizon 16 --phi": "b891160b3199e3a3",
    "henson envelope --members 0x0,x0[0]": "5d9b2dc86740a79d",
}


class TestCertificateBytes:
    @pytest.mark.parametrize("command", list(CERTIFICATE_STDOUT_SHA256))
    def test_certificate_stdout(self, run, instance_dir, monkeypatch, command):
        import hashlib

        monkeypatch.chdir(instance_dir)
        code, out, _ = run(*(a.replace("_", " ") for a in command.split()))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == CERTIFICATE_STDOUT_SHA256[command]


class TestDeterminism:
    def test_rerun_byte_identical(self, run, instance_dir):
        a = run("search", "line", "--coloring", str(instance_dir / "col.txt"))[1]
        b = run("search", "line", "--coloring", str(instance_dir / "col.txt"))[1]
        assert a == b


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["henson", "edge", "--v", "x0", "--w", "0x0", "--workers", "2"],
            ["word", "subst", "--w", "01x0", "--u", "1", "--horizon", "3"],
            ["search", "line", "--coloring", "c.txt", "--k", "3"],
            # no abbreviation: --ell must not stand for --ell-max
            ["large", "thick", "--family", "f.txt", "--ell", "2"],
            ["verify", "cert.json", "--dim", "1"],
            # the searches run in one thread and take no worker count
            ["search", "line", "--coloring", "c.txt", "--workers", "2"],
            ["cdrt", "pullback", "--coloring", "c.txt", "--workers", "1"],
        ],
    )
    def test_unread_flag_is_usage_error(self, run, argv):
        code, out, err = run(*argv)
        assert code == 1 and out == "" and "unrecognized arguments" in err


class TestMalformedInput:
    def test_coloring_missing_a_word(self, run, tmp_path):
        col = tmp_path / "c.txt"
        col.write_text("2 3 0 2\n- 0\n0 1\n")
        code, _, err = run("search", "line", "--coloring", str(col))
        assert code == 1 and err.startswith(f"input error: {col}:1:")
        assert "missing 1" in err

    def test_coloring_word_outside_domain(self, run, tmp_path):
        c = Coloring.constant(2, 2, 0, 2)
        col = tmp_path / "c.txt"
        col.write_text(c.dump() + "010 1\n")
        code, _, err = run("search", "line", "--coloring", str(col))
        assert code == 1 and "010 is outside" in err

    @pytest.mark.parametrize("header", ["2 40 0 2", "2 21 0 2", "1 100000000 0 2", "2 60 3 2"])
    def test_coloring_header_beyond_its_table(self, run, tmp_path, header):
        # refused from the header, or at the first word the table lacks;
        # 2 40 0 2 used to search without bound
        col = tmp_path / "c.txt"
        col.write_text(header + "\n" + Coloring.constant(2, 2, 0, 2).dump().split("\n", 1)[1])
        code, _, err = run("search", "line", "--coloring", str(col))
        assert code == 1 and err.startswith(f"input error: {col}:1:")

    @pytest.mark.parametrize("header", ["2 -1 0 2", "2 3 -1 2", "2 3 5 2"])
    @pytest.mark.parametrize("command", ["search line", "search csl", "cdrt translate"])
    def test_coloring_header_with_empty_domain(self, run, tmp_path, header, command):
        # N < 0 and n < 0 read as empty colorings, so the searches reported
        # not-found (exit 2); cdrt translate printed a table or raised KeyError
        col = tmp_path / "c.txt"
        col.write_text(header + "\n")
        code, out, err = run(*command.split(), "--coloring", str(col))
        assert (code, out) == (1, "") and err.startswith(f"input error: {col}:1:")
        assert "empty domain" in err

    @pytest.mark.parametrize("command", ["large density", "large thick", "search builder"])
    def test_family_header_with_empty_domain(self, run, tmp_path, command):
        # N < 0 read as an empty family: exit 0, or 2 for the builder
        fam = tmp_path / "f.txt"
        fam.write_text("2 -1\n")
        flags = ["--syndetic", str(fam), "--thick", str(fam)] if command == "search builder" else ["--family", str(fam)]
        code, _, err = run(*command.split(), *flags)
        assert code == 1 and err.startswith(f"input error: {fam}:1:") and "empty domain" in err

    @pytest.mark.parametrize(
        "text, where",
        [("2 3\nx0\n", "2:1: x0 contains a variable"), ("2 2\n0\n000\n", "3:1: |000| > horizon 2")],
        ids=["variable", "too-long"],
    )
    def test_family_member_outside_domain(self, run, tmp_path, text, where):
        # a member the header's domain lacks is cited by line, like any other defect
        fam = tmp_path / "f.txt"
        fam.write_text(text)
        code, out, err = run("large", "density", "--family", str(fam), "--eps", "1/2")
        assert (code, out, err) == (1, "", f"input error: {fam}:{where}\n")

    def test_empty_alphabet_ends_with_an_exit_code(self, run, tmp_path):
        # over k = 0 the only word is the empty one: density divided by
        # 0**r and the line search by 0**|g|, each a ZeroDivisionError traceback
        (tmp_path / "f.txt").write_text("0 1\n-\n")
        (tmp_path / "c.txt").write_text("0 4 0 2\n- 1\n")
        code, out, err = run("large", "density", "--family", str(tmp_path / "f.txt"))
        assert (code, out) == (1, "")
        assert err == "error: IndexOutOfRange: no word of length 1 over an empty alphabet: its density is undefined\n"
        code, out, err = run("search", "line", "--coloring", str(tmp_path / "c.txt"))
        assert (code, err) == (2, "not found: no line-with-letter certificate with generator length <= 3\n")

    def test_translation_with_empty_domain_is_refused(self, run, tmp_path):
        # k + n > N leaves no (k+n)-variable word of length <= N: the empty
        # table printed here would not read back
        col = tmp_path / "c.txt"
        col.write_text(Coloring.constant(2, 2, 1, 2, 1).dump())
        code, out, err = run("cdrt", "translate", "--coloring", str(col))
        assert (code, out) == (1, "") and err.startswith(f"input error: {col}:1:")
        assert "k + n > N=2" in err
        col.write_text(Coloring.constant(2, 3, 1, 2, 1).dump())
        code, out, _ = run("cdrt", "translate", "--coloring", str(col))
        assert code == 0 and json.loads(out)["translated"]["n"] == 3

    @pytest.mark.parametrize("text", ["-1\n", "-3\n01\n10\n00\n11\n"], ids=["n-1", "n-3-four-rows"])
    def test_graph_header_with_empty_domain(self, run, tmp_path, text):
        # a negative vertex count is refused at the header, whatever rows follow
        graph = tmp_path / "g.txt"
        graph.write_text(text)
        n = text.split()[0]
        code, out, err = run("henson", "embed", "--graph", str(graph))
        assert (code, out, err) == (1, "", f"input error: {graph}:1:1: graph with n={n} has an empty domain: n < 0\n")

    @pytest.mark.parametrize("eps", ["abc", "1/0"])
    def test_malformed_eps(self, run, instance_dir, eps):
        code, out, err = run("large", "density", "--family", str(instance_dir / "synd.txt"), "--eps", eps)
        assert code == 1 and out == "" and err.startswith("input error:")

    @pytest.mark.parametrize(
        "chi, where",
        [("x0 0x0 one\n", ":1:"), ("x0 0x0 1\nx0 0y 1\n", ":2:"), ("x0 0x0 1\n", "no color")],
        ids=["color", "word", "uncovered"],
    )
    def test_malformed_chi(self, run, tmp_path, chi, where):
        graph = tmp_path / "k2.txt"
        graph.write_text("2\n01\n10\n")
        chi_file = tmp_path / "chi.txt"
        chi_file.write_text(chi)
        code, out, err = run(
            "henson", "profile", "--graph", str(graph), "--horizon", "6", "--chi", str(chi_file)
        )
        assert code == 1 and out == "" and err.startswith("input error:") and where in err

    @pytest.mark.parametrize("cmd, horizon", [("triangles", "14"), ("triangles", "63"), ("enum", "40")])
    def test_vertex_horizon_above_cap(self, run, cmd, horizon):
        # triangles at 14 used to die allocating 7.99 GiB; 63 and enum at 40 ran until killed
        code, out, err = run("henson", cmd, "--horizon", horizon)
        assert code == 1 and out == "" and err.startswith("input error:")
        assert f"--horizon {horizon} is above the vertex-set cap {MAX_VERTEX_HORIZON}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["large", "density", "--family", "bad.txt"],
            ["search", "line", "--coloring", "bad.txt"],
            ["henson", "embed", "--graph", "bad.txt"],
            ["henson", "profile", "--graph", "k2.txt", "--chi", "bad.txt"],
        ],
        ids=["family", "coloring", "graph", "chi"],
    )
    def test_file_not_utf8(self, run, tmp_path, monkeypatch, argv):
        # died with a UnicodeDecodeError traceback
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.txt").write_bytes(b"\xff\xfe2 3\n")
        (tmp_path / "k2.txt").write_text("2\n01\n10\n")
        code, out, err = run(*argv)
        assert code == 1 and out == "" and err.startswith("input error: bad.txt:")

    def test_json_out_into_missing_directory(self, run, tmp_path):
        # died with a FileNotFoundError traceback after writing stdout
        target = tmp_path / "missing" / "out.json"
        code, out, err = run("word", "subst", "--w", "01x0", "--u", "1", "--json-out", str(target))
        assert code == 1 and out == "" and err.startswith(f"input error: {target}:")

    def test_deeply_nested_json(self, run, tmp_path):
        # died with a RecursionError traceback
        cert = tmp_path / "deep.json"
        cert.write_text("[" * 100_000)
        code, out, err = run("verify", str(cert))
        assert code == 1 and out == "" and err.startswith(f"input error: {cert}:1:1: bad JSON")

    def test_vertex_horizon_at_cap(self, run):
        code, out, err = run("henson", "enum", "--horizon", str(MAX_VERTEX_HORIZON))
        assert code == 0 and json.loads(out)["count"] == 2 ** (MAX_VERTEX_HORIZON + 1) - MAX_VERTEX_HORIZON - 2


def _counted(monkeypatch, module, name, limit):
    """Wrap the generator ``module.name`` so that each item it yields is
    counted; past ``limit`` items the wrapper fails the test, so a walk
    that would not end fails at once."""
    real = getattr(module, name)
    seen = []

    def wrapper(*args, **kwargs):
        for item in real(*args, **kwargs):
            seen.append(item)
            assert len(seen) <= limit, f"{name} walked more than {limit} items"
            yield item

    monkeypatch.setattr(module, name, wrapper)
    return seen


class TestBoundedWalks:
    """Flags far past the coloring's horizon end with an exit code, after a walk
    bounded by the horizon.  Each of these used to run out of memory or time."""

    SEVEN = "2 2 0 2\n- 0\n0 0\n1 1\n00 0\n01 1\n10 1\n11 1\n"  # A^{<=2}
    NOT_FOUND_AT_3 = Coloring(2, 3, 0, 2, [1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 0])

    @pytest.mark.parametrize("depth", ["24", "99"])
    def test_csl_depth_past_the_horizon_is_not_found(self, run, tmp_path, monkeypatch, depth):
        from varword import prehomog

        (tmp_path / "c.txt").write_text(self.SEVEN)
        patterns = _counted(monkeypatch, prehomog, "var_words", 0)
        code, out, err = run("search", "csl", "--coloring", str(tmp_path / "c.txt"), "--depth", depth)
        assert (code, json.loads(out)["message"]) == (2, f"no monochromatic prefix of length <= 3 at depth {depth}")
        assert err.startswith("not found: ") and patterns == []

    def test_pullback_depth_past_the_horizon_is_not_found(self, run, tmp_path, monkeypatch):
        from varword import prehomog

        (tmp_path / "c.txt").write_text(self.SEVEN)
        patterns = _counted(monkeypatch, prehomog, "var_words", 0)
        code, out, err = run("cdrt", "pullback", "--coloring", str(tmp_path / "c.txt"), "--depth", "40")
        assert (code, json.loads(out)["message"]) == (2, "no monochromatic prefix of length <= 3 at depth 42")
        assert err.startswith("not found: ") and patterns == []

    def test_pullback_candidates_stop_at_the_horizon(self, run, tmp_path, monkeypatch):
        # the translated coloring has k = 0 and N = 3: a candidate longer than
        # N + 1 = 4 symbols has the images of its prefix through x_3
        from varword import prehomog

        (tmp_path / "c.txt").write_text(self.NOT_FOUND_AT_3.dump())
        cands = _counted(monkeypatch, prehomog, "prefix_valid_words", 100)
        code, out, _ = run("cdrt", "pullback", "--coloring", str(tmp_path / "c.txt"), "--max-len", "40")
        assert (code, json.loads(out)["message"]) == (2, "no monochromatic prefix of length <= 40 at depth 3")
        assert cands == list(prefix_valid_words(0, 4, min_vars=4))

    def test_prehomog_stems_stop_below_the_horizon(self, run, tmp_path, monkeypatch):
        # at N = 5 a stem of 5 symbols has no extension of length <= 5; the
        # constant coloring has no counterexample to end the walk early
        from varword import prehomog

        (tmp_path / "c.txt").write_text(Coloring.constant(2, 5, 1, 2).dump())
        stems = _counted(monkeypatch, prehomog, "var_words", 2**5 - 1)
        argv = ["--coloring", str(tmp_path / "c.txt"), "--w", "x0x1x2x3x4x5", "--stem-max", "40"]
        code, out, _ = run("search", "prehomog", "--check", *argv)
        assert (code, json.loads(out)["ok"], json.loads(out)["checked"]) == (0, True, 76)
        assert max(map(len, stems)) == 4

    def test_prehomog_check_refuses_a_word_that_is_not_prefix_valid(self, run, instance_dir):
        # x1 before x0: the check read the images it could and exited 0
        argv = ["--coloring", str(instance_dir / "col1.txt"), "--w", "x1x0x2x3"]
        code, out, err = run("search", "prehomog", "--check", *argv)
        assert (code, out, err) == (1, "", "error: InvalidWord: W must be prefix-valid\n")

    @pytest.mark.parametrize(
        "graph, horizon",
        [
            ("3\n011\n101\n110\n", "4"), ("3\n000\n000\n000\n", "0"), ("2\n01\n10\n", "8"), ("1\n0\n", "13"),
            ("0\n", "100000"),
        ],
        ids=["3-vertices", "3-vertices-h0", "2-vertices-h8", "1-vertex-h13", "0-vertices-h100000"],
    )
    def test_henson_profile_too_large_is_refused(self, run, tmp_path, monkeypatch, graph, horizon):
        # 3 vertices give C(2047, 3) * 3! slots: a MemoryError at any horizon;
        # 2 vertices at horizon 8 have 2,934 patterns of 3,906 slots; with no
        # vertex, 100,001 patterns of up to 100,000 symbols took memory
        # quadratic in the horizon
        from varword import henson

        def never(*args):
            raise AssertionError("the profile was built")

        monkeypatch.setattr(henson, "combinations", never)
        monkeypatch.setattr(henson, "var_words", never)
        (tmp_path / "g.txt").write_text(graph)
        code, out, err = run("henson", "profile", "--graph", str(tmp_path / "g.txt"), "--horizon", horizon)
        n = graph.split()[0]
        assert (code, out) == (1, "")
        assert err == (
            f"error: DomainTooLarge: profile of a {n}-vertex graph at horizon {horizon} "
            f"spans more than {MAX_UNIVERSE} slots or (pattern, slot) pairs\n"
        )

    @pytest.mark.parametrize("cmd", ["build", "iso"])
    def test_tree_too_large_is_refused(self, run, monkeypatch, cmd):
        from varword.commands import tree

        built = []
        monkeypatch.setattr(tree, "tree_from_generator", built.append)
        gen = "".join(f"x{j}" for j in range(22))
        code, out, err = run("tree", cmd, "--gen", gen)
        assert (code, out, built) == (1, "", [])
        assert err == f"error: DomainTooLarge: tree of a dimension-22 generator over k=2 spans more than {MAX_UNIVERSE} words\n"


# random argv drawn from the command table, on small random files

INTS = (-1, 0, 1, 2, 99)
SYMBOLS = ("0", "1", "2", "x0", "x1", "x2", "x3")
WORD_FLAGS = {"w", "u", "gen", "v", "s", "what"}
# the file each file flag reads; any file may be drawn in its place
FILE_FLAGS = {
    "coloring": "coloring", "syndetic": "family", "thick": "family2", "part": "family", "parts": "family2",
    "family": "family", "graph": "graph", "chi": "chi", "certificate": "tree.json",
}


def _honest_certificates():
    """Two small certificates that verify, so that ``verify`` reaches its checks."""
    from varword.henson import minimal_envelope
    from varword.trees import tree_from_generator
    from varword.words import Word, parse_word

    members = [Word(1, (0, 0)), Word(1, (1,))]
    return {
        "tree.json": certs.canonical_json(certs.tree_certificate_doc(tree_from_generator(parse_word("0x0", 2)))),
        "envelope.json": certs.canonical_json(certs.envelope_certificate_doc(members, minimal_envelope(members))),
    }


HONEST_CERTIFICATES = _honest_certificates()


def _command_table():
    """(argv of the command, its actions) for every command of the full parser."""
    import argparse

    from varword.cli import build_parser

    table = []
    for group, gp in build_parser()._subparsers._group_actions[0].choices.items():
        commands = {(): gp} if gp._subparsers is None else {
            (name,): p for name, p in gp._subparsers._group_actions[0].choices.items()
        }
        for name, p in commands.items():
            actions = [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
            table.append(((group, *name), actions))
    return table


COMMAND_TABLE = _command_table()


@st.composite
def _argvs(draw):
    """A command and a value for each flag it takes, files named as ``_write_inputs`` names them."""
    import argparse

    command, actions = draw(st.sampled_from(COMMAND_TABLE))
    word = st.lists(st.sampled_from(SYMBOLS), max_size=6).map(lambda s: "".join(s) or "-")
    names = st.sampled_from(["coloring", "family", "family2", "graph", "chi", *HONEST_CERTIFICATES])
    argv = list(command)
    for a in actions:
        if a.option_strings and not a.required and not draw(st.booleans()):
            continue
        if isinstance(a, argparse._StoreTrueAction):
            argv.append(a.option_strings[0])
            continue
        if a.type is int:
            values = [str(draw(st.sampled_from(INTS)))]
        elif a.dest in FILE_FLAGS:
            files = st.one_of(st.just(FILE_FLAGS[a.dest]), names)
            values = draw(st.lists(files, min_size=1, max_size=3)) if a.nargs == "+" else [draw(files)]
        elif a.dest in WORD_FLAGS:
            values = [draw(word)]
        elif a.dest in ("elements", "members"):
            values = [",".join(draw(st.lists(word, min_size=1, max_size=3)))]
        elif a.dest == "json_out":
            values = ["out.json"]
        else:
            values = [draw(st.sampled_from(["1/2", "0", "2/3", "x", "1/0"]))]
        argv += [*a.option_strings[:1], *values]
    return argv


# k, N, n and ell of the coloring, the graph's vertex count and a seed for the contents
INPUTS = st.tuples(*map(st.integers, (0, 0, 0, 1, 0, 0), (3, 4, 4, 3, 4, 2**32 - 1)))


def _write_inputs(k, n_horizon, dim, ell, vertices, seed):
    """A coloring, two families, a graph and a chi file in the working
    directory, each with N <= 4 (the coloring's n is at most N), and the
    honest certificates."""
    from varword.words import letter_words, var_words

    rng = random.Random(seed)
    dim = min(dim, n_horizon)
    size = sum(1 for _ in var_words(k, n_horizon, dim=dim))
    Path("coloring").write_text(Coloring(k, n_horizon, dim, ell, [rng.randrange(ell) for _ in range(size)]).dump())
    for name in ("family", "family2"):
        members = [format_word(w) for w in letter_words(k, n_horizon) if rng.random() < 0.6]
        Path(name).write_text(f"{k} {n_horizon}\n" + "".join(t + "\n" for t in members))
    adj = [[0] * vertices for _ in range(vertices)]
    for i in range(vertices):
        for j in range(i):
            adj[i][j] = adj[j][i] = rng.randrange(2)
    Path("graph").write_text(f"{vertices}\n" + "".join("".join(map(str, row)) + "\n" for row in adj))
    words = ("0", "x0", "0x0", "x00")
    lines = [" ".join(rng.choice(words) for _ in range(vertices)) + f" {rng.randrange(3)}" for _ in range(3)]
    Path("chi").write_text("\n".join(lines) + "\n")
    for name, text in HONEST_CERTIFICATES.items():
        Path(name).write_text(text)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argvs(), inputs=INPUTS)
# each of these ran out of memory or time
@example(argv=["search", "csl", "--coloring", "coloring", "--depth", "99"], inputs=(2, 2, 0, 2, 0, 0))
@example(argv=["search", "prehomog", "--check", "--coloring", "coloring", "--w", "x0x1x2x3", "--stem-max", "99"],
         inputs=(2, 4, 1, 1, 0, 0))
@example(argv=["cdrt", "pullback", "--coloring", "coloring", "--depth", "99"], inputs=(2, 2, 0, 2, 0, 0))
@example(argv=["cdrt", "pullback", "--coloring", "coloring", "--max-len", "99"], inputs=(2, 3, 0, 2, 0, 3))
@example(argv=["henson", "profile", "--graph", "graph", "--horizon", "99"], inputs=(0, 0, 0, 1, 1, 0))
@example(argv=["tree", "build", "--k", "99", "--gen", "x0x1x2x3x4x5"], inputs=(0, 0, 0, 1, 0, 0))
@example(argv=["word", "validate", "--w", "x0", "--dim", "99", "--ordered"], inputs=(0, 0, 0, 1, 0, 0))
# a certificate that verifies, of each kind written
@example(argv=["verify", "tree.json"], inputs=(0, 0, 0, 1, 0, 0))
@example(argv=["verify", "envelope.json"], inputs=(0, 0, 0, 1, 0, 0))
def test_cli_property_exit_code_and_stderr_prefix(argv, inputs):
    import contextlib
    import io
    import re
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        _write_inputs(*inputs)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 2:
        assert err.startswith("not found: "), (argv, err)
    elif code == 1:
        verify_fail = argv[0] == "verify" and re.match(r"\S+: FAIL \(", err)
        assert err.startswith(("input error: ", "error: ", "usage: ")) or verify_fail, (argv, err)


# one command per group, on the instance_dir files; verify reads a line-letter certificate
ONE_PER_GROUP = {
    "word": ["word", "subst", "--w", "01x0 10x1", "--u", "01"],
    "tree": ["tree", "build", "--gen", "10x0 01x0 10"],
    "large": ["large", "syndetic", "--family", "synd.txt", "--ell", "1"],
    "search": ["search", "line", "--coloring", "col.txt"],
    "cdrt": ["cdrt", "translate", "--coloring", "col.txt"],
    "henson": ["henson", "edge", "--v", "x0", "--w", "0x0"],
    "verify": ["verify", "line.json"],
}


def _fresh_modules(argv, cwd, also=()):
    """Exit code, and the varword modules and numpy (and any module named in
    ``also``) that a fresh `varword argv` process loaded."""
    src = str(Path(varword.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import json, sys\nfrom varword.cli import main\ncode = main(sys.argv[1:])\n"
        f"also = {sorted(also)!r}\n"
        "print(json.dumps([m for m in sys.modules if m == 'numpy' or m in also or m.split('.')[0] == 'varword']))\n"
        "sys.exit(code)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, cwd=cwd, env=env, timeout=60
    )
    return proc.returncode, set(json.loads(proc.stdout.splitlines()[-1]))


class TestImportSets:
    """Each command's process loads only the modules the command runs."""

    def test_version_loads_no_domain_module(self, tmp_path):
        code, mods = _fresh_modules(["--version"], tmp_path)
        assert code == 0 and mods == {"varword", "varword.cli", "varword.errors"}

    @pytest.mark.parametrize(
        "argv",
        [["word", "subst", "--w", "01x0 10x1", "--u", "01"], ["henson", "edge", "--v", "x0", "--w", "0x0"]],
        ids=["word-subst", "henson-edge"],
    )
    def test_word_level_commands(self, tmp_path, argv):
        code, mods = _fresh_modules(argv, tmp_path)
        assert code == 0
        assert not mods & {"numpy", "varword.largeness", "varword.search", "varword.prehomog", "varword.cdrt"}

    @pytest.mark.parametrize(
        "command",
        [
            "henson envelope --members 0x0,x0[0]",
            "search line --coloring col.txt",
            "search csl --coloring col.txt",
            "search prehomog --coloring col1.txt --w x0x1x2x3x4x5",
            "cdrt pullback --coloring col.txt",
        ],
        ids=["envelope", "line-letter", "csl", "prehomog", "cdrt"],
    )
    def test_verify_loads_no_search(self, run, instance_dir, monkeypatch, command):
        # the searches re-check their hits with the checkers in
        # ``certificates``; verifying must not pull the searches back in
        monkeypatch.chdir(instance_dir)
        assert run(*command.split(), "--json-out", "cert.json")[0] == 0
        code, mods = _fresh_modules(["verify", "cert.json"], instance_dir)
        assert code == 0
        assert not mods & {"numpy", "varword.search", "varword.prehomog", "varword.cdrt"}

    def test_line_search_and_its_verify_load_no_sweeps(self, run, instance_dir, monkeypatch):
        # colorings are read and searched in rank space without the array kernels
        monkeypatch.chdir(instance_dir)
        code, mods = _fresh_modules(["search", "line", "--coloring", "col.txt", "--json-out", "line.json"], instance_dir)
        assert code == 0 and not mods & {"numpy", "varword.sweeps", "varword._kernels"}
        code, mods = _fresh_modules(["verify", "line.json"], instance_dir)
        assert code == 0 and not mods & {"numpy", "varword.sweeps", "varword._kernels"}

    def test_search_line_skips_largeness(self, instance_dir):
        # importing varword.commands.search and running a line search loads
        # neither; the builder, the step lemma and the density search do
        code, mods = _fresh_modules(["--version"], instance_dir, also=("fractions",))
        assert code == 0 and "fractions" not in mods
        code, mods = _fresh_modules(ONE_PER_GROUP["search"], instance_dir, also=("fractions",))
        assert code == 0 and "varword.commands.search" in mods
        assert not mods & {"varword.largeness", "fractions"}

    @pytest.mark.parametrize("group", list(ONE_PER_GROUP))
    def test_one_command_per_group(self, run, instance_dir, group):
        # no dataclass machinery, and no other group's command module
        if group == "verify":
            run("search", "line", "--coloring", str(instance_dir / "col.txt"),
                "--json-out", str(instance_dir / "line.json"))
        code, mods = _fresh_modules(ONE_PER_GROUP[group], instance_dir, also=("dataclasses", "inspect"))
        assert code == 0
        assert not mods & {"dataclasses", "inspect"}
        assert {m for m in mods if m.startswith("varword.commands")} == {
            "varword.commands", f"varword.commands.{group}"
        }

    @pytest.mark.parametrize(
        "command",
        [
            "search line --coloring col.txt",
            "search csl --coloring col.txt",
            "search builder --syndetic synd.txt --thick thick.txt --ell 1 --steps 1",
            "search prehomog --coloring col1.txt --w x0x1x2x3x4x5",
            "cdrt translate --coloring col.txt",
            "cdrt pullback --coloring col.txt",
        ],
        ids=["line", "csl", "builder", "prehomog", "translate", "pullback"],
    )
    def test_searches_start_no_thread_pool(self, instance_dir, command):
        code, mods = _fresh_modules(command.split(), instance_dir, also=("concurrent.futures",))
        assert code == 0 and "concurrent.futures" not in mods
        if command.startswith("cdrt"):
            # prehomog's csl search does not import varword.search
            assert "varword.cdrt" in mods and not mods & {"varword.search", "varword.trees"}

    @pytest.mark.parametrize("group", ["word", "henson"])
    def test_no_digest_no_hashlib(self, tmp_path, group):
        code, mods = _fresh_modules(ONE_PER_GROUP[group], tmp_path, also=("hashlib",))
        assert code == 0 and "hashlib" not in mods


# Recorded from the parser that built every group on every request; the
# split must keep them byte for byte.
ROOT_USAGE = """\
usage: varword [-h] [--version]
               {word,tree,large,search,cdrt,henson,verify} ...
"""
HELP = {
    (): ROOT_USAGE + """\

variable words, instantiation trees, largeness and coded-graph searches

positional arguments:
  {word,tree,large,search,cdrt,henson,verify}

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    ("word",): """\
usage: varword word [-h] {validate,subst,decompose} ...

positional arguments:
  {validate,subst,decompose}

options:
  -h, --help            show this help message and exit
""",
    ("tree",): """\
usage: varword tree [-h] {build,invert,iso} ...

positional arguments:
  {build,invert,iso}

options:
  -h, --help          show this help message and exit
""",
    ("large",): """\
usage: varword large [-h] {density,syndetic,thick,split,brown,shrink} ...

positional arguments:
  {density,syndetic,thick,split,brown,shrink}

options:
  -h, --help            show this help message and exit
""",
    ("search",): """\
usage: varword search [-h] {line,csl,builder,prehomog} ...

positional arguments:
  {line,csl,builder,prehomog}

options:
  -h, --help            show this help message and exit
""",
    ("cdrt",): """\
usage: varword cdrt [-h] {translate,pullback} ...

positional arguments:
  {translate,pullback}

options:
  -h, --help            show this help message and exit
""",
    ("henson",): """\
usage: varword henson [-h] {enum,edge,triangles,embed,envelope,profile} ...

positional arguments:
  {enum,edge,triangles,embed,envelope,profile}

options:
  -h, --help            show this help message and exit
""",
    ("verify",): """\
usage: varword verify [-h] [--json-out JSON_OUT] certificate

positional arguments:
  certificate

options:
  -h, --help           show this help message and exit
  --json-out JSON_OUT  also write the JSON result to this file
""",
}
# sha256 (first 16 hex digits) of each command's --help text, recorded likewise
COMMAND_HELP_SHA256 = {
    "word validate": "15c7242c91103384",
    "word subst": "e67762895d46d550",
    "word decompose": "61b1a3aa653a6c9c",
    "tree build": "8ca16db3b63fc74b",
    "tree invert": "cddd04c2afb92e7c",
    "tree iso": "46417334778167aa",
    "large density": "f82e10978b153ed2",
    "large syndetic": "61547bc2f220507d",
    "large thick": "f13ec240f882b9aa",
    "large split": "7e99264a625a1e84",
    "large brown": "2e9ccd14a1aafc5c",
    "large shrink": "a16a0f6c8ec607c8",
    "search line": "b45f406d8d793546",
    "search csl": "4fb82f6b44a266cf",
    "search builder": "608bcd43d3d84f30",
    "search prehomog": "fd5d16553255c875",
    "cdrt translate": "8f77749d9e19506d",
    "cdrt pullback": "7e8ff7c03cfcaed5",
    "henson enum": "0c0490833802758e",
    "henson edge": "b2cf465de878ccf6",
    "henson triangles": "08d7bc18ba60a6e2",
    "henson embed": "65ecec8f2a42bb59",
    "henson envelope": "5c5a399193758301",
    "henson profile": "a5134626cd71af28",
}


class TestHelpText:
    @pytest.fixture(autouse=True)
    def _width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("group", list(HELP), ids=lambda g: " ".join(g) or "root")
    def test_help(self, run, group):
        assert run(*group, "--help") == (0, HELP[group], "")

    @pytest.mark.parametrize("command", list(COMMAND_HELP_SHA256))
    def test_command_help(self, run, command):
        import hashlib

        code, out, err = run(*command.split(), "--help")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == COMMAND_HELP_SHA256[command]

    def test_usage_errors(self, run):
        assert run("word") == (1, "", """\
usage: varword word [-h] {validate,subst,decompose} ...
varword word: error: the following arguments are required: cmd
""")
        assert run("nope") == (1, "", ROOT_USAGE + (
            "varword: error: argument group: invalid choice: 'nope' (choose from "
            "'word', 'tree', 'large', 'search', 'cdrt', 'henson', 'verify')\n"
        ))
        assert run() == (1, "", ROOT_USAGE + "varword: error: the following arguments are required: group\n")

    def test_full_parser_lists_every_command(self):
        from varword.cli import build_parser

        sub = build_parser()._subparsers._group_actions[0].choices
        assert list(sub) == ["word", "tree", "large", "search", "cdrt", "henson", "verify"]
        for command in COMMAND_HELP_SHA256:
            group, name = command.split()
            assert name in sub[group]._subparsers._group_actions[0].choices
