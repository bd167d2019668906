import json
import random

import pytest

from varword import certificates as certs
from varword.cli import main
from varword.colorings import Coloring
from varword.largeness import FiniteFamily, random_piecewise_syndetic
from varword.words import format_word


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


class TestDeterminism:
    def test_workers_flag_does_not_change_bytes(self, run, instance_dir):
        outs = []
        for w in ("1", "8"):
            code, out, _ = run(
                "search", "line", "--coloring", str(instance_dir / "col.txt"),
                "--workers", w,
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_rerun_byte_identical(self, run, instance_dir):
        a = run("search", "line", "--coloring", str(instance_dir / "col.txt"))[1]
        b = run("search", "line", "--coloring", str(instance_dir / "col.txt"))[1]
        assert a == b
