import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import varword
from varword import certificates as certs
from varword.cli import main
from varword.colorings import Coloring
from varword.henson import MAX_VERTEX_HORIZON
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
        ],
    )
    def test_unread_flag_is_usage_error(self, run, argv):
        code, out, err = run(*argv)
        assert code == 1 and out == "" and "unrecognized arguments" in err

    def test_malformed_workers_default_is_usage_error(self, run, instance_dir, monkeypatch):
        monkeypatch.setenv("VARWORD_WORKERS", "many")
        code, out, err = run("search", "line", "--coloring", str(instance_dir / "col.txt"))
        assert code == 1 and out == "" and "--workers" in err
        # commands without --workers never read it
        assert run("henson", "edge", "--v", "x0", "--w", "0x0")[0] == 0


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

    def test_vertex_horizon_at_cap(self, run):
        code, out, err = run("henson", "enum", "--horizon", str(MAX_VERTEX_HORIZON))
        assert code == 0 and json.loads(out)["count"] == 2 ** (MAX_VERTEX_HORIZON + 1) - MAX_VERTEX_HORIZON - 2


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

    def test_verify_envelope(self, run, tmp_path):
        cert = tmp_path / "env.json"
        assert run("henson", "envelope", "--members", "0x0,x0[0]", "--json-out", str(cert))[0] == 0
        code, mods = _fresh_modules(["verify", str(cert)], tmp_path)
        assert code == 0
        assert not mods & {"numpy", "varword.search", "varword.prehomog", "varword.cdrt"}

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
    "search line": "2605fe66909bfcea",
    "search csl": "3e6ddaf4d2bcd6b3",
    "search builder": "37d30faae3375b99",
    "search prehomog": "715f6541ee330334",
    "cdrt translate": "8f77749d9e19506d",
    "cdrt pullback": "bc1ae57ee8904dfd",
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
