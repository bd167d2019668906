"""cli-sessions: a seeded script of ``varword`` invocations.

Why this workload: each invocation pays interpreter start, importing
varword.cli, argparse, the file parsers and canonical JSON, while the
compute is tiny and nothing is shared between requests.  A change that
moves work into import time (which would help object-search) shows up
here as a regression.

The script covers every command group (word, tree, large, search, cdrt,
henson) on family, coloring and graph files written for the pass; some
line searches must exit 2.  Each emitted certificate is then checked
with ``varword verify``, and ``varword --version`` gives the cold start.
Requests run one after another from one client.  Every stdout must
equal the bytes of the same call made in-process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import naive
from common import digest, need
from varword import cli, largeness, words

K = 2
# the console script's body, so a request costs what `varword ...` costs
ENTRY = "import sys; from varword.cli import main; sys.exit(main())"

# Invocations per pass, by command.  The counts are set by hand, not
# derived from observed usage (there is no usage record of the CLI), so
# the script is unverified as real traffic.  The rules they follow: every
# subcommand of every group appears, at least 4 times except the two
# slowest (`henson triangles`, `henson profile`) at 2; `version` has 14,
# so cold_start_ms is a median of 14 samples; commands whose output is
# checked against a naive reference (`word subst`, `henson edge`, line
# searches) get more, and the 18 line searches cover N = 3, 4, 5, with 4
# of them exhausted.  With the verify requests that emitted certificates
# add, a pass makes at least 200 requests, so that ten or more lie
# beyond the 95th percentile.  Interpreter start and imports make every
# request cost about the same (0.15 to 0.25 s; `henson triangles` 0.5 s
# on 2 cores), so a command's share of wall_s is about its share of the
# requests, and the verifies, a quarter of them, are the largest share.
SCRIPT = {
    "version": 14,
    "word subst": 14,
    "word validate": 8,
    "word decompose": 6,
    "tree build": 8,
    "tree invert": 4,
    "tree iso": 4,
    "large density": 4,
    "large syndetic": 4,
    "large thick": 4,
    "large shrink": 4,
    "large split": 6,
    "large brown": 6,
    "search line": 18,
    "search csl": 6,
    "search builder": 4,
    "search prehomog": 4,
    "cdrt translate": 4,
    "cdrt pullback": 4,
    "henson enum": 4,
    "henson edge": 10,
    "henson triangles": 2,
    "henson embed": 6,
    "henson envelope": 6,
    "henson profile": 2,
}
LINE_EXHAUSTED = 4  # of the line searches, on colorings that defeat every candidate
EMITTING = {"tree build", "tree invert", "large split", "large brown", "search line",
            "search csl", "search builder", "cdrt pullback", "henson embed", "henson envelope"}


def fmt(w, k=K) -> str:
    """Word text form: x{j} for variables, letters as digits, bracketed
    right after a variable; '-' when empty."""
    if not w:
        return "-"
    out = []
    for i, s in enumerate(w):
        if s >= k:
            out.append(f"x{s - k}")
        else:
            out.append(f"[{s}]" if i and w[i - 1] >= k else str(s))
    return "".join(out)


def _family_text(k, n, mask):
    ws = [w for i, w in enumerate(naive.words_upto(k, n)) if mask >> i & 1]
    return f"{k} {n}\n" + "".join(fmt(w, k) + "\n" for w in ws)


def _coloring_text(table, k, n, dim=0):
    return f"{k} {n} {dim} 2\n" + "".join(f"{fmt(w, k)} {c}\n" for w, c in sorted(table.items(), key=lambda wc: (len(wc[0]), wc[0])))


def _graph_text(n, edges):
    rows = ["".join("1" if (min(i, j), max(i, j)) in edges else "0" for j in range(n)) for i in range(n)]
    return f"{n}\n" + "\n".join(rows) + "\n"


def _tree_elements(g):
    dim = naive.dimension(g, K)
    out = []
    for j in range(dim + 1):
        for u in naive.words_upto(K, j):
            if len(u) == j:
                out.append(naive.subst(g, K, u, omega=False))
    return out


def make_specs(seed: int, pass_index: int) -> dict:
    """The pass's input files (name -> text) and its requests, in order."""
    rng = random.Random(f"cli-sessions:{seed}:{pass_index}")
    files = {}
    reqs = []

    def add_file(name, text):
        files[name] = text
        return "@" + name

    for _ in range(SCRIPT["version"]):
        reqs.append(["version", ["--version"], [0], None])
    for _ in range(SCRIPT["word subst"]):
        while True:
            w = naive.random_prefix_valid(rng, K, rng.randrange(1, 10))
            u = tuple(rng.randrange(K) for _ in range(rng.randrange(0, 4)))
            want = naive.subst(w, K, u, omega=False)
            if want is not None:
                break
        reqs.append(["word subst", ["word", "subst", "--w", fmt(w), "--u", fmt(u)], [0], list(want)])
    for _ in range(SCRIPT["word validate"]):
        w = naive.random_prefix_valid(rng, K, rng.randrange(1, 10))
        reqs.append(["word validate", ["word", "validate", "--w", fmt(w), "--dim", str(naive.dimension(w, K))], [0], None])
    ordered = []
    while len(ordered) < SCRIPT["word decompose"] + SCRIPT["tree build"] + SCRIPT["tree invert"] + SCRIPT["tree iso"]:
        w = naive.random_prefix_valid(rng, K, rng.randrange(2, 9), ordered=True)
        if naive.dimension(w, K) >= 1:
            ordered.append(w)
    for cmd, opt in (("word decompose", "--w"), ("tree build", "--gen"), ("tree iso", "--gen")):
        for _ in range(SCRIPT[cmd]):
            reqs.append([cmd, cmd.split() + [opt, fmt(ordered.pop())], [0], None])
    for _ in range(SCRIPT["tree invert"]):
        g = ordered.pop()
        elems = ",".join(fmt(e) for e in _tree_elements(g))
        reqs.append(["tree invert", ["tree", "invert", f"--elements={elems}"], [0], list(g)])
    for cmd, extra in (("large density", ["--eps", "1/2"]), ("large syndetic", ["--ell", "1"]),
                       ("large thick", ["--ell-max", "2"]), ("large shrink", ["--ell", "1"])):
        for i in range(SCRIPT[cmd]):
            p = rng.uniform(0.4, 0.95)
            mask = sum(1 << r for r in range(2 ** 7 - 1) if rng.random() < p)
            name = add_file(f"fam-{cmd.split()[1]}-{i}.txt", _family_text(K, 6, mask))
            reqs.append([cmd, cmd.split() + ["--family", name] + extra, [0], None])
    decs = []
    for i in range(SCRIPT["large split"] + SCRIPT["large brown"] + SCRIPT["search builder"]):
        dec = largeness.random_piecewise_syndetic(rng, K, 8, 1, 2, rng.uniform(0.6, 0.95), rng.uniform(0.6, 0.95))
        synd = add_file(f"dec-{i}-s.txt", _family_text(K, 8, dec.syndetic.mask))
        thick = add_file(f"dec-{i}-t.txt", _family_text(K, 8, dec.thick.mask))
        decs.append((i, dec.part.mask, ["--syndetic", synd, "--thick", thick, "--ell", "1"]))
    for _ in range(SCRIPT["large split"]):
        i, part, dec_args = decs.pop()
        b = sum(1 << r for r in range(part.bit_length()) if part >> r & 1 and rng.random() < 0.5)
        name = add_file(f"dec-{i}-b.txt", _family_text(K, 8, b))
        reqs.append(["large split", ["large", "split"] + dec_args + ["--part", name], [0], None])
    for _ in range(SCRIPT["large brown"]):
        i, part, dec_args = decs.pop()
        p0 = sum(1 << r for r in range(part.bit_length()) if part >> r & 1 and rng.random() < 0.5)
        parts = [add_file(f"dec-{i}-p0.txt", _family_text(K, 8, p0)),
                 add_file(f"dec-{i}-p1.txt", _family_text(K, 8, part & ~p0))]
        reqs.append(["large brown", ["large", "brown"] + dec_args + ["--parts"] + parts, [0, 2], None])
    for _ in range(SCRIPT["search builder"]):
        i, part, dec_args = decs.pop()
        reqs.append(["search builder", ["search", "builder"] + dec_args + ["--steps", "1"], [0, 2], None])
    for i in range(SCRIPT["search line"]):
        n = 3 + i % 2 if i < LINE_EXHAUSTED else 3 + i % 3
        if i < LINE_EXHAUSTED:
            table = naive.defeating_coloring(rng, K, n)
        else:
            table = {w: rng.randrange(2) for w in naive.words_upto(K, n)}
        expected = naive.first_line(table, K, n)
        name = add_file(f"line-{i}.txt", _coloring_text(table, K, n))
        codes = [2] if expected is None else [0]
        reqs.append(["search line", ["search", "line", "--coloring", name], codes,
                     None if expected is None else [list(expected[0]), expected[1], expected[2]]])
    for i in range(SCRIPT["search csl"]):
        table = {w: rng.randrange(2) for w in naive.words_upto(K, 3 + i % 2)}
        name = add_file(f"csl-{i}.txt", _coloring_text(table, K, 3 + i % 2))
        reqs.append(["search csl", ["search", "csl", "--coloring", name, "--depth", "1"], [0, 2], None])
    for i in range(SCRIPT["search prehomog"]):
        # dimension-1 colorings over words up to length 5, colored by the stem alone
        salt = rng.randrange(1 << 30)
        table = {}
        for w in words.var_words(K, 5, dim=1):
            head = w.symbols[: next(j for j, s in enumerate(w.symbols) if s >= K)]
            table[w.symbols] = hash((salt,) + head) & 1
        name = add_file(f"pre-{i}.txt", _coloring_text(table, K, 5, dim=1))
        reqs.append(["search prehomog", ["search", "prehomog", "--check", "--coloring", name,
                                         "--w", "x0x1x2x3x4x5x6x7", "--stem-max", "2", "--tail-max", "2"], [0], None])
    for cmd in ("cdrt translate", "cdrt pullback"):
        for i in range(SCRIPT[cmd]):
            table = {w: rng.randrange(2) for w in naive.words_upto(K, 4)}
            name = add_file(f"cdrt-{cmd.split()[1]}-{i}.txt", _coloring_text(table, K, 4))
            extra = ["--depth", "1", "--max-len", "5"] if cmd == "cdrt pullback" else []
            reqs.append([cmd, cmd.split() + ["--coloring", name] + extra, [0] if extra == [] else [0, 2], None])
    for i in range(SCRIPT["henson enum"]):
        h = 2 + i % 4
        reqs.append(["henson enum", ["henson", "enum", "--horizon", str(h)], [0], 2 ** (h + 1) - 2 - h])
    for _ in range(SCRIPT["henson edge"]):
        v, w = (tuple(rng.randrange(2) for _ in range(rng.randrange(1, 7))) for _ in range(2))
        reqs.append(["henson edge", ["henson", "edge", "--v", fmt(v, 1), "--w", fmt(w, 1)], [0], naive.edge(v, w)])
    for i in range(SCRIPT["henson triangles"]):
        h = 6 + i % 2
        reqs.append(["henson triangles", ["henson", "triangles", "--horizon", str(h)], [0], 2 ** (h + 1) - 2 - h])
    for i in range(SCRIPT["henson embed"]):
        n, edges = naive.random_triangle_free(rng)
        name = add_file(f"graph-{i}.txt", _graph_text(n, edges))
        reqs.append(["henson embed", ["henson", "embed", "--graph", name, "--horizon", "12"], [0], None])
    for _ in range(SCRIPT["henson envelope"]):
        members = set()
        while len(members) < 2:
            members.add(tuple(rng.randrange(2) for _ in range(rng.randrange(6))))
        reqs.append(["henson envelope", ["henson", "envelope", "--members=" + ",".join(fmt(m, 1) for m in sorted(members))], [0], None])
    for i in range(SCRIPT["henson profile"]):
        name = add_file(f"profile-{i}.txt", _graph_text(2, {(0, 1)} if i % 2 == 0 else set()))
        reqs.append(["henson profile", ["henson", "profile", "--graph", name, "--horizon", "4"], [0], None])
    rng.shuffle(reqs)
    return {"files": files, "requests": reqs}



# ---------------------------------------------------------------------------
# running


def call_in_process(argv) -> tuple[int, bytes]:
    """``varword argv`` inside this process: (exit code, stdout bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


class Session:
    """Runs one pass's script, by subprocess or (for the traced run) in-process."""

    def __init__(self, p, workdir: Path, in_process: bool):
        self.p = p
        self.dir = workdir
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        self.peak_rss_kb = 0
        self.checked_count = 0
        self.json_bytes = 0
        self.line_found = self.line_total = 0
        self.builder_found = self.builder_total = 0
        self.edges = 0
        self.n_certs = 0

    def _path(self, arg: str) -> str:
        return str(self.dir / arg[1:]) if arg.startswith("@") else arg

    def _spawn(self, argv) -> tuple[int, bytes]:
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=self.env, cwd=self.dir)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out

    def request(self, kind, argv, codes, want):
        argv = [self._path(a) for a in argv]
        cert = None
        if kind in EMITTING:
            self.n_certs += 1
            cert = self.dir / f"cert-{self.n_certs}.json"
            argv += ["--json-out", str(cert)]
        call = call_in_process if self.in_process else self._spawn

        def check(status, res):
            code, out = res
            need(code in codes, f"{' '.join(argv[:2])} exited {code}, expected {codes}")
            if not self.in_process:
                self._check_against_in_process(argv, cert, code, out)
            self._check_output(kind, code, out, want)
            return [code, digest(out.decode())]

        status, res = self.p.op(kind, lambda: call(argv), check)
        code = res[0] if status == "ok" else None
        if kind == "search line":
            self.line_total += 1
            self.line_found += code == 0
        if kind == "search builder":
            self.builder_total += 1
            self.builder_found += code == 0
        if cert is not None and code == 0:
            self.verify(cert)

    def _check_against_in_process(self, argv, cert, code, out):
        """The same call made in-process gives the same exit code, stdout and certificate file.

        The in-process call writes its certificate beside the subprocess's,
        so the file `varword verify` later reads is the subprocess's own.
        """
        local = None
        if cert is not None:
            local = cert.with_name(cert.stem + "-in-process.json")
            argv = argv[:-1] + [str(local)]
        need(call_in_process(argv) == (code, out), f"{' '.join(argv[:2])} stdout differs from in-process")
        if cert is not None:
            need(cert.exists() == local.exists(), f"{' '.join(argv[:2])} wrote its certificate in one process only")
            need(not cert.exists() or cert.read_bytes() == local.read_bytes(),
                 f"{' '.join(argv[:2])} certificate file differs from in-process")

    def _check_output(self, kind, code, out, want):
        if code != 0 or kind == "version":
            return
        doc = json.loads(out)
        if kind == "word subst":
            need(doc["result"]["symbols"] == want, f"subst gave {doc['result']['text']}")
        elif kind == "tree invert":
            need(doc["witness"]["generator"]["symbols"] == want, "inverted generator differs")
        elif kind == "search line":
            w = doc["witness"]
            need([w["generator"]["symbols"], w["letter"], w["color"]] == want, f"line {w['generator']['text']} is not the naive first")
        elif kind == "henson edge":
            need(doc["edge"] == want, "edge relation differs from the definition")
        elif kind == "henson enum":
            need(doc["count"] == want, "vertex count off")
        elif kind == "henson triangles":
            need(doc["vertices"] == want and doc["triangle_free"], "triangle scan off")
            self.edges += doc["edges"]

    def verify(self, cert: Path):
        data = cert.read_bytes()
        self.checked_count += json.loads(data)["checked_count"]
        self.json_bytes += len(data)
        self.request("verify", ["verify", str(cert)], [0], None)

    def run(self, specs):
        for req in specs["requests"]:
            self.request(*req)


def make_workdir(root: Path) -> Path:
    d = root / ".perfbench_out" / f"cli-{os.getpid()}-{time.monotonic_ns()}"
    d.mkdir(parents=True)
    return d


def write_files(workdir: Path, specs) -> None:
    for name, text in specs["files"].items():
        (workdir / name).write_text(text)


def run_pass(specs, p, root: Path, in_process: bool = False):
    workdir = make_workdir(root)
    try:
        write_files(workdir, specs)
        session = Session(p, workdir, in_process)
        session.run(specs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return session
