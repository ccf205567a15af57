"""Suite reports stay byte-identical.

perfbench/digests.json records the exit code and the sha256 of the report
of every suite call the benchmark makes.  Each entry on a packaged fixture
is run here in-process and compared with its record.  Every entry, the
generated inputs (gen-*) and the loop cover included, is also run through
the benchmark's own call builder and check rule (perfbench/workloads.py,
read and not changed): a call that passed when recorded must print the
recorded report, and one that failed must fail with the recorded exit code.

The repetitive exports (`rep build`, `rep orbit`) run through the path
basis, the radical filtration of layers -1..1 and the repetitive voltage
quiver, whose arrows and relations `rep build --n N` lifts to layers
-N..N, and no suite report prints them; REP_DIGESTS holds the sha256 of
their standard output, recorded before path bases were built sparsely and
while every truncation was still extracted from its structure constants.

D4_DIGESTS pins the four cover suites on the D4 cover (`D4_COVER_TEXT`,
written to d4.vq).  It is not locally Nakayama, so its orbit list comes
from the window loop (`covering._window_orbits`), which no packaged
fixture reaches; the records were taken before hom spaces deferred their
canonical basis.

REP_A3_PRIME_DIGESTS pins the same four suites on rep-A3' (`REP_A3_PRIME_TEXT`,
the repetitive voltage quiver of 1 -> 2 <- 3 with no relations, written to
rep-a3p.vq).  Its windows are not Nakayama either, so the window loop
decomposes candidates over branching quivers; the records were taken before
`decompose` read locality off the trace form.

REP_KD4_DIGESTS pins the same four suites on rep-kD4 (`REP_KD4_TEXT`, the
repetitive voltage quiver of kD4: arrows 1, 2, 3 -> 0, no relations), with
each call's error line.  kD4 is Dynkin, so the cover is locally
representation-finite: its first window [0, 3] reaches Gabriel's count,
the base's 24 indecomposables.  pushdown, phi-identities and kg0 were
recorded as exit 1 while the window loop waited for two windows to agree
and hit its fixed count cap first; they were re-recorded when the loop
stopped on Gabriel's count.  KG0_DIGESTS pins kg0 on the
Kronecker cover (arrows 1 -> 2 of degrees 0 and 1), on rep-Kronecker and
on rep-loop2 (`REP_LOOP2_TEXT`, the repetitive voltage quiver of
loop2.bq), whose bases ran the full enumeration closure to its caps.  Both
sets were recorded before the full closure took radicals only of
projectives and socle quotients only of injectives, except rep-loop2's
kg0, recorded before kg0 read the separated quiver.  INFINITE_COVER_DIGESTS
pins cover-axioms, pushdown and phi-identities on the same three covers,
with each call's error line: their bases' separated quivers are not
Dynkin, so the covers have infinitely many orbits and pushdown and
phi-identities refuse the orbit list without enumerating (their error
lines were re-recorded when that replaced a window loop that ran to its
fixed count cap); the records were taken while cover-axioms still doubled
its window until three sum tables agreed.

REP_A2_DIGESTS and REP_A3_DIGESTS pin the four cover suites on rep-a2 and
rep-a3 (`REP_A2_TEXT`, `REP_A3_TEXT`, the repetitive voltage quivers of the
a2.bq and a3.bq fixtures).  Both lifts are locally Nakayama, so their orbit
lists are closed-form, but every suite lifts windows of them; the records
were taken before `lift_window` shifted one template per window width.

DEGREE_10_D4_DIGESTS and ARROW_30_DIGESTS pin the four cover suites on
degree-10 D4 (`DEGREE_10_D4_TEXT`, the D4 cover with c of degree 10) and on
arrow-30 (`ARROW_30_TEXT`, one arrow a -> b of degree 30), whose cost grows
with the arrow degrees; the records were taken while every path basis still
keyed every ordered vertex pair of its quiver.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from fovea.cli import main
from fovea.naming import fixture_names, load_quiver
from fovea.quiver import format_quiver, parse_quiver
from fovea.repetitive import repetitive_voltage
from test_covering import D4_COVER_TEXT, DEGREE_10_D4_TEXT

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())
FIXTURES = set(fixture_names())
ENTRIES = sorted(key for key in DIGESTS if key.split()[1] in FIXTURES)
REP_DIGESTS = {
    "rep build a2.bq --n 1":
        "2ef645c48a7610482969802a29ea5a84a9f41770d6e87c6048907ad3d4b7bff8",
    "rep build a2.bq --n 2":
        "46b77aab5a41238351e605c9baaaef0fc20bc21a29d9f89a13c6417c42e692e6",
    "rep orbit a2.bq --k 1":
        "39310300c78a7f0b3c4b6bf212e149326fdf851012dd186f78db69429b5bd09d",
    "rep orbit a2.bq --k 2":
        "85360fa10f0d631d823b2598673b7fc0054ad1c614cfef1b3022794f407dade4",
    "rep build a3.bq --n 1":
        "c6ee463e31fd4587f71627f8b6639752d83951f9054fe47711268056b2af1111",
    "rep build a3.bq --n 2":
        "b068abe56ae47065d6d1451c8c00c02f1555b2cbe02e2d170802be77f643b51c",
    "rep orbit a3.bq --k 1":
        "f310522cef27f0186a1e75c653ca9dc455b104e4dcc190056824903cb01b34e4",
    "rep orbit a3.bq --k 2":
        "87a29ef8ed1b59e5d00018fa8f5e8e00cc48b03fda0f5aceaeb548296186ebec",
    "rep build kronecker.bq --n 1":
        "fb5e62058483add14405efcaf95dd95513a7a66b1831f38c69aeabef10318e07",
    "rep build kronecker.bq --n 2":
        "d100f00ded9edec8a78b8e83c2bfc61b7c6ffc043250563b14c1229f856630f7",
    "rep orbit kronecker.bq --k 1":
        "b14b2a050750c8d9f256a3aa2e9318ce261c6cc9b5d9c8e7ee9cd67e7f4e12e4",
    "rep orbit kronecker.bq --k 2":
        "3005801eee19d1e04c4248a0f614af1cd11c3bbb0c3063a5f4e5a311e2d496c1",
    "rep build loop2.bq --n 1":
        "6fe50238a5ad812a42721019ea2af62bb7f209c696307ead3f748aefacae66b2",
    "rep build loop2.bq --n 2":
        "1219e26ad20c5e7ade8898cde629f86ea5b7a141dbf25f2d3501a432fa68a980",
    "rep orbit loop2.bq --k 1":
        "8f0696bd517c45a3797de41b3fb261c88279e5b1b07c7a20021c7ac5a15b6004",
    "rep orbit loop2.bq --k 2":
        "0cb52f15dc737b4346c9f5fa14eb93fdb7fe372cb5875691444de2e409cae0ef",
    "rep build point.bq --n 1":
        "654a4bc31409e16bf667b38e18df5914f36d9cce63bf0480478a4ec3901cd446",
    "rep build point.bq --n 2":
        "760f091ca4c999da30778356139bc4330e39c7b22b8c713ad546a86deb713042",
    "rep orbit point.bq --k 1":
        "eaabed693fd02ee1691304630336df017067cf79fd3ef9cd5e252c1327aa0020",
    "rep orbit point.bq --k 2":
        "7c3144a6921d1805896a84969787ecef862fa9c106161cb1b8553216f9c97f83",
}

D4_DIGESTS = {
    "cover-axioms": (0, "37b50e7f10c8aa6afa9d8e7c9769328d6b4605eeefc7b81671600d87f0f767ae"),
    "pushdown": (0, "458cc62438e626d226d333122ae20b186ef589517d18e0599df521d9653afe43"),
    "phi-identities": (0, "1a07f9fad99239498c13e0d62092d8c2f28413619e453da0c31456337b031098"),
    "kg0": (0, "98c0c0c0d3910c761fc1a150accd2fba48e0ee1496163e882cb16147ae4c1f5e"),
}

DEGREE_10_D4_DIGESTS = {
    "cover-axioms": (0, "8c7bfffa09e3854eabc02114dfbf6f1fc29582a9dc5e8052440d7b1b9c65e806"),
    "pushdown": (0, "edeea6433e567f47c0253936f5a37e821dba252a0ebd64b2ffdb8754b6764512"),
    "phi-identities": (0, "aac5b3917e06ec6543fbc9e039b023163f9438908a601caff9756ea91874d31a"),
    "kg0": (0, "84f67335a7e31df09bd729e0efdc390149b990c02da48a4a46f56368a8dced5c"),
}

ARROW_30_TEXT = "field gf 32749\nnilbound 2\nvertex a b\narrow x: a -> b deg 30\n"
ARROW_30_DIGESTS = {
    "cover-axioms": (0, "b644ae4e234125ab2cdf47d1ce7359553d8fcceae3728712daa77cdc7c86419a"),
    "pushdown": (0, "4046dd3b045ed05478187ab5dc9fe88b414bd8abe67302b6d4aaac3beba85fd7"),
    "phi-identities": (0, "1df038d98d0990ec2c9e827a6af939f6d2aefd5a67a1b3a9919d59b601d1c3f5"),
    "kg0": (0, "fbcf514f985cce99d06512e93cc885aa88f22ead5c900cf5bfdf647ccbb033bc"),
}

A3_PRIME_TEXT = "field gf 32749\nnilbound 2\nvertex 1 2 3\narrow a: 1 -> 2\narrow b: 3 -> 2\n"
REP_A3_PRIME_TEXT = (
    "field gf 32749\nnilbound 3\nvertex 1 2 3\n"
    "arrow a0: 1 -> 2 deg 0\narrow a1: 2 -> 1 deg 1\n"
    "arrow a2: 2 -> 3 deg 1\narrow a3: 3 -> 2 deg 0\n"
    "relation a0*a1*a0\nrelation a0*a2*a3\nrelation a0*a2\nrelation a1*a0*a1\n"
    "relation a2*a3*a1\nrelation a1*a0 + 32748 a2*a3\nrelation a1*a0*a2\n"
    "relation a2*a3*a2\nrelation a3*a1\nrelation a3*a1*a0\nrelation a3*a2*a3\n")
REP_A3_PRIME_DIGESTS = {
    "cover-axioms": (0, "1d4be5ac2acc1ead91a578fc242235894cbe0cceabf81326fd47b04c343abf95"),
    "pushdown": (0, "d746a140fa80ea0a867ec1256c7e7f783cbbd13361fbbf21f16f0014c5730b48"),
    "phi-identities": (0, "4810e3ced6ae4ef6a8fdfb9f861809d112b1203cd81b7bd2d595ad48eaafee08"),
    "kg0": (0, "09702e03b5bf38f03ffab68f76db087e366e9e302e3c376ad3cbd5204913b66d"),
}

KD4_TEXT = "field gf 32749\nnilbound 2\nvertex 0 1 2 3\narrow a: 1 -> 0\narrow b: 2 -> 0\narrow c: 3 -> 0\n"
REP_KD4_TEXT = (
    "field gf 32749\nnilbound 3\nvertex 0 1 2 3\n"
    "arrow a0: 0 -> 1 deg 1\narrow a1: 0 -> 2 deg 1\narrow a2: 0 -> 3 deg 1\n"
    "arrow a3: 1 -> 0 deg 0\narrow a4: 2 -> 0 deg 0\narrow a5: 3 -> 0 deg 0\n"
    "relation a0*a3 + 32748 a2*a5\nrelation a1*a4 + 32748 a2*a5\nrelation a0*a3*a0\n"
    "relation a1*a4*a0\nrelation a2*a5*a0\nrelation a0*a3*a1\nrelation a1*a4*a1\n"
    "relation a2*a5*a1\nrelation a0*a3*a2\nrelation a1*a4*a2\nrelation a2*a5*a2\n"
    "relation a3*a0*a3\nrelation a3*a1*a4\nrelation a3*a2*a5\nrelation a3*a1\n"
    "relation a3*a2\nrelation a4*a0*a3\nrelation a4*a1*a4\nrelation a4*a2*a5\n"
    "relation a4*a0\nrelation a4*a2\nrelation a5*a0*a3\nrelation a5*a1*a4\n"
    "relation a5*a2*a5\nrelation a5*a0\nrelation a5*a1\n")
EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()
SEPARATED_QUIVER_ERROR = (
    "fovea: the base's separated quiver is not Dynkin, so the cover has infinitely many "
    "orbits: no window list reaches Gabriel's count\n")
# (exit code, report sha256, standard error)
REP_KD4_DIGESTS = {
    "cover-axioms": (0, "3a520f4a506dc89b8330e1203a6e32f89c13d0d19ecd3a3309436d8e22740630", ""),
    "pushdown": (0, "2801a9248d4e522469b2ee545e695abdb329b8ac3b466e13c2fe33d684c08fea", ""),
    "phi-identities": (0, "b1b560a788299ecf597b8b6345f7bc68c31bf9f7b66e2601e56caf4af565d696", ""),
    "kg0": (0, "ce97fea452e30f4bc2428010ed04c0904d2f82bf8bde16c6f82713ae102172c4", ""),
}

REP_A2_TEXT = ("field gf 32749\nnilbound 3\nvertex 1 2\n"
               "arrow a0: 1 -> 2 deg 0\narrow a1: 2 -> 1 deg 1\n"
               "relation a0*a1*a0\nrelation a1*a0*a1\n")
REP_A2_DIGESTS = {
    "cover-axioms": (0, "0e5d5a1ac6bb0ead7a0491e1ffab4a5dabd03b50ae5109169acec52c519d49d9"),
    "pushdown": (0, "90498edd69ab2262750c507336b84f7df712c795787bb93c9d163707b8dc9fde"),
    "phi-identities": (0, "686576bced49bc3224817f5201aa2bd272ae6231daa795a0431511bc9ca6e263"),
    "kg0": (0, "d120afdfe03cd6bc2c102f5f0a7261abcd60e6fca5cac0b37523044253a2580d"),
}
REP_A3_TEXT = ("field gf 32749\nnilbound 4\nvertex 1 2 3\n"
               "arrow a0: 1 -> 2 deg 0\narrow a1: 2 -> 3 deg 0\narrow a2: 3 -> 1 deg 1\n"
               "relation a0*a1*a2*a0\nrelation a1*a2*a0*a1\nrelation a2*a0*a1*a2\n")
REP_A3_DIGESTS = {
    "cover-axioms": (0, "c87122a3ed09184239454ead5658eff51254008652e2ef2771eaa5dc7e958297"),
    "pushdown": (0, "e6a3038ace9e50e608deca5bcea258827052d10589c28b4c3bcc14e53f2f070f"),
    "phi-identities": (0, "8d1e78d0d94422ddb844caa987311eaca2e4c0cad7445348541a6b6ef149965b"),
    "kg0": (0, "76da105239d434843891089dfbac8056af65f1c1dba4b320e8ca37b0a713ddfb"),
}

KRONECKER_COVER_TEXT = ("field gf 32749\nnilbound 2\nvertex 1 2\n"
                        "arrow a: 1 -> 2 deg 0\narrow b: 1 -> 2 deg 1\n")
REP_KRONECKER_TEXT = (
    "field gf 32749\nnilbound 3\nvertex 1 2\n"
    "arrow a0: 1 -> 2 deg 0\narrow a1: 1 -> 2 deg 0\n"
    "arrow a2: 2 -> 1 deg 1\narrow a3: 2 -> 1 deg 1\n"
    "relation a0*a2 + 32748 a1*a3\nrelation a0*a3\nrelation a1*a2\nrelation a0*a2*a0\n"
    "relation a0*a2*a1\nrelation a0*a3*a0\nrelation a0*a3*a1\nrelation a1*a2*a0\n"
    "relation a1*a2*a1\nrelation a1*a3*a0\nrelation a1*a3*a1\nrelation a2*a0*a2\n"
    "relation a2*a0*a3\nrelation a2*a1*a2\nrelation a2*a1*a3\nrelation a3*a0*a2\n"
    "relation a3*a0*a3\nrelation a3*a1*a2\nrelation a3*a1*a3\n"
    "relation a2*a0 + 32748 a3*a1\nrelation a2*a1\nrelation a3*a0\n")
REP_LOOP2_TEXT = (
    "field gf 32749\nnilbound 3\nvertex v\narrow a0: v -> v deg 0\narrow a1: v -> v deg 1\n"
    "relation a0*a0\nrelation a0*a0*a0\nrelation a0*a1 + 32748 a1*a0\nrelation a0*a0*a1\n"
    "relation a0*a1*a0\nrelation a1*a0*a0\nrelation a1*a1\nrelation a0*a1*a1\n"
    "relation a1*a0*a1\nrelation a1*a1*a0\nrelation a1*a1*a1\n")
# input file -> (text, exit code, report sha256) of kg0
KG0_DIGESTS = {
    "kronecker-cover.vq": (KRONECKER_COVER_TEXT, 0,
                           "f428abc108324a3fc7ffb3ca9cc6911d61582111d74eaa552bc86b12778aacff"),
    "rep-kronecker.vq": (REP_KRONECKER_TEXT, 0,
                         "c5c12dcd0526d8d57a03b36f18a6f9afdc8459c29411b704d6987e58732d2660"),
    "rep-loop2.vq": (REP_LOOP2_TEXT, 0,
                     "79696430609c4c4f94b57ddda95fff3c6a63fa3fe4667c92f48eea9aaedbebe9"),
}
# (suite, input file) -> (exit code, report sha256, standard error) on the same three covers
INFINITE_COVER_DIGESTS = {
    ("cover-axioms", "kronecker-cover.vq"):
        (0, "bd8bced041158462b147af05dcc56f9b07fe2b8ed9d888431a440d3ca2eb8791", ""),
    ("cover-axioms", "rep-kronecker.vq"):
        (0, "2a7c7eb5fedd8d5c060e922b680b4ef039fd15d3c9a51b19b3a705dfbbc31838", ""),
    ("cover-axioms", "rep-loop2.vq"):
        (0, "30886401b65b35c636183c19af4d85d7eff34d878446fbf88c43f281c82ff4d4", ""),
    **{(suite, name): (1, EMPTY_SHA256, SEPARATED_QUIVER_ERROR)
       for suite in ("pushdown", "phi-identities") for name in KG0_DIGESTS},
}


def _run_suite_on_text(monkeypatch, tmp_path, suite, name, text):
    """(exit code, report sha256, standard error) of one suite on text written to name."""
    monkeypatch.chdir(tmp_path)     # the report names the input as given
    (tmp_path / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["suite", suite, name])
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()


def test_every_packaged_fixture_entry_is_checked():
    assert len(ENTRIES) == 22


@pytest.mark.parametrize("key", ENTRIES)
def test_report_matches_its_recorded_digest(monkeypatch, tmp_path, key):
    suite, name = key.split()
    monkeypatch.chdir(tmp_path)     # the bare name must resolve to the fixture
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["suite", suite, name])
    record = DIGESTS[key]
    assert rc == record["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == record["report_sha256"]


@pytest.mark.parametrize("command", sorted(REP_DIGESTS))
def test_repetitive_export_matches_its_recorded_digest(monkeypatch, tmp_path, command):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(command.split())
    assert rc == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == REP_DIGESTS[command]


@pytest.mark.parametrize("suite", sorted(D4_DIGESTS))
def test_d4_cover_report_matches_its_recorded_digest(monkeypatch, tmp_path, suite):
    rc, sha, _ = _run_suite_on_text(monkeypatch, tmp_path, suite, "d4.vq", D4_COVER_TEXT)
    assert (rc, sha) == D4_DIGESTS[suite]


@pytest.mark.parametrize("suite", sorted(DEGREE_10_D4_DIGESTS))
def test_degree_10_d4_report_matches_its_recorded_digest(monkeypatch, tmp_path, suite):
    got = _run_suite_on_text(monkeypatch, tmp_path, suite, "d4-deg10.vq", DEGREE_10_D4_TEXT)
    assert got == DEGREE_10_D4_DIGESTS[suite] + ("",)


@pytest.mark.parametrize("suite", sorted(ARROW_30_DIGESTS))
def test_arrow_30_report_matches_its_recorded_digest(monkeypatch, tmp_path, suite):
    got = _run_suite_on_text(monkeypatch, tmp_path, suite, "arrow-30.vq", ARROW_30_TEXT)
    assert got == ARROW_30_DIGESTS[suite] + ("",)


def test_rep_a3_prime_text_is_the_repetitive_voltage_quiver():
    assert format_quiver(repetitive_voltage(parse_quiver(A3_PRIME_TEXT))) == REP_A3_PRIME_TEXT


@pytest.mark.parametrize("suite", sorted(REP_A3_PRIME_DIGESTS))
def test_rep_a3_prime_report_matches_its_recorded_digest(monkeypatch, tmp_path, suite):
    rc, sha, _ = _run_suite_on_text(monkeypatch, tmp_path, suite, "rep-a3p.vq", REP_A3_PRIME_TEXT)
    assert (rc, sha) == REP_A3_PRIME_DIGESTS[suite]


def test_rep_kd4_text_is_the_repetitive_voltage_quiver():
    assert format_quiver(repetitive_voltage(parse_quiver(KD4_TEXT))) == REP_KD4_TEXT


@pytest.mark.parametrize("suite", sorted(REP_KD4_DIGESTS))
def test_rep_kd4_report_matches_its_recorded_digest(monkeypatch, tmp_path, suite):
    got = _run_suite_on_text(monkeypatch, tmp_path, suite, "rep-kd4.vq", REP_KD4_TEXT)
    assert got == REP_KD4_DIGESTS[suite]


@pytest.mark.parametrize("fixture,text", [("a2.bq", REP_A2_TEXT), ("a3.bq", REP_A3_TEXT)])
def test_rep_nakayama_text_is_the_repetitive_voltage_quiver(fixture, text):
    assert format_quiver(repetitive_voltage(load_quiver(fixture)[2])) == text


@pytest.mark.parametrize("suite", sorted(REP_A2_DIGESTS))
def test_rep_a2_report_matches_its_recorded_digest(monkeypatch, tmp_path, suite):
    got = _run_suite_on_text(monkeypatch, tmp_path, suite, "rep-a2.vq", REP_A2_TEXT)
    assert got == REP_A2_DIGESTS[suite] + ("",)


@pytest.mark.parametrize("suite", sorted(REP_A3_DIGESTS))
def test_rep_a3_report_matches_its_recorded_digest(monkeypatch, tmp_path, suite):
    got = _run_suite_on_text(monkeypatch, tmp_path, suite, "rep-a3.vq", REP_A3_TEXT)
    assert got == REP_A3_DIGESTS[suite] + ("",)


def test_rep_kronecker_text_is_the_repetitive_voltage_quiver():
    assert format_quiver(repetitive_voltage(load_quiver("kronecker.bq")[2])) == REP_KRONECKER_TEXT


def test_rep_loop2_text_is_the_repetitive_voltage_quiver():
    assert format_quiver(repetitive_voltage(load_quiver("loop2.bq")[2])) == REP_LOOP2_TEXT


@pytest.mark.parametrize("name", sorted(KG0_DIGESTS))
def test_kg0_on_a_kronecker_cover_matches_its_recorded_digest(monkeypatch, tmp_path, name):
    text, rc, sha = KG0_DIGESTS[name]
    assert _run_suite_on_text(monkeypatch, tmp_path, "kg0", name, text) == (rc, sha, "")


@pytest.mark.parametrize("suite,name", sorted(INFINITE_COVER_DIGESTS))
def test_cover_suite_on_a_kronecker_cover_matches_its_recorded_digest(monkeypatch, tmp_path,
                                                                      suite, name):
    text = KG0_DIGESTS[name][0]
    got = _run_suite_on_text(monkeypatch, tmp_path, suite, name, text)
    assert got == INFINITE_COVER_DIGESTS[(suite, name)]


def _workloads():
    # appended, so that the benchmark's gen/oracle modules shadow nothing
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    import workloads
    return workloads


RECORDED = _workloads().recorded_calls()


def test_every_recorded_call_is_checked():
    assert sorted(f"{suite} {name}" for suite, name, _text in RECORDED) == sorted(DIGESTS)


@pytest.mark.parametrize("suite,name,text", RECORDED, ids=[f"{s} {n}" for s, n, _t in RECORDED])
def test_benchmark_call_passes_its_check(monkeypatch, tmp_path, suite, name, text):
    workloads = _workloads()
    monkeypatch.chdir(tmp_path)     # the report names the input as given
    suites = workloads.SuiteCalls(DIGESTS, ROOT / "src" / "fovea" / "fixtures", tmp_path)
    call = suites.call(suite, name, text)
    assert call.check(call.summarize(workloads.cli_main(*call.args))) != workloads.FAIL
