import hashlib
import json
import subprocess
import sys

import pytest

import fovea.cli
import fovea.covering
import fovea.modules
from fovea.cli import main
from fovea.modules import Enumeration, format_module, projective
from fovea.naming import FixtureError, load_quiver, resolve_functor
from fovea.quiver import parse_quiver, path_basis
from test_covering import D4_COVER_TEXT
from test_report_digests import KG0_DIGESTS, REP_A3_PRIME_TEXT, REP_KD4_TEXT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hom_query(capsys):
    code, out, _ = run(capsys, "hom", "a2.bq", "--from", "P2", "--to", "S2")
    assert code == 0 and out.strip() == "dim = 1"


def test_hom_query_layered(capsys):
    code, out, _ = run(capsys, "hom", "line-k2.vq", "--from", "M0", "--to", "M0")
    assert code == 0 and out.strip() == "dim = 1"


def test_hom_query_json(capsys):
    code, out, _ = run(capsys, "hom", "a2.bq", "--from", "S1", "--to", "P2", "--json")
    assert code == 0 and json.loads(out) == {"dim": 1}


def test_pushdown_query(capsys):
    code, out, _ = run(capsys, "pushdown", "line-k2.vq", "--module", "M0")
    assert code == 0 and "v=2" in out and "total 2" in out


def test_eval_query(capsys):
    code, out, _ = run(capsys, "eval", "a2.bq", "--functor", "S@S2", "--at", "S2")
    assert code == 0 and out.strip() == "1"


def test_fun_alias(capsys):
    code, out, _ = run(capsys, "fun", "eval", "a2.bq", "--functor", "S@S2", "--at", "P2")
    assert code == 0 and out.strip() == "0"


def test_simple_profile(capsys):
    code, out, _ = run(capsys, "simple", "a2.bq", "--at", "S2", "--json")
    assert code == 0
    profile = json.loads(out)["profile"]
    assert sorted(profile.values()) == [0, 0, 1]


def test_phi_profile(capsys):
    code, out, _ = run(capsys, "phi", "line-k2.vq", "--functor", "S@M0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True
    assert sorted(payload["profile"].values()) == [0, 1]


def test_length_queries(capsys):
    code, out, _ = run(capsys, "length", "line-k2.vq", "--functor", "H@M0")
    assert code == 0 and out.strip() == "length = 3"
    code, out, _ = run(capsys, "length", "a2.bq", "--functor", "H@P2")
    assert code == 0 and out.strip() == "length = 2"
    code, out, _ = run(capsys, "length", "a3.bq", "--functor", "S@S1")
    assert code == 0 and out == "length = 1\n"


@pytest.mark.parametrize("functor", ["S@S1", "H@S1"])
def test_length_on_a_capped_enumeration_fails_fast(functor):
    # the simple functor is built on the one enumeration with the CLI's caps,
    # which is incomplete on the Kronecker algebra, so the length check
    # refuses at once
    done = subprocess.run(
        [sys.executable, "-m", "fovea", "length", "kronecker.bq", "--functor", functor],
        capture_output=True, text=True, cwd="src", timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "fovea: finite length is undecidable from an incomplete list\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_simple_profile_on_a_capped_enumeration_fails(capsys, json_flag):
    # the Kronecker algebra's list stops at the dimension cap, so a profile
    # over it would leave out the regular modules
    code, out, err = run(capsys, "simple", "kronecker.bq", "--at", "S1", *json_flag)
    assert code == 1
    assert out == ""
    assert err == "fovea: a simple functor's profile is undecidable from an incomplete list\n"


def test_eval_of_a_simple_functor_honours_the_caps():
    # S@ is built on one enumeration at the CLI's caps, which is incomplete
    # on the Kronecker algebra, so eval refuses at once; it used to enumerate
    # at the library's caps and ran for more than 20 s
    done = subprocess.run(
        [sys.executable, "-m", "fovea", "eval", "kronecker.bq", "--functor", "S@S1",
         "--at", "S1", "--dim-cap", "2"],
        capture_output=True, text=True, cwd="src", timeout=5)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "fovea: a simple functor's profile is undecidable from an incomplete list\n"


@pytest.mark.parametrize("verb", [["eval", "--at", "S@1@0"], ["length"]], ids=["eval", "length"])
def test_an_incomplete_cover_list_names_the_fixed_window_caps(capsys, monkeypatch, tmp_path, verb):
    # the Kronecker cover's orbit list is refused on its separated quiver,
    # whatever the caps
    cover = tmp_path / "kcover.vq"
    cover.write_text(KG0_DIGESTS["kronecker-cover.vq"][0])
    code, out, err = run(capsys, verb[0], str(cover), "--functor", "S@S@1@0", *verb[1:],
                         "--dim-cap", "2")
    assert code == 1 and out == ""
    assert err == ("fovea: the base's separated quiver is not Dynkin, so the cover has "
                   "infinitely many orbits: no window list reaches Gabriel's count\n")

    # on the D4 cover every enumeration here stops on the count cap at once;
    # the base's comes first, and its error names the fixed caps
    def capped(bq, *args, **kwargs):
        return Enumeration(bq, [], False, ["count cap 128 hit"])

    monkeypatch.setattr(fovea.covering, "enumerate_indecomposables", capped)
    monkeypatch.setattr(fovea.modules, "enumerate_indecomposables", capped)
    cover = tmp_path / "d4.vq"
    cover.write_text(D4_COVER_TEXT)
    code, out, err = run(capsys, verb[0], str(cover), "--functor", "S@S@1@0", *verb[1:],
                         "--dim-cap", "2")
    assert code == 1 and out == ""
    assert err == ("fovea: base enumeration is incomplete: count cap 128 hit; a cover's "
                   "base and windows are enumerated at the fixed caps dim 64, count 128\n")


@pytest.mark.parametrize("verb", [["eval", "--at", "S@1@0"], ["length"]], ids=["eval", "length"])
def test_an_incomplete_window_list_names_the_fixed_caps(capsys, monkeypatch, tmp_path, verb):
    # the D4 cover's base is enumerated in full, and every window
    # enumeration stops on the count cap at once
    def capped(bq, *args, **kwargs):
        return Enumeration(bq, [], False, ["count cap 128 hit"])

    monkeypatch.setattr(fovea.covering, "enumerate_indecomposables", capped)
    cover = tmp_path / "d4.vq"
    cover.write_text(D4_COVER_TEXT)
    code, out, err = run(capsys, verb[0], str(cover), "--functor", "S@S@1@0", *verb[1:],
                         "--dim-cap", "2")
    assert code == 1 and out == ""
    assert err == ("fovea: window enumeration is incomplete: count cap 128 hit; a cover's "
                   "base and windows are enumerated at the fixed caps dim 64, count 128\n")


def test_eval_of_a_representable_functor_reads_no_list(capsys):
    # Hom(-, S1) needs no indecomposable list, so an incomplete one is no bar
    code, out, _ = run(capsys, "eval", "kronecker.bq", "--functor", "H@S1", "--at", "S1",
                       "--dim-cap", "2")
    assert code == 0 and out.strip() == "1"


def test_field_override(capsys):
    code, out, _ = run(capsys, "hom", "a2.bq", "--field", "q", "--from", "P2", "--to", "S2")
    assert code == 0 and out.strip() == "dim = 1"


def _with_field(capsys, monkeypatch, how, field, *argv):
    """run with the field override given by flag or by environment."""
    if how == "flag":
        return run(capsys, *argv, "--field", field)
    monkeypatch.setenv("FOVEA_FIELD", field)
    return run(capsys, *argv)


@pytest.mark.parametrize("how", ["flag", "env"])
@pytest.mark.parametrize("text", [
    "nilbound 2\nvertex 1 2\narrow a: 1 -> 3\n",
    "nilbound 2\nvertex 1 2\narrow a 1 -> 2\nfield gf 7\n",
], ids=["no-field-line", "above-the-field-line"])
def test_a_field_override_keeps_the_line_of_a_parse_error(capsys, monkeypatch, tmp_path,
                                                          text, how):
    # the override replaces the file's field line in place or is appended,
    # so every other line keeps its number
    bad = tmp_path / "bad.bq"
    bad.write_text(text)
    monkeypatch.delenv("FOVEA_FIELD", raising=False)
    plain = run(capsys, "suite", "kg0", str(bad))
    assert plain[0] == 2 and plain[2].startswith("fovea: line 3: ")
    assert _with_field(capsys, monkeypatch, how, "q", "suite", "kg0", str(bad)) == plain


@pytest.mark.parametrize("how", ["flag", "env"])
def test_a_bad_field_override_is_a_usage_error_that_names_it(capsys, monkeypatch, how):
    code, out, err = _with_field(capsys, monkeypatch, how, "gf:6", "suite", "kg0", "a2.bq")
    assert code == 2 and out == ""
    assert err == "fovea: field override 'gf:6': field order 6 is not prime\n"


@pytest.mark.parametrize("how", ["flag", "env"])
def test_a_field_override_keeps_the_digest_of_the_raw_input(capsys, monkeypatch, tmp_path, how):
    raw = b"field gf 7\nnilbound 2\nvertex 1 2\narrow a: 1 -> 2  # a comment\n"
    path = tmp_path / "a2.bq"
    path.write_bytes(raw)
    code, out, _ = _with_field(capsys, monkeypatch, how, "gf:5", "suite", "kg0", str(path),
                               "--json")
    payload = json.loads(out)
    assert code == 0 and payload["field"] == "gf:5"
    assert payload["inputs"][0]["sha256"] == hashlib.sha256(raw).hexdigest()


def test_a_simple_functor_over_an_algebra_needs_a_list():
    # no verb reaches this: each builds S@ on its own enumeration
    with pytest.raises(FixtureError, match="needs its list of indecomposables"):
        resolve_functor(load_quiver("a2.bq")[2], "S@S1")


def test_rep_build_and_orbit(capsys, tmp_path):
    code, out, _ = run(capsys, "rep", "build", "point.bq", "--n", "1")
    assert code == 0
    built = parse_quiver(out)
    assert path_basis(built).total_dim == 5
    out_file = tmp_path / "orbit.bq"
    code, _, _ = run(capsys, "rep", "orbit", "a2.bq", "--k", "1", "-o", str(out_file))
    assert code == 0
    orbit = parse_quiver(out_file.read_text())
    assert path_basis(orbit).total_dim == 6


@pytest.mark.parametrize("argv, message", [
    (("rep", "build", "a2.bq", "--n", "-1"), "truncation radius must be nonnegative"),
    (("rep", "orbit", "a2.bq", "--k", "0"), "orbit exponent must be at least 1"),
], ids=["build-negative-radius", "orbit-zero-exponent"])
def test_rep_rejects_bad_parameters_as_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err == f"fovea: {message}\n"


@pytest.mark.parametrize("argv", [("suite", "cover-axioms", "line-k2.vq"),
                                  ("hom", "a2.bq", "--from", "S1", "--to", "S1")],
                         ids=["suite", "hom"])
def test_window_is_not_an_option(capsys, argv):
    """The cover suites read their windows off the input, so no verb takes
    --window."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--window", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --window 3" in err


@pytest.mark.parametrize("argv, message", [
    (("suite", "kg0", "a2.bq", "--dim-cap", "-1"), "dimension cap must be nonnegative"),
    (("suite", "kg0", "a2.bq", "--count-cap", "-1"), "count cap must be nonnegative"),
    (("phi", "line-k2.vq", "--functor", "S@M0", "--dim-cap", "-2"),
     "dimension cap must be nonnegative"),
    (("simple", "a2.bq", "--at", "S2", "--count-cap", "-5", "--json"),
     "count cap must be nonnegative"),
], ids=["suite-dim", "suite-count", "phi-dim", "simple-count"])
def test_a_negative_cap_is_a_usage_error(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"fovea: {message}\n")


@pytest.mark.parametrize("spec", ["S@v@x", "Sx", "S@v@1.5", "S", "M@v@", "S@v@\u0661", "S1_0"])
def test_a_layered_spec_with_a_bad_layer_is_a_usage_error(capsys, spec):
    assert run(capsys, "pushdown", "line-k2.vq", "--module", spec) == \
        (2, "", f"fovea: bad layered module spec {spec!r}\n")


def test_cover_verify(capsys):
    code, out, _ = run(capsys, "cover", "verify", "line-k2.vq", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    ids = {c["id"] for c in payload["checks"]}
    assert "covering.dim-sum-left[v,v]" in ids
    # `cover verify` is an alias of `suite cover-axioms`
    assert run(capsys, "suite", "cover-axioms", "line-k2.vq", "--json")[:2] == (code, out)
    code, _, err = run(capsys, "cover", "verify", "a2.bq")
    assert code == 2 and "suite cover-axioms needs a graded (voltage) input" in err


def test_suite_exit_codes(capsys, tmp_path):
    code, _, _ = run(capsys, "suite", "kg0", "a2.bq")
    assert code == 0
    code, _, err = run(capsys, "suite", "nope", "a2.bq")
    assert code == 2 and "unknown suite" in err
    code, _, err = run(capsys, "hom", "missing-file.bq", "--from", "P2", "--to", "S2")
    assert code == 2
    bad = tmp_path / "bad.bq"
    bad.write_text("field gf 32749\nnilbound 2\nvertex 1 2\narrow a: 1 -> 3\n")
    code, _, err = run(capsys, "suite", "kg0", str(bad))
    assert code == 2 and err == "fovea: line 4: arrow a: unknown vertex '3'\n"


def test_repetitive_suite_on_the_exterior_algebra_is_quick(tmp_path):
    # the T_1 export has 8 arrows and 202 relations; the admissibility check
    # reduces its 52,005 relation shifts sparsely, where it used to span them
    # as dense vectors of up to 2,815 entries for more than a minute
    path = tmp_path / "exterior.bq"
    path.write_text("field gf 32749\nnilbound 4\nvertex 1\narrow a: 1 -> 1\n"
                    "arrow b: 1 -> 1\nrelation a*a\nrelation b*b\nrelation a*b - b*a\n")
    done = subprocess.run([sys.executable, "-m", "fovea", "suite", "repetitive", str(path)],
                          capture_output=True, text=True, cwd="src", timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "PASS"


@pytest.mark.parametrize("name", ["rep-loop2.vq", "rep-kronecker.vq"])
def test_kg0_on_a_representation_infinite_base_is_quick(tmp_path, name):
    # the base's separated quiver is not Dynkin, so kg0 calls it undecidable
    # without running the enumeration closure to its caps (1.0 s on rep-loop2)
    path = tmp_path / name
    path.write_text(KG0_DIGESTS[name][0])
    done = subprocess.run([sys.executable, "-m", "fovea", "suite", "kg0", str(path)],
                          capture_output=True, text=True, cwd="src", timeout=5)
    assert done.returncode == 0, done.stderr
    assert "verdict base: undecidable at desk scale" in done.stdout.splitlines()
    assert done.stdout.splitlines()[-1] == "PASS"


BRANCHING_COVERS = {"d4.vq": D4_COVER_TEXT, "rep-a3p.vq": REP_A3_PRIME_TEXT,
                    "rep-kd4.vq": REP_KD4_TEXT}


@pytest.mark.parametrize("suite", ["pushdown", "phi-identities", "kg0"])
@pytest.mark.parametrize("name", BRANCHING_COVERS)
def test_cover_suites_on_a_branching_cover_are_quick(tmp_path, name, suite):
    # the orbit list stops on the first window that reaches the base's
    # count, far inside the fixed count cap (rep-kD4: 24 classes)
    path = tmp_path / name
    path.write_text(BRANCHING_COVERS[name])
    done = subprocess.run([sys.executable, "-m", "fovea", "suite", suite, str(path)],
                          capture_output=True, text=True, cwd="src", timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "PASS"


def test_pushdown_on_a_representation_infinite_base_fails_at_once(tmp_path):
    # the base's separated quiver is not Dynkin, so the orbit list is refused
    # without enumerating
    path = tmp_path / "rep-loop2.vq"
    path.write_text(KG0_DIGESTS["rep-loop2.vq"][0])
    done = subprocess.run([sys.executable, "-m", "fovea", "suite", "pushdown", str(path)],
                          capture_output=True, text=True, cwd="src", timeout=5)
    assert done.returncode == 1
    assert done.stdout == ""
    assert "separated quiver is not Dynkin" in done.stderr


def test_mod_round_trip(capsys, tmp_path):
    a2 = parse_quiver(open("src/fovea/fixtures/a2.bq").read())
    text = format_module(projective(a2, "2"))
    mod_file = tmp_path / "p2.mod"
    mod_file.write_text(text)
    code, out, _ = run(capsys, "mod", "a2.bq", str(mod_file))
    assert code == 0 and out == text


@pytest.mark.parametrize("text,err", [
    ("dims 1=1 2=1\nmat a = [[1/0]]\n", "fovea: line 2: zero denominator in '1/0'\n"),
    ("dims 1=1 2=1\nmat a = [[x]]\n", "fovea: line 2: not a number: 'x'\n"),
    ("dims 1=x\n", "fovea: line 1: bad dimension '1=x'\n"),
    ("dims 1=1 2=1\nmat a = [[1,2]]\n",
     "fovea: line 2: matrix for a has shape (1, 2), expected (1, 1)\n"),
    ("dims 1=1 2=2\nmat a = [[1,2],[3]]\n",
     "fovea: line 2: matrix for a has rows of unequal length\n"),
    ("# a comment\ndims 1=1 9=0\n", "fovea: line 2: unknown vertex '9'\n"),
], ids=["zero-denominator", "not-a-number", "bad-dims", "wrong-shape", "ragged", "unknown-vertex"])
def test_malformed_module_files_are_located_usage_errors(capsys, tmp_path, text, err):
    mod_file = tmp_path / "bad.mod"
    mod_file.write_text(text)
    assert run(capsys, "mod", "a2.bq", str(mod_file)) == (2, "", err)


def test_bad_relation_coefficient_is_a_located_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.bq"
    bad.write_text("field gf 32749\nnilbound 2\nvertex v\narrow a: v -> v\nrelation 1/0 a*a\n")
    assert run(capsys, "suite", "kg0", str(bad)) == (2, "", "fovea: line 5: bad coefficient '1/0'\n")


def test_python_dash_m_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "fovea", "fixtures"],
                          capture_output=True, text=True, cwd="src")
    assert done.returncode == 0, done.stderr
    assert "line-k2.vq" in done.stdout.split()


def test_fixtures_listed(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0 and "line-k2.vq" in out


def test_eval_at_file_module(capsys, tmp_path):
    a2 = parse_quiver(open("src/fovea/fixtures/a2.bq").read())
    text = format_module(projective(a2, "2"))
    mod_file = tmp_path / "p2.mod"
    mod_file.write_text(text)
    code, out, _ = run(capsys, "eval", "a2.bq", "--functor", "S@S2",
                       "--at", f"@{mod_file}")
    assert code == 0 and out.strip() == "0"


def _subprocess_suite(args):
    return subprocess.run(
        [sys.executable, "-m", "fovea.cli"] + args,
        capture_output=True, text=True, cwd="src")


@pytest.mark.parametrize("suite,fixture", [("kg0", "line-k2.vq"),
                                           ("cover-axioms", "nakayama2.vq")])
def test_suite_reports_are_byte_identical_across_processes(suite, fixture):
    first = _subprocess_suite(["suite", suite, fixture, "--json", "--seed", "7"])
    second = _subprocess_suite(["suite", suite, fixture, "--json", "--seed", "7"])
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["seed"] == 7 and payload["pass"] is True


def test_field_env_default(capsys, monkeypatch):
    monkeypatch.setenv("FOVEA_FIELD", "q")
    code = main(["hom", "a2.bq", "--from", "P2", "--to", "S2", "--json"])
    out = capsys.readouterr().out
    assert code == 0 and json.loads(out) == {"dim": 1}


def test_a_kept_parser_reads_the_field_environment_on_each_call(capsys, monkeypatch):
    argv = ["suite", "kg0", "a2.bq", "--json"]
    monkeypatch.delenv("FOVEA_FIELD", raising=False)
    assert main(argv) == 0 and json.loads(capsys.readouterr().out)["field"] == "gf:32749"
    monkeypatch.setenv("FOVEA_FIELD", "q")
    assert main(argv) == 0 and json.loads(capsys.readouterr().out)["field"] == "q"


def _main_output(capsys, argv) -> tuple:
    try:
        code = main(list(argv))
    except SystemExit as exit:
        code = exit.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ("--help",), ("--version",), ("suite", "--help"), ("rep", "build", "--help"),
    ("suite", "kg0", "a2.bq", "--dim-cap", "-1"),
    ("eval", "a2.bq", "--functor", "H@S1", "--at", "S1", "--count-cap", "-2"),
    ("eval", "a2.bq", "--functor", "H@S1"), ("nonsense",),
], ids=["help", "version", "suite-help", "rep-build-help", "negative-dim-cap",
        "negative-count-cap", "missing-option", "unknown-verb"])
def test_a_kept_parser_prints_what_a_fresh_one_prints(capsys, monkeypatch, argv):
    """Each verb's parser is built once per process and kept; the second
    call through it prints the same bytes, with the same exit code, as a
    parser built afresh."""
    builds = []
    build_parser = fovea.cli.build_parser

    def recording(verb=None):
        builds.append(verb)
        return build_parser(verb)

    monkeypatch.setattr(fovea.cli, "build_parser", recording)
    fovea.cli._parser.cache_clear()
    fresh = _main_output(capsys, argv)
    kept = _main_output(capsys, argv)
    assert len(builds) == 1
    assert kept == fresh
    assert fresh[0] in (0, 2) and (fresh[1] or fresh[2])


def test_fun_hom_simple_phi_aliases(capsys):
    code, out, _ = run(capsys, "fun", "hom", "a2.bq", "--from", "S1", "--to", "P2")
    assert code == 0 and out.strip() == "dim = 1"
    code, out, _ = run(capsys, "fun", "simple", "a2.bq", "--at", "P2", "--json")
    assert code == 0 and sorted(json.loads(out)["profile"].values()) == [0, 0, 1]
    code, out, _ = run(capsys, "fun", "phi", "line-k2.vq", "--functor", "H@M0", "--json")
    assert code == 0 and sum(json.loads(out)["profile"].values()) == 3
    code, _, _ = run(capsys, "fun", "kg0", "a3.bq")
    assert code == 0
    # `fun kg0` is an alias of `suite kg0`; its verdicts reach the report
    code, out, _ = run(capsys, "fun", "kg0", "kronecker.bq")
    assert run(capsys, "suite", "kg0", "kronecker.bq")[:2] == (code, out)
    assert "verdict algebra: undecidable at desk scale" in out


def test_options_before_the_input_path(capsys):
    code, out, _ = run(capsys, "eval", "--functor", "S@S2", "--at", "S2", "a2.bq")
    assert code == 0 and out.strip() == "1"


def test_readme_quick_start_runs_verbatim():
    import re
    text = open("README.md").read()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(block, namespace)  # prints 1, {'v': 2}, 3, 3
