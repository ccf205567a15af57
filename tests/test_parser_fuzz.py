"""Fuzz tests of the quiver and module parsers and of the CLI verbs that
read them.

Texts are drawn line by line from a small token alphabet: directives,
vertex and arrow names that may or may not be declared, numbers that may
be malformed, and matrices that may be broken.  Every number is at most
50, so that no draw allocates much.  The parsers may reject a text only
with their own error types, and the CLI answers every text with exit
code 0, 1 or 2 and a one-line message, never a traceback.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from fovea.cli import main
from fovea.modules import ModuleError, ModuleParseError, format_module, parse_module
from fovea.quiver import BoundQuiver, ParseError, QuiverError, format_quiver, parse_quiver

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

VERTICES = ["1", "2", "3", "v"]
ARROWS = ["a", "b", "c", "d"]
BAD_NAMES = st.sampled_from(["9", "z", "->", ":", "*", "=", ""])
SMALL = st.sampled_from(["0", "1", "2", "3"])
BAD_NUMBERS = st.sampled_from(["-1", "1/0", "x", "2.5", "1e2", "", "²", "--1", "1/", "/2",
                               "50", "+3", "07"])
GOOD_FIELDS = st.sampled_from(["gf 7", "gf 32749", "q", "gf:11"])
BAD_FIELDS = st.sampled_from(["gf 4", "gf x", "gf", "gf 1", "r"])
SEPARATORS = st.sampled_from([" + ", " - ", " + ", " ", " + - "])

garbage_lines = st.one_of(
    st.just("# a comment"), st.just(""),
    st.lists(st.one_of(BAD_NAMES, BAD_NUMBERS, st.sampled_from(
        ["vertex", "arrow", "relation", "nilbound", "dims", "mat", "deg"])), max_size=4).map(" ".join))


def _pick(draw, good, bad):
    """Mostly a draw from good; one time in eight one from bad."""
    return draw(bad if draw(st.integers(0, 7)) == 7 else good)


def _number(draw) -> str:
    return _pick(draw, SMALL, BAD_NUMBERS)


def _name(draw, names) -> str:
    return _pick(draw, st.sampled_from(names), BAD_NAMES)


def _corrupt(draw, lines) -> str:
    """Insert a garbage line anywhere, one time in eight."""
    if draw(st.integers(0, 7)) == 7:
        lines.insert(draw(st.integers(0, len(lines))), draw(garbage_lines))
    return "\n".join(lines) + "\n"


@st.composite
def quiver_texts(draw):
    """A quiver text, mostly well-formed: each name and number is declared
    or in range more often than not."""
    vertices = draw(st.lists(st.sampled_from(VERTICES), min_size=1, max_size=3, unique=True))
    lines = []
    if draw(st.booleans()):
        lines.append(f"field {_pick(draw, GOOD_FIELDS, BAD_FIELDS)}")
    if draw(st.integers(0, 15)):
        lines.append(f"nilbound {_pick(draw, st.sampled_from(['1', '2', '3']), BAD_NUMBERS)}")
    lines.append("vertex " + " ".join(vertices))
    graded = draw(st.booleans())
    arrows = ARROWS[:draw(st.integers(0, 3))]
    for name in arrows:
        deg = f" deg {_number(draw)}" if graded else ""
        lines.append(f"arrow {name}: {_name(draw, vertices)} -> {_name(draw, vertices)}{deg}")
    for _ in range(draw(st.integers(0, 2)) if arrows else 0):
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            path = "*".join(_name(draw, arrows) for _ in range(draw(st.integers(1, 3))))
            coeff = f"{_number(draw)} " if draw(st.booleans()) else ""
            terms.append(draw(SEPARATORS) + coeff + path)
        lines.append("relation" + "".join(terms))
    return _corrupt(draw, lines)


@st.composite
def matrices(draw, rows: int, cols: int) -> str:
    """A matrix of the given shape, or now and then of another or broken."""
    if draw(st.integers(0, 7)) == 7:
        rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entries = st.sampled_from(["0", "0", "1", "2", "-1", "1/2"])
    body = ",".join("[" + ",".join(_pick(draw, entries, BAD_NUMBERS) for _ in range(cols)) + "]"
                    for _ in range(rows))
    broken = _pick(draw, st.just(""), st.sampled_from(["drop-close", "drop-open", "ragged", "flat"]))
    if broken == "drop-close":
        return "[" + body
    if broken == "drop-open":
        return body + "]"
    if broken == "ragged":
        return "[" + body + ",[1,2,3,4]]"
    if broken == "flat":
        return body.replace("[", "").replace("]", "")
    return "[" + body + "]"


@st.composite
def module_texts(draw, bq):
    """A module text over bq, mostly well-formed: a dims line, then a
    matrix per arrow, mostly of the declared shape."""
    dims = {v: _number(draw) for v in bq.vertices}
    parts = [f"{_name(draw, bq.vertices)}={d}" for d in dims.values()]
    lines = ["dims " + " ".join(parts)] if parts else []
    for a in bq.arrows:
        if draw(st.booleans()):
            shape = [int(dims[v]) if dims[v] in ("0", "1", "2", "3") else 1
                     for v in (a.source, a.target)]
            sep = draw(st.sampled_from([" = ", " = ", "=", " "]))
            lines.append(f"mat {_name(draw, [a.name])}{sep}{draw(matrices(*shape))}")
    return _corrupt(draw, lines)


# a cycle through two vertices with a relation, over which a module text is
# drawn when the quiver text is not an algebra
CYCLE = parse_quiver("field gf 7\nnilbound 3\nvertex 1 2\narrow a: 1 -> 2\n"
                     "arrow b: 2 -> 1\nrelation a*b\n")


def _parsed(text):
    """parse_quiver's result or its error."""
    try:
        return parse_quiver(text)
    except QuiverError as e:
        return e


@st.composite
def quiver_and_module_texts(draw):
    """A quiver text, what it parses to, and a module text over it."""
    qtext = draw(quiver_texts())
    q = _parsed(qtext)
    return qtext, q, draw(module_texts(q if isinstance(q, BoundQuiver) else CYCLE))


@FUZZ
@given(quiver_texts())
def test_parse_quiver_raises_only_quiver_errors(text):
    q = _parsed(text)
    if not isinstance(q, QuiverError):
        assert parse_quiver(format_quiver(q)) == q


@FUZZ
@given(quiver_and_module_texts())
def test_parse_module_raises_only_module_errors(texts):
    _qtext, q, mtext = texts
    bq = q if isinstance(q, BoundQuiver) else CYCLE
    try:
        m = parse_module(bq, mtext)
    except ModuleError:
        return
    assert parse_module(bq, format_module(m)) == m


def _run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@FUZZ
@given(quiver_and_module_texts())
def test_cli_mod_and_hom_answer_every_text_with_an_exit_code(tmp_path_factory, texts):
    qtext, q, mtext = texts
    folder = tmp_path_factory.mktemp("fuzz")
    qpath, mpath = folder / "q.txt", folder / "m.txt"
    qpath.write_text(qtext)
    mpath.write_text(mtext)
    parse_error = q if isinstance(q, ParseError) else None
    if isinstance(q, BoundQuiver):
        try:
            parse_module(q, mtext)
        except ModuleParseError as e:
            parse_error = e
        except ModuleError:
            pass
    for argv in (["mod", str(qpath), str(mpath)],
                 ["hom", str(qpath), "--from", f"@{mpath}", "--to", f"@{mpath}"]):
        code, err = _run(argv)
        assert code in (0, 1, 2), (argv[0], code, err)
        assert "Traceback" not in err
        assert code == 0 or err.startswith("fovea: "), (argv[0], err)
        if parse_error is not None:
            assert code == 2 and f"line {parse_error.lineno}" in err, (argv[0], err)
