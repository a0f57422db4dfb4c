"""Property-based fuzzing of the input parser, of `painleve test` and of
the report writer.

Inputs are drawn from a grammar close to the real one, with malformed
headers, declarations, equations and expression tokens mixed in.  Any input
must either parse or raise ParseError, and `painleve test` on it must end
with a documented exit code other than 3 (internal error), never with an
uncaught exception.  Any JSON value must be written as `json.dumps` with
`indent=2` writes it.  The examples are derandomized, so the suite stays
deterministic.
"""

import contextlib
import io
import json

import pytest

from painleve.cli import main
from painleve.model import (
    HamiltonianSystem,
    ODESystem,
    ParseError,
    jsonable,
    parse_input,
    serialize_report,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

BAD_NAMES = ["t", "H", "1x", "u v", ""]

TOKENS = ["+", "-", "*", "^", "(", ")", "/", "^-1", "^1/2", "1/0", "@", "1.5", "x'", "\u0663"]


def _expressions(symbols):
    numbers = st.integers(0, 12).map(str)
    rationals = st.tuples(st.integers(-5, 5), st.integers(1, 4)).map(lambda pq: f"{pq[0]}/{pq[1]}")
    atoms = st.one_of(numbers, rationals, st.sampled_from(symbols))
    powers = st.tuples(atoms, st.integers(0, 3)).map(lambda ak: f"{ak[0]}^{ak[1]}")
    return st.recursive(
        st.one_of(atoms, powers),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map("".join),
            inner.map(lambda e: f"-({e})"),
        ),
        max_leaves=4,
    )


@st.composite
def _well_formed(draw):
    """A valid system (one or two variables) or one-degree-of-freedom Hamiltonian."""
    params = draw(st.sampled_from([[], ["a"]]))
    if draw(st.booleans()):
        names = draw(st.sampled_from([["u"], ["u", "v"], ["x1", "y_2"]]))
        symbols = names + params + ["t"]
        lines = ["system", "vars: " + ", ".join(names)]
        lines += [f"{nm}' = {draw(_expressions(symbols))}" for nm in names]
    else:
        symbols = ["q", "p"] + params + ["t"]
        lines = ["hamiltonian", "vars: q; p", f"H = {draw(_expressions(symbols))}"]
    if params:
        lines.insert(2, "params: a")
    return lines


@st.composite
def inputs(draw):
    """A well-formed input, most of the time with one or two defects."""
    lines = draw(_well_formed())
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        at = draw(st.integers(0, len(lines) - 1))
        defect = draw(st.integers(0, 5))
        if defect == 0:  # a foreign token somewhere in a line
            cut = draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:cut] + draw(st.sampled_from(TOKENS)) + lines[at][cut:]
        elif defect == 1:  # a line lost or repeated
            lines[at:at + 1] = [] if draw(st.booleans()) else [lines[at]] * 2
        elif defect == 2:  # arbitrary text
            lines.insert(at, draw(st.text(max_size=12)))
        elif defect == 3:  # a reserved, malformed or duplicate name in a declaration
            key = draw(st.sampled_from(["vars: ", "params: "]))
            lines.insert(at, key + draw(st.sampled_from(BAD_NAMES + ["u, u", "q; p"])))
        elif defect == 4:  # the other header
            lines[0] = draw(st.sampled_from(["system", "hamiltonian", "System", ""]))
        else:  # an equation for an undeclared or misspelled variable
            lines.append(draw(st.sampled_from(["w' = 1", "u = 1", "H = q", "u'' = u", "u' ="])))
    return "\n".join(lines)


@hypothesis.settings(
    derandomize=True,
    deadline=None,
    max_examples=100,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
@hypothesis.given(text=inputs())
def test_parse_or_parse_error(text):
    try:
        parsed = parse_input(text)
    except ParseError:
        return
    assert isinstance(parsed, (ODESystem, HamiltonianSystem))


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


@hypothesis.settings(
    derandomize=True,
    deadline=None,
    max_examples=60,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
@hypothesis.given(text=inputs())
def test_cli_test_never_faults(input_path, text):
    input_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["test", str(input_path)])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


# strings that need escapes: quotes, backslashes, control and non-ASCII
# characters, a line separator and a character beyond the BMP
AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", ""]


def _json_values():
    strings = st.one_of(st.text(max_size=6), st.sampled_from(AWKWARD))
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(-(10**40), 10**40), st.floats(), strings
    )
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4), st.dictionaries(strings, inner, max_size=4)
        ),
        max_leaves=12,
    )


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300, database=None)
@hypothesis.given(value=_json_values())
def test_report_writer_matches_json_dumps(value):
    for report in ({"value": value, "empty": [], "none": {}}, value):
        assert serialize_report(report) == json.dumps(jsonable(report), indent=2)
