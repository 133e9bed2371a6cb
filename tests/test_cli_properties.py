"""The CLI's exit-status contract over generated argv: every argv exits 0, 1
or 2, an exit 2 leaves stdout empty and puts one JSON error on stderr, and no
argv ends in a traceback. --out and --point are left out: they touch files
and stdin."""

import contextlib
import io
import json

import pytest

from coxtoric import cli

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FLAGS = ("--n", "--N", "--i", "--bound", "--seed", "--trials", "--format",
         "--route", "--bogus")
SWITCHES = ("--describe", "--help")
VALUES = st.one_of(
    st.integers(-2, 4).map(str),
    st.sampled_from(("abc", "1.5", "", "csv", "json", "plain", "poset")),
    st.sampled_from(sorted({str(flag.ceiling + 1) for spec in cli.COMMANDS.values()
                            for flag in spec.flags if isinstance(flag.ceiling, int)}
                           | {str(10 ** 7)})),
)
OPTIONS = st.one_of(st.tuples(st.sampled_from(FLAGS), VALUES),
                    st.tuples(st.sampled_from(SWITCHES)))
COMMANDS = st.sampled_from(sorted(cli.HANDLERS) + ["no-such-command"])
ARGV = st.builds(lambda head, options: head + [tok for opt in options for tok in opt],
                 st.one_of(COMMANDS.map(lambda c: [c]), st.just([])),
                 st.lists(OPTIONS, max_size=4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ARGV)
def test_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0])
