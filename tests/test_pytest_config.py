"""The suite's own pytest settings keep a failing test an ordinary failure."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_property_test_does_not_abort_the_session(pytester):
    # under the repository's warning filters, a failing @given test must be
    # reported as failed, and the tests after it must still run
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text())
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_after():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", ".")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
