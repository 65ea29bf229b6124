"""The project's pytest configuration reports a failing Hypothesis test
like any other failure, instead of aborting the session."""

from pathlib import Path

pytest_plugins = ["pytester"]

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_is_reported(pytester):
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-c", str(CONFIG), "-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    result.assert_outcomes(failed=1, passed=1)
