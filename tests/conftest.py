import pytest
from hypothesis import settings

# property tests check what they assert, not how fast one example runs: on a
# loaded host a single example can run past hypothesis's default 200 ms
# deadline and fail a test whose property holds.  Examples and max_examples
# stay as each test sets them.
settings.register_profile("mdimlab", deadline=None)
settings.load_profile("mdimlab")


def pytest_configure(config):
    config._acceptance_verdicts = []


@pytest.fixture(scope="session")
def acceptance_verdicts(request):
    """Shared buffer; the terminal summary replays one line per criterion."""
    return request.config._acceptance_verdicts


def pytest_terminal_summary(terminalreporter):
    lines = getattr(terminalreporter.config, "_acceptance_verdicts", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
