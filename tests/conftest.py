"""Shared test helpers: a recorder for acceptance-criterion verdict lines
that get replayed in the terminal summary, pass or fail, and the h-halving
ratio of finite-difference residuals (defined in the harness)."""

from cliffmod.harness import median_halving_ratio  # noqa: F401  (re-exported)

_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    _criterion_lines.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
