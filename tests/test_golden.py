"""Golden corpus: fixed CLI invocations reproduce their recorded bytes."""

import difflib

from golden import regenerate

# Lines of unified diff shown for the first stream that moved.
DIFF_LINES = 40


def stream_diff(case: str, recorded: dict[str, str], produced: dict[str, str]) -> str:
    """Unified diff, recorded against produced, of the first stream of a case that moved."""
    stream = next(s for s in regenerate.STREAMS if recorded.get(s) != produced.get(s))
    lines = list(
        difflib.unified_diff(
            recorded.get(stream, "").splitlines(),
            produced.get(stream, "").splitlines(),
            f"expected/{case}.{stream}",
            f"this run's {case}.{stream}",
            lineterm="",
        )
    )
    if len(lines) > DIFF_LINES:
        lines = lines[:DIFF_LINES] + [f"... {len(lines) - DIFF_LINES} more diff lines"]
    return "\n".join(lines)


def test_golden_cli_corpus() -> None:
    runs = {
        case: (regenerate.expected(case), regenerate.run_case(argv))
        for case, argv in regenerate.CASES.items()
    }
    moved = [case for case, (recorded, produced) in runs.items() if recorded != produced]
    assert not moved, (
        f"CLI output differs from tests/golden/expected/ for {moved}; the corpus was "
        f"written with {regenerate.VERSIONS.read_text(encoding='utf-8')!r} and this run "
        f"has {regenerate.versions()!r}. First stream that moved:\n"
        + stream_diff(moved[0], *runs[moved[0]])
    )
