"""Golden corpus: fixed CLI invocations reproduce their recorded bytes."""

from golden import regenerate


def test_golden_cli_corpus() -> None:
    moved = [
        case
        for case, argv in regenerate.CASES.items()
        if regenerate.run_case(argv) != regenerate.expected(case)
    ]
    assert not moved, (
        f"CLI output differs from tests/golden/expected/ for {moved}; the corpus was "
        f"written with {regenerate.VERSIONS.read_text(encoding='utf-8')!r} and this run "
        f"has {regenerate.versions()!r}"
    )
