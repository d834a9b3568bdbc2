"""`repro tag` and `repro validate`: the serving path end to end."""

import io

import pytest

from repro.cli import main

BAD_CORPUS = """\
the\tO
Kavox\tB-0

justonetoken

Zuqev\tS-1

visited\tO
Xilor\tI-0

today\tO
reports\tO
"""


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A tiny trained checkpoint shared by every tag test."""
    path = str(tmp_path_factory.mktemp("ckpt") / "model.npz")
    code = main([
        "train", "--dataset", "OntoNotes", "--scale", "0.02",
        "--method", "FewNER", "--n-way", "3", "--iterations", "1",
        "--pretrain-iterations", "1", "--holdout-types", "3", path,
    ])
    assert code == 0
    return path


@pytest.fixture
def bad_corpus(tmp_path):
    path = tmp_path / "bad.conll"
    path.write_text(BAD_CORPUS)
    return str(path)


class TestValidate:
    def test_lenient_reports_all_defects_nonzero_exit(self, bad_corpus,
                                                      capsys):
        assert main(["validate", bad_corpus]) == 1
        out = capsys.readouterr().out
        for line in (4, 6, 9):
            assert f"{bad_corpus}:{line}:" in out
        assert "2 clean sentence(s), 3 quarantined, 3 defect(s)" in out

    def test_strict_aggregates_into_one_error(self, bad_corpus, capsys):
        assert main(["validate", "--strict", bad_corpus]) == 1
        err = capsys.readouterr().err
        assert "3 defect(s)" in err
        for line in (4, 6, 9):
            assert f"{bad_corpus}:{line}:" in err

    def test_clean_corpus_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.conll"
        path.write_text("a\tB-X\nb\tI-X\n\nc\tO\n")
        assert main(["validate", str(path)]) == 0
        assert "0 quarantined, 0 defect(s)" in capsys.readouterr().out
        assert main(["validate", "--strict", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/nonexistent/x.conll"]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestTag:
    def test_missing_checkpoint_is_a_clean_error(self, capsys):
        assert main(["tag", "/nonexistent/model.npz"]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_stdin_to_spans(self, checkpoint, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("the market fell\n\nprices rose\n")
        )
        assert main(["tag", checkpoint]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 2  # blank input line skipped
        assert "served 2 request(s)" in captured.err
        assert "breaker closed" in captured.err

    def test_file_input_with_deadline(self, checkpoint, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("the market fell\n")
        code = main(["tag", "--input", str(src),
                     "--deadline-ms", "60000", checkpoint])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_conll_lenient_quarantines_and_tags_the_rest(
            self, checkpoint, bad_corpus, capsys):
        code = main(["tag", "--conll", "--input", bad_corpus, checkpoint])
        assert code == 0  # lenient mode: skipped, not fatal
        captured = capsys.readouterr()
        # The two clean sentences were tagged...
        assert len(captured.out.strip().splitlines()) == 2
        # ...and the quarantine report names every defect.
        for line in (4, 6, 9):
            assert f"{bad_corpus}:{line}:" in captured.err
        assert "3 quarantined" in captured.err

    def test_conll_strict_is_fatal_on_first_defect(self, checkpoint,
                                                   bad_corpus, capsys):
        code = main(["tag", "--conll", "--strict", "--input", bad_corpus,
                     checkpoint])
        assert code == 1
        assert f"{bad_corpus}:4:" in capsys.readouterr().err

    def test_strict_fails_on_invalid_request(self, checkpoint, capsys,
                                             monkeypatch):
        # A 600-token line breaches the sanitizer cap: lenient serving
        # skips it (exit 0), --strict refuses to report success.
        text = "ok fine\n" + " ".join(["w"] * 600) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["tag", checkpoint]) == 0
        captured = capsys.readouterr()
        assert "# invalid:" in captured.out
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["tag", checkpoint, "--strict"]) == 1
        capsys.readouterr()

    def test_garbage_tokens_are_flagged_not_fatal(self, checkpoint, capsys,
                                                  monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("caf\xe9 ab\x7fc\n"))
        assert main(["tag", checkpoint]) == 0
        captured = capsys.readouterr()
        assert "input sanitized" in captured.out
        assert "served 1 request(s)" in captured.err


def _lines(n):
    words = ("the", "market", "fell", "prices", "rose", "again")
    return "".join(f"{words[i % 6]} {words[(i + 1) % 6]} line{i}\n"
                   for i in range(n))


class TestNoSilentShedding:
    """Both CLIs answer every input line, however long the file is
    relative to the admission bound."""

    def test_tag_answers_past_max_pending(self, checkpoint, tmp_path,
                                          capsys):
        src = tmp_path / "in.txt"
        src.write_text(_lines(100))  # > the default max_pending of 64
        assert main(["tag", "--input", str(src), checkpoint]) == 0
        captured = capsys.readouterr()
        out = captured.out.strip().splitlines()
        assert len(out) == 100
        assert all(f"line{i}" in line for i, line in enumerate(out))
        assert "served 100 request(s)" in captured.err
        assert "0 shed" in captured.err

    @pytest.mark.parametrize("n_lines, flags", [
        (300, []),  # > the default 3 x 64 fleet capacity
        (10, ["--replicas", "1", "--max-shard-queue", "4"]),
    ])
    def test_serve_answers_past_shard_bounds(self, checkpoint, tmp_path,
                                             capsys, n_lines, flags):
        src = tmp_path / "in.txt"
        src.write_text(_lines(n_lines))
        code = main(["serve", checkpoint, "--input", str(src),
                     "--backend", "in-process", "--strict", *flags])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == n_lines
        assert all(f"line{i}" in line for i, line in enumerate(out))
