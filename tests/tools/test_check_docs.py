"""``tools/check_docs.py`` check 6: a back-ticked file path in the docs
must name a file, so a deletion cannot leave references behind."""

from . import load_tool

check_docs = load_tool("check_docs")


def test_back_ticked_paths_must_exist(tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "src" / "repro" / "kept.py").write_text("")
    (tmp_path / "benchmarks" / "test_kept.py").write_text("")
    (tmp_path / "README.md").write_text(
        "`benchmarks/test_kept.py::test_x`, `repro/kept.py`, `test_kept.py`, "
        "`README.md` and a glob `benchmarks/test_*.py` are fine.\n"
        "```\nnet.write_trace(\"fenced/never_checked.json\")\n```\n"
        "`benchmarks/gone.py` and `GONE.json` are not.\n"
    )
    (tmp_path / "EXPERIMENTS.md").write_text("`gone_too.yml`\n")
    (tmp_path / "ROADMAP.md").write_text("`benchmarks/planned.py` is exempt\n")

    assert check_docs.check_file_paths(tmp_path) == [
        "README.md: `GONE.json` names no file in the repo",
        "README.md: `benchmarks/gone.py` names no file in the repo",
        "EXPERIMENTS.md: `gone_too.yml` names no file in the repo",
    ]


def test_this_repository_passes():
    assert check_docs.check_file_paths(check_docs.REPO_ROOT) == []
