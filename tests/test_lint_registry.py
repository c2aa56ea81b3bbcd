"""REG0xx rules: experiments <-> baselines <-> docs <-> CLI drift."""

import pathlib
import textwrap

from repro.lint.core import LintProject, get_rule
from repro.lint.registry import bench_baseline_ids, registered_experiment_ids

REPO = pathlib.Path(__file__).resolve().parents[1]

_CLI = '''
"""Usage:

    repro bench [--check]
    repro lint [--check]
"""


def build_parser(sub):
    sub.add_parser("bench")
    sub.add_parser("lint")
'''


def _project(tmp_path, *, experiments=("figx",), baselines=("figx",),
             documented=("figx",), cli: str = _CLI) -> LintProject:
    exp_dir = tmp_path / "src/repro/experiments"
    exp_dir.mkdir(parents=True)
    for i, exp_id in enumerate(experiments):
        (exp_dir / f"exp{i}.py").write_text(textwrap.dedent(f"""
            @experiment("{exp_id}")
            def run():
                pass
        """))
    for bid in baselines:
        (tmp_path / f"BENCH_{bid}.json").write_text("{}\n")
    (tmp_path / "EXPERIMENTS.md").write_text(
        "| id | verdict |\n|---|---|\n"
        + "".join(f"| {d} | reproduced |\n" for d in documented))
    cli_path = tmp_path / "src/repro/core/cli.py"
    cli_path.parent.mkdir(parents=True)
    cli_path.write_text(cli)
    return LintProject(tmp_path)


class _Recording(list):
    """A node list that notes each iteration over it."""

    def __init__(self, nodes, walked: list) -> None:
        super().__init__(nodes)
        self._walked = walked

    def __iter__(self):
        self._walked.append(self)
        return super().__iter__()


def _run(rule_id: str, project: LintProject):
    return list(get_rule(rule_id).run(project))


class TestParsers:
    def test_decorators_parsed_statically(self, tmp_path):
        project = _project(tmp_path, experiments=("figx", "figy"),
                           baselines=("figx", "figy"),
                           documented=("figx", "figy"))
        ids = registered_experiment_ids(project)
        assert set(ids) == {"figx", "figy"}
        path, line = ids["figx"]
        assert path.startswith("src/repro/experiments/")

    def test_registry_scanned_once_per_project(self, tmp_path, monkeypatch):
        project = _project(tmp_path, experiments=("figx",),
                           baselines=("figx",), documented=("figx",))
        walked: list = []
        for sf in project.files:
            if sf.rel.startswith("src/repro/experiments/"):
                monkeypatch.setattr(sf, "nodes", _Recording(sf.nodes, walked))
        for rule_id in ("REG001", "REG002", "REG003", "REG005"):
            _run(rule_id, project)
        assert registered_experiment_ids(project) is \
            registered_experiment_ids(project)
        assert len(walked) == 1  # one experiments file, walked once

    def test_bench_files_globbed(self, tmp_path):
        project = _project(tmp_path, baselines=("figx", "ghost"))
        assert set(bench_baseline_ids(project)) == {"figx", "ghost"}


class TestBaselineCoverage:
    def test_clean_when_every_experiment_has_a_baseline(self, tmp_path):
        assert _run("REG001", _project(tmp_path)) == []

    def test_missing_baseline_flagged(self, tmp_path):
        vs = _run("REG001", _project(tmp_path, baselines=()))
        assert len(vs) == 1
        assert "BENCH_figx.json" in vs[0].message
        assert "--record" in vs[0].message


class TestStaleBaseline:
    def test_stale_bench_file_flagged(self, tmp_path):
        vs = _run("REG002", _project(tmp_path, baselines=("figx", "ghost")))
        assert len(vs) == 1
        assert vs[0].path == "BENCH_ghost.json"


class TestExperimentsDoc:
    def test_undocumented_experiment_flagged(self, tmp_path):
        vs = _run("REG003", _project(tmp_path, documented=()))
        assert len(vs) == 1
        assert "EXPERIMENTS.md" in vs[0].message

    def test_word_boundary_match(self, tmp_path):
        # "figx10" in the doc must not satisfy experiment "figx"
        vs = _run("REG003", _project(tmp_path, documented=("figx10",)))
        assert len(vs) == 1

    def test_missing_doc_file_flagged(self, tmp_path):
        project = _project(tmp_path)
        (tmp_path / "EXPERIMENTS.md").unlink()
        vs = _run("REG003", project)
        assert any("missing" in v.message for v in vs)


class TestCliDoc:
    def test_documented_subcommands_clean(self, tmp_path):
        assert _run("REG004", _project(tmp_path)) == []

    def test_undocumented_subcommand_flagged(self, tmp_path):
        cli = _CLI.replace('    repro lint [--check]\n', '')
        vs = _run("REG004", _project(tmp_path, cli=cli))
        assert len(vs) == 1
        assert "'lint'" in vs[0].message


class TestFamilyDoc:
    """REG005: every registered id with a FAMILY_DOCS prefix must appear
    in the family's dedicated doc (drift fixtures use the real
    ``ext_fleet`` mapping)."""

    def _fleet_project(self, tmp_path, *, doc: str | None,
                       experiments=("ext_fleet_capacity",)) -> LintProject:
        project = _project(tmp_path, experiments=experiments,
                           baselines=experiments, documented=experiments)
        if doc is not None:
            docs = tmp_path / "docs"
            docs.mkdir()
            (docs / "fleet.md").write_text(doc)
        return project

    def test_clean_when_doc_names_every_family_member(self, tmp_path):
        project = self._fleet_project(
            tmp_path, doc="| ext_fleet_capacity | scaling |\n")
        assert _run("REG005", project) == []

    def test_family_member_missing_from_doc_flagged(self, tmp_path):
        project = self._fleet_project(
            tmp_path, doc="all about fleets\n",
            experiments=("ext_fleet_capacity", "ext_fleet_policy"))
        vs = _run("REG005", project)
        assert len(vs) == 2
        assert all("docs/fleet.md" in v.message for v in vs)

    def test_missing_doc_file_flagged_once(self, tmp_path):
        project = self._fleet_project(tmp_path, doc=None)
        vs = _run("REG005", project)
        assert len(vs) == 1
        assert "missing" in vs[0].message

    def test_no_family_members_no_doc_needed(self, tmp_path):
        # a repo without ext_fleet experiments owes no docs/fleet.md
        assert _run("REG005", _project(tmp_path)) == []

    def test_word_boundary_match(self, tmp_path):
        # "ext_fleet_capacity2" must not satisfy "ext_fleet_capacity"
        project = self._fleet_project(
            tmp_path, doc="| ext_fleet_capacity2 | nope |\n")
        assert len(_run("REG005", project)) == 1


class TestRepoIsDriftFree:
    def test_real_registry_clean(self):
        project = LintProject(REPO)
        for rule_id in ("REG001", "REG002", "REG003", "REG004", "REG005"):
            assert _run(rule_id, project) == [], rule_id

    def test_real_repo_has_experiments_and_baselines(self):
        project = LintProject(REPO)
        ids = registered_experiment_ids(project)
        baselines = bench_baseline_ids(project)
        assert len(ids) >= 20
        assert set(ids) <= set(baselines)
