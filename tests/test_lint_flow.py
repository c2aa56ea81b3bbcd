"""Interprocedural flow engine: symbol table, call graph, unit flow
(UNIT1xx), incremental cache."""

import pathlib
import textwrap
import time

import pytest

from repro.lint.core import LintProject, get_rule, run_lint
from repro.lint.flow import engine
from repro.lint.flow.graph import Program
from repro.lint.flow.summary import module_name_for, summarize_source

REPO = pathlib.Path(__file__).resolve().parents[1]


def make_project(tmp_path, files: dict[str, str]) -> LintProject:
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text).lstrip("\n"))
    return LintProject(tmp_path)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path):
    # tests control cache placement explicitly; never touch the repo's
    engine.configure(cache=False)
    yield
    engine.configure()
    engine._MEMO.clear()


class TestModuleNames:
    def test_plain_module(self):
        assert module_name_for("src/repro/serving/engine.py") == \
            "repro.serving.engine"

    def test_package_init(self):
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"


class TestCallGraph:
    def test_imported_function_edge(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/a.py": """
                from repro.b import helper

                def caller():
                    return helper()
            """,
            "src/repro/b.py": """
                def helper():
                    return 1
            """,
        })
        program = engine.program_for(project)
        edges = {(c, e.callee) for c in program.edges
                 for e in program.edges[c]}
        assert ("repro.a.caller", "repro.b.helper") in edges

    def test_self_method_and_attr_type_edges(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/m.py": """
                from repro.n import Worker

                class Owner:
                    def __init__(self):
                        self.w = Worker()

                    def go(self):
                        self.step()
                        return self.w.run()

                    def step(self):
                        return 0
            """,
            "src/repro/n.py": """
                class Worker:
                    def run(self):
                        return 1
            """,
        })
        program = engine.program_for(project)
        edges = {(c, e.callee) for c in program.edges
                 for e in program.edges[c]}
        assert ("repro.m.Owner.go", "repro.m.Owner.step") in edges
        assert ("repro.m.Owner.go", "repro.n.Worker.run") in edges

    def test_local_constructor_var_edge(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/m.py": """
                from repro.n import Worker

                def go():
                    w = Worker()
                    return w.run()
            """,
            "src/repro/n.py": """
                class Worker:
                    def run(self):
                        return 1
            """,
        })
        program = engine.program_for(project)
        edges = {(c, e.callee) for c in program.edges
                 for e in program.edges[c]}
        assert ("repro.m.go", "repro.n.Worker.run") in edges

    def test_base_class_method_resolves(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/m.py": """
                from repro.n import Base

                class Child(Base):
                    def go(self):
                        return self.inherited()
            """,
            "src/repro/n.py": """
                class Base:
                    def inherited(self):
                        return 1
            """,
        })
        program = engine.program_for(project)
        edges = {(c, e.callee) for c in program.edges
                 for e in program.edges[c]}
        assert ("repro.m.Child.go", "repro.n.Base.inherited") in edges

    def test_repo_graph_builds(self, repo_lint):
        program = repo_lint.program
        assert program.stats["functions"] > 500
        assert program.stats["edges"] > 1000


def summaries(program: Program) -> dict:
    return {rel: program.files[rel].to_dict() for rel in sorted(program.files)}


def edge_list(program: Program) -> list:
    return sorted((c, e.callee, e.site.line) for c in program.edges
                  for e in program.edges[c])


# a unit mismatch passed across a module boundary (UNIT101)
CROSS_MODULE = {
    "src/repro/perfmodel/costs.py": """
        def scale(latency_s):
            return latency_s * 2.0
    """,
    "src/repro/driver.py": """
        from repro.perfmodel.costs import scale

        def go(buf_bytes):
            return scale(buf_bytes)
    """,
}


class TestUnitFlow:
    def test_arg_unit_mismatch_across_modules(self, tmp_path):
        project = make_project(tmp_path, CROSS_MODULE)
        vs = run_lint(tmp_path, rules=[get_rule("UNIT101")], project=project)
        assert [v.rule for v in vs] == ["UNIT101"]
        assert "latency_s" in vs[0].message and "'bytes'" in vs[0].message

    def test_matching_arg_unit_is_clean(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/perfmodel/costs.py": """
                def scale(latency_s):
                    return latency_s * 2.0

                def go(dur_s):
                    return scale(dur_s)
            """,
        })
        vs = run_lint(tmp_path, rules=[get_rule("UNIT101")], project=project)
        assert vs == []

    def test_return_unit_mix(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/perfmodel/costs.py": """
                def elapsed(dur_s):
                    return dur_s

                def go(n_bytes):
                    return elapsed(1.0) + n_bytes
            """,
        })
        vs = run_lint(tmp_path, rules=[get_rule("UNIT102")], project=project)
        assert [v.rule for v in vs] == ["UNIT102"]
        assert "'s'" in vs[0].message and "'bytes'" in vs[0].message

    def test_return_unit_vs_name_through_delegation(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/perfmodel/costs.py": """
                def raw(dur_us):
                    return dur_us

                def window_s(dur_us):
                    return raw(dur_us)
            """,
        })
        vs = run_lint(tmp_path, rules=[get_rule("UNIT103")], project=project)
        assert [v.rule for v in vs] == ["UNIT103"]
        assert "window_s" in vs[0].message and "'us'" in vs[0].message

    def test_out_of_scope_modules_are_quiet(self, tmp_path):
        # the same mismatch outside perfmodel/hardware: not our beat
        project = make_project(tmp_path, {
            "src/repro/misc.py": """
                def scale(latency_s):
                    return latency_s * 2.0

                def go(buf_bytes):
                    return scale(buf_bytes)
            """,
        })
        for rid in ("UNIT101", "UNIT102", "UNIT103"):
            assert run_lint(tmp_path, rules=[get_rule(rid)],
                            project=project) == []

    def test_recursion_infers_nothing(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/perfmodel/costs.py": """
                def window_s(n):
                    return window_s(n - 1)
            """,
        })
        vs = run_lint(tmp_path, rules=[get_rule("UNIT103")], project=project)
        assert vs == []


class TestIncrementalCache:
    def test_warm_run_hits_and_is_byte_identical(self, tmp_path):
        cache = tmp_path / "flow.json"
        engine.configure(cache=True, cache_path=cache)
        # both projects are parsed outside the timed regions: the timings
        # compare summary extraction against loading the cache, not parsing
        project = LintProject(REPO)
        warm_project = LintProject(REPO)
        n = len(project.files)

        t0 = time.perf_counter()
        cold = engine.program_for(project)
        cold_s = time.perf_counter() - t0
        assert cold.stats["cache_misses"] == n
        assert cache.is_file()

        engine._MEMO.clear()  # force the disk path, not the memo
        t0 = time.perf_counter()
        warm = engine.program_for(warm_project)
        warm_s = time.perf_counter() - t0
        assert warm.stats["cache_hits"] == n
        assert warm.stats["cache_misses"] == 0
        assert summaries(warm) == summaries(cold)
        assert edge_list(warm) == edge_list(cold)
        assert warm_s < cold_s  # summaries load as JSON, no AST walks

    def test_changed_file_invalidates_only_itself(self, tmp_path):
        cache = tmp_path / "flow.json"
        engine.configure(cache=True, cache_path=cache)
        files = {
            "src/repro/a.py": "def f():\n    return 1\n",
            "src/repro/b.py": "def g():\n    return 2\n",
        }
        project = make_project(tmp_path, files)
        engine.program_for(project)
        (tmp_path / "src/repro/a.py").write_text(
            "def f():\n    return 3\n")
        engine._MEMO.clear()
        warm = engine.program_for(LintProject(tmp_path))
        assert warm.stats["cache_hits"] == 1
        assert warm.stats["cache_misses"] == 1

    def test_corrupt_cache_falls_back_to_cold(self, tmp_path):
        cache = tmp_path / "flow.json"
        cache.write_text("{not json")
        engine.configure(cache=True, cache_path=cache)
        project = make_project(tmp_path, {
            "src/repro/a.py": "def f():\n    return 1\n"})
        program = engine.program_for(project)
        assert program.stats["cache_misses"] == 1

    def test_env_var_disables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LINT_NO_CACHE", "1")
        engine.configure(cache=True, cache_path=tmp_path / "flow.json")
        project = make_project(tmp_path, {
            "src/repro/a.py": "def f():\n    return 1\n"})
        engine.program_for(project)
        assert not (tmp_path / "flow.json").exists()


class TestSummaries:
    def test_summary_round_trips_through_json(self, tmp_path):
        import json
        project = make_project(tmp_path, CROSS_MODULE)
        sf = project.file("src/repro/driver.py")
        summary = summarize_source(sf, "sha")
        restored = type(summary).from_dict(
            json.loads(json.dumps(summary.to_dict())))
        assert restored.to_dict() == summary.to_dict()

    def test_program_from_restored_summaries_matches(self, tmp_path):
        import json
        project = make_project(tmp_path, CROSS_MODULE)
        raw = {sf.rel: summarize_source(sf, "sha") for sf in project.files}
        restored = {
            rel: type(s).from_dict(json.loads(json.dumps(s.to_dict())))
            for rel, s in raw.items()
        }
        assert summaries(Program(restored)) == summaries(Program(raw))
        assert edge_list(Program(restored)) == edge_list(Program(raw))
        assert ("repro.driver.go", "repro.perfmodel.costs.scale", 4) in \
            edge_list(Program(raw))
