"""DET0xx rules: wall clocks, unseeded RNG, set-order iteration.

A source is flagged where it happens, however many helper calls carry
its value toward a digest: the laundered plants below fail at their
source line whether or not anything reaches them.
"""

import textwrap

import pytest

from repro.lint.core import LintProject, get_rule, lint_source, run_lint
from repro.lint.determinism import WALL_CHANNEL


def _src(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


def _lint(rule_id: str, text: str, rel: str = "src/repro/fixture.py"):
    return lint_source(_src(text), get_rule(rule_id), rel=rel)


def _lint_files(tmp_path, rule_id: str, files: dict[str, str]):
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(_src(text))
    return run_lint(tmp_path, rules=[get_rule(rule_id)],
                    project=LintProject(tmp_path))


# a wall read laundered through TWO helpers in separate modules before
# reaching a fleet digest (the worked example of docs/lint.md)
LAUNDERED = {
    "src/repro/fleet/invariants.py": """
        from repro.util_a import stamp_a

        def fleet_digest():
            return stamp_a()
    """,
    "src/repro/util_a.py": """
        from repro.util_b import stamp_b

        def stamp_a():
            return stamp_b() + 1.0
    """,
    "src/repro/util_b.py": """
        import time

        def stamp_b():
            return time.time()
    """,
}

_SCENARIO_BODY = """
    import time

    def chaos(fault_seed=0):
        rows = [repr((fault_seed, time.time()))]
        return rows[0], rows
"""

WALL_PLANTS = [
    pytest.param(LAUNDERED, "src/repro/util_b.py", 4, id="three-module"),
    pytest.param({**LAUNDERED, "src/repro/fleet/invariants.py": """
        def fleet_digest():
            return 0.0
    """}, "src/repro/util_b.py", 4, id="unreached"),
    pytest.param({
        "src/repro/exp.py": """
            from repro.core.registry import experiment
            from repro.util_b import stamp_b

            @experiment("fig99")
            def run():
                return stamp_b()
        """,
        "src/repro/util_b.py": LAUNDERED["src/repro/util_b.py"],
    }, "src/repro/util_b.py", 4, id="experiment"),
    pytest.param({"src/repro/scenarios.py": _SCENARIO_BODY},
                 "src/repro/scenarios.py", 4, id="scenario-body"),
    pytest.param({"src/repro/unregistered.py": _SCENARIO_BODY},
                 "src/repro/unregistered.py", 4, id="unregistered-body"),
]


class TestWallClock:
    def test_flags_time_and_datetime_calls(self):
        vs = _lint("DET001", """
            import time
            import datetime

            def f():
                a = time.time()
                b = time.perf_counter()
                c = datetime.datetime.now()
                return a + b + c.timestamp()
        """)
        assert len(vs) == 3
        assert {v.line for v in vs} == {5, 6, 7}

    def test_import_alias_resolved(self):
        vs = _lint("DET001", """
            from time import perf_counter as clock

            def f():
                return clock()
        """)
        assert len(vs) == 1

    def test_simulated_clock_not_flagged(self):
        assert _lint("DET001", """
            def f(clock):
                return clock.now()
        """) == []

    def test_wall_channel_excluded(self):
        text = """
            import time

            def f():
                return time.perf_counter()
        """
        for rel in WALL_CHANNEL:
            assert _lint("DET001", text, rel=rel) == []
        assert _lint("DET001", text, rel="src/repro/serving/engine.py")

    def test_message_names_the_wall_channel(self):
        (v,) = _lint("DET001", """
            import time

            def f():
                return time.perf_counter()
        """)
        assert v.message.endswith(
            "(wall channel is allowlisted: "
            "obs.trace / obs.regress / core.experiment)")

    @pytest.mark.parametrize("files, path, line", WALL_PLANTS)
    def test_laundered_read_fails_at_its_source_line(self, tmp_path, files,
                                                     path, line):
        (v,) = _lint_files(tmp_path, "DET001", files)
        assert (v.path, v.line) == (path, line)
        assert "time.time" in v.snippet


class TestUnseededRng:
    def test_flags_unseeded_and_legacy(self):
        vs = _lint("DET002", """
            import numpy as np
            import random

            a = np.random.default_rng()
            b = np.random.rand(3)
            c = random.random()
            d = random.Random()
        """)
        assert len(vs) == 4

    def test_seeded_rng_clean(self):
        assert _lint("DET002", """
            import numpy as np
            import random

            a = np.random.default_rng(123)
            b = np.random.default_rng(seed=0)
            c = random.Random(7)
        """) == []

    def test_instance_methods_not_flagged(self):
        # rng.random() is a method on a seeded generator, not the global
        assert _lint("DET002", """
            import numpy as np

            rng = np.random.default_rng(0)
            x = rng.random()
            y = rng.exponential(2.0)
        """) == []

    def test_laundered_rng_fails_at_its_source_line(self, tmp_path):
        (v,) = _lint_files(tmp_path, "DET002", {
            "src/repro/fleet/invariants.py": """
                from repro.util_c import jitter

                def fleet_digest():
                    return jitter()
            """,
            "src/repro/util_c.py": """
                import random

                def jitter():
                    return random.random()
            """,
        })
        assert (v.path, v.line) == ("src/repro/util_c.py", 4)


class TestSetIteration:
    def test_laundered_set_order_fails_at_its_source_line(self, tmp_path):
        (v,) = _lint_files(tmp_path, "DET003", {
            "src/repro/fleet/invariants.py": """
                from repro.util_d import total

                def fleet_digest():
                    return total()
            """,
            "src/repro/util_d.py": """
                def total():
                    acc = 0
                    for x in {1, 2, 3}:
                        acc += x
                    return acc
            """,
        })
        assert (v.path, v.line) == ("src/repro/util_d.py", 3)

    def test_flags_for_over_set_display(self):
        vs = _lint("DET003", """
            def f(rows):
                combos = {(r.a, r.b) for r in rows}
                for c in combos:
                    print(c)
        """)
        assert len(vs) == 1

    def test_flags_materializers_and_comprehensions(self):
        vs = _lint("DET003", """
            def f(xs):
                s = set(xs)
                out = [x for x in s]
                return list(s), tuple(s), out
        """)
        assert len(vs) == 3

    def test_sorted_set_is_clean(self):
        assert _lint("DET003", """
            def f(rows):
                combos = {(r.a, r.b) for r in rows}
                for c in sorted(combos):
                    print(c)
                return sorted(set(rows))
        """) == []

    def test_list_iteration_clean(self):
        assert _lint("DET003", """
            def f(xs):
                items = [x for x in xs]
                for x in items:
                    print(x)
        """) == []

    def test_annotated_set_name_tracked(self):
        vs = _lint("DET003", """
            def f():
                pending: set[int] = set()
                for p in pending:
                    print(p)
        """)
        assert len(vs) >= 1
