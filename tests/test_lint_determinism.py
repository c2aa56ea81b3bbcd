"""DET0xx rules: wall clocks, unseeded RNG, set-order iteration."""

import textwrap

from repro.lint.core import get_rule, lint_source
from repro.lint.determinism import WALL_CHANNEL


def _src(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


def _lint(rule_id: str, text: str, rel: str = "src/repro/fixture.py"):
    return lint_source(_src(text), get_rule(rule_id), rel=rel)


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


class TestSetIteration:
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
